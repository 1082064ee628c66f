"""The numpy-free scalar kernel value: its enclosure, its rounding argument,
and the one gamma table that the array layers share."""

import importlib
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from bbesov import kernelcore as kc
from bbesov import series

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _closed_form_n2(alpha, x, y):
    """R_alpha for n = 2 at 40 digits: 2 Re (1 - z conj(w))^-(2 + alpha) - 1,
    with z, w the points as complex numbers (gamma_k = (2 + alpha)_k / k!)."""
    with mpmath.workdps(40):
        z = mpmath.mpc(x[0], x[1])
        w = mpmath.mpc(y[0], y[1])
        return 2 * mpmath.re((1 - z * mpmath.conj(w)) ** (-(2 + alpha))) - 1


def _error(kv, exact):
    with mpmath.workdps(40):
        return abs(mpmath.mpf(kv.value) - exact)


def _polar(r, t):
    return (r * math.cos(t), r * math.sin(t))


@pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 3.0])
def test_value_within_both_bounds_of_closed_form(alpha):
    for r1, r2 in ((0.3, 0.5), (0.9, 0.9), (0.97, 0.99), (0.99, 0.999), (0.99, 1 - 1e-9)):
        for t1, t2 in ((0.0, 0.0), (0.3, 0.3), (1.0, -2.0), (0.25, 0.25 + math.pi),
                       (2.0, 2.001)):
            x, y = _polar(r1, t1), _polar(r2, t2)
            kv = series.kernel_eval(2, alpha, x, y, tol=1e-12)
            assert kv.truncation_bound <= 1e-12
            assert 0.0 < kv.rounding_bound <= 1e-15 * max(1.0, abs(kv.value))
            err = _error(kv, _closed_form_n2(alpha, x, y))
            assert err <= kv.truncation_bound + kv.rounding_bound


def _perfbench_pairs(seeds, directory):
    """The kernel eval point pairs of perfbench's kernel-scans workload."""
    sys.path.insert(0, PERFBENCH)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    for seed in seeds:
        sub = os.path.join(directory, str(seed))  # fresh files are cheap to write
        os.mkdir(sub)
        yield from workloads.make_inputs(seed, sub).pairs


def test_perfbench_pairs_within_truncation_bound(tmp_path):
    # the benchmark checks |value - exact| <= truncation_bound alone; before
    # the decimal sum 16 of the 1,200 pairs of seeds 1-300 missed it
    pairs = list(_perfbench_pairs(range(1, 2001), str(tmp_path)))
    assert len(pairs) == 8000
    for x, y in pairs:
        kv = series.kernel_eval(2, 0.0, x, y, tol=1e-12)
        err = _error(kv, _closed_form_n2(0.0, x, y))
        assert err <= kv.truncation_bound, (x, y)


@pytest.mark.parametrize("n", range(2, 9))
def test_recurrence_error_propagation_bound(n):
    # kernel_eval's rounding argument: a unit error at degree j of the zonal
    # recurrence (S_{j-1}, S_j) = (0, 1) reaches degree k as a solution of
    # modulus <= (k - j + 1) h_k / h_j for every t = cos theta in [-1, 1]
    nu = (n - 2) / 2.0
    t = np.cos(np.linspace(0.0, np.pi, 401))
    h = [series.dim_harmonics(n, k) for k in range(601)]
    for j in list(range(1, 40)) + list(range(40, 600, 37)):
        prev, cur = np.zeros_like(t), np.ones_like(t)
        for k in range(j + 1, 601):
            ck = 2.0 if k == 2 else (k + 2.0 * nu - 2.0) / (k + nu - 2.0)
            prev, cur = cur, ((k + nu) / k) * (2.0 * t * cur - ck * prev)
            assert np.abs(cur).max() <= (k - j + 1) * h[k] / h[j] * (1 + 1e-12), (j, k)


def test_step_magnitude_bound():
    # and each step's operands stay within 3 h_k: A_k (2 h_{k-1} + c_k h_{k-2}) <= 3 h_k
    for n in range(2, 30):
        nu = (n - 2) / 2.0
        h = [series.dim_harmonics(n, k) for k in range(3001)]
        for k in range(2, 3001):
            ck = 2.0 if k == 2 else (k + 2.0 * nu - 2.0) / (k + nu - 2.0)
            assert (k + nu) / k * (2 * h[k - 1] + ck * h[k - 2]) <= 3 * h[k] * (1 + 1e-15)


def _cumprod_table(n, alpha, kmax):
    """gamma_0 .. gamma_kmax as numpy's cumprod of the ratio array."""
    half, k = n / 2.0, np.arange(kmax, dtype=np.float64)
    if alpha > -(1.0 + half):
        ratios = (1.0 + half + alpha + k) / (half + k)
    else:
        ratios = (k + 1.0) ** 2 / ((1.0 - (half + alpha) + k) * (half + k))
    return np.cumprod(np.concatenate(([1.0], ratios)))


def test_gamma_coeffs_is_the_series_table(monkeypatch):
    # one table: kc.gamma_coeffs views series.gamma_table, and the
    # Python-float fill equals numpy's cumprod bit for bit, on both branches
    monkeypatch.setattr(series, "_gamma_cache", {})
    for n in (2, 3, 4, 5, 7):
        for alpha in (-9.5, -4.25, -3.0, -1.0, 0.0, 0.75, 3.0, 10.0):
            for kmax in (0, 1, 63, 64, 1000, 20000):  # grows the cached table
                got = kc.gamma_coeffs(n, alpha, kmax)
                assert got.tobytes() == _cumprod_table(n, alpha, kmax).tobytes()
                assert got.tobytes() == series.gamma_table(n, alpha, kmax)[:kmax + 1].tobytes()
                assert not got.flags.writeable
