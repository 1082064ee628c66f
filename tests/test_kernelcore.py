import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbesov import calculus as ca
from bbesov import kernelcore as kc
from bbesov import series
from bbesov.kernelcore import zonal_series as zonal_py
from bbesov.errors import TruncationError


def lgamma_gamma_k(n, alpha, k):
    lg = math.lgamma
    h = n / 2.0
    if alpha > -(1.0 + h):
        return math.exp(lg(1 + h + alpha + k) + lg(h)
                        - lg(1 + h + alpha) - lg(h + k))
    b = 1.0 - (h + alpha)
    return math.exp(2 * lg(k + 1) - (lg(b + k) - lg(b)) - (lg(h + k) - lg(h)))


def test_pochhammer_basic():
    assert kc.pochhammer(3.0, 0) == 1.0
    assert kc.pochhammer(3.0, 3) == 3 * 4 * 5
    assert kc.pochhammer(-2.5, 2) == (-2.5) * (-1.5)


def test_dim_harmonics_small():
    # n=2: 1, 2, 2, ...; n=3: 2k+1
    assert [kc.dim_harmonics(2, k) for k in range(4)] == [1, 2, 2, 2]
    assert [kc.dim_harmonics(3, k) for k in range(5)] == [1, 3, 5, 7, 9]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha", [-4.0, -2.5, -1.0, 0.0, 1.3, 6.0])
def test_gamma_matches_lgamma_form(n, alpha):
    g = kc.gamma_coeffs(n, alpha, 40)
    for k in (0, 1, 2, 5, 17, 40):
        exact = lgamma_gamma_k(n, alpha, k)
        assert g[k] == pytest.approx(exact, rel=1e-12)


def test_gamma_zero_index_is_one():
    for n in (2, 3, 5):
        for alpha in np.linspace(-5, 5, 21):
            assert kc.gamma_coeffs(n, float(alpha), 0)[0] == 1.0


def test_gamma_coeffs_read_only():
    # the arrays are views of a process-wide cache: writes must raise
    g = kc.gamma_coeffs(2, 0.75, 12)
    with pytest.raises(ValueError):
        g[3] = 0.0
    with pytest.raises(ValueError):
        g *= 2.0
    expect = lgamma_gamma_k(2, 0.75, 3)
    assert kc.gamma_coeffs(2, 0.75, 12)[3] == pytest.approx(expect, rel=1e-12)


def test_gamma_cache_bounded_oldest_first(monkeypatch):
    monkeypatch.setattr(series, "_gamma_cache", {})
    first = kc.gamma_coeffs(3, 0.123, 100).copy()
    for i in range(2000):
        kc.gamma_coeffs(3, 1.0 + i / 2000.0, 10)
    assert len(series._gamma_cache) <= 1024
    assert (3, 0.123) not in series._gamma_cache
    again = kc.gamma_coeffs(3, 0.123, 100)
    assert not again.flags.writeable
    assert again.tobytes() == first.tobytes()


def _gamma_loop(n, alpha, size):
    """gamma_0 .. gamma_{size-1} filled term by term in Python floats."""
    half, out = n / 2.0, [1.0]
    for k in range(size - 1):
        if alpha > -(1.0 + half):
            ratio = (1.0 + half + alpha + k) / (half + k)
        else:
            ratio = (k + 1.0) ** 2 / ((1.0 - (half + alpha) + k) * (half + k))
        out.append(out[-1] * ratio)
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.75, -4.25])  # one per branch
def test_gamma_array_bit_equal_to_loop(monkeypatch, n, alpha):
    monkeypatch.setattr(series, "_gamma_cache", {})
    fresh = kc._gamma_array(n, alpha, 100)
    assert np.array_equal(fresh, _gamma_loop(n, alpha, fresh.size))
    grown = kc._gamma_array(n, alpha, 1000)  # extends the cached table
    assert grown.size > fresh.size
    assert np.array_equal(grown, _gamma_loop(n, alpha, grown.size))


def test_gamma_growth_exponent():
    # gamma_k ~ k^(1+alpha) on both branches
    for n, alpha in ((2, 1.5), (3, -3.0)):
        g = kc.gamma_coeffs(n, alpha, 20000)
        slope = (math.log(g[20000] / g[2000])) / math.log(10.0)
        assert slope == pytest.approx(1 + alpha, abs=0.01)


def test_v_alpha_values():
    assert kc.v_alpha(2, 0.0) == pytest.approx(1.0)
    assert kc.v_alpha(2, 1.0) == pytest.approx(0.5)
    assert kc.v_alpha(3, 0.0) == pytest.approx(1.0)
    # alpha <= -1: conventional value 1
    assert kc.v_alpha(2, -1.0) == 1.0
    assert kc.v_alpha(3, -2.0) == 1.0


def test_zonal_degree_one_and_diagonal():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        x = rng.uniform(-0.5, 0.5, n)
        y = rng.uniform(-0.5, 0.5, n)
        assert kc.zonal(n, 1, x, y) == pytest.approx(n * float(x @ y), rel=1e-13)
    # |Z_k(x,y)| <= h_k |x|^k |y|^k with equality on the diagonal direction
    for n in (2, 3):
        for k in (2, 5, 9):
            h = kc.dim_harmonics(n, k)
            e = np.zeros(n)
            e[0] = 0.7
            assert kc.zonal(n, k, e, e) == pytest.approx(h * 0.7 ** (2 * k),
                                                         rel=1e-12)


def test_zonal_chebyshev_oracle_n2():
    # n=2: Z_k(x,y) = 2 r^k s^k cos(k theta)
    rng = np.random.default_rng(2)
    for _ in range(20):
        r, s = rng.uniform(0.1, 0.95, 2)
        a, b = rng.uniform(0, 2 * np.pi, 2)
        x = r * np.array([np.cos(a), np.sin(a)])
        y = s * np.array([np.cos(b), np.sin(b)])
        for k in (1, 3, 8):
            expect = 2.0 * r**k * s**k * np.cos(k * (a - b))
            assert kc.zonal(2, k, x, y) == pytest.approx(expect, abs=1e-12)
    # zonal_table at unit vectors: Z_k(t) = 2 cos(k theta), Z_0 = 1
    theta = np.linspace(0.0, np.pi, 25)
    T = np.concatenate([T for _, T in ca.zonal_table(2, np.cos(theta), 40, 7)])
    expect = 2.0 * np.cos(np.outer(np.arange(41), theta))
    expect[0] = 1.0
    assert np.abs(T - expect).max() <= 1e-12


def test_zonal_legendre_oracle_n3():
    from scipy.special import eval_legendre
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        x *= rng.uniform(0.2, 0.9) / np.linalg.norm(x)
        y *= rng.uniform(0.2, 0.9) / np.linalg.norm(y)
        r, s = np.linalg.norm(x), np.linalg.norm(y)
        t = float(x @ y) / (r * s)
        for k in (2, 5):
            expect = (2 * k + 1) * r**k * s**k * eval_legendre(k, t)
            assert kc.zonal(3, k, x, y) == pytest.approx(expect, rel=1e-11,
                                                         abs=1e-12)
    # zonal_table at unit vectors: Z_k(t) = (2k + 1) P_k(t)
    t = np.cos(np.linspace(0.0, np.pi, 25))
    T = np.concatenate([T for _, T in ca.zonal_table(3, t, 40, 7)])
    for k in range(41):
        expect = (2 * k + 1) * eval_legendre(k, t)
        assert np.abs(T[k] - expect).max() <= 1e-12 * (2 * k + 1)


@pytest.mark.parametrize("n", [4, 5])
def test_zonal_gegenbauer_oracle(n):
    # Z_k(x,y) = (|x||y|)^k ((k + nu)/nu) C_k^nu(t), nu = (n-2)/2, with the
    # Gegenbauer polynomial from mpmath, for zonal_series and zonal_table
    import mpmath

    nu = (n - 2) / 2.0

    def oracle(k, t):
        return float((k + nu) / nu * mpmath.gegenbauer(k, nu, t))

    rng = np.random.default_rng(n)
    X = rng.normal(size=(20, n))
    Y = rng.normal(size=(20, n))
    X *= rng.uniform(0.2, 0.9, (20, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    Y *= rng.uniform(0.2, 0.9, (20, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
    rs = np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
    w = np.einsum("ij,ij->i", X, Y)
    for k in (0, 1, 2, 5, 12):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        got = kc.zonal_series(coeffs, nu, w, rs**2)
        expect = [q**k * oracle(k, wi / q) for wi, q in zip(w, rs)]
        np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-12)
    t = np.cos(np.linspace(0.0, np.pi, 25))
    T = np.concatenate([T for _, T in ca.zonal_table(n, t, 40, 7)])
    for k in range(41):
        expect = [oracle(k, tj) for tj in t]
        assert np.abs(T[k] - expect).max() <= 1e-12 * kc.dim_harmonics(n, k)


def test_kernel_eval_at_origin_exact():
    rng = np.random.default_rng(4)
    for n in (2, 3):
        for alpha in (-3.0, -1.5, 0.0, 2.0):
            x = rng.uniform(-0.4, 0.4, n)
            assert series.kernel_eval(n, alpha, x, np.zeros(n)).value == 1.0
            assert series.kernel_eval(n, alpha, np.zeros(n), x).value == 1.0


def test_kernel_symmetry_bit_exact():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for alpha in (-2.0, 0.0, 1.5):
            for _ in range(10):
                x = rng.uniform(-0.6, 0.6, n)
                y = rng.uniform(-0.6, 0.6, n)
                assert (series.kernel_eval(n, alpha, x, y).value
                        == series.kernel_eval(n, alpha, y, x).value)


def test_kernel_alpha_zero_is_classical_n2():
    # alpha = 0, n = 2: R_0(x,y) = Re[(1 - <x,y>_C^2-ish)] has the closed form
    # sum 2 (k+1) r^k s^k cos(k t) + ... ; use the series with gamma_k = k+1
    # as an independent oracle
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        kv = series.kernel_eval(2, 0.0, x, y, tol=1e-13)
        r, s = np.linalg.norm(x), np.linalg.norm(y)
        t = np.arctan2(x[1], x[0]) - np.arctan2(y[1], y[0])
        brute = 1.0 + sum(2.0 * (k + 1) * (r * s) ** k * np.cos(k * t)
                          for k in range(1, 300))
        assert kv.value == pytest.approx(brute, rel=1e-11)


def test_certified_tail_bound_behavioral():
    for n in (2, 3):
        for alpha in (-2.5, 0.0, 1.5):
            for r in (0.5, 0.9):
                x = np.full(n, r / math.sqrt(n))
                y = -0.95 * x
                kv = series.kernel_eval(n, alpha, x, y, tol=1e-8)
                K4 = 4 * kv.terms_used
                coeffs = kc.gamma_coeffs(n, alpha, K4 - 1)
                w = np.array([float(x @ y)])
                a2 = np.array([float((x @ x) * (y @ y))])
                brute = float(zonal_py(coeffs, (n - 2) / 2.0, w, a2)[0])
                assert abs(brute - kv.value) <= kv.truncation_bound + 1e-15
                assert kv.truncation_bound <= 1e-8


def _plan_terms_walk(n, alpha, q, tol, max_terms=series.DEFAULT_MAX_TERMS):
    # the former plan_terms: geometric growth, then down one term at a time
    K = 8
    while K <= max_terms:
        if series.tail_bound(n, alpha, q, K) <= tol:
            break
        K = min(max_terms + 1, max(K + 8, int(K * 1.3)))
    if K > max_terms:
        raise TruncationError(series.tail_bound(n, alpha, q, max_terms), max_terms)
    while K > 8 and series.tail_bound(n, alpha, q, K - 1) <= tol:
        K -= 1
    return K


def test_plan_terms_bisection_matches_walk(monkeypatch):
    calls = {"n": 0}
    tail_bound = series.tail_bound

    def counted(*args):
        calls["n"] += 1
        return tail_bound(*args)

    monkeypatch.setattr(series, "tail_bound", counted)

    def plan(fn, *args):
        try:
            return fn(*args)
        except TruncationError as e:
            return ("refused", e.args)

    grid = [(n, float(alpha), q, tol) for n in (2, 3, 4, 5)
            for alpha in np.linspace(-7.5, 10.0, 10)
            for q in (1e-6, 1e-3, 0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 0.999)
            for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)]
    walk = [plan(_plan_terms_walk, *case) for case in grid]
    walk_calls, calls["n"] = calls["n"], 0
    assert [plan(series.plan_terms, *case) for case in grid] == walk
    assert calls["n"] * 10 < walk_calls
    for case, K in zip(grid, walk):
        if isinstance(K, int):
            assert tail_bound(*case[:3], K) <= case[3]


def test_truncation_error_raised():
    x = np.array([0.9999, 0.0])
    with pytest.raises(TruncationError):
        series.kernel_eval(2, 0.0, x, x, tol=1e-14, max_terms=50)


def test_kernel_diag_matches_eval():
    rng = np.random.default_rng(7)
    for n, alpha in ((2, 0.5), (3, -2.0)):
        x = rng.uniform(-0.5, 0.5, n)
        r2 = float(x @ x)
        d = float(kc.kernel_diag(n, alpha, np.array([r2]), tol=1e-13)[0])
        v = series.kernel_eval(n, alpha, x, x, tol=1e-13).value
        assert d == pytest.approx(v, rel=1e-12)


def test_kernel_eval_batch_matches_scalar():
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, 3)
    Y = rng.uniform(-0.55, 0.55, (25, 3))
    vals = kc.kernel_eval_batch(3, 0.7, x, Y, tol=1e-12)
    for i in range(0, 25, 7):
        assert vals[i] == pytest.approx(
            series.kernel_eval(3, 0.7, x, Y[i], tol=1e-13).value, rel=1e-10)
    # an (N, n) x gives the (N, M) matrix, rows as for each x alone
    X = np.vstack([x, np.zeros(3), rng.uniform(-0.5, 0.5, (3, 3))])
    mat = kc.kernel_eval_batch(3, 0.7, X, Y, tol=1e-12)
    assert mat.shape == (5, 25)
    assert np.array_equal(mat[1], np.ones(25))
    for i, xi in enumerate(X):
        row = kc.kernel_eval_batch(3, 0.7, xi, Y, tol=1e-12)
        assert np.allclose(mat[i], row, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-5.0, 5.0), st.integers(1, 60),
       st.floats(0.05, 0.9), st.floats(-1.0, 1.0))
def test_gamma_ratio_property(alpha, k, q, c):
    # incremental products stay consistent with one-step ratios
    n = 2
    if abs(alpha + (1 + n / 2)) < 1e-6:
        alpha += 0.1
    g = kc.gamma_coeffs(n, alpha, k)
    assert np.all(np.isfinite(g))
    assert g[0] == 1.0
    exact = lgamma_gamma_k(n, alpha, k)
    assert g[k] == pytest.approx(exact, rel=1e-9)
