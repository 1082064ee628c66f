"""End-to-end acceptance checks, one test per criterion.

Each test pins the tolerances it was specified with; oracles are computed
through independent code paths (lgamma forms, closed-form moments, brute
series) rather than the functions under test wherever possible.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from bbesov import calculus as ca
from bbesov import geometry as ge
from bbesov import kernelcore as kc
from bbesov import measures as me
from bbesov import series
from bbesov import toeplitz as tp
from bbesov.kernelcore import zonal_series as zonal_py

from oracles import project


def _ball_points(rng, m, n, rmax):
    X = rng.normal(size=(m, n))
    X *= (rmax * rng.uniform(size=m) ** (1.0 / n)
          / np.linalg.norm(X, axis=1))[:, None]
    return X


# ---------------------------------------------------------------- criterion 1


def test_01_kernel_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(100)
    K = 160
    for n in (2, 3):
        nu = (n - 2) / 2.0
        for alpha in (-3.0, -1.5, 0.0, 2.0):
            # R_alpha(x, 0) = 1 exactly
            for _ in range(5):
                x = _ball_points(rng, 1, n, 0.99)[0]
                assert series.kernel_eval(n, alpha, x, np.zeros(n)).value == 1.0
            # series symmetry, bit-exact
            X = _ball_points(rng, 20, n, 0.8)
            Y = _ball_points(rng, 20, n, 0.8)
            for x, y in zip(X, Y):
                assert (series.kernel_eval(n, alpha, x, y).value
                        == series.kernel_eval(n, alpha, y, x).value)
            # D^t_s R_s = R_{s+t}: degree-diagonal coefficients applied to
            # the order-s series against an independent evaluation at s+t
            s, t = alpha, 0.7
            num = kc.gamma_coeffs(n, s + t, K)
            den = kc.gamma_coeffs(n, s, K)
            lhs_coeffs = kc.gamma_coeffs(n, s, K) * (num / den)
            X = _ball_points(rng, 100, n, 0.8)
            Y = _ball_points(rng, 100, n, 0.8)
            w = np.einsum("ij,ij->i", X, Y)
            a2 = (np.einsum("ij,ij->i", X, X)
                  * np.einsum("ij,ij->i", Y, Y))
            lhs = zonal_py(lhs_coeffs, nu, w, a2)
            for i in range(100):
                rhs = series.kernel_eval(n, s + t, X[i], Y[i], tol=1e-12).value
                assert abs(lhs[i] - rhs) / abs(rhs) <= 1e-9
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------- criterion 2


def test_02_operator_inversion_roundtrip():
    rng = np.random.default_rng(101)
    for n in (2, 3):
        f = ca.random_polynomial(n, 20, 55)
        for _ in range(20):
            s = rng.uniform(-2.5, 2.5)
            t = rng.uniform(-1.5, 1.5)
            g = ca.dts_apply(s + t, -t, ca.dts_apply(s, t, f))
            for c1, c2 in zip(f.coefs, g.coefs):
                assert abs(c2 - c1) <= 1e-14 * abs(c1)


# ---------------------------------------------------------------- criterion 3


def test_03_reproducing_property():
    rng = np.random.default_rng(102)
    for n in (2, 3):
        f = ca.random_polynomial(n, 6, 77)
        for Phi in (0.0, 1.0, 2.5):
            rule = ca.quadrature_build(n, Phi, 64)
            X = _ball_points(rng, 50, n, 0.7)
            for x, got in zip(X, project(Phi, f, X, rule)):
                assert abs(got - ca.evaluate(f, x)) <= 1e-6


# ---------------------------------------------------------------- criterion 4


def test_04_scan_asymptotics_three_regimes():
    radii = list(np.sqrt(1.0 - np.geomspace(0.1, 0.002, 6)))
    far = list(np.sqrt(1.0 - np.geomspace(0.05, 0.001, 6)))
    # growth regime: fitted slope within 5% of the predicted exponent
    g1 = series.kernel_norm_scan_p2(1.0, 0.0, radii)        # c = 4
    assert g1.slope == pytest.approx(g1.predicted_exponent, rel=0.05)
    g2 = series.bracket_integral_scan(0.0, 1.0, radii)      # exponent 1
    assert g2.slope == pytest.approx(g2.predicted_exponent, rel=0.05)
    # logarithmic regime: no power growth over two decades
    l1 = series.kernel_norm_scan_p2(0.0, 2.0, far)          # c = 0
    assert l1.predicted_exponent == 0.0
    assert l1.max_min_ratio < 10.0
    l2 = series.bracket_integral_scan(0.0, 0.0, far)
    assert l2.max_min_ratio < 10.0
    # bounded regime
    b1 = ca.kernel_norm_scan(0.0, 1.0, 1.0, radii)          # c = -1
    assert b1.max_min_ratio < 10.0
    b2 = series.bracket_integral_scan(0.0, -0.5, radii)
    assert b2.max_min_ratio < 10.0


# ---------------------------------------------------------------- criterion 5


def test_05_bracket_lemmas():
    rng = np.random.default_rng(103)
    m = 100_000
    X = _ball_points(rng, m, 2, 0.99)
    Y = _ball_points(rng, m, 2, 0.99)
    A = _ball_points(rng, m, 2, 0.99)

    def br(P, Q):
        return np.sqrt(1.0 - 2.0 * np.einsum("ij,ij->i", P, Q)
                       + np.einsum("ij,ij->i", P, P)
                       * np.einsum("ij,ij->i", Q, Q))

    rho = np.linalg.norm(X - Y, axis=1) / br(X, Y)
    ratio = br(X, A) / br(Y, A)
    lo = (1.0 - rho) / (1.0 + rho)
    hi = (1.0 + rho) / (1.0 - rho)
    assert int(((ratio < lo - 1e-12) | (ratio > hi + 1e-12)).sum()) == 0

    # delta-explicit form with sharpness: collinear points at distance
    # exactly delta, witness near the boundary, approach the lower constant
    for delta in (0.3, 0.5, 0.7):
        sel = rho <= delta
        lo_d = (1.0 - delta) / (1.0 + delta)
        hi_d = (1.0 + delta) / (1.0 - delta)
        assert np.all(ratio[sel] >= lo_d - 1e-12)
        assert np.all(ratio[sel] <= hi_d + 1e-12)
        r = 0.99999
        rp = (r - delta) / (1.0 - r * delta)
        x = np.array([r, 0.0])
        y = np.array([rp, 0.0])
        a = np.array([1.0 - 1e-8, 0.0])
        attained = (ge.bracket(x, a) / ge.bracket(y, a))
        assert attained == pytest.approx(lo_d, rel=1e-3)


# ---------------------------------------------------------------- criterion 6


def test_06_lattice_audits():
    lat = ge.lattice_gen(2, 0.5, 0.95)
    pts = lat.points
    for i in range(len(pts)):
        d = np.linalg.norm(pts - pts[i], axis=1)
        b = np.sqrt(1.0 - 2.0 * pts @ pts[i]
                    + np.einsum("ij,ij->i", pts, pts) * float(pts[i] @ pts[i]))
        rho = d / b
        rho[i] = np.inf
        assert rho.min() >= 0.5 - 1e-12
    uncovered, mult = ge.lattice_coverage(lat, samples=10_000, seed=0)
    assert uncovered == 0
    assert mult <= 64


# ---------------------------------------------------------------- criterion 7


def test_07_ball_volume_bracket():
    radii = 1.0 - np.geomspace(0.5, 0.001, 14)
    for alpha in (0.0, 2.0):
        for delta in (0.3, 0.5):
            vals = []
            for r in radii:
                x = np.array([r, 0.0])
                ball = ge.pseudoball(x, delta)
                v = ge.weighted_ball_volume(alpha, ball)
                vals.append(v / (1.0 - r**2) ** (2 + alpha))
            vals = np.array(vals)
            assert vals.max() / vals.min() < 10.0
            # settles into the bracket well before |x| = 0.999
            assert abs(vals[-1] / vals[-2] - 1.0) < 0.02


# ---------------------------------------------------------------- criterion 8


def _carleson_transition(lat, alpha, lam, cs):
    """First grid value of c at which the lattice statistic is horizon-stable."""
    n = 2
    for c in cs:
        mu = me.nu_alpha_measure(n, alpha + c)
        rep = me.carleson_statistic(mu, lam, alpha, lat, level=24)
        r, t = rep.per_point[:, 0], rep.per_point[:, 1]
        sel = r > 0.9
        slope = -series.fit_slope(1.0 - r[sel] ** 2, t[sel])
        if slope <= 0.05:
            return c
    return np.inf


def _embedding_transition(alpha, shift, cs):
    """First grid c at which the estimate stops growing with the degree cap.

    Uses the order-two embedding for the weight-shifted measure, which is
    Carleson exactly when the original (lam, alpha) statistic is finite.
    """
    for c in cs:
        mu = me.nu_alpha_measure(2, alpha + c - shift)
        lo = me.embedding_constant_estimate(mu, 2.0, 2.0, alpha, trials=12,
                                            seed=7, max_degree=6, level=48)
        hi = me.embedding_constant_estimate(mu, 2.0, 2.0, alpha, trials=12,
                                            seed=7, max_degree=24, level=96)
        if hi / lo <= 1.005:
            return c
    return np.inf


def test_08_carleson_threshold_experiment():
    n, alpha = 2, 0.0
    lat = ge.lattice_gen(2, 0.5, 0.99)
    for lam in (1.0, 1.5):
        cstar = (n + alpha) * (lam - 1.0)
        cs = [round(cstar + d, 10) for d in
              (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)]
        c_lat = _carleson_transition(lat, alpha, lam, cs)
        assert abs(c_lat - cstar) <= 0.1 + 1e-9
        c_emb = _embedding_transition(alpha, cstar, cs)
        assert abs(c_emb - cstar) <= 0.1 + 1e-9
        assert abs(c_emb - c_lat) <= 0.1 + 1e-9


# ---------------------------------------------------------------- criterion 9


def test_09_toeplitz_identity():
    for alpha, s in ((0.0, 1.0), (0.5, 0.5), (1.0, 2.0)):
        spec = tp.BasisSpec(2, alpha, s, 10)
        M = tp.toeplitz_matrix(me.nu_alpha_measure(2, alpha), spec)
        assert np.max(np.abs(M.entries - np.eye(spec.size))) <= 1e-6


# --------------------------------------------------------------- criterion 10


def test_10_rank_one_spectral_oracle():
    spec = tp.BasisSpec(2, 0.5, 1.0, 12)
    x0 = np.array([0.3, -0.4])     # |x0| = 0.5
    w0 = 0.8
    M = tp.toeplitz_matrix(me.Measure(2, [x0], [w0]), spec)
    rep = tp.spectrum(M)
    expect = (w0 * (1.0 - float(x0 @ x0)) ** (2 * spec.u)
              * kc.v_alpha(2, spec.alpha) / kc.v_alpha(2, spec.Phi)
              * series.kernel_eval(2, spec.Phi, x0, x0, tol=1e-13).value)
    assert rep.eigenvalues[0] == pytest.approx(expect, rel=0.01)
    assert np.max(np.abs(rep.eigenvalues[1:])) <= 1e-6 * rep.eigenvalues[0]


# --------------------------------------------------------------- criterion 11


def test_11_intertwining():
    rng = np.random.default_rng(104)
    pts = _ball_points(rng, 5, 2, 0.7)
    mu = me.Measure(2, pts, rng.uniform(0.3, 1.0, 5))
    for s, t in ((1.0, 0.5), (0.75, 1.25)):
        spec = tp.BasisSpec(2, 0.5, s, 8)
        rep = tp.intertwine_check(mu, spec, t)
        assert rep.residual <= 1e-8


# --------------------------------------------------------------- criterion 12


def test_12_radial_oracle():
    spec = tp.BasisSpec(2, 0.5, 1.25, 8)
    mu = me.Measure(2, density=me.Density("power-weight", 0.5 + 1.0, 0.7))
    M = tp.toeplitz_matrix(mu, spec, level=96).entries
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) <= 1e-9
    diag = tp.radial_oracle(mu, spec)
    assert np.max(np.abs(np.diag(M) - diag) / np.abs(diag)) <= 1e-8


# --------------------------------------------------------------- criterion 13


def test_13_schatten_consistency():
    lat = ge.lattice_gen(2, 0.5, 0.95)
    spec = tp.BasisSpec(2, 0.5, 1.0, 8)
    rng = np.random.default_rng(105)
    compact = [
        me.Measure(2, [np.array([0.2, 0.1])], [1.0]),
        me.Measure(2, _ball_points(rng, 4, 2, 0.4), rng.uniform(0.3, 1.0, 4)),
        me.Measure(2, density=me.Density(
            "tabulated-radial", 0.0, 1.0,
            np.array([0.0, 0.45, 0.5, 1.0]),
            np.array([1.0, 1.0, 0.0, 0.0]))),
    ]
    for mu in compact:
        rep = tp.schatten_diagnostic(mu, spec, 2.0, lat)
        assert all(rep.classifications.values()), rep.classifications
    grown = tp.schatten_diagnostic(me.nu_alpha_measure(2, 0.5), spec, 2.0, lat)
    assert not any(grown.classifications.values()), grown.classifications


# --------------------------------------------------------------- criterion 14


def test_14_trace_bracket():
    lat = ge.lattice_gen(2, 0.5, 0.95)
    spec = tp.BasisSpec(2, 1.0, 1.0, 8)
    rng = np.random.default_rng(106)
    C = 10.0
    for i in range(5):
        m = 2 + i
        mu = me.Measure(2, _ball_points(rng, m, 2, 0.8), rng.uniform(0.3, 1.5, m))
        rep = tp.trace_vs_berezin(mu, spec, lat)
        assert 1.0 / C <= rep.ratio <= C


# --------------------------------------------------------------- criterion 15


# Index shift in the kernel coefficients (each gamma_k displaced by one
# degree).  Every caller looks gamma_coeffs up through the kernelcore module,
# so replacing the module attribute reaches them all.
_GAMMA_SHIFT = """
import sys
from bbesov import kernelcore as kc
kc.gamma_coeffs = lambda n, alpha, kmax: kc._gamma_array(n, alpha, kmax + 1)[1:kmax + 2].copy()
from bbesov.cli import main
sys.exit(main(["verify", "all"]))
"""


def _run_verify(fault=False):
    argv = ["-c", _GAMMA_SHIFT] if fault else ["-m", "bbesov.cli", "verify", "all"]
    t0 = time.time()
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         timeout=600)
    return out, time.time() - t0


def test_15_verify_all_and_fault_mutation():
    out, elapsed = _run_verify()
    assert elapsed < 600.0
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    doc = json.loads(out.stdout)
    assert doc["ok"] is True

    bad, _ = _run_verify(fault=True)
    assert bad.returncode == 1
    doc = json.loads(bad.stdout)
    failed = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    assert failed
