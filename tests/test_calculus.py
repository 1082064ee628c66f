import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbesov import calculus as ca
from bbesov import kernelcore as kc
from bbesov.errors import ParameterError, TruncationError

from oracles import constant_poly, inner_product_u, project


def test_evaluate_constant_and_degree_one():
    f = constant_poly(2, 3.5)
    assert ca.evaluate(f, np.array([0.2, -0.1])) == pytest.approx(3.5)
    pole = np.array([1.0, 0.0])
    g = ca.HarmonicPolynomial(2, [1], [2.0], [pole])
    # Z_1(x, e1) = 2 x_1 for n=2
    assert ca.evaluate(g, np.array([0.3, 0.4])) == pytest.approx(2 * 2 * 0.3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degree_values_match_per_atom_zonal(n):
    rng = np.random.default_rng(40 + n)
    f = ca.random_polynomial(n, 7, 40 + n)
    keep = f.degrees != 3  # a degree with no atoms gives a zero row
    f = ca.HarmonicPolynomial(n, f.degrees[keep], f.coefs[keep], f.poles[keep])
    step = 32768 // f.degrees.size  # rows per block
    X = rng.uniform(-0.55, 0.55, (step + 7, n))
    F = ca.degree_values(f, X)
    assert F.shape == (8, X.shape[0])
    assert not F[3].any()
    # per atom, the old one-series-per-atom path on every row ...
    nx2 = np.einsum("ij,ij->i", X, X)
    want = np.zeros_like(F)
    for k, c, eta in zip(f.degrees, f.coefs, f.poles):
        onehot = np.eye(k + 1)[k]
        want[k] += c * kc.zonal_series(onehot, (n - 2) / 2.0, X @ eta, nx2)
    scale = np.abs(want).max()
    np.testing.assert_allclose(F, want, rtol=1e-12, atol=1e-13 * scale)
    # ... and scalar kc.zonal on rows at both ends of each block
    for i in (0, 1, step - 1, step, step + 1, X.shape[0] - 1):
        for k in np.unique(f.degrees):
            part = f.degrees == k
            got = sum(c * kc.zonal(n, k, X[i], eta)
                      for c, eta in zip(f.coefs[part], f.poles[part]))
            assert F[k, i] == pytest.approx(got, rel=1e-12, abs=1e-13 * scale)
    assert np.array_equal(ca.evaluate_batch(f, X), F.sum(axis=0))


def test_degree_values_of_empty_polynomial():
    X = np.full((5, 3), 0.1)
    assert np.array_equal(ca.degree_values(ca.HarmonicPolynomial(3), X), np.zeros((1, 5)))
    empty = ca.HarmonicPolynomial(3, np.zeros(0, int), [], np.zeros((0, 3)))
    assert np.array_equal(ca.evaluate_batch(empty, X), np.zeros(5))


def test_harmonic_polynomial_checks_its_arrays():
    f = ca.HarmonicPolynomial(2, [0, 2.0], [1.5, -1.0], [[1.0, 0.0], [0.6, 0.8]])
    assert f.degrees.dtype == np.int64 and f.poles.shape == (2, 2)
    assert f.degrees.tolist() == [0, 2]  # an integral float is a degree
    assert f.max_degree() == 2 and ca.HarmonicPolynomial(2).max_degree() == 0
    with pytest.raises(ValueError):
        f.coefs[0] = 2.0  # read-only
    bad = [
        ([0, 1], [1.0], [[1.0, 0.0], [0.0, 1.0]]),         # one coefficient for two poles
        ([0], [1.0, 2.0], [[1.0, 0.0]]),                   # two coefficients for one pole
        ([0, 1], [1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # poles in R^3
        ([1], [1.0], [[1.0, 0.0, 0.0]]),                   # pole in R^3, odd size
        ([-1], [1.0], [[1.0, 0.0]]),                       # negative degree
        ([2.5], [1.0], [[1.0, 0.0]]),                      # degree not an integer
        ([np.nan], [1.0], [[1.0, 0.0]]),                   # degree NaN
        ([np.inf], [1.0], [[1.0, 0.0]]),                   # degree infinite
        ([1], [1.0], [[2.0, 0.0]]),                        # pole of norm 2
        ([0], [1.0], [[0.0, 0.0]]),                        # zero pole, degree 0
        ([1], [1.0], [[np.nan, 0.0]]),                     # pole NaN
    ]
    for deg, coef, poles in bad:
        with pytest.raises(ValueError):
            ca.HarmonicPolynomial(2, deg, coef, poles)


def test_random_polynomial_draw_order():
    # one atom of degree 0, two of each higher degree; per atom the pole is
    # drawn before the coefficient, so a seed gives the same bits as before
    f = ca.random_polynomial(3, 4, 7)
    assert f.degrees.tolist() == [0, 1, 1, 2, 2, 3, 3, 4, 4]
    rng = np.random.default_rng(7)
    for c, eta in zip(f.coefs, f.poles):
        pole = rng.normal(size=3)
        assert np.array_equal(eta, pole / np.linalg.norm(pole)) and c == rng.normal()


def test_harmonicity_mean_value():
    # zonal atoms are harmonic: circle means reproduce the center value
    rng = np.random.default_rng(10)
    f = ca.random_polynomial(2, 6, 99)
    x = np.array([0.15, -0.2])
    th = 2 * np.pi * np.arange(512) / 512
    circ = x + 0.3 * np.stack([np.cos(th), np.sin(th)], axis=1)
    assert ca.evaluate_batch(f, circ).mean() == pytest.approx(
        ca.evaluate(f, x), rel=1e-10, abs=1e-12)


def test_dts_identity_and_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        f = ca.random_polynomial(n, 20, 7)
        g = ca.dts_apply(1.0, 0.0, f)
        for c1, c2 in zip(f.coefs, g.coefs):
            assert c2 == pytest.approx(c1, rel=1e-15)
        for i in range(20):
            s = rng.uniform(-2.0, 2.0)
            t = rng.uniform(-2.0, 2.0)
            h = ca.dts_apply(s + t, -t, ca.dts_apply(s, t, f))
            for c1, c2 in zip(f.coefs, h.coefs):
                assert abs(c2 - c1) <= 1e-14 * abs(c1)


def test_space_param_flags():
    # Eq. (1.4): alpha + pt > -1
    p = ca.SpaceParams(2, 2.0, -1.5, 1.0, 0.0)
    assert not p.flag_norm
    assert ca.SpaceParams(2, 2.0, -1.5, 1.0, 0.5).flag_norm
    # Eq. (1.5): alpha + 1 < p (s + 1)
    assert ca.SpaceParams(2, 1.0, 0.5, 1.0, 1.0).flag_proj
    assert not ca.SpaceParams(2, 1.0, 3.5, 1.0, 1.0).flag_proj
    # Eq. (1.6)
    assert ca.SpaceParams(2, 2.0, 0.0, 1.0, 0.0).flag_onenorm


def test_besov_norm_rejects_bad_weight():
    params = ca.SpaceParams(2, 2.0, -1.5, 1.0, 0.0)
    rule = ca.quadrature_build(2, 0.0, 24)
    with pytest.raises(ParameterError, match=r"Eq\. \(1\.4\)"):
        ca.besov_norm(params, constant_poly(2), rule)


def test_besov_norm_constant_oracle():
    # ||1||^p = (V_{alpha+pt}/V_alpha) nu_{alpha+pt}(gamma-scaled 1)
    for n, p, alpha, t in ((2, 2.0, 0.5, 0.0), (3, 2.0, 1.0, 0.5)):
        params = ca.SpaceParams(n, p, alpha, 1.0, t)
        rule = ca.quadrature_build(n, alpha + p * t, 48)
        val = ca.besov_norm(params, constant_poly(n), rule)
        expect = (kc.v_alpha(n, alpha + p * t) / kc.v_alpha(n, alpha)) ** (1 / p)
        # degree-0 part of D^t_s 1 is gamma_0-ratio = 1
        assert val == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_besov_norm_matches_full_rule_sum(n, p):
    # the norm evaluates degree parts on the rule's directions and lets the
    # radii scale them; the sum over every node of the product rule agrees
    alpha, s, t = 0.5, 1.0, 0.75
    w = alpha + p * t
    rule = ca.quadrature_build(n, w, 32 if n == 2 else 12)
    f = ca.random_polynomial(n, 6, 50 + n)
    vals = np.abs(ca.evaluate_batch(ca.dts_apply(s, t, f), rule.points)) ** p
    want = (kc.v_alpha(n, w) / kc.v_alpha(n, alpha) * float(rule.weights @ vals)) ** (1 / p)
    got = ca.besov_norm(ca.SpaceParams(n, p, alpha, s, t), f, rule)
    assert got == pytest.approx(want, rel=1e-12)


def test_quadrature_points_and_weights_from_factors():
    for n, level in ((2, 8), (3, 5)):
        rule = ca.quadrature_build(n, 0.5, level)
        r, wr = ca._radial_rule(n, 0.5, level)
        dirs, wd = ca.sphere_rule(n, level)
        assert np.array_equal(rule.points, (r[:, None, None] * dirs[None]).reshape(-1, n))
        assert np.array_equal(rule.weights, np.outer(wr, wd).ravel())


def test_quadrature_moments_exact():
    # int |x|^(2k) dnu_w = m_k(w) for the product rules
    for n, level in ((2, 32), (3, 32), (4, 12)):
        rule = ca.quadrature_build(n, 1.5, level)
        rr2 = np.einsum("ij,ij->i", rule.points, rule.points)
        for k in (1, 3, 10):
            got = float(np.dot(rule.weights, rr2**k))
            assert got == pytest.approx(ca.radial_moment(n, 1.5, k), rel=1e-12)


def test_quadrature_rejects_bad_weight():
    with pytest.raises(ParameterError):
        ca.quadrature_build(2, -1.0, 16)


def test_sphere_rule_weights_and_node_counts():
    for n in (2, 3, 4, 5):
        for level in (1, 2, 7, 12):
            dirs, w = ca.sphere_rule(n, level)
            assert dirs.shape == (w.size, n)
            assert abs(w.sum() - 1.0) <= 1e-14
            assert np.allclose(np.einsum("ij,ij->i", dirs, dirs), 1.0, atol=1e-15)
    for level in (4, 9):
        assert ca.quadrature_build(2, 0.5, level).weights.size == 4 * level**2
        assert ca.quadrature_build(3, 0.5, level).weights.size == 2 * level**3


def test_quadrature_refuses_oversized_rule():
    # 2 * 64^4 nodes exceed MAX_RULE_NODES; refused before anything is built
    with pytest.raises(ParameterError, match="33554432 nodes"):
        ca.quadrature_build(4, 0.0, 64)


def test_inner_product_closed_vs_quadrature():
    rng = np.random.default_rng(12)
    for n, level in ((2, 64), (3, 64), (4, 12)):
        f = ca.random_polynomial(n, 5, 21)
        g = ca.random_polynomial(n, 5, 22)
        alpha, s, u = 0.5, 1.25, 0.75
        closed = ca.inner_product_u_closed(alpha, s, u, f, g)
        quad = inner_product_u(alpha, s, u, f, g,
                               ca.quadrature_build(n, alpha + 2 * u, level))
        assert quad == pytest.approx(closed, rel=1e-10)


def test_inner_product_degree_orthogonality():
    pole = np.array([1.0, 0.0])
    f = ca.HarmonicPolynomial(2, [2], [1.0], [pole])
    g = ca.HarmonicPolynomial(2, [3], [1.0], [pole])
    assert ca.inner_product_u_closed(0.0, 1.0, 1.0, f, g) == 0.0


def test_projection_reproduces():
    rng = np.random.default_rng(13)
    rule = ca.quadrature_build(2, 1.0, 64)
    f = ca.random_polynomial(2, 6, 31)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        got = project(1.0, f, x, rule)
        assert got == pytest.approx(ca.evaluate(f, x), rel=1e-9, abs=1e-11)


def test_projection_array_equals_scalars():
    rng = np.random.default_rng(14)
    rule = ca.quadrature_build(3, 0.5, 16)
    f = ca.random_polynomial(3, 4, 32)
    X = rng.uniform(-0.4, 0.4, (5, 3))
    assert np.array_equal(project(0.5, f, X, rule),
                          [project(0.5, f, x, rule) for x in X])


def test_projection_flag():
    # projection requires Phi > -1
    rule = ca.quadrature_build(2, 0.5, 16)
    with pytest.raises(ParameterError):
        project(-1.5, constant_poly(2), np.zeros(2), rule)


def test_fit_slope_recovers_powerlaw():
    o = np.geomspace(0.01, 0.5, 12)
    vals = 3.0 * o ** (-1.7)
    assert ca.fit_slope(o, vals) == pytest.approx(-1.7, abs=1e-12)


def test_kernel_norm_scan_regimes_light():
    radii = [0.9, 0.95, 0.98, 0.99]
    grow = ca.kernel_norm_scan(1.0, 2.0, 0.0, radii)     # c = 4 > 0
    assert grow.predicted_exponent == pytest.approx(-4.0)
    assert grow.slope == pytest.approx(-4.0, rel=0.1)
    flat = ca.kernel_norm_scan(0.0, 1.0, 1.0, radii)     # c = -1 < 0: bounded
    assert flat.max_min_ratio < 10.0


def _closed_form_kernel(n, alpha, q, t):
    """R_alpha at |x||y| = q, x.y = q t, from closed forms that share no series
    code: for n = 2, 2 Re (1 - q e^{i theta})^{-(alpha+2)} - 1; for n = 3 and
    alpha = 0, P + (2/n) d/ds P(sx, y) at s = 1, P = (1 - |x|^2|y|^2)/[x, y]^n."""
    b2 = 1.0 - 2.0 * q * t + q * q
    if n == 2:
        phi = np.arctan2(q * np.sqrt(1.0 - t * t), 1.0 - q * t)
        return 2.0 * b2 ** (-(alpha + 2.0) / 2.0) * np.cos((alpha + 2.0) * phi) - 1.0
    assert n == 3 and alpha == 0.0
    a = q * q
    return ((1.0 - a) / b2**1.5
            + (2.0 / 3.0) * (-2.0 * a / b2**1.5 + 3.0 * (1.0 - a) * (q * t - a) / b2**2.5))


def _panels(m, k):
    """m equal panels of [0, 1] with k Gauss-Legendre nodes each: nodes, weights."""
    v, wv = np.polynomial.legendre.leggauss(k)
    a = np.arange(m)[:, None]
    return ((a + (v + 1.0) / 2.0) / m).ravel(), np.tile(wv / (2.0 * m), m)


def _grid_power_integrals(n, alpha, radii, ps):
    """int |R_alpha(x, .)|^p dnu at |x| = r, shape (radii, ps): 1000 nodes in
    rho (weight n rho^(n-1)) times 4000 in u, theta = pi u^3 (weight
    sin^(n-2) theta), both composite Gauss-Legendre, 100 radial nodes a block."""
    rho, wr = _panels(100, 10)
    wr = wr * n * rho ** (n - 1)
    u, wu = _panels(200, 20)
    theta = np.pi * u**3
    wt = wu * u**2 * np.sin(theta) ** (n - 2)
    wt /= wt.sum()
    out = np.zeros((len(radii), len(ps)))
    for i, r in enumerate(radii):
        for s in range(0, rho.size, 100):
            vals = np.abs(_closed_form_kernel(n, alpha, r * rho[s:s + 100, None], np.cos(theta)))
            out[i] += [wr[s:s + 100] @ (vals**p @ wt) for p in ps]
    return out


@pytest.mark.parametrize("n, alpha", [(2, -0.5), (2, 0.5), (2, 2.0), (3, 0.0)])
def test_kernel_power_integral_closed_form_oracle(n, alpha):
    radii = [0.0, 0.5, 0.9, 0.98]
    want = _grid_power_integrals(n, alpha, radii, (1.0, 3.0))
    for i, p in enumerate((1.0, 3.0)):
        got = ca.kernel_power_integral(n, alpha, p, radii,
                                       lambda m: ca._radial_rule(n, 0.0, m), 64)
        np.testing.assert_allclose(got, want[:, i], rtol=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_power_integral_p2_matches_series(n):
    radii = np.array([0.0, 0.5, 0.9, 0.98])
    got = ca.kernel_power_integral(n, 0.5, 2.0, radii,
                                   lambda m: ca._radial_rule(n, 0.3, m), 16)
    want = ca._kernel_power_integral_p2(n, 0.5, radii, lambda K: ca.radial_moments(n, 0.3, K))
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("n, alpha, w", [(2, 0.5, 0.3), (3, -0.5, 0.0), (4, 1.5, 2.0)])
def test_kernel_power_integral_p2_matches_mpmath_terms(n, alpha, w):
    # sum_k gamma_k^2 h_k r^(2k) M_k term by term at 40 digits, from the
    # closed-form ratios of gamma_k (alpha > -(1 + n/2)) and of the moments
    mpmath = pytest.importorskip("mpmath")
    radii = np.array([0.0, 0.3, 0.9, 0.99])
    got = ca._kernel_power_integral_p2(n, alpha, radii, lambda K: ca.radial_moments(n, w, K))
    with mpmath.workdps(40):
        h = mpmath.mpf(n) / 2
        for r, value in zip(radii, got):
            q, term, total, k = mpmath.mpf(float(r)) ** 2, mpmath.mpf(1), mpmath.mpf(1), 0
            while q and term > total * mpmath.mpf(10) ** -30:
                g = (1 + h + alpha + k) / (h + k)
                term *= (g * g * kc.dim_harmonics(n, k + 1) / kc.dim_harmonics(n, k)
                         * q * (h + k) / (h + w + 1 + k))
                total += term
                k += 1
            assert value == pytest.approx(float(total), rel=1e-13)
    assert ca._kernel_power_integral_p2(n, alpha, 0.9, lambda K: ca.radial_moments(n, w, K)) \
        == pytest.approx(got[2], rel=1e-15)


def test_kernel_norm_scan_n4_level_independent():
    radii = [0.9, 0.95, 0.98]
    lo = ca.kernel_norm_scan(0.5, 3.0, 0.0, radii, n=4, level=16)
    hi = ca.kernel_norm_scan(0.5, 3.0, 0.0, radii, n=4, level=28)
    np.testing.assert_allclose(lo.values, hi.values, rtol=1e-6)
    assert lo.slope == pytest.approx(lo.predicted_exponent, rel=0.05)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zonal_table_matches_zonal_series(n):
    from bbesov.kernelcore import zonal_series
    t = np.cos(np.linspace(0.0, np.pi, 37))
    coeffs = np.random.default_rng(n).normal(size=61)
    blocks = list(ca.zonal_table(n, t, 60, 7))
    assert [k0 for k0, _ in blocks] == list(range(0, 61, 7))
    got = coeffs @ np.concatenate([T for _, T in blocks])
    want = zonal_series(coeffs, (n - 2) / 2.0, t, np.ones_like(t))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_bracket_scan_regimes_light():
    radii = [0.9, 0.95, 0.98, 0.99]
    grow = ca.bracket_integral_scan(0.0, 1.0, radii)
    assert grow.slope == pytest.approx(-1.0, rel=0.1)
    flat = ca.bracket_integral_scan(0.0, -0.5, radii)
    assert flat.max_min_ratio < 10.0


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0, 4.5])
def test_bracket_angular_mean_n3_mpmath(sigma):
    # sphere average of [x, y]^(-sigma) in R^n: t = cos(angle) has density
    # proportional to (1 - t^2)^((n-3)/2) on [-1, 1] (uniform for n = 3), so
    # the mean is int (1 - 2qt + q^2)^(-sigma/2) (1 - t^2)^((n-3)/2) dt over
    # int (1 - t^2)^((n-3)/2) dt
    import mpmath
    with mpmath.workdps(30):
        for n in (3, 4):
            e = mpmath.mpf(n - 3) / 2
            norm = mpmath.quad(lambda t: (1 - t**2) ** e, [-1, 1])
            for q in (0.05, 0.3, 0.7, 0.95):
                qm = mpmath.mpf(q)
                want = mpmath.quad(
                    lambda t: (1 - 2 * qm * t + qm**2) ** (-sigma / 2) * (1 - t**2) ** e,
                    [-1, 0, 1]) / norm
                got = ca._bracket_angular_mean(n, sigma, q)
                assert got == pytest.approx(float(want), rel=1e-12)


def test_bracket_scan_n3_positive():
    res = ca.bracket_integral_scan(0.0, 1.0, [0.9, 0.95, 0.98], n=3)
    assert np.all(res.values > 0.0)
    assert res.slope == pytest.approx(-1.0, rel=0.1)


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.5, 2.5), st.floats(-1.0, 1.5), st.integers(0, 12))
def test_dts_scaling_property(s, t, k):
    # D^t_s on a degree-k atom multiplies by gamma_k(s+t)/gamma_k(s)
    n = 2
    pole = np.array([1.0, 0.0])
    f = ca.HarmonicPolynomial(n, [k], [1.0], [pole])
    g = ca.dts_apply(s, t, f)
    expect = kc.gamma_k(n, s + t, k) / kc.gamma_k(n, s, k)
    assert g.coefs[0] == pytest.approx(expect, rel=1e-12)


# --------------------------------------------------------------------------
# Gauss-Jacobi rules and 2F1 in numpy, against closed forms, scipy and mpmath

# two ulps at 1 plus a margin: the references round too (scipy's node is
# 4.4e-16 from the true root at (m, a, b) = (16, 0, -0.9); ours is 1.1e-16)
NODE_ATOL = 4.5e-16


def _beta_moment(a, b, j):
    """int (1+x)^j (1-x)^a (1+x)^b dx / int (1-x)^a (1+x)^b dx = 2^j B(b+1+j, a+1)/B(b+1, a+1)."""
    return math.exp(j * math.log(2.0) + math.lgamma(b + 1.0 + j) - math.lgamma(b + 1.0)
                    + math.lgamma(a + b + 2.0) - math.lgamma(a + b + 2.0 + j))


@pytest.mark.parametrize("m", [1, 2, 5, 16, 48])
def test_gauss_jacobi_exact_beta_moments(m):
    # (1+x)^j and (1-x)^j, j <= 2m - 1, span the polynomials of degree 2m - 1;
    # a = 50 starts Newton from Sturm bisection
    for a, b in [(-0.9, -0.5), (0.0, 0.0), (0.5, 1.0), (2.0, 0.0), (9.0, 3.0), (50.0, 0.0)]:
        x, w = ca.gauss_jacobi(m, a, b)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
        for j in range(2 * m):
            assert w @ (1.0 + x) ** j == pytest.approx(_beta_moment(a, b, j), rel=1e-12)
            assert w @ (1.0 - x) ** j == pytest.approx(_beta_moment(b, a, j), rel=1e-12)


@pytest.mark.parametrize("m", [1, 3, 64, 1000])
def test_gauss_jacobi_chebyshev_closed_form(m):
    x, w = ca.gauss_jacobi(m, -0.5, -0.5)
    want = np.cos((2.0 * np.arange(m, 0, -1) - 1.0) * np.pi / (2.0 * m))
    assert np.abs(x - want).max() <= NODE_ATOL
    # the Christoffel function varies on a 1/m^2 scale at the ends, so node
    # rounding moves the end weights by up to about m^2 eps
    assert np.abs(w * m - 1.0).max() <= m * m * 2.3e-16


@pytest.mark.parametrize("m", [1, 2, 5, 16, 48, 500, 4096])
def test_gauss_jacobi_matches_scipy(m):
    from scipy.special import roots_jacobi
    grid = ([(a, b) for a in (-0.9, -0.5, 0.0, 2.0, 5.0, 9.0) for b in (-0.9, 0.0, 1.0, 3.0)]
            if m <= 500 else [(-0.9, 3.0), (9.0, -0.9), (0.5, 0.0)])
    for a, b in grid:
        x, _ = ca.gauss_jacobi(m, a, b)
        assert np.abs(x - roots_jacobi(m, a, b)[0]).max() <= NODE_ATOL, (a, b)


def test_gauss_jacobi_memory_and_cache(monkeypatch):
    import tracemalloc
    monkeypatch.setattr(ca, "_rule_cache", {})
    tracemalloc.start()
    try:
        x, w = ca.gauss_jacobi(16384, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert not x.flags.writeable and not w.flags.writeable
    assert ca.gauss_jacobi(16384, 0.5, 0.5)[0] is x
    for m in range(1, 2 * ca.RULE_CACHE_KEYS):
        ca.gauss_jacobi(m, 0.0, 0.0)
    assert len(ca._rule_cache) <= ca.RULE_CACHE_KEYS
    assert (16384, 0.5, 0.5) not in ca._rule_cache


def test_gauss_jacobi_refuses_unconverged_rule(monkeypatch):
    monkeypatch.setattr(ca, "_rule_cache", {})
    monkeypatch.setattr(ca, "NEWTON_STEPS", 0)
    with pytest.raises(ArithmeticError, match="Newton did not converge"):
        ca.gauss_jacobi(8, 0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hyp2f1_mpmath(n):
    # the bracket-scan parameters a = sigma/2, b = sigma/2 - nu, c = n/2 + beta + 1,
    # c - a - b = -s, and the angular mean's c = n/2
    import mpmath
    z = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 0.999])
    nu = (n - 2) / 2.0
    for gap in (0.0, -1.0, -2.0, -0.5):
        for beta in (-0.5, 0.0, 0.5):
            sigma = beta + n - gap
            for c in (n / 2.0 + beta + 1.0, n / 2.0):
                a, b = sigma / 2.0, sigma / 2.0 - nu
                got = ca.hyp2f1(a, b, c, z)
                with mpmath.workdps(30):
                    want = [float(mpmath.hyp2f1(a, b, c, zz)) for zz in z]
                np.testing.assert_allclose(got, want, rtol=1e-13)


def test_hyp2f1_refuses():
    with pytest.raises(TruncationError):
        ca.hyp2f1(1.0, 1.0, 2.0, np.array([0.5, 1.0 - 1e-7]))
    with pytest.raises(ValueError):
        ca.hyp2f1(1.0, 1.0, 2.0, 1.0)
    assert ca.hyp2f1(-2.0, 1.0, 1.0, np.array([0.5])) == pytest.approx([0.25])


def test_hyp2f1_euler_transformation(monkeypatch):
    # c < a + b: after Euler's transformation the series is 1 + z and ends at
    # once; the series as given would need thousands of terms at z = 0.99
    monkeypatch.setattr(kc, "DEFAULT_MAX_TERMS", 256)
    z = np.array([0.5, 0.9, 0.99])
    np.testing.assert_allclose(ca.hyp2f1(2.0, 2.0, 1.0, z),
                               (1.0 + z) / (1.0 - z) ** 3, rtol=1e-14, atol=0)


def test_hyp2f1_k0_gate(monkeypatch):
    # a = b = 20, c = 40: every term ratio exceeds z until k0 = ab - c = 360,
    # so t_k z/(1 - z) bounds no tail before it.  The terms at z = 0.5 are
    # far below 2^-53 of the sum by k = 256, and a series capped there must
    # still refuse instead of certifying that bound.
    import mpmath
    z = np.array([0.3, 0.5])
    with mpmath.workdps(30):
        want = [float(mpmath.hyp2f1(20, 20, 40, zz)) for zz in z]
    np.testing.assert_allclose(ca.hyp2f1(20.0, 20.0, 40.0, z), want, rtol=1e-13)
    monkeypatch.setattr(kc, "DEFAULT_MAX_TERMS", 256)
    with pytest.raises(TruncationError):
        ca.hyp2f1(20.0, 20.0, 40.0, z)


def _bracket_scan_by_quadrature(beta, s_exp, radii, n):
    """The quadrature bracket_integral_scan used to run: Gauss-Jacobi radial
    nodes of weight beta, doubled from 512 until the values agree to 1e-8,
    against the 2F1 angular mean (scipy's roots_jacobi and hyp2f1)."""
    from scipy.special import hyp2f1, roots_jacobi
    sigma, nu = beta + n + s_exp, (n - 2) / 2.0
    out = []
    for r in radii:
        prev, m = None, 512
        while True:
            xj, wj = roots_jacobi(m, beta, n / 2.0 - 1.0)
            q2 = r * r * (xj + 1.0) / 2.0
            val = kc.v_alpha(n, beta) * np.dot(wj / wj.sum(),
                                               hyp2f1(sigma / 2, sigma / 2 - nu, n / 2, q2))
            if prev is not None and abs(val - prev) <= 1e-8 * abs(val) or m >= 8192:
                break
            prev, m = val, 2 * m
        out.append(val)
    return np.array(out)


@pytest.mark.parametrize("n,beta,s_exp", [(2, 0.0, 1.0), (3, 0.0, 1.0), (2, 0.0, 0.0),
                                          (2, 0.0, -0.5), (3, 0.5, 1.0), (4, -0.5, 0.7)])
def test_bracket_scan_closed_form_matches_quadrature(n, beta, s_exp):
    radii = [0.0, 0.5, 0.9, 0.95, 0.98]
    got = ca.bracket_integral_scan(beta, s_exp, radii, n=n)
    want = _bracket_scan_by_quadrature(beta, s_exp, radii, n)
    np.testing.assert_allclose(got.values, want, rtol=1e-10)
    assert got.values[0] == pytest.approx(kc.v_alpha(n, beta), rel=1e-15)
    assert got.predicted_exponent == -s_exp
