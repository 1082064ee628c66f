import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbesov import calculus as ca
from bbesov import kernelcore as kc
from bbesov.errors import ParameterError


def test_evaluate_constant_and_degree_one():
    f = ca.constant_poly(2, 3.5)
    assert ca.evaluate(f, np.array([0.2, -0.1])) == pytest.approx(3.5)
    pole = np.array([1.0, 0.0])
    g = ca.HarmonicPolynomial(2, {1: [(2.0, pole)]})
    # Z_1(x, e1) = 2 x_1 for n=2
    assert ca.evaluate(g, np.array([0.3, 0.4])) == pytest.approx(2 * 2 * 0.3)


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
        for k, atoms in f.parts.items():
            for (c1, _), (c2, _) in zip(atoms, g.parts[k]):
                assert c2 == pytest.approx(c1, rel=1e-15)
        for i in range(20):
            s = rng.uniform(-2.0, 2.0)
            t = rng.uniform(-2.0, 2.0)
            h = ca.dts_apply(s + t, -t, ca.dts_apply(s, t, f))
            for k, atoms in f.parts.items():
                for (c1, _), (c2, _) in zip(atoms, h.parts[k]):
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
        ca.besov_norm(params, ca.constant_poly(2), rule)


def test_besov_norm_constant_oracle():
    # ||1||^p = (V_{alpha+pt}/V_alpha) nu_{alpha+pt}(gamma-scaled 1)
    for n, p, alpha, t in ((2, 2.0, 0.5, 0.0), (3, 2.0, 1.0, 0.5)):
        params = ca.SpaceParams(n, p, alpha, 1.0, t)
        rule = ca.quadrature_build(n, alpha + p * t, 48)
        val = ca.besov_norm(params, ca.constant_poly(n), rule)
        expect = (kc.v_alpha(n, alpha + p * t) / kc.v_alpha(n, alpha)) ** (1 / p)
        # degree-0 part of D^t_s 1 is gamma_0-ratio = 1
        assert val == pytest.approx(expect, rel=1e-12)


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
        quad = ca.inner_product_u(alpha, s, u, f, g,
                                  ca.quadrature_build(n, alpha + 2 * u, level))
        assert quad == pytest.approx(closed, rel=1e-10)


def test_inner_product_degree_orthogonality():
    pole = np.array([1.0, 0.0])
    f = ca.HarmonicPolynomial(2, {2: [(1.0, pole)]})
    g = ca.HarmonicPolynomial(2, {3: [(1.0, pole)]})
    assert ca.inner_product_u_closed(0.0, 1.0, 1.0, f, g) == 0.0


def test_projection_reproduces():
    rng = np.random.default_rng(13)
    rule = ca.quadrature_build(2, 1.0, 64)
    f = ca.random_polynomial(2, 6, 31)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        got = ca.project(1.0, f, x, rule)
        assert got == pytest.approx(ca.evaluate(f, x), rel=1e-9, abs=1e-11)


def test_projection_array_equals_scalars():
    rng = np.random.default_rng(14)
    rule = ca.quadrature_build(3, 0.5, 16)
    f = ca.random_polynomial(3, 4, 32)
    X = rng.uniform(-0.4, 0.4, (5, 3))
    assert np.array_equal(ca.project(0.5, f, X, rule),
                          [ca.project(0.5, f, x, rule) for x in X])


def test_projection_flag():
    # projection requires Phi > -1
    rule = ca.quadrature_build(2, 0.5, 16)
    with pytest.raises(ParameterError):
        ca.project(-1.5, ca.constant_poly(2), np.zeros(2), rule)


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
    f = ca.HarmonicPolynomial(n, {k: [(1.0, pole)]})
    g = ca.dts_apply(s, t, f)
    expect = kc.gamma_k(n, s + t, k) / kc.gamma_k(n, s, k)
    assert g.parts[k][0][0] == pytest.approx(expect, rel=1e-12)
