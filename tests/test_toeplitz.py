import numpy as np
import pytest

from bbesov import calculus as ca
from bbesov import kernelcore as kc
from bbesov import measures as me
from bbesov import series
from bbesov import toeplitz as tp
from bbesov.errors import ParameterError

from oracles import constant_poly


def spec2(alpha=0.5, s=1.0, K=6):
    return tp.BasisSpec(2, alpha, s, K)


def test_basis_spec_validation():
    with pytest.raises(ParameterError, match="2s - alpha"):
        tp.BasisSpec(2, 1.5, 0.0, 4).validate()
    sp = spec2()
    sp.validate()
    assert sp.u == pytest.approx(0.5)
    assert sp.Phi == pytest.approx(1.5)
    assert sp.size == 1 + 2 * sp.max_degree


@pytest.mark.parametrize("n,K", [(2, 8), (3, 6), (4, 4), (5, 3)])
def test_basis_orthonormal_any_n(n, K):
    # the Gram of the basis under the pairing, by a rule exact at degree 2K
    sp = tp.BasisSpec(n, 0.5, 1.0, K)
    basis, degrees = tp.basis_build(sp)
    assert len(basis) == sp.size and degrees == sorted(degrees)
    rule = ca.quadrature_build(n, sp.Phi, K + 1)
    E = np.stack([ca.evaluate_batch(ca.dts_apply(sp.s, sp.u, e), rule.points)
                  for e in basis])
    G = kc.v_alpha(n, sp.Phi) / kc.v_alpha(n, sp.alpha) * (E * rule.weights) @ E.T
    assert np.max(np.abs(G - np.eye(sp.size))) <= 1e-12


def test_basis_size_guard_refuses_at_once():
    # n = 6, K = 8: 118,098 candidate poles times h_8 = 825
    with pytest.raises(ParameterError, match="pivot-table"):
        tp.basis_build(tp.BasisSpec(6, 0.5, 1.0, 8))
    tp.BasisSpec(6, 0.5, 1.0, 4).validate()


def test_identity_anchor_n2():
    for alpha, s in ((0.0, 1.0), (0.5, 0.5), (1.0, 2.0)):
        sp = tp.BasisSpec(2, alpha, s, 6)
        M = tp.toeplitz_matrix(me.nu_alpha_measure(2, alpha), sp)
        assert np.max(np.abs(M.entries - np.eye(sp.size))) < 1e-12


def test_identity_anchor_n3():
    sp = tp.BasisSpec(3, 0.5, 1.0, 4)
    M = tp.toeplitz_matrix(me.nu_alpha_measure(3, 0.5), sp)
    assert np.max(np.abs(M.entries - np.eye(sp.size))) < 1e-11


def test_matrix_symmetry_and_fingerprint():
    mu = me.Measure(2, [np.array([0.3, 0.1])], [1.0],
                    me.Density("power-weight", 2.0, 0.5))
    sp = spec2()
    M = tp.toeplitz_matrix(mu, sp)
    assert np.array_equal(M.entries, M.entries.T)
    M2 = tp.toeplitz_matrix(mu, sp)
    assert M.measure_fingerprint == M2.measure_fingerprint
    assert np.array_equal(M.entries, M2.entries)


def test_scaling_linearity():
    mu = me.Measure(2, [np.array([0.4, -0.2])], [0.7])
    sp = spec2()
    M1 = tp.toeplitz_matrix(mu, sp).entries
    M3 = tp.toeplitz_matrix(mu.scaled(3.0), sp).entries
    assert np.allclose(M3, 3.0 * M1, rtol=1e-14, atol=0)


def test_rank_one_atom_structure():
    # a single atom gives a rank-one matrix; top eigenvalue has a closed form
    sp = tp.BasisSpec(2, 0.0, 1.0, 12)
    x0 = np.array([0.35, 0.2])
    w0 = 1.3
    mu = me.Measure(2, [x0], [w0])
    M = tp.toeplitz_matrix(mu, sp)
    rep = tp.spectrum(M)
    q = float(x0 @ x0)
    expect = (w0 * (1 - q) ** (2 * sp.u) * kc.v_alpha(2, sp.alpha)
              / kc.v_alpha(2, sp.Phi)
              * series.kernel_eval(2, sp.Phi, x0, x0, tol=1e-13).value)
    assert rep.eigenvalues[0] == pytest.approx(expect, rel=1e-4)
    assert np.max(np.abs(rep.eigenvalues[1:])) <= 1e-6 * rep.eigenvalues[0]


def test_atom_at_origin_single_entry():
    # delta at 0: only the constant basis element sees it
    sp = spec2(alpha=0.5, s=1.5, K=5)
    mu = me.Measure(2, [np.zeros(2)], [2.0])
    M = tp.toeplitz_matrix(mu, sp).entries
    expect00 = 2.0 * kc.v_alpha(2, sp.alpha) / kc.v_alpha(2, sp.Phi)
    assert M[0, 0] == pytest.approx(expect00, rel=1e-12)
    off = M.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-14


def test_spectrum_identity_and_schatten():
    sp = spec2(K=10)
    rep = tp.spectrum(tp.toeplitz_matrix(me.nu_alpha_measure(2, 0.5), sp),
                      p_list=(1.0, 2.0, 4.0))
    assert np.allclose(rep.eigenvalues, 1.0, atol=1e-11)
    m = sp.size
    for p, v in rep.schatten.items():
        assert v == pytest.approx(m ** (1.0 / p), rel=1e-10)
    assert rep.trace == pytest.approx(m, rel=1e-11)
    # Schatten norms are nonincreasing in p
    ps = sorted(rep.schatten)
    vals = [rep.schatten[p] for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_spectrum_positivity_violation():
    sp = spec2(K=3)
    M = tp.toeplitz_matrix(me.nu_alpha_measure(2, 0.5), sp)
    M.entries[0, 0] = -1.0
    with pytest.raises(RuntimeError, match="positivity"):
        tp.spectrum(M)


def test_radial_oracle_matches_matrix():
    sp = spec2(alpha=0.5, s=1.25, K=6)
    mu = me.Measure(2, density=me.Density("power-weight", 2.0, 0.8))
    M = tp.toeplitz_matrix(mu, sp, level=96).entries
    D = tp.radial_oracle(mu, sp)
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) < 1e-9
    assert np.max(np.abs(np.diag(M) - D) / np.abs(D)) < 1e-8
    # the formula is dimension-generic: nu_alpha gives the identity at n = 4
    sp4 = tp.BasisSpec(4, 0.5, 1.25, 6)
    D4 = tp.radial_oracle(me.nu_alpha_measure(4, 0.5), sp4)
    assert D4.size == sp4.size
    assert np.max(np.abs(D4 - 1.0)) < 1e-13


def test_integral_operator_identity_any_t():
    # T_t(nu_alpha) = I for every admissible t under the chosen normalization
    sp = spec2(alpha=0.5, s=1.0, K=5)
    for t in (0.0, 0.75, 1.5):
        T = tp.integral_operator_matrix(me.nu_alpha_measure(2, 0.5), sp, t,
                                        level=96)
        assert np.max(np.abs(T - np.eye(sp.size))) < 1e-7


def test_intertwine_atoms_tiny_residual():
    rng = np.random.default_rng(40)
    pts = rng.normal(size=(5, 2))
    pts *= (0.6 * rng.uniform(0.3, 1.0, 5) / np.linalg.norm(pts, axis=1))[:, None]
    mu = me.Measure(2, pts, rng.uniform(0.2, 1.0, 5))
    sp = spec2(alpha=0.5, s=1.0, K=8)
    for t in (0.5, 1.25):
        rep = tp.intertwine_check(mu, sp, t)
        assert rep.residual < 1e-10


def test_intertwine_t_zero_trivial():
    mu = me.Measure(2, [np.array([0.3, 0.3])], [1.0])
    rep = tp.intertwine_check(mu, spec2(K=5), 0.0)
    assert rep.residual < 1e-12


def test_intertwine_volume_measure():
    # for nu_alpha both sides equal the diagonal gamma-ratio matrix
    sp = spec2(alpha=0.5, s=1.0, K=5)
    rep = tp.intertwine_check(me.nu_alpha_measure(2, 0.5), sp, 0.75)
    assert rep.residual < 1e-6


@pytest.fixture(scope="module")
def lat2():
    import bbesov.geometry as ge
    return ge.lattice_gen(2, 0.5, 0.95)


def test_trace_zero_measure(lat2):
    sp = spec2(K=5)
    mu = me.Measure(2)
    rep = tp.trace_vs_berezin(mu, sp, lat2)
    assert rep.trace == 0.0
    assert rep.berezin_integral == 0.0


def test_trace_bracket_comparable_for_atoms(lat2):
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(4, 2))
    pts *= (0.7 * rng.uniform(0.3, 1.0, 4) / np.linalg.norm(pts, axis=1))[:, None]
    mu = me.Measure(2, pts, rng.uniform(0.5, 1.5, 4))
    sp = tp.BasisSpec(2, 1.0, 1.0, 8)
    rep = tp.trace_vs_berezin(mu, sp, lat2)
    assert rep.horizon == lat2.rmax
    assert 0.1 < rep.ratio < 10.0


def test_schatten_diagnostic_classifications(lat2):
    compact = me.Measure(2, [[0.2, 0.1], [-0.3, 0.25]], [1.0, 0.5])
    sp = spec2(alpha=0.5, s=1.0, K=8)
    rep = tp.schatten_diagnostic(compact, sp, 2.0, lat2)
    assert rep.classifications["truncation_converges"]
    grown = tp.schatten_diagnostic(me.nu_alpha_measure(2, 0.5), sp, 2.0, lat2)
    assert not grown.classifications["truncation_converges"]


def test_boundedness_estimate_identity_and_zero():
    mu = me.nu_alpha_measure(2, 0.5)
    est = tp.boundedness_estimate(mu, 2.0, 0.5, 2.0, 0.5, 1.0, 0.5,
                                  trials=6, seed=1)
    assert est == pytest.approx(1.0, rel=1e-9)
    zero = me.Measure(2)
    assert tp.boundedness_estimate(zero, 2.0, 0.5, 2.0, 0.5, 1.0, 0.5,
                                   trials=4, seed=1) == 0.0


def test_boundedness_estimate_parameter_flags():
    mu = me.nu_alpha_measure(2, 0.5)
    with pytest.raises(ParameterError, match=r"Eq\. \(1\.4\)"):
        tp.boundedness_estimate(mu, 2.0, -3.0, 2.0, 0.5, 1.0, 0.0, trials=2)


def _mixed_measure(n, seed, density=True):
    # atoms, one at the origin, plus an optional power-weight density
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.45, 0.45, (4, n))
    pts[0] = 0.0
    d = me.Density("power-weight", 0.5, 0.7) if density else None
    return me.Measure(n, pts, rng.uniform(0.3, 1.0, 4), d)


def _section_pairing_matrix(mu, sp, t, shifted):
    """Integral-operator matrix of an atomic measure, with kernel-section
    coordinates from one closed-form pairing per (atom, basis element)."""
    basis, _ = tp.basis_build(sp)
    Y, wts = mu.points, mu.weights
    w_kernel = sp.s + t if shifted else sp.s
    gam = kc.gamma_coeffs(sp.n, w_kernel, sp.max_degree)
    A = np.zeros((len(basis), len(Y)))
    for a, y in enumerate(Y):
        ry = float(np.linalg.norm(y))
        if ry == 0.0:
            sec = constant_poly(sp.n, gam[0])
        else:
            ks = range(sp.max_degree + 1)
            sec = ca.HarmonicPolynomial(sp.n, ks, [float(gam[k] * ry**k) for k in ks],
                                        [y / ry for k in ks])
        for i, e in enumerate(basis):
            A[i, a] = ca.inner_product_u_closed(sp.alpha, sp.s, sp.u, sec, e)
    if shifted:
        B = np.stack([ca.evaluate_batch(e, Y) for e in basis])
    else:
        oy = 1.0 - np.einsum("ij,ij->i", Y, Y)
        wts = wts * oy ** (sp.s - sp.alpha + t)
        B = np.stack([ca.evaluate_batch(ca.dts_apply(sp.s, t, e), Y)
                      for e in basis])
    pref = kc.v_alpha(sp.n, sp.alpha) / kc.v_alpha(sp.n, sp.s + t)
    return pref * (A @ (B * wts[None, :]).T)


@pytest.mark.parametrize("n,K", [(2, 6), (3, 4), (4, 3)])
def test_kernel_section_coords_match_pairing(n, K):
    mu = _mixed_measure(n, 50, density=False)
    sp = tp.BasisSpec(n, 0.5, 1.0, K)
    t = 0.75
    kappa = me.kappa_from_mu(mu, sp.s, t, sp.alpha)
    for got, ref in (
            (tp.integral_operator_matrix(mu, sp, t),
             _section_pairing_matrix(mu, sp, t, False)),
            (tp.shifted_operator_matrix(kappa, sp, t),
             _section_pairing_matrix(kappa, sp, t, True))):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n,K,level", [(2, 6, 64), (3, 4, 24)])
def test_toeplitz_power_weight_density_matches_quadrature(n, K, level):
    mu = _mixed_measure(n, 51)
    sp = tp.BasisSpec(n, 0.5, 1.25, K)
    d = mu.density
    w = 2.0 * sp.u + d.exponent
    basis, _ = tp.basis_build(sp)
    rule = ca.quadrature_build(n, w, level)
    E = np.stack([ca.evaluate_batch(ca.dts_apply(sp.s, sp.u, e), rule.points)
                  for e in basis])
    ref = d.scale * kc.v_alpha(n, w) * (E * rule.weights[None, :]) @ E.T
    atoms_only = me.Measure(n, mu.points, mu.weights)
    ref += tp.toeplitz_matrix(atoms_only, sp).entries
    got = tp.toeplitz_matrix(mu, sp).entries
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_operator_density_terms_match_quadrature():
    # alpha = 0, s = 1, t = 0.5: the reweighting (1-|y|^2)^1.5 is not
    # polynomial, so the closed form is checked against a fine rule
    sp = tp.BasisSpec(2, 0.0, 1.0, 6)
    t = 0.5
    d = me.Density("power-weight", 0.5, 0.7)
    mu = me.Measure(2, density=d)
    kappa = me.kappa_from_mu(mu, sp.s, t, sp.alpha)
    for meas, build in ((mu, tp.integral_operator_matrix),
                        (kappa, tp.shifted_operator_matrix)):
        dd = meas.density
        rule = ca.quadrature_build(2, dd.exponent, 96)
        nodes = me.Measure(2, rule.points,
                           dd.scale * kc.v_alpha(2, dd.exponent) * rule.weights)
        ref = build(nodes, sp, t)
        got = build(meas, sp, t)
        assert np.max(np.abs(got - ref)) <= 1e-10


@pytest.mark.parametrize("n,K", [(2, 8), (3, 4), (4, 4)])
def test_intertwine_atoms_and_power_weight(n, K):
    mu = _mixed_measure(n, 52)
    sp = tp.BasisSpec(n, 0.0, 1.0, K)
    for t in (0.5, 1.25):
        assert tp.intertwine_check(mu, sp, t).residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_intertwine_tabulated_density(n):
    # kappa reweights a table through its exponent, so both sides of the
    # intertwining use the same table at the same radial nodes
    mu = me.Measure(n, density=me.Density("tabulated-radial", 0.0, 1.0,
                                          np.linspace(0.0, 1.0, 11),
                                          np.linspace(1.0, 2.0, 11)))
    rep = tp.intertwine_check(mu, tp.BasisSpec(n, 0.0, 1.0, 4), 0.5)
    assert rep.residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_table_matches_power_weight(n):
    # 0.7 (1-r^2)^2 sampled on 2,001 nodes against its closed form
    r = np.linspace(0.0, 1.0, 2001)
    table = me.Measure(n, density=me.Density("tabulated-radial", 0.0, 0.7, r,
                                             (1.0 - r**2) ** 2))
    power = me.Measure(n, density=me.Density("power-weight", 2.0, 0.7))
    X = np.zeros((3, n))
    X[:, 0] = (0.0, 0.5, 0.9)
    got = me.berezin2(table, 1.5, 0.5, X)
    ref = me.berezin2(power, 1.5, 0.5, X)
    assert np.max(np.abs(got / ref - 1.0)) <= 5e-5
    sp = tp.BasisSpec(n, 0.5, 1.25, 6)
    got = np.diag(tp.toeplitz_matrix(table, sp).entries)
    ref = np.diag(tp.toeplitz_matrix(power, sp).entries)
    assert np.max(np.abs(got / ref - 1.0)) <= 5e-5
