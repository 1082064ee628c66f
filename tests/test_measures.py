import json

import numpy as np
import pytest

from bbesov import calculus as ca
from bbesov import geometry as ge
from bbesov import kernelcore as kc
from bbesov import measures as me
from bbesov.errors import ParameterError


@pytest.fixture(scope="module")
def lat2():
    return ge.lattice_gen(2, 0.5, 0.9)


def atoms_measure(n=2, seed=30, count=4, rmax=0.5):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n))
    pts *= (rmax * rng.uniform(0.2, 1.0, count)
            / np.linalg.norm(pts, axis=1))[:, None]
    w = rng.uniform(0.2, 1.0, count)
    return me.Measure(n, pts, w)


def test_measure_validation():
    with pytest.raises(ValueError):
        me.Measure(2, [np.array([1.1, 0.0])], [1.0])
    with pytest.raises(ValueError):
        me.Measure(2, [np.array([0.1, 0.0])], [-1.0])


@pytest.mark.parametrize("points,weights", [
    ([[0.1, 0.2, 0.3]], [1.0]),                        # a point in R^3
    ([[0.1, 0.2, 0.3], [0.0, 0.1, 0.2]], [1.0, 1.0]),  # (2, 3): three rows of 2
    ([[0.1, 0.2]], [1.0, 2.0]),                        # two weights, one point
    ([[0.1, 0.2], [0.0, 0.1]], [1.0]),                 # one weight, two points
    ([[0.1, 0.2]], [[1.0]]),                           # weights of shape (1, 1)
    ([[0.1, 0.2]], [0.0]),
    ([[0.1, 0.2]], [np.nan]),
    ([[np.nan, 0.0]], [1.0]),
    ([[0.6, 0.8]], [1.0]),                             # |x| = 1
])
def test_measure_refuses_bad_atoms(points, weights):
    with pytest.raises(ValueError):
        me.Measure(2, points, weights)


def test_measure_holds_read_only_arrays():
    pts = np.array([[0.1, 0.2], [-0.3, 0.0]])
    mu = me.Measure(2, pts, [1.0, 2.0])
    pts[0, 0] = 0.5  # a copy: the caller's array does not reach the measure
    assert mu.points.dtype == mu.weights.dtype == np.float64
    assert mu.points[0, 0] == 0.1 and mu.weights.shape == (2,)
    with pytest.raises(ValueError):
        mu.weights[0] = 3.0
    empty = me.Measure(3)
    assert empty.points.shape == (0, 3) and empty.weights.shape == (0,)


def test_measure_json_roundtrip():
    mu = atoms_measure()
    mu.density = me.Density("power-weight", 1.5, 0.3)
    rt = me.measure_from_json(me.measure_to_json(mu))
    assert rt.n == mu.n
    assert len(rt.weights) == len(mu.weights)
    for x1, w1, x2, w2 in zip(mu.points, mu.weights, rt.points, rt.weights):
        assert np.array_equal(x1, x2) and w1 == w2
    assert rt.density.exponent == 1.5 and rt.density.scale == 0.3
    mu.density = me.Density("tabulated-radial", 0.75, 0.3,
                            np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 0.5]))
    d = me.measure_from_json(me.measure_to_json(mu)).density
    assert d.kind == "tabulated-radial" and d.exponent == 0.75 and d.scale == 0.3
    assert np.array_equal(d.radii, mu.density.radii)
    assert np.array_equal(d.values, mu.density.values)


def test_measure_json_schema_errors():
    with pytest.raises(ValueError, match="/n"):
        me.measure_from_json('{"atoms": []}')
    with pytest.raises(ValueError, match="/density/kind"):
        me.measure_from_json('{"n": 2, "atoms": [], "density": {"kind": "x"}}')
    tables = {
        '"values": [1, 2]': "/density/radii",
        '"radii": [0, 1]': "/density/values",
        '"radii": [[0, 1]], "values": [1, 2]': "/density/radii",
        '"radii": ["0", "1"], "values": [1, 2]': "/density/radii",
        '"radii": [0, 0.5, 1], "values": [1, 2]': "/density/radii",
        '"radii": [0], "values": [1]': "/density/radii",
        '"radii": [0, 0.5, 0.5], "values": [1, 2, 3]': "/density/radii",
        '"radii": [0.5, 0], "values": [1, 2]': "/density/radii",
        '"radii": [-0.1, 1], "values": [1, 2]': "/density/radii",
        '"radii": [0, 1.5], "values": [1, 2]': "/density/radii",
        '"radii": [0, 1], "values": [1, -2]': "/density/values",
        '"radii": [0, 1], "values": [1, Infinity]': "/density/values",
        '"radii": [0, 1], "values": [1, NaN]': "/density/values",
        '"radii": [0, 1], "values": [1, 2], "scale": -1': "/density/scale",
    }
    for body, path in tables.items():
        with pytest.raises(ValueError, match=path):
            me.measure_from_json('{"n": 2, "atoms": [], "density": '
                                 '{"kind": "tabulated-radial", ' + body + '}}')
    with pytest.raises(ValueError, match="/density/scale"):
        me.measure_from_json('{"n": 2, "atoms": [], "density": '
                             '{"kind": "power-weight", "scale": -0.5}}')
    docs = {
        '{"n": 1, "atoms": []}': "/n",
        '{"n": 2.5, "atoms": []}': "/n",
        '{"n": "2", "atoms": []}': "/n",
        '{"n": true, "atoms": []}': "/n",
        '{"n": 2, "atoms": {}}': "/atoms",
        '{"n": 2, "atoms": [5]}': "/atoms/0",
        '{"n": 2, "atoms": [{"w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": 1}, {"x": [0, 0]}]}': "/atoms/1/w",
        '{"n": 2, "atoms": [{"x": [0.1], "w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": [0.1, 0, 0], "w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": [0.1, NaN], "w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": 0.1, "w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": ["0.1", "0"], "w": 1}]}': "/atoms/0/x",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": "1"}]}': "/atoms/0/w",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": NaN}]}': "/atoms/0/w",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": 0}]}': "/atoms/0/w",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": -1}]}': "/atoms/0/w",
        '{"n": 2, "atoms": [{"x": [0, 0], "w": null}]}': "/atoms/0/w",
        '{"n": 2, "atoms": [], "density": 5}': "/density",
    }
    for doc, path in docs.items():
        with pytest.raises(ValueError, match=path):
            me.measure_from_json(doc)
    for field, value in (("scale", "null"), ("scale", "NaN"), ("scale", "Infinity"),
                         ("scale", '"1"'), ("exponent", "NaN"), ("exponent", "null")):
        with pytest.raises(ValueError, match=f"/density/{field}"):
            me.measure_from_json('{"n": 2, "atoms": [], "density": '
                                 f'{{"kind": "power-weight", "{field}": {value}}}}}')


def test_measure_of_pseudoball_atoms():
    mu = me.Measure(2, [[0.0, 0.0], [0.6, 0.0]], [2.0, 1.0])
    ball = ge.pseudoball(np.zeros(2), 0.3)
    assert me.measure_of_pseudoball(mu, ball) == 2.0
    big = ge.pseudoball(np.zeros(2), 0.7)
    assert me.measure_of_pseudoball(mu, big) == 3.0


def test_tabulated_density_ball_mass_matches_product_rule():
    # a piecewise-linear table converges only algebraically; the reference is
    # a Gauss-Legendre radius rule about the Euclidean centre times
    # calculus.sphere_rule at level 256 (1.3e-5 from its level-128 value),
    # and the level-128 (s, t) rule was measured 1.3e-5 from it
    from scipy.special import roots_legendre
    dens = me.Density("tabulated-radial", 0.5, 1.0, np.array([0.0, 0.3, 0.6, 0.8, 1.0]),
                      np.array([1.0, 2.0, 0.5, 1.5, 1.0]))
    X = np.array([[0.0, 0.0], [0.35, 0.0], [0.7 * np.cos(1.0), 0.7 * np.sin(1.0)], [0.95, 0.0]])
    got = me.measure_of_pseudoball(me.Measure(2, density=dens), ge.pseudoball(X, 0.5), 128)
    t, wt = roots_legendre(256)
    dirs, wd = ca.sphere_rule(2, 256)
    for x, g in zip(X, got):
        ball = ge.pseudoball(x, 0.5)
        r = ball.euclid_radius * (t + 1.0) / 2.0
        Y = ball.euclid_center + (r[:, None, None] * dirs[None]).reshape(-1, 2)
        w = np.outer(wt * ball.euclid_radius * r, wd).ravel()
        ref = float(w @ dens.radial(np.sqrt(np.einsum("ij,ij->i", Y, Y))))
        assert g == pytest.approx(ref, rel=3e-5)


def test_ball_statistics_array_equals_scalars():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4):
        X = rng.normal(size=(120, n))
        X *= (rng.uniform(0.0, 0.99, 120) / np.linalg.norm(X, axis=1))[:, None]
        got = ge.weighted_ball_volume(1.5, ge.pseudoball(X, 0.6), 48)
        assert np.array_equal(got, [ge.weighted_ball_volume(1.5, ge.pseudoball(x, 0.6), 48)
                                    for x in X])
        mu = me.Measure(n, [0.5 * X[0], 0.3 * X[1]], [1.0, 0.5],
                        me.Density("tabulated-radial", 0.5, 2.0, np.linspace(0.0, 1.0, 5),
                                   np.arange(5.0) + 1.0))
        got = me.measure_of_pseudoball(mu, ge.pseudoball(X, 0.5), 24)
        assert np.array_equal(got, [me.measure_of_pseudoball(mu, ge.pseudoball(x, 0.5), 24)
                                    for x in X])
        got = me.averaging(mu, -0.5, 0.5, X, 24)
        assert np.array_equal(got, [me.averaging(mu, -0.5, 0.5, x, 24) for x in X])


def test_averaging_of_volume_measure_is_one():
    mu = me.nu_alpha_measure(2, 0.7)
    rng = np.random.default_rng(31)
    for _ in range(8):
        x = rng.uniform(-0.6, 0.6, 2)
        assert me.averaging(mu, 0.7, 0.4, x) == pytest.approx(1.0, rel=1e-9)


def test_berezin2_volume_oracle():
    # mu = nu_alpha: tilde-mu == V_Phi / V_alpha exactly (series identity)
    for n, alpha, Phi in ((2, 0.0, 2.0), (3, 0.5, 1.5)):
        mu = me.nu_alpha_measure(n, alpha)
        for r in (0.0, 0.4, 0.8):
            x = np.zeros(n)
            x[0] = r
            got = me.berezin2(mu, Phi, alpha, x)
            assert got == pytest.approx(kc.v_alpha(n, Phi) / kc.v_alpha(n, alpha),
                                        rel=1e-12)


def test_berezin2_atom_at_origin():
    mu = me.Measure(2, [np.zeros(2)], [0.37])
    assert me.berezin2(mu, 2.0, 0.0, np.zeros(2)) == pytest.approx(0.37)


def berezin2_normalizer_quadrature(n, Phi, x, level):
    """Quadrature oracle for the kernel diagonal: int R_Phi(x, .)^2 dnu_Phi."""
    rule = ca.quadrature_build(n, Phi, level)
    kv = kc.kernel_eval_batch(n, Phi, x, rule.points, 1e-12)
    return float(np.dot(rule.weights, kv**2))


def test_berezin2_normalizer_cross_check():
    for n, Phi in ((2, 1.0), (3, 0.5)):
        x = np.zeros(n)
        x[0] = 0.5
        quad = berezin2_normalizer_quadrature(n, Phi, x, level=96)
        diag = float(kc.kernel_diag(n, Phi, np.array([0.25]))[0])
        assert quad == pytest.approx(diag, rel=1e-8)


@pytest.mark.parametrize("n", [2, 3])
def test_berezin2_array_matches_per_point(n):
    rng = np.random.default_rng(33)
    X = rng.uniform(-0.6, 0.6, (9, n))
    X[0] = 0.0
    atoms = atoms_measure(n, seed=34)
    densities = {
        "atoms": None,
        "power-weight": me.Density("power-weight", 0.5, 0.7),
        "tabulated": me.Density("tabulated-radial", 0.0, 1.0,
                                np.linspace(0.0, 1.0, 11),
                                np.linspace(1.0, 2.0, 11)),
    }
    for name, d in densities.items():
        k = None if d is None else 2
        mu = me.Measure(n, atoms.points[:k], atoms.weights[:k], d)
        level = 16 if name == "tabulated" else 64
        got = me.berezin2(mu, 1.5, 0.5, X, level=level)
        assert got.shape == (X.shape[0],)
        ref = np.array([me.berezin2(mu, 1.5, 0.5, x, level=level) for x in X])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, name


def test_berezin2_weight_flag():
    mu = me.Measure(2, density=me.Density("power-weight", -1.5, 1.0))
    with pytest.raises(ParameterError):
        me.berezin2(mu, 0.0, 1.0, np.zeros(2))


def test_berezin_type_atom_identity():
    # single atom: value = w (1-|x|^2)^s / [x, y0]^(alpha+n+s)
    w0 = 2.0
    y0 = np.zeros(2)
    mu = me.Measure(2, [y0], [w0])
    for r in (0.0, 0.54, 0.8):
        x = np.array([0.0, r])
        got = me.berezin_type(mu, 0.5, 1.5, x)
        expect = w0 * (1 - r**2) ** 1.5  # [x, 0] = 1
        assert got == pytest.approx(expect, rel=1e-12)


def test_berezin_type_volume_matches_quadrature():
    mu = me.nu_alpha_measure(2, 0.5)
    x = np.array([0.6, 0.1])
    got = me.berezin_type(mu, 0.5, 1.0, x, level=256)
    rule = ca.quadrature_build(2, 0.5, 96)
    b = ge.bracket_batch(x, rule.points) ** (-(0.5 + 2 + 1.0))
    expect = (1 - float(x @ x)) ** 1.0 * float(np.dot(rule.weights, b))
    assert got == pytest.approx(expect, rel=1e-9)


def test_berezin_type_n3_power_weight_positive():
    # n = 3 power-weight density through the closed angular mean, against a
    # product rule for the same integral; the integrand is positive
    c, alpha, s_exp = 0.5, 0.25, 1.0
    mu = me.Measure(3, density=me.Density("power-weight", c, 1.0))
    rule = ca.quadrature_build(3, c, 64)
    for x in (np.array([0.3, -0.2, 0.1]), np.array([0.0, 0.5, 0.4])):
        got = me.berezin_type(mu, alpha, s_exp, x)
        b = ge.bracket_batch(x, rule.points) ** (-(alpha + 3 + s_exp))
        expect = ((1 - float(x @ x)) ** s_exp * kc.v_alpha(3, c)
                  * float(np.dot(rule.weights, b)))
        assert got > 0.0
        assert got == pytest.approx(expect, rel=1e-9)


def test_kappa_from_mu_bookkeeping():
    mu = atoms_measure()
    mu.density = me.Density("power-weight", 1.0, 0.5)
    kap = me.kappa_from_mu(mu, 1.0, 0.5, 0.25)
    e = 1.0 + 0.5 - 0.25
    for x, w, xk, wk in zip(mu.points, mu.weights, kap.points, kap.weights):
        assert wk == pytest.approx(w * (1 - float(x @ x)) ** e, rel=1e-14)
    assert kap.density.exponent == pytest.approx(1.0 + e)


def test_carleson_volume_sup_finite(lat2):
    mu = me.nu_alpha_measure(2, 0.0)
    rep = me.carleson_statistic(mu, 1.0, 0.0, lat2)
    assert rep.kind == "sup-statistic"
    assert 0.0 < rep.value < 10.0
    assert rep.horizon == lat2.rmax


def test_carleson_homogeneity(lat2):
    mu = atoms_measure()
    v1 = me.carleson_statistic(mu, 1.0, 0.0, lat2).value
    v3 = me.carleson_statistic(mu.scaled(3.0), 1.0, 0.0, lat2).value
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_carleson_lp_kind(lat2):
    mu = atoms_measure()
    rep = me.carleson_statistic(mu, 0.5, 0.0, lat2)
    assert rep.kind == "lp-statistic"
    assert np.isfinite(rep.value)


def test_carleson_report_json(lat2):
    mu = atoms_measure()
    rep = me.carleson_statistic(mu, 1.0, 0.0, lat2)
    doc = json.loads(rep.to_json())
    assert doc["kind"] == "sup-statistic"
    assert doc["horizon"] == lat2.rmax
    assert len(doc["shells"]) == 12


def test_vanishing_profile_classifications(lat2):
    decaying = me.Measure(2, density=me.Density("power-weight", 4.0, 1.0))
    prof = me.vanishing_profile(decaying, 1.0, 0.0, lat2)
    assert prof.vanishing
    flat = me.nu_alpha_measure(2, 0.0)
    prof2 = me.vanishing_profile(flat, 1.0, 0.0, lat2)
    assert not prof2.vanishing
    prof3 = me.vanishing_profile(flat, 0.5, 0.0, lat2)
    assert "carleson" in prof3.note


def test_transform_lp_norm_reports_horizon(lat2):
    rep = me.transform_lp_norm(
        lambda X: np.ones(X.shape[0]), 1.0, -2.0, lat2)
    assert rep.horizon == lat2.rmax
    assert rep.lattice_sum == float(len(lat2.points))
    assert rep.growth_ratio > 1.0


def test_embedding_constant_identity_measure():
    mu = me.nu_alpha_measure(2, 0.5)
    est = me.embedding_constant_estimate(mu, 2.0, 2.0, 0.5, trials=10, seed=3)
    assert est == pytest.approx(1.0, rel=1e-4)


def test_berezin_type_table_matches_nodewise_mpmath():
    # the density term is one bracket series over the level radial nodes,
    # after Euler's transformation; summed node by node instead, it is the
    # 2F1 angular mean at each node, at 30 digits.  At r = 0.999 and 0.9999
    # the series runs to thousands of terms
    import mpmath
    d = me.Density("tabulated-radial", 0.5, 2.0, np.array([0.0, 0.3, 0.7, 1.0]),
                   np.array([1.0, 2.0, 0.5, 0.1]))
    for n in (2, 3):
        rho, W = d.radial_rule(n, 0.0, 32)
        mu = me.Measure(n, density=d)
        for alpha in (-0.5, 1.0):
            for s_exp in (0.5, 2.0):
                sigma = alpha + n + s_exp
                for r in (0.3, 0.9, 0.97, 0.999, 0.9999):
                    x = np.zeros(n)
                    x[0] = r
                    with mpmath.workdps(30):
                        want = (1 - mpmath.mpf(r) ** 2) ** s_exp * mpmath.fsum(
                            mpmath.mpf(w) * mpmath.hyp2f1(sigma / 2, sigma / 2 - (n - 2) / 2,
                                                          n / 2, (mpmath.mpf(r) * p) ** 2)
                            for p, w in zip(rho.tolist(), W.tolist()))
                    got = me.berezin_type(mu, alpha, s_exp, x, level=32)
                    assert got == pytest.approx(float(want), rel=1e-12), (n, alpha, s_exp, r)
