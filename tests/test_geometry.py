import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbesov import geometry as ge


def _pt(rng, n=2, rmax=0.95):
    x = rng.normal(size=n)
    return x * rng.uniform(0, rmax) / np.linalg.norm(x)


def test_bracket_basics():
    x = np.array([0.3, -0.4])
    assert ge.bracket(x, x) == pytest.approx(1 - 0.25)
    assert ge.bracket(x, np.zeros(2)) == 1.0
    y = np.array([0.1, 0.2])
    assert ge.bracket(x, y) == ge.bracket(y, x)


def test_rho_same_bits_in_any_batch_shape():
    # a pair gives the same rho and bracket from a single-pair call, a row
    # call and a block call, rim points included
    rng = np.random.default_rng(7)
    P = np.array([_pt(rng, 3, 0.9999) for _ in range(40)])
    rows, brows = ge.rho_batch(P, P), ge.bracket_batch(P, P)
    for i in range(len(P)):
        row, brow = ge.rho_batch(P[i], P), ge.bracket_batch(P[i], P)
        for j in range(len(P)):
            assert ge.rho(P[i], P[j]) == row[j] == rows[i, j]
            assert ge.bracket(P[i], P[j]) == brow[j] == brows[i, j]


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_rho_and_bracket_at_rim_mpmath(eps):
    # |x| = |y| = 1 - eps: the old 1 - 2x.y + |x|^2|y|^2 lost up to 5e-2 here
    import mpmath
    x = np.array([1.0 - eps, 0.0])
    for angle in (1e-9, 1e-7, 1e-4, 0.3):
        y = (1.0 - eps) * np.array([math.cos(angle), math.sin(angle)])
        with mpmath.workdps(40):
            xm, ym = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
            dot = sum(a * b for a, b in zip(xm, ym))
            b = mpmath.sqrt(1 - 2 * dot + sum(a * a for a in xm) * sum(c * c for c in ym))
            d = mpmath.sqrt(sum((a - c) ** 2 for a, c in zip(xm, ym)))
            want_b, want_rho = float(b), float(d / b)
        assert ge.bracket(x, y) == pytest.approx(want_b, rel=1e-9)
        assert ge.rho(x, y) == pytest.approx(want_rho, rel=1e-9)


def test_mobius_involution_and_swap():
    rng = np.random.default_rng(20)
    for n in (2, 3):
        for _ in range(20):
            a = _pt(rng, n, 0.9)
            x = _pt(rng, n, 0.9)
            assert np.allclose(ge.mobius(a, ge.mobius(a, x)), x, atol=1e-12)
        assert np.allclose(ge.mobius(a, np.zeros(n)), a)
        assert np.allclose(ge.mobius(a, a), np.zeros(n), atol=1e-12)


def test_rho_invariance_under_mobius():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = _pt(rng, 2, 0.8)
        x = _pt(rng, 2, 0.9)
        y = _pt(rng, 2, 0.9)
        d1 = ge.rho(x, y)
        d2 = ge.rho(ge.mobius(a, x), ge.mobius(a, y))
        assert d2 == pytest.approx(d1, rel=1e-10, abs=1e-12)


def test_rho_range_and_zero():
    rng = np.random.default_rng(22)
    x = _pt(rng, 3, 0.9)
    assert ge.rho(x, x) == 0.0
    y = _pt(rng, 3, 0.9)
    assert 0.0 <= ge.rho(x, y) < 1.0


def test_pseudoball_is_metric_ball():
    # E_delta(x) as a Euclidean ball: boundary points have rho = delta
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = _pt(rng, 2, 0.9)
        ball = ge.pseudoball(x, 0.4)
        th = rng.uniform(0, 2 * np.pi)
        bd = ball.euclid_center + ball.euclid_radius * np.array(
            [np.cos(th), np.sin(th)])
        assert ge.rho(x, bd) == pytest.approx(0.4, rel=1e-10)
        assert ge.rho(x, ball.euclid_center) < 0.4


def test_weighted_ball_volume_alpha0_oracle():
    # alpha = 0: nu(E) equals the Euclidean volume ratio exactly
    rng = np.random.default_rng(24)
    for n, level in ((2, 48), (3, 48), (4, 12)):
        x = _pt(rng, n, 0.8)
        ball = ge.pseudoball(x, 0.5)
        got = ge.weighted_ball_volume(0.0, ball, level)
        assert got == pytest.approx(ball.euclid_radius**n, rel=1e-10)


def test_weighted_ball_volume_center_oracle():
    # ball at the origin with weight: closed Beta-form oracle
    from scipy.special import betainc
    ball = ge.pseudoball(np.zeros(2), 0.6)
    alpha = 1.5
    got = ge.weighted_ball_volume(alpha, ball)
    # nu_alpha(B(0,r)) = I_{r^2}(n/2, alpha+1) (regularized incomplete Beta)
    assert got == pytest.approx(betainc(1.0, alpha + 1.0, 0.36), rel=1e-10)


def _rows(rng, n, m, rmax):
    """m points of the ball, the origin and |x| = rmax among them."""
    A = rng.normal(size=(m, n))
    mods = np.concatenate([[0.0, rmax], rng.uniform(0.0, rmax, m - 2)])
    return A * (mods / np.linalg.norm(A, axis=1))[:, None]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pseudoball_integral_nu0_closed_form(n):
    # nu(E_delta(a)) = (delta (1 - |a|^2) / (1 - delta^2 |a|^2))^n, from the
    # array and from each scalar centre
    A = _rows(np.random.default_rng(60 + n), n, 40, 0.999)
    r2 = np.einsum("ij,ij->i", A, A)
    for delta in (0.3, 0.5, 0.9):
        exact = (delta * (1.0 - r2) / (1.0 - delta**2 * r2)) ** n
        ones = ge.pseudoball_integral(A, delta, np.ones_like, 24)
        assert np.allclose(ones, exact, rtol=1e-13, atol=0.0)
        got = ge.weighted_ball_volume(0.0, ge.pseudoball(A, delta), 24)
        assert np.allclose(got, exact, rtol=1e-13, atol=0.0)
        for a, e in zip(A[:6], exact[:6]):
            assert ge.weighted_ball_volume(0.0, ge.pseudoball(a, delta), 24) == \
                pytest.approx(e, rel=1e-13)


def _polar_reference(a, delta, alpha, m):
    """nu_alpha(E_delta(a)) by a plain polar rule about the Euclidean centre:
    m Gauss-Legendre radii, and 2m equispaced azimuths (times m Gauss-Legendre
    nodes in cos(theta) for n = 3); V_alpha from Gamma values."""
    ball = ge.pseudoball(a, delta)
    n, R = a.shape[0], ball.euclid_radius
    x, wx = np.polynomial.legendre.leggauss(m)
    s = R * (x + 1.0) / 2.0
    ws = n * s ** (n - 1) * wx * R / 2.0
    phi = np.pi * np.arange(2 * m) / m
    dirs, wd = np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(2 * m, 0.5 / m)
    if n == 3:
        st = np.sqrt(1.0 - x**2)
        dirs = np.concatenate([(st[:, None, None] * dirs[None]).reshape(-1, 2),
                               np.repeat(x, 2 * m)[:, None]], axis=1)
        wd = np.outer(wx / 2.0, wd).ravel()
    Y = ball.euclid_center + (s[:, None, None] * dirs[None]).reshape(-1, n)
    u = 1.0 - np.einsum("ij,ij->i", Y, Y)
    v = math.gamma(n / 2 + 1) * math.gamma(alpha + 1) / math.gamma(n / 2 + alpha + 1)
    return float(np.outer(ws, wd).ravel() @ u**alpha) / v


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 1.5])
def test_weighted_ball_volume_matches_polar_reference(n, alpha):
    A = _rows(np.random.default_rng(70 + n), n, 8, 0.99)
    got = ge.weighted_ball_volume(alpha, ge.pseudoball(A, 0.5), 48)
    ref = np.array([_polar_reference(a, 0.5, alpha, 64) for a in A])
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_lemma22_bracket_bounds_random():
    rng = np.random.default_rng(25)
    m = 20_000
    X = rng.normal(size=(m, 2))
    X *= (0.98 * rng.uniform(size=m) ** 0.5 / np.linalg.norm(X, axis=1))[:, None]
    Y = rng.normal(size=(m, 2))
    Y *= (0.98 * rng.uniform(size=m) ** 0.5 / np.linalg.norm(Y, axis=1))[:, None]
    A = rng.normal(size=(m, 2))
    A *= (0.98 * rng.uniform(size=m) ** 0.5 / np.linalg.norm(A, axis=1))[:, None]

    def br(P, Q):
        return np.sqrt(1.0 - 2.0 * np.einsum("ij,ij->i", P, Q)
                       + np.einsum("ij,ij->i", P, P)
                       * np.einsum("ij,ij->i", Q, Q))

    rho = np.linalg.norm(X - Y, axis=1) / br(X, Y)
    ratio = br(X, A) / br(Y, A)
    lo = (1 - rho) / (1 + rho)
    hi = (1 + rho) / (1 - rho)
    assert np.all(ratio >= lo - 1e-12)
    assert np.all(ratio <= hi + 1e-12)


def test_lattice_gen_validation():
    with pytest.raises(ValueError):
        ge.lattice_gen(2, 1.2, 0.9)
    with pytest.raises(ValueError):
        ge.lattice_gen(2, 0.5, 1.0)
    with pytest.raises(ValueError):
        # horizon too close to 1 for the budget
        ge.lattice_gen(2, 0.01, 1 - 1e-9, max_points=1000)


def test_lattice_origin_first_and_deterministic():
    lat1 = ge.lattice_gen(2, 0.6, 0.9)
    lat2 = ge.lattice_gen(2, 0.6, 0.9)
    assert np.array_equal(lat1.points, lat2.points)
    assert np.all(lat1.points[0] == 0.0)


def test_lattice_audits_n2():
    lat = ge.lattice_gen(2, 0.5, 0.9)
    assert ge.lattice_separation(lat) >= 0.5 - 1e-12
    uncovered, mult = ge.lattice_coverage(lat, samples=4000, seed=3)
    assert uncovered == 0
    assert mult <= lat.multiplicity_bound


def test_lattice_audits_n3():
    lat = ge.lattice_gen(3, 0.6, 0.85)
    assert ge.lattice_separation(lat) >= 0.6 - 1e-12
    uncovered, mult = ge.lattice_coverage(lat, samples=3000, seed=4)
    assert uncovered == 0
    assert mult <= lat.multiplicity_bound


def test_lattice_audits_n4():
    lat = ge.lattice_gen(4, 0.5, 0.6)
    assert ge.lattice_separation(lat) >= 0.5 - 1e-12
    uncovered, mult = ge.lattice_coverage(lat, samples=3000, seed=5)
    assert uncovered == 0
    assert mult <= lat.multiplicity_bound


def test_lattice_fill_covers_six_seeds():
    lat = ge.lattice_gen(2, 0.5, 0.9)
    assert ge.lattice_separation(lat) >= 0.5 - 1e-12
    for seed in range(6):
        uncovered, mult = ge.lattice_coverage(lat, samples=4000, seed=seed)
        assert uncovered == 0
        assert mult <= lat.multiplicity_bound


def _coverage_loop_reference(lat, samples, seed):
    """The per-sample audit: each sample's conflict-radius neighbours from a
    cKDTree, then rho < delta against them."""
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, lat.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    X = (lat.rmax * rng.uniform(size=samples) ** (1.0 / lat.n))[:, None] * dirs
    tree = cKDTree(lat.points)
    uncovered = maxmult = 0
    for x in X:
        idx = tree.query_ball_point(x, float(ge._conflict_radius(lat.delta, 1.0 - x @ x)))
        mult = int(np.sum(ge.rho_batch(x, lat.points[idx]) < lat.delta)) if idx else 0
        uncovered += mult == 0
        maxmult = max(maxmult, mult)
    return uncovered, maxmult


@pytest.mark.parametrize("n, delta, rmax", [(2, 0.5, 0.9), (3, 0.6, 0.85), (4, 0.5, 0.6)])
def test_coverage_matches_loop_reference(n, delta, rmax):
    lat = ge.lattice_gen(n, delta, rmax)
    for seed in (0, 1, 2):
        assert ge.lattice_coverage(lat, 4000, seed) == _coverage_loop_reference(lat, 4000, seed)
    # a lattice of the origin alone leaves most samples uncovered
    lone = ge.Lattice(n, delta, rmax, 64, np.zeros((1, n)))
    assert ge.lattice_coverage(lone, 4000, 0) == _coverage_loop_reference(lone, 4000, 0)


def _separation_pairs_reference(P):
    best = 1.0
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            best = min(best, ge.rho(P[i], P[j]))
    return best


def test_separation_matches_all_pairs():
    """lattice_separation is the exact minimum over pairs whenever that is
    below 1.05 delta, and otherwise some value >= 1.05 delta."""
    rng = np.random.default_rng(7)
    cloud = rng.normal(size=(200, 3))
    cloud *= (0.6 * rng.uniform(size=200) ** (1 / 3) / np.linalg.norm(cloud, axis=1))[:, None]
    cases = [ge.lattice_gen(*a) for a in [(2, 0.5, 0.9), (3, 0.6, 0.85), (4, 0.5, 0.6)]]
    cases += [ge.Lattice(2, 0.5, 0.9, 64, np.zeros((1, 2))),
              # 201 points span two blocks; the duplicate pair crosses them
              ge.Lattice(3, 0.1, 0.6, 64, cloud),
              ge.Lattice(3, 0.1, 0.6, 64, np.concatenate([cloud, cloud[3:4]])),
              ge.Lattice(2, 0.5, 0.995, 64, np.array([[0.99, 0.0], [0.0, 0.99]])),
              # 1.05 delta > 1: every pair is within reach
              ge.Lattice(2, 0.97, 0.99, 64, np.array([[0.0, 0.0], [0.975, 0.0], [0.0, 0.98]]))]
    for lat in cases:
        got, ref = ge.lattice_separation(lat), _separation_pairs_reference(lat.points)
        if ref < 1.05 * lat.delta:
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
        else:
            assert got >= 1.05 * lat.delta
    assert ge.lattice_separation(cases[3]) == 1.0
    assert ge.lattice_separation(cases[5]) == 0.0


@pytest.mark.parametrize("n, delta, rmax", [(2, 0.5, 0.9), (3, 0.5, 0.7)])
def test_fill_greedy_step_matches_loop_reference(n, delta, rmax):
    # on the root-net centres, the vectorised greedy step takes exactly the
    # points of a plain loop that tests each candidate against every point
    # taken before it
    P = np.zeros((1, n))
    C = ge._cells(*ge._root_net(n, rmax, delta / 2.0))[0]
    ref = [np.zeros(n)]
    for x in C:
        if ge.rho_batch(x, np.array(ref)).min() >= delta:
            ref.append(x)
    got = ge._select(C, ge._min_rho(C, P, delta), delta)
    assert len(got) > 0
    assert np.array_equal(np.concatenate([P, got]), np.array(ref))


def test_lattice_gen_draws_no_random_numbers(monkeypatch):
    ref = ge.lattice_to_json(ge.lattice_gen(2, 0.5, 0.9))
    np.random.seed(7)
    np.random.default_rng(8).normal(size=5)
    state = np.random.get_state()

    def no_rng(*args, **kwargs):
        raise AssertionError("lattice_gen asked for a random generator")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert ge.lattice_to_json(ge.lattice_gen(2, 0.5, 0.9)) == ref
    after = np.random.get_state()
    assert np.array_equal(after[1], state[1]) and after[2] == state[2]


@pytest.mark.parametrize("n, delta, rmax", [(2, 0.5, 0.9), (2, 0.5, 0.99),
                                            (3, 0.5, 0.7), (3, 0.6, 0.85),
                                            (4, 0.5, 0.6)])
def test_lattice_points_inside_horizon(n, delta, rmax):
    lat = ge.lattice_gen(n, delta, rmax)
    assert np.all(np.linalg.norm(lat.points, axis=1) <= rmax)


@pytest.mark.parametrize("n, rmax, h", [(2, 0.9, 0.25), (3, 0.7, 0.25), (4, 0.6, 0.25)])
def test_root_net_covering_radius(n, rmax, h):
    # each point lies within its box's certified radius of the box centre,
    # and every radius is at most eps0 = tanh(n atanh(h / 2))
    lo, hi = ge._root_net(n, rmax, h)
    centres, moves = ge._cells(lo, hi)
    eps = np.tanh(np.arctanh(moves).sum(axis=1))
    assert eps.max() <= np.tanh(n * np.arctanh(h / 2))
    assert np.all(np.linalg.norm(centres, axis=1) <= rmax)
    rng = np.random.default_rng(40 + n)
    X = rng.normal(size=(3000, n))
    X *= (rmax * rng.uniform(size=3000) ** (1 / n) / np.linalg.norm(X, axis=1))[:, None]
    X[:500] *= rmax / np.linalg.norm(X[:500], axis=1)[:, None]  # the rim itself
    # hyperspherical angles: cos phi_j is x_{n-j+1} / |(x_1, ..., x_{n-j+1})|
    # for j <= n - 2, and phi_{n-1} is the azimuth of (x_1, x_2)
    polar = [np.arctan2(np.linalg.norm(X[:, :n - j], axis=1), X[:, n - j])
             for j in range(1, n - 1)]
    coords = np.column_stack([np.arctanh(np.linalg.norm(X, axis=1))] + polar
                             + [np.mod(np.arctan2(X[:, 1], X[:, 0]), 2 * np.pi)])
    for x, c in zip(X, coords):
        box = np.flatnonzero(np.all((lo <= c + 1e-12) & (c <= hi + 1e-12), axis=1))[0]
        assert ge.rho(x, centres[box]) <= eps[box] + 1e-12
        assert float(ge.rho_batch(x, centres).min()) <= eps.max()


def test_lattice_json_roundtrip():
    lat = ge.lattice_gen(2, 0.6, 0.9)
    doc = json.loads(ge.lattice_to_json(lat))
    assert set(doc) == {"n", "delta", "rmax", "multiplicity_bound", "points"}
    rt = ge.lattice_from_json(ge.lattice_to_json(lat))
    assert rt.n == lat.n and rt.delta == lat.delta
    assert np.array_equal(rt.points, lat.points)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(0.0, 2 * np.pi),
       st.floats(0.05, 0.9), st.floats(0.0, 2 * np.pi))
def test_bracket_positive_inside_ball(r1, t1, r2, t2):
    x = r1 * np.array([np.cos(t1), np.sin(t1)])
    y = r2 * np.array([np.cos(t2), np.sin(t2)])
    b = ge.bracket(x, y)
    # (1-|x||y|)^... bounds: 1 - |x||y| <= [x,y] <= 1 + |x||y|
    assert (1 - r1 * r2) - 1e-12 <= b <= (1 + r1 * r2) + 1e-12
