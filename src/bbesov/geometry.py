"""Pseudohyperbolic metric, Mobius maps, metric balls, covering lattices."""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from . import kernelcore as kc


def bracket(x, y) -> float:
    """[x, y] = sqrt(1 - 2 x.y + |x|^2 |y|^2); symmetric, [x, x] = 1 - |x|^2."""
    return float(bracket_batch(x, y)[0])


def bracket_batch(x, Y) -> np.ndarray:
    """[x, y] for each row y of Y; for a 2-D x, the matrix over rows of x and Y."""
    return np.sqrt(_bracket2(x, Y)[1])


def _bracket2(x, Y):
    """(|x - y|^2, [x, y]^2) pair by pair with no matmul, so a pair's bits do not depend on
    the batch; [x, y]^2 = |x - y|^2 + (1 - |x|^2)(1 - |y|^2) does not cancel at the rim."""
    x, Y = np.asarray(x, dtype=np.float64), np.atleast_2d(np.asarray(Y, dtype=np.float64))
    X = np.atleast_2d(x)
    d2 = sum((X[:, j, None] - Y[None, :, j]) ** 2 for j in range(X.shape[1]))
    ox, oy = (1.0 - sum(A[:, j] ** 2 for j in range(A.shape[1])) for A in (X, Y))
    b2 = np.maximum(d2 + ox[:, None] * oy[None, :], 0.0)
    return (d2, b2) if x.ndim == 2 else (d2[0], b2[0])


def mobius(a, x) -> np.ndarray:
    """Involutive Mobius map of the ball exchanging a and 0."""
    a, x = np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64)
    d = a - x
    b2 = 1.0 - 2.0 * float(np.dot(x, a)) + float(np.dot(x, x)) * float(np.dot(a, a))
    return ((1.0 - float(np.dot(a, a))) * d + float(np.dot(d, d)) * a) / b2


def rho(x, y) -> float:
    """Pseudohyperbolic distance |x - y| / [x, y], in [0, 1) inside the ball."""
    return float(rho_batch(x, y)[0])


def rho_batch(x, Y) -> np.ndarray:
    """rho(x, y) for each row y of Y; for a 2-D x, the matrix over rows of x and Y."""
    d2, b2 = _bracket2(x, Y)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(b2 > 0, np.sqrt(d2) / np.sqrt(np.where(b2 > 0, b2, 1.0)), 0.0)


@dataclass
class PseudoBall:
    center_x: np.ndarray
    delta: float
    euclid_center: np.ndarray
    euclid_radius: float | np.ndarray  # (N,) for N centres


def pseudoball(x, delta: float) -> PseudoBall:
    """The metric ball of radius delta at x, as an explicit Euclidean ball;
    x of shape (N, n) gives N balls, with (N, n) centres and (N,) radii."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    x = np.asarray(x, dtype=np.float64)
    r2 = np.einsum("...i,...i->...", x, x)
    denom = 1.0 - delta**2 * r2
    c = (1.0 - delta**2) * x / denom[..., None]
    r = (1.0 - r2) * delta / denom
    return PseudoBall(x, float(delta), c, r if x.ndim == 2 else float(r))


# --------------------------------------------------------------------------
# integrals over metric balls


def pseudoball_integral(A: np.ndarray, delta: float, f, level: int) -> np.ndarray:
    """int over E_delta(a) of f(1 - |y|^2) dnu(y), for each row a of A (N, n).

    E_delta(a) is the Euclidean ball B(c, R).  With y = c + s w, 1 - |y|^2 =
    1 - |c|^2 - s (s + 2 |c| t) depends on w only through t = w.c / |c|, so
    one level x level rule serves every a and n: Gauss-Legendre in s on
    (0, R), weight n s^(n-1), times Gauss-Jacobi((n-3)/2, (n-3)/2) in t, the
    law of t on the sphere.  Exact for constant f; rows go in ~256 KB blocks.
    """
    ball = pseudoball(np.asarray(A, dtype=np.float64), delta)
    n = ball.center_x.shape[1]
    c, R = np.linalg.norm(ball.euclid_center, axis=1), ball.euclid_radius
    x, wx = ca.gauss_jacobi(level, 0.0, 0.0)
    s01 = (x + 1.0) / 2.0
    t, wt = ca.gauss_jacobi(level, (n - 3) / 2.0, (n - 3) / 2.0)
    W = np.outer(n * s01 ** (n - 1) * wx, wt)
    out = np.empty(c.shape[0])
    rows = max(1, (1 << 15) // W.size)
    for k in range(0, c.shape[0], rows):
        cb, s = c[k:k + rows, None, None], R[k:k + rows, None, None] * s01[:, None]
        out[k:k + rows] = np.einsum("kij,ij->k", f((1.0 - cb**2) - s * (s + 2.0 * cb * t)), W)
    return R**n * out


def weighted_ball_volume(alpha: float, ball: PseudoBall, level: int = 48):
    """nu_alpha(E); a float, or an (N,) array for a ball of N centres."""
    if alpha <= -1.0:
        raise ValueError("weight exponent must exceed -1")
    x = ball.center_x
    v = pseudoball_integral(np.atleast_2d(x), ball.delta, lambda u: u**alpha, level)
    v /= kc.v_alpha(x.shape[-1], alpha)
    return float(v[0]) if x.ndim == 1 else v


# --------------------------------------------------------------------------
# covering lattices


@dataclass
class Lattice:
    n: int
    delta: float
    rmax: float
    multiplicity_bound: int
    points: np.ndarray  # (N, n), origin first


def _conflict_radius(delta: float, one_minus_r2) -> np.ndarray:
    """Euclidean radius certainly containing all points within metric delta."""
    return delta * (1.0 + delta) / (1.0 - delta) * np.asarray(one_minus_r2)


def _cells(lo: np.ndarray, hi: np.ndarray):
    """Centres of polar boxes and metric bounds of the moves from a point of a
    box to its centre.  A box is a range of t = atanh|x|, of the angles
    phi_1..phi_{n-2} in [0, pi] and of phi_{n-1} in [0, 2 pi]; the last
    coordinate is cos phi_1, the next sin phi_1 cos phi_2, and so on.  The
    moves are: radially, tanh(dt / 2), then by arcs along phi_1, phi_2, ... on
    the centre's shell, of radius r; the arc along phi_j runs through the
    centre's earlier angles c_i, so its length is prod_{i<j} sin c_i times the
    half-width of phi_j.  On that shell points an arc L apart have
    rho <= L / (1 - r^2), as [x, y] >= 1 - r^2 there; those bounds stop just
    below 1 (rho < 1 in any case) to keep arctanh finite in _fill."""
    c, a = (lo + hi) / 2.0, (hi - lo) / 2.0
    n = lo.shape[1]
    r, s = np.tanh(c[:, 0]), 1.0
    u, arcs = np.empty_like(c), []
    for j in range(1, n - 1):
        u[:, n - j] = s * np.cos(c[:, j])
        arcs.append(s * a[:, j])
        s = s * np.sin(c[:, j])
    u[:, 0], u[:, 1] = s * np.cos(c[:, -1]), s * np.sin(c[:, -1])
    arcs.append(s * a[:, -1])
    moves = [np.minimum(r / (1.0 - r * r) * L, 1.0 - 1e-16) for L in arcs]
    return r[:, None] * u, np.column_stack([np.tanh(a[:, 0])] + moves)


def _halve(lo, hi):
    """Halve each box along its longest move; the two halves follow each other."""
    i, ax = np.arange(len(lo)), np.argmax(_cells(lo, hi)[1], axis=1)
    L, H = np.stack([lo, lo], axis=1), np.stack([hi, hi], axis=1)
    L[i, 1, ax] = H[i, 0, ax] = (lo[i, ax] + hi[i, ax]) / 2.0
    return L.reshape(-1, lo.shape[1]), H.reshape(-1, lo.shape[1])


def _root_net(n: int, rmax: float, h: float):
    """Polar boxes of |x| <= rmax, halved until every move is <= h / 2."""
    top = [math.atanh(rmax)] + [math.pi] * (n - 2) + [2.0 * math.pi]
    lo, hi = np.zeros((1, n)), np.array([top])
    while (big := _cells(lo, hi)[1].max(axis=1) > h / 2.0).any():
        halves = _halve(lo[big], hi[big])
        lo, hi = np.concatenate([lo[~big], halves[0]]), np.concatenate([hi[~big], halves[1]])
    return lo, hi


def _near(B: np.ndarray, P: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the rows of P within the conflict radius of some row of B."""
    mid = (B.max(axis=0) + B.min(axis=0)) / 2.0
    reach = (np.linalg.norm(B - mid, axis=1).max()
             + _conflict_radius(delta, 1.0 - np.einsum("ij,ij->i", B, B).min()))
    return np.linalg.norm(P - mid, axis=1) <= reach * (1.0 + 1e-12)


def _min_rho(X: np.ndarray, P: np.ndarray, delta: float) -> np.ndarray:
    """min(delta, rho(x, P)) for each row x of X, in blocks of about 1 MB; a
    block meets only the points of P within the conflict radius of its ball."""
    out = np.full(X.shape[0], float(delta))
    rows = max(1, (1 << 17) // max(1, P.shape[0]))
    for s in range(0, X.shape[0], rows):
        B = X[s:s + rows]
        near = P[_near(B, P, delta)]
        if near.shape[0]:
            out[s:s + rows] = np.minimum(out[s:s + rows], rho_batch(B, near).min(axis=1))
    return out


def _select(C: np.ndarray, d: np.ndarray, delta: float) -> np.ndarray:
    """Rows of C a greedy delta-separated pass takes in order: d >= delta (the
    distance to earlier points) and delta-far from the rows taken before."""
    free = np.flatnonzero(d >= delta)
    keep = []
    while free.size:
        keep.append(free[0])
        free = free[1:][rho_batch(C[free[0]], C[free[1:]]) >= delta]
    return C[keep]


_FILL_DEPTH = 48  # halvings of a root cell after which _fill stops


def _fill(P: np.ndarray, delta: float, rmax: float, max_boxes: int) -> np.ndarray:
    """Extend the delta-separated P until |x| <= rmax is certified covered.

    The strong triangle inequality rho(x, z) <= rho(x, y) (+) rho(y, z), with
    a (+) b = (a + b) / (1 + a b), joins the moves of _cells: a box lies
    within eps = (+) of its moves (plus 1e-9 of that, for rounding) of its
    centre c.  The root net, h = delta / 2, has every move <= h / 2 and so
    covers with eps0 = tanh(n atanh(h / 2)).  With d = rho(c, P), a cell is a
    gap if d >= delta (gaps are taken greedily in cell order), covered if
    eps (+) d < delta, i.e. d < (delta - eps) / (1 - delta eps), and else
    uncertain and halved; a cell with |x| < delta throughout is covered by
    the origin, P[0].  After _FILL_DEPTH halvings, a cell still uncertain is
    covered to within delta (+) eps.  A halving past max_boxes cells raises
    ValueError: at rmax = delta the cells on the horizon stay uncertain at
    every depth, and their number doubles with each halving.
    """
    lo, hi = _root_net(P.shape[1], rmax, delta / 2.0)
    for level in range(_FILL_DEPTH + 1):
        C, moves = _cells(lo, hi)
        d = _min_rho(C, P, delta)
        new = _select(C, d, delta)
        P, d = np.concatenate([P, new]), np.minimum(d, _min_rho(C, new, delta))
        eps = np.tanh(np.arctanh(moves).sum(axis=1)) * (1.0 + 1e-9) + 1e-12
        unsure = ((d >= (delta - eps) / (1.0 - delta * eps))
                  & (np.tanh(hi[:, 0]) >= delta * (1.0 - 1e-12)))
        if not unsure.any() or level == _FILL_DEPTH:
            return P
        if (boxes := 2 * int(unsure.sum())) > max_boxes:
            raise ValueError(f"the lattice fill would hold {boxes} boxes, over its "
                             f"budget of {max_boxes} (max_points / 4)")
        lo, hi = _halve(lo[unsure], hi[unsure])


def lattice_gen(n: int, delta: float, rmax: float,
                multiplicity_bound: int = 64,
                max_points: int = 2_000_000) -> Lattice:
    """Greedy maximal delta-separated net of |x| <= rmax, for every n >= 2.

    Deterministic for fixed (n, delta, rmax), with no random numbers: the
    origin first, then _fill takes the gaps of polar boxes in box order until
    coverage of |x| <= rmax is certified.  The size estimate, summed over the
    metrically equispaced radii tanh(j atanh(delta / 2)) < rmax, is checked
    against max_points before any box is built; _fill holds at most
    max_points / 4 boxes (295,032 at the peak for (4, 0.5, 0.8)).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < rmax < 1.0:
        raise ValueError("rmax must lie in (0, 1)")
    step = math.atanh(delta / 2.0)
    r = np.tanh(step * np.arange(int(math.atanh(rmax) / step) + 2))
    r = r[r < rmax]
    est = float(np.sum(np.maximum(1.0, 4.0 * r / (delta * (1 - r**2))) ** (n - 1) * 4))
    if est > max_points:
        raise ValueError(
            f"estimated lattice size {est:.2e} exceeds max_points={max_points}; "
            "use a smaller horizon")
    return Lattice(n, float(delta), float(rmax), int(multiplicity_bound),
                   _fill(np.zeros((1, n)), delta, rmax, max_points // 4))


def lattice_separation(lat: Lattice) -> float:
    """Minimum pairwise metric distance: exact whenever below 1.05 delta, else
    some value >= 1.05 delta (1.0 for one point).  Rows go in ~256 KB blocks,
    each against the later points within its conflict radius at 1.05 delta."""
    P, best = lat.points, 1.0
    rows = max(1, (1 << 15) // P.shape[0])
    for s in range(0, P.shape[0], rows):
        B = P[s:s + rows]
        j = s + 1 + np.flatnonzero(_near(B, P[s + 1:], min(1.05 * lat.delta, 1.0 - 1e-9)))
        if j.size:
            d = rho_batch(B, P[j])
            d[j[None, :] <= np.arange(s, s + B.shape[0])[:, None]] = np.inf
            best = min(best, float(d.min()))
    return best


def lattice_coverage(lat: Lattice, samples: int = 10_000, seed: int = 0):
    """Monte Carlo coverage/multiplicity audit inside the horizon.

    Returns (uncovered_count, max_multiplicity) over uniform samples of the
    Euclidean ball of radius rmax, counting rho < delta in ~256 KB blocks.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, lat.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    X = (lat.rmax * rng.uniform(size=samples) ** (1.0 / lat.n))[:, None] * dirs
    mult = np.zeros(samples, dtype=np.int64)
    rows = max(1, (1 << 15) // lat.points.shape[0])
    for s in range(0, samples, rows):
        mult[s:s + rows] = (rho_batch(X[s:s + rows], lat.points) < lat.delta).sum(axis=1)
    return int(np.sum(mult == 0)), int(mult.max(initial=0))


def lattice_to_json(lat: Lattice) -> str:
    doc = {"n": lat.n, "delta": lat.delta, "rmax": lat.rmax,
           "multiplicity_bound": lat.multiplicity_bound,
           "points": [[float(v) for v in p] for p in lat.points]}
    return json.dumps(doc, indent=None, separators=(",", ":"))


def lattice_from_json(text: str) -> Lattice:
    doc = json.loads(text)
    return Lattice(int(doc["n"]), float(doc["delta"]), float(doc["rmax"]),
                   int(doc["multiplicity_bound"]),
                   np.asarray(doc["points"], dtype=np.float64))
