"""Positive measures on the ball: averaging functions, Berezin-type
transforms, Carleson statistics, and the weight-shifted measure kappa.

A measure is finitely many atoms plus an optional radial density
scale * (1-|y|^2)^exponent * g(|y|) against the normalized volume measure:
g = 1 for a power weight, g the linear interpolant of a table (radii,
values) for a tabulated density; the exponent applies to both.  Only
Density knows its kind: other code meets it through radial(), moments() and
radial_rule().
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import calculus as ca
from . import geometry as ge
from . import kernelcore as kc
from .errors import ParameterError


@dataclass
class Density:
    """scale * (1-|y|^2)^exponent * g(|y|) against dnu; a table's g is
    constant beyond its end nodes."""
    kind: str            # "power-weight" | "tabulated-radial"
    exponent: float = 0.0
    scale: float = 1.0
    radii: np.ndarray | None = None
    values: np.ndarray | None = None

    def _g(self, r):
        return 1.0 if self.kind == "power-weight" else np.interp(r, self.radii, self.values)

    def _weight(self, w: float) -> float:
        c = w + self.exponent
        if c <= -1.0:
            raise ParameterError("w + c > -1",
                                 f"density weight {c} not integrable")
        return c

    def radial(self, r: np.ndarray) -> np.ndarray:
        """Density value against dnu as a function of |y|."""
        return self.scale * (1.0 - r**2) ** self.exponent * self._g(r)

    def radial_rule(self, n: int, w: float, level: int):
        """Radii r_i and weights W_i with sum_i W_i f(r_i) approximating
        int f(|y|) (1-|y|^2)^w dmu.

        The level Gauss-Jacobi nodes of the combined exponent w + exponent
        (calculus._radial_rule), weighted by g: exact for f polynomial in
        r^2 of degree < 2 level when g = 1.
        """
        c = self._weight(w)
        r, wr = ca._radial_rule(n, c, level)
        return r, self.scale * kc.v_alpha(n, c) * wr * self._g(r)

    def moments(self, n: int, w: float, K: int, level: int = 64) -> np.ndarray:
        """M_k = int |y|^{2k} (1-|y|^2)^w dmu for k = 0..K.

        Closed form scale V_{w+c} m_k(w+c) for a power weight; for a table,
        the sum of g over the level nodes of radial_rule.
        """
        if self.kind == "power-weight":
            c = self._weight(w)
            return self.scale * kc.v_alpha(n, c) * ca.radial_moments(n, c, K)
        r, W = self.radial_rule(n, w, level)
        return np.power.outer(r * r, np.arange(K + 1)).T @ W


@dataclass
class Measure:
    """Atoms weights[a] delta_{points[a]} plus an optional radial density.

    points (A, n) and weights (A,) are copied to read-only float64 arrays
    and checked once here: A may be 0, every weight is positive and every
    point lies strictly inside the ball (NaN fails both tests).
    """
    n: int
    points: np.ndarray = ()
    weights: np.ndarray = ()
    density: Density | None = None

    def __post_init__(self):
        X = np.array(self.points, dtype=np.float64).reshape(-1, self.n)
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (X.shape[0],):
            raise ValueError(f"{X.shape[0]} atom points in R^{self.n} "
                             f"but weights of shape {w.shape}")
        if not np.all(w > 0.0):
            raise ValueError("atom weights must be positive")
        if not np.all(np.einsum("ij,ij->i", X, X) < 1.0):
            raise ValueError("atom locations must lie strictly inside the ball")
        X.flags.writeable = w.flags.writeable = False
        self.points, self.weights = X, w

    def scaled(self, c: float) -> "Measure":
        d = self.density
        if d is not None:
            d = replace(d, scale=d.scale * c)
        return Measure(self.n, self.points, c * self.weights, d)


def nu_alpha_measure(n: int, alpha: float) -> Measure:
    """The normalized weight-alpha volume measure as a Measure value."""
    return Measure(n, density=Density("power-weight", alpha, 1.0 / kc.v_alpha(n, alpha)))


def measure_to_json(mu: Measure) -> str:
    d = None
    if mu.density is not None:
        d = {"kind": mu.density.kind, "exponent": mu.density.exponent,
             "scale": mu.density.scale}
        if mu.density.kind == "tabulated-radial":
            d["radii"] = [float(v) for v in mu.density.radii]
            d["values"] = [float(v) for v in mu.density.values]
    return json.dumps({
        "n": mu.n,
        "atoms": [{"x": x, "w": w} for x, w in zip(mu.points.tolist(), mu.weights.tolist())],
        "density": d,
    }, separators=(",", ":"))


def measure_from_json(text: str) -> Measure:
    doc = json.loads(text)
    for key in ("n", "atoms"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"measure file missing /{key}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f"measure file: /n must be an integer >= 2, got {n!r}")
    if not isinstance(doc["atoms"], list):
        raise ValueError("measure file: /atoms must be a list")
    points, weights = [], []
    for i, a in enumerate(doc["atoms"]):
        for key in ("x", "w"):
            if not isinstance(a, dict) or key not in a:
                raise ValueError(f"measure file missing /atoms/{i}/{key}")
        x = _json_vector(a["x"], f"/atoms/{i}/x")
        if x.size != n or not np.all(np.isfinite(x)):
            raise ValueError(f"measure file: /atoms/{i}/x must be {n} finite numbers")
        w = _json_number(a["w"], f"/atoms/{i}/w")
        if w <= 0.0:
            raise ValueError(f"measure file: /atoms/{i}/w must be positive, got {w}")
        points.append(x)
        weights.append(w)
    d = doc.get("density")
    if d is not None and not isinstance(d, dict):
        raise ValueError("measure file: /density must be an object or null")
    return Measure(n, points, weights, None if d is None else _density_from_json(d))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_vector(v, path: str) -> np.ndarray:
    if not (isinstance(v, list) and all(_is_number(e) for e in v)):
        raise ValueError(f"measure file: {path} must be a list of numbers")
    return np.asarray(v, dtype=np.float64)


def _json_number(v, path: str) -> float:
    if not (_is_number(v) and math.isfinite(v)):
        raise ValueError(f"measure file: {path} must be a finite number, got {v!r}")
    return float(v)


def _density_from_json(d: dict) -> Density:
    kind = d.get("kind")
    if kind not in ("power-weight", "tabulated-radial"):
        raise ValueError("measure file: /density/kind must be "
                         "'power-weight' or 'tabulated-radial'")
    scale = _json_number(d.get("scale", 1.0), "/density/scale")
    if scale < 0.0:
        raise ValueError(f"measure file: /density/scale must be nonnegative, got {scale}")
    radii = values = None
    if kind == "tabulated-radial":
        radii = _json_vector(d.get("radii"), "/density/radii")
        values = _json_vector(d.get("values"), "/density/values")
        if not (2 <= radii.size == values.size and radii[0] >= 0.0
                and radii[-1] <= 1.0 and np.all(np.diff(radii) > 0.0)):
            raise ValueError("measure file: /density/radii must increase strictly "
                             "inside [0, 1], with at least 2 and as many as /density/values")
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ValueError("measure file: /density/values must be finite and nonnegative")
    return Density(kind, _json_number(d.get("exponent", 0.0), "/density/exponent"),
                   scale, radii, values)


# --------------------------------------------------------------------------
# measure of a metric ball


def measure_of_pseudoball(mu: Measure, ball: ge.PseudoBall, level: int = 32):
    """Atoms by the Euclidean-ball test, summed atom by atom in order;
    the density by geometry.pseudoball_integral.  A float, or an (N,) array
    for a ball of N centres."""
    C = np.atleast_2d(ball.euclid_center)
    total = np.zeros(C.shape[0])
    for x, w in zip(mu.points, mu.weights):
        total += np.where(np.linalg.norm(x - C, axis=1) < ball.euclid_radius, w, 0.0)
    if mu.density is not None:
        total += ge.pseudoball_integral(np.atleast_2d(ball.center_x), ball.delta,
                                        lambda u: mu.density.radial(np.sqrt(1.0 - u)),
                                        level)
    return float(total[0]) if ball.center_x.ndim == 1 else total


def averaging(mu: Measure, alpha: float, delta: float, x, level: int = 32):
    """mu(E_delta(x)) / nu_alpha(E_delta(x)); x of shape (N, n) gives an (N,) array."""
    if alpha <= -1.0:
        raise ParameterError("alpha > -1", f"alpha = {alpha}")
    ball = ge.pseudoball(x, delta)
    num = measure_of_pseudoball(mu, ball, level)
    den = ge.weighted_ball_volume(alpha, ball, max(level, 32))
    return num / den


# --------------------------------------------------------------------------
# Berezin-type transforms


def berezin2(mu: Measure, Phi: float, alpha: float, x,
             tol: float = 1e-12, level: int = 64):
    """Squared-kernel transform, normalized by the kernel diagonal.

    x of shape (n,) gives a float; x of shape (N, n) gives an (N,) array,
    each kernel series truncated once for all rows.  The density term is
    one series in the density's moments at weight Phi - alpha; level is the
    number of radial nodes behind the moments of a table.
    """
    if Phi <= -1.0:
        raise ParameterError("Phi > -1", f"Phi = {Phi}")
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    r2 = np.einsum("ij,ij->i", X, X)
    norm = kc.kernel_diag(mu.n, Phi, r2, tol)
    Y = mu.points
    kv = kc.kernel_eval_batch(mu.n, Phi, X, Y, tol)
    total = (kv**2) @ (mu.weights * (1.0 - np.einsum("ij,ij->i", Y, Y)) ** (Phi - alpha))
    if mu.density is not None:
        total += ca._kernel_power_integral_p2(
            mu.n, Phi, np.sqrt(r2),
            lambda K: mu.density.moments(mu.n, Phi - alpha, K, level))
    out = total / norm
    return float(out[0]) if x.ndim == 1 else out


def berezin_type(mu: Measure, alpha: float, s_exp: float, x,
                 level: int = 256) -> float:
    """Bracket-power transform (1-|x|^2)^s int dmu(y)/[x,y]^(alpha+n+s)."""
    if alpha <= -1.0:
        raise ParameterError("alpha > -1", f"alpha = {alpha}")
    if s_exp <= 0.0:
        raise ParameterError("s > 0", f"s = {s_exp}")
    x = np.asarray(x, dtype=np.float64)
    n = mu.n
    sigma = alpha + n + s_exp
    r = float(np.linalg.norm(x))
    total = float(np.sum(mu.weights * ge.bracket_batch(x, mu.points) ** (-sigma)))
    if mu.density is not None:
        rho, W = mu.density.radial_rule(n, 0.0, level)
        total += float(np.dot(W, ca._bracket_angular_mean(n, sigma, r * rho)))
    return (1.0 - r**2) ** s_exp * total


def kappa_from_mu(mu: Measure, s: float, t: float, alpha: float) -> Measure:
    """Reweighted measure: atoms and density multiplied by (1-|y|^2)^(s+t-alpha)."""
    e = s + t - alpha
    X, d = mu.points, mu.density
    return Measure(mu.n, X, mu.weights * (1.0 - np.einsum("ij,ij->i", X, X)) ** e,
                   None if d is None else replace(d, exponent=d.exponent + e))


# --------------------------------------------------------------------------
# Carleson statistics


@dataclass
class CarlesonReport:
    lam: float
    alpha: float
    delta: float
    kind: str            # "sup-statistic" (lam >= 1) | "lp-statistic" (lam < 1)
    value: float
    horizon: float
    per_point: np.ndarray  # columns: |a_k|, statistic term

    def to_json(self, shells: int = 12) -> str:
        r = self.per_point[:, 0]
        edges = np.linspace(0.0, self.horizon, shells + 1)
        shell_vals = []
        for i in range(shells):
            m = (r >= edges[i]) & (r < edges[i + 1])
            shell_vals.append(float(self.per_point[m, 1].max()) if m.any() else 0.0)
        return json.dumps({
            "lambda": self.lam, "alpha": self.alpha, "delta": self.delta,
            "kind": self.kind, "value": self.value, "horizon": self.horizon,
            "shells": shell_vals,
        }, separators=(",", ":"))


def carleson_statistic(mu: Measure, lam: float, alpha: float,
                       lattice: ge.Lattice, level: int = 24) -> CarlesonReport:
    """Lattice Carleson statistic of mu at ratio lam = q/p.

    lam >= 1: sup over the lattice of mu(E)/(1-|a_k|^2)^((n+alpha) lam).
    lam <  1: l^{1/(1-lam)} norm of hat-mu(a_k) (1-|a_k|^2)^((n+alpha)(1-lam)).
    """
    if lam <= 0.0:
        raise ParameterError("lambda > 0", f"lambda = {lam}")
    if alpha <= -1.0:
        raise ParameterError("alpha > -1", f"alpha = {alpha}")
    n = mu.n
    pts = lattice.points
    om = 1.0 - np.einsum("ij,ij->i", pts, pts)
    ball = ge.pseudoball(pts, lattice.delta)
    muE = measure_of_pseudoball(mu, ball, level)
    if lam >= 1.0:
        terms = muE / om ** ((n + alpha) * lam)
        value = float(terms.max())
        kind = "sup-statistic"
    else:
        hat = muE / ge.weighted_ball_volume(alpha, ball, max(level, 32))
        terms = hat * om ** ((n + alpha) * (1.0 - lam))
        ex = 1.0 / (1.0 - lam)
        value = float((terms**ex).sum() ** (1.0 / ex))
        kind = "lp-statistic"
    rr = np.linalg.norm(pts, axis=1)
    return CarlesonReport(float(lam), float(alpha), lattice.delta, kind, value,
                          lattice.rmax, np.stack([rr, terms], axis=1))


@dataclass
class VanishingProfile:
    lam: float
    alpha: float
    shell_edges: np.ndarray
    shell_max: np.ndarray
    vanishing: bool
    fitted_slope: float | None
    note: str = ""


def vanishing_profile(mu: Measure, lam: float, alpha: float,
                      lattice: ge.Lattice, shells=None,
                      level: int = 24) -> VanishingProfile:
    """Per-shell maxima of the boundary-decay statistic.

    Reported as a raw profile plus a threshold diagnostic (last populated
    shell below 5% of the first); never a hidden hard boolean.
    """
    if alpha <= -1.0:
        raise ParameterError("alpha > -1", f"alpha = {alpha}")
    n = mu.n
    if shells is None:
        shells = 1.0 - np.geomspace(1.0, 1.0 - lattice.rmax, 9)
    shells = np.asarray(shells, dtype=np.float64)
    note = ""
    if lam < 1.0:
        note = ("below lam = 1 the vanishing property is equivalent to the "
                "plain Carleson property; see carleson_statistic")
    pts = lattice.points
    rr = np.linalg.norm(pts, axis=1)
    stat = (1.0 - rr**2) ** ((n + alpha) * (1.0 - lam)) * averaging(
        mu, alpha, lattice.delta, pts, level)
    maxima = np.zeros(len(shells) - 1)
    for j in range(len(shells) - 1):
        m = (rr >= shells[j]) & (rr < shells[j + 1])
        if m.any():
            maxima[j] = stat[m].max()
    populated = maxima[maxima > 0]
    vanishing = bool(populated.size >= 2 and maxima[-1] < 0.05 * populated[0]) \
        or bool(maxima[-1] == 0.0 and populated.size > 0)
    slope = None
    mids = 0.5 * (shells[:-1] + shells[1:])
    good = maxima > 0
    if good.sum() >= 3:
        slope = ca.fit_slope(1.0 - mids[good] ** 2, maxima[good])
        slope = -slope  # decay rate in (1 - r^2)
    return VanishingProfile(float(lam), float(alpha), shells, maxima,
                            vanishing, slope, note)


# --------------------------------------------------------------------------
# L^p norms of transform fields against the (-n)-weighted measure


@dataclass
class TransformLpReport:
    lattice_sum: float
    radial_integral: float
    horizon: float
    growth_ratio: float  # full-horizon sum / half-horizon sum


def transform_lp_norm(field, p: float, beta: float,
                      lattice: ge.Lattice | None = None,
                      grid_points: int = 400) -> TransformLpReport:
    """Horizon-truncated int |field|^p dnu_beta, beta <= -1 allowed.

    Realized as the bounded-overlap lattice sum sum_k |field(a_k)|^p
    (exact substitute when beta = -n) plus a radial-grid cross-check of the
    integral itself; the horizon always accompanies the value so divergence
    is distinguishable from large-finite.
    """
    if p < 1.0:
        raise ParameterError("p >= 1", f"p = {p}")
    if lattice is None:
        raise ValueError("a lattice is required")
    n = lattice.n
    vals = np.abs(field(lattice.points)) ** p
    rr = np.linalg.norm(lattice.points, axis=1)
    lattice_sum = float(vals.sum())
    half = float(vals[rr <= 1.0 - math.sqrt(1.0 - lattice.rmax)].sum())
    growth = lattice_sum / half if half > 0 else math.inf
    # radial-grid cross-check of the integral against dnu_beta
    r = np.linspace(0.0, lattice.rmax, grid_points + 1)[1:]
    dirs, wd = ca.sphere_rule(n, 2)
    X = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    fv = (np.abs(field(X)) ** p).reshape(len(r), -1) @ wd
    w = (1.0 - r**2) ** beta * r ** (n - 1)
    integral = float(n / kc.v_alpha(n, beta) * np.trapezoid(fv * w, r))
    return TransformLpReport(lattice_sum, integral, lattice.rmax, growth)


def embedding_constant_estimate(mu: Measure, p: float, q: float, alpha: float,
                                trials: int = 50, seed: int = 0,
                                max_degree: int = 8, level: int = 64) -> float:
    """Monte Carlo lower bound for the embedding constant of mu.

    Maximizes (int |f|^q dmu)^{1/q} / ||f||_{p,alpha} over random harmonic
    polynomials (order-0 operators, so the norm is the plain weighted L^p norm).
    """
    if alpha <= -1.0:
        raise ParameterError("alpha > -1", f"alpha = {alpha}")
    params = ca.SpaceParams(mu.n, p, alpha, 0.0, 0.0)
    rule = ca.quadrature_build(mu.n, alpha, level)
    rule0 = ca.quadrature_build(mu.n, 0.0, level) if mu.density is not None else None
    best = 0.0
    for i in range(trials):
        f = ca.random_polynomial(mu.n, max_degree, seed + i)
        nrm = ca.besov_norm(params, f, rule)
        if nrm == 0.0:
            continue
        num = float(np.sum(mu.weights * np.abs(ca.evaluate_batch(f, mu.points)) ** q))
        if mu.density is not None:
            rr = np.sqrt(np.einsum("ij,ij->i", rule0.points, rule0.points))
            num += float(np.dot(rule0.weights,
                                np.abs(ca.evaluate_batch(f, rule0.points)) ** q
                                * mu.density.radial(rr)))
        best = max(best, num ** (1.0 / q) / nrm)
    return best
