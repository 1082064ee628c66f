"""Harmonic polynomials, radial differential operators, norms, quadrature,
and the quadrature kernel-power scan (the series scans live in ``series``).

A harmonic polynomial is stored as zonal atoms: its degree-k homogeneous
part is f_k(x) = sum_j c_j Z_k(x, eta_j) with unit-vector poles eta_j.
This representation is closed under the degree-diagonal operators used
throughout (each degree is simply rescaled) and evaluable in any dimension.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernelcore as kc
from . import series
from .errors import ParameterError
# no calculus code calls these names; they stay because perfbench/tracer.py
# wraps them here
from .kernelcore import zonal_series
from .series import bracket_integral_scan


# --------------------------------------------------------------------------
# harmonic polynomials


@dataclass
class HarmonicPolynomial:
    """Atom a is coefs[a] Z_{degrees[a]}(., poles[a]), poles unit vectors.

    degrees (A,), coefs (A,) and poles (A, n) are copied to read-only
    arrays and checked once here: the shapes agree, every degree is a
    nonnegative integer and every pole a unit vector (to 1e-12 in |eta|^2).
    A may be 0, the zero polynomial.
    """
    n: int
    degrees: np.ndarray = ()
    coefs: np.ndarray = ()
    poles: np.ndarray = ()

    def __post_init__(self):
        deg = np.array(self.degrees, dtype=np.float64)
        coef = np.array(self.coefs, dtype=np.float64)
        poles = np.array(self.poles, dtype=np.float64).reshape(-1, self.n)
        if not deg.shape == coef.shape == (poles.shape[0],):
            raise ValueError(f"{poles.shape[0]} poles in R^{self.n} but degrees of "
                             f"shape {deg.shape} and coefficients of shape {coef.shape}")
        # per atom in Python: A is small, and is_integer() is False at NaN and inf
        if not all(k >= 0 and k.is_integer() for k in deg.tolist()):
            raise ValueError(f"degrees must be nonnegative integers, got {deg}")
        if not all(abs(s - 1.0) <= 1e-12 for s in np.square(poles).sum(axis=1).tolist()):
            raise ValueError("poles must be unit vectors")
        deg = deg.astype(np.int64)
        deg.flags.writeable = coef.flags.writeable = poles.flags.writeable = False
        self.degrees, self.coefs, self.poles = deg, coef, poles

    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    def scaled(self, factors) -> "HarmonicPolynomial":
        """New polynomial with degree-k part multiplied by factors[k]."""
        return HarmonicPolynomial(self.n, self.degrees,
                                  self.coefs * np.asarray(factors)[self.degrees], self.poles)


def degree_values(f: HarmonicPolynomial, X) -> np.ndarray:
    """(max_degree + 1, N) array whose row k is f_k, the degree-k part of f,
    at each row of X, shape (N, n).

    One zonal recurrence (kc.zonal_terms) runs over the (rows x atoms)
    matrix of x . eta at a2 = |x|^2; its step k adds the degree-k columns
    times their coefficients.  Rows go in blocks of about 256 KB per
    temporary.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.zeros((f.max_degree() + 1, X.shape[0]))
    if f.degrees.size == 0:
        return out
    cols = [np.flatnonzero(f.degrees == k) for k in range(out.shape[0])]
    nu = (f.n - 2) / 2.0
    step = max(1, 32768 // f.degrees.size)
    for s in range(0, X.shape[0], step):
        Xb = X[s:s + step]
        a2 = np.einsum("ij,ij->i", Xb, Xb)[:, None]
        for k, S in zip(range(out.shape[0]), kc.zonal_terms(nu, Xb @ f.poles.T, a2)):
            if cols[k].size:
                out[k, s:s + step] = S[:, cols[k]] @ f.coefs[cols[k]]
    return out


def evaluate_batch(f: HarmonicPolynomial, X) -> np.ndarray:
    """f(x) at each row of X, shape (N, n)."""
    return degree_values(f, X).sum(axis=0)


def evaluate(f: HarmonicPolynomial, x) -> float:
    return float(evaluate_batch(f, np.asarray(x, dtype=np.float64)[None, :])[0])


def dts_apply(s: float, t: float, f: HarmonicPolynomial) -> HarmonicPolynomial:
    """Degree-diagonal operator: degree-k part scaled by gamma_k(s+t)/gamma_k(s)."""
    kmax = f.max_degree()
    return f.scaled(kc.gamma_coeffs(f.n, s + t, kmax) / kc.gamma_coeffs(f.n, s, kmax))


def random_polynomial(n: int, max_degree: int, seed: int) -> HarmonicPolynomial:
    """Reproducible random combination of zonal atoms (normal coefficients)."""
    rng = np.random.default_rng(seed)
    degrees = np.repeat(np.arange(max_degree + 1), 2)[1:]  # one atom of degree 0
    coefs, poles = np.empty(degrees.size), np.empty((degrees.size, n))
    for a in range(degrees.size):
        poles[a] = rng.normal(size=n)
        poles[a] /= np.linalg.norm(poles[a])
        coefs[a] = rng.normal()
    return HarmonicPolynomial(n, degrees, coefs, poles)


# --------------------------------------------------------------------------
# space parameters


@dataclass
class SpaceParams:
    n: int
    p: float
    alpha: float
    s: float
    t: float

    @property
    def flag_norm(self) -> bool:
        return self.alpha + self.p * self.t > -1.0

    @property
    def flag_proj(self) -> bool:
        return self.alpha + 1.0 < self.p * (self.s + 1.0)

    @property
    def flag_onenorm(self) -> bool:
        return (self.n + self.s + 1.0
                > self.n * max(1.0, 1.0 / self.p) + (1.0 + self.alpha) / self.p)


# --------------------------------------------------------------------------
# quadrature on the ball against the normalized weighted volume measure


@dataclass
class QuadratureRule:
    """Product of a radial rule and a sphere rule; points and weights, radius
    major, are derived from the two factors on first use."""
    n: int
    weight_exponent: float
    radii: np.ndarray           # (R,)
    radial_weights: np.ndarray  # (R,), sums to 1
    dirs: np.ndarray            # (D, n) unit vectors
    dir_weights: np.ndarray     # (D,), sums to 1

    @cached_property
    def points(self) -> np.ndarray:
        """(R * D, n) nodes r_i d_j."""
        return (self.radii[:, None, None] * self.dirs[None, :, :]).reshape(-1, self.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """(R * D,) weights, summing to 1."""
        return np.outer(self.radial_weights, self.dir_weights).ravel()


# Largest polar rule built; 2**24 nodes in R^4 take 512 MB of coordinates.
MAX_RULE_NODES = 2 ** 24
RULE_CACHE_KEYS = 256  # Tier-1 and `verify all` build 96 distinct rules
NEWTON_STEPS = 20
_rule_cache: dict = {}


def _jacobi_recurrence(m: int, a: float, b: float):
    """Diagonal al_k and off-diagonal sb_k = sqrt(beta_{k+1}), k < m, of the
    Jacobi matrix of (1-x)^a (1+x)^b, written in 1 + a and 1 + b so that
    exponents near -1 lose no digits to cancellation."""
    a1, b1 = 1.0 + a, 1.0 + b
    k = np.arange(1.0, m)
    s = 2.0 * k + a + b
    al = np.concatenate(([(b1 - a1) / (a1 + b1)], (b1 - a1) * (a + b) / (s * (s + 2.0))))
    be = np.concatenate(([4.0 * a1 * b1 / ((a1 + b1) ** 2 * (a1 + b1 + 1.0))],
                         4.0 * (k + 1.0) * (k + a1) * (k + b1) * (k + a1 + b1 - 1.0)
                         / ((s + 2.0) ** 2 * (s + 3.0) * (s + 1.0))))
    return al, np.sqrt(be)


def _orthonormal(x, al, sb):
    """p_m(x), p_m'(x) and sum_{j<m} p_j(x)^2 for the orthonormal polynomials
    sb_k p_{k+1} = (x - al_k) p_k - sb_{k-1} p_{k-1}, p_0 = 1: O(x.size) memory."""
    p0, p1, d0, d1 = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    total, bprev = np.zeros_like(x), 0.0
    for k in range(al.size):
        total += p1 * p1
        xa = x - al[k]
        p0, p1 = p1, (xa * p1 - bprev * p0) / sb[k]
        d0, d1 = d1, (p0 + xa * d1 - bprev * d0) / sb[k]
        bprev = sb[k]
    return p1, d1, total


def _newton(x, al, sb) -> bool:
    """Newton on p_m in place, each node until its step is at most 1e-13; True
    if every node converged within NEWTON_STEPS and the nodes increase
    strictly inside (-1, 1)."""
    live = np.arange(x.size)
    for _ in range(NEWTON_STEPS):
        p, d, _ = _orthonormal(x[live], al, sb)
        dx = p / d
        x[live] -= dx
        live = live[~(np.abs(dx) <= 1e-13)]
        if live.size == 0:
            return bool(np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0)
    return False


def _bisected(al, sb):
    """The eigenvalues of the Jacobi matrix to 2^-40, by bisection on Sturm
    counts (the negative pivots of J - x I), all nodes at once."""
    lo, hi, index = np.full(al.size, -1.0), np.full(al.size, 1.0), np.arange(al.size)
    b2 = sb * sb
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        d = al[0] - mid
        below = (d < 0.0).astype(np.int64)
        for k in range(1, al.size):
            d = al[k] - mid - b2[k - 1] / np.where(d == 0.0, 1e-300, d)
            below += d < 0.0
        above = below > index
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi)


def gauss_jacobi(m: int, a: float, b: float):
    """Increasing nodes x_i and weights w_i, summing to 1, of the m-point
    Gauss rule for (1-x)^a (1+x)^b on [-1, 1], a, b > -1: exact for
    polynomials of degree <= 2m - 1.

    Newton on the orthonormal three-term recurrence (Golub-Welsch 1969),
    vectorised over the nodes with O(m) memory, from Gatteschi's interior
    approximation (Hale-Townsend 2013); if that start fails, from Sturm
    bisection.  Weights are Christoffel's, 1/sum_j p_j(x_i)^2.  Raises
    ArithmeticError rather than return a rule whose Newton did not converge
    or whose nodes do not increase.  Memoised on (m, a, b), read-only.
    """
    key = (int(m), float(a), float(b))
    rule = _rule_cache.get(key)
    if rule is not None:
        return rule
    al, sb = _jacobi_recurrence(*key)
    rho = m + (a + b + 1.0) / 2.0
    psi = (np.arange(m, 0, -1) + a / 2.0 - 0.25) * np.pi / rho
    x = np.cos(psi + ((0.25 - a * a) / np.tan(psi / 2.0)
                      - (0.25 - b * b) * np.tan(psi / 2.0)) / (4.0 * rho * rho))
    if not _newton(x, al, sb):
        x = _bisected(al, sb)
        if not _newton(x, al, sb):
            raise ArithmeticError(f"no {m}-point Gauss-Jacobi({a}, {b}) rule: "
                                  "Newton did not converge to increasing nodes")
    w = 1.0 / _orthonormal(x, al, sb)[2]
    w /= w.sum()
    for arr in (x, w):
        arr.setflags(write=False)
    if len(_rule_cache) >= RULE_CACHE_KEYS:
        del _rule_cache[next(iter(_rule_cache))]
    _rule_cache[key] = x, w
    return x, w


def _radial_rule(n: int, alpha: float, m: int):
    """Nodes r_i and weights for the normalized radial measure.

    Integrates g(r) against (n/V_alpha) (1-r^2)^alpha r^{n-1} dr on (0, 1)
    exactly for g polynomial in r^2 of degree <= 2m-1; weights sum to 1.
    """
    x, w = gauss_jacobi(m, alpha, n / 2.0 - 1.0)
    return np.sqrt((x + 1.0) / 2.0), w


def sphere_rule(n: int, level: int):
    """Unit directions (N, n) and weights (N,) summing to 1 on S^{n-1}.

    Product rule (Stroud 1971): for n >= 3, level Gauss-Jacobi nodes t with
    weight (1-t^2)^((n-3)/2) in the last coordinate times the rule of
    S^{n-2} scaled by sqrt(1-t^2), down to a 2*level-point circle; for
    n = 2, the 4*level-point circle.  Exact for polynomials of degree
    <= 2*level - 1; N = 4*level for n = 2 and 2*level^(n-1) for n >= 3.
    """
    M = 4 * level if n == 2 else 2 * level
    theta = 2.0 * np.pi * np.arange(M) / M
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = np.full(M, 1.0 / M)
    for d in range(3, n + 1):
        t, wt = gauss_jacobi(level, (d - 3) / 2.0, (d - 3) / 2.0)
        st = np.sqrt(1.0 - t**2)
        dirs = np.concatenate([(st[:, None, None] * dirs[None]).reshape(-1, d - 1),
                               np.repeat(t, dirs.shape[0])[:, None]], axis=1)
        w = np.outer(wt, w).ravel()
    return dirs, w


def sphere_rule_size(n: int, level: int) -> int:
    """Number of directions in sphere_rule(n, level)."""
    return 4 * level if n == 2 else 2 * level ** (n - 1)


def quadrature_build(n: int, weight_exponent: float, level: int = 64) -> QuadratureRule:
    """Product rule integrating against the normalized weighted volume measure.

    Gauss-Jacobi in r^2 (level nodes) times sphere_rule(n, level), for any
    n >= 2: 4*level^2 nodes for n = 2 and 2*level^n for n >= 3.
    """
    if weight_exponent <= -1.0:
        raise ParameterError("weight exponent > -1",
                             f"weight exponent {weight_exponent} not integrable")
    size = level * sphere_rule_size(n, level)
    if size > MAX_RULE_NODES:
        raise ParameterError(f"at most {MAX_RULE_NODES} quadrature nodes",
                             f"a level-{level} rule in R^{n} has {size} nodes")
    return QuadratureRule(n, float(weight_exponent),
                          *_radial_rule(n, float(weight_exponent), level),
                          *sphere_rule(n, level))


# --------------------------------------------------------------------------
# norms and inner products


def besov_norm(params: SpaceParams, f: HarmonicPolynomial,
               rule: QuadratureRule | None = None) -> float:
    """Norm of f: (1/V_alpha) int |D f|^p (1-|x|^2)^{alpha+pt} dnu, p-th root."""
    if not params.flag_norm:
        raise ParameterError("Eq. (1.4)",
                             f"alpha + p*t = {params.alpha + params.p * params.t} <= -1")
    w = params.alpha + params.p * params.t
    if rule is None:
        rule = quadrature_build(params.n, w)
    if abs(rule.weight_exponent - w) > 1e-12:
        raise ValueError("rule weight exponent must equal alpha + p*t")
    # a degree-k part is k-homogeneous, f_k(r d) = r^k f_k(d): evaluate the
    # parts on the directions only, and let the radii scale them
    F = degree_values(dts_apply(params.s, params.t, f), rule.dirs)
    vals = np.abs((rule.radii[:, None] ** np.arange(F.shape[0])) @ F) ** params.p
    pref = kc.v_alpha(params.n, w) / kc.v_alpha(params.n, params.alpha)
    total = float(rule.radial_weights @ vals @ rule.dir_weights)
    return float((pref * total) ** (1.0 / params.p))


def inner_product_u_closed(alpha: float, s: float, u: float,
                           f: HarmonicPolynomial, g: HarmonicPolynomial) -> float:
    """Exact value of the order-u pairing, by degree orthogonality.

    For same-degree zonal atoms the sphere average of Z_k(., eta) Z_k(., xi)
    is Z_k(eta, xi), so degree k pairs f_k at g's degree-k poles with g's
    coefficients; different degrees are orthogonal, and the radial factor
    is the closed-form moment of |x|^{2k}.
    """
    n = f.n
    Phi = alpha + 2.0 * u
    if Phi <= -1.0:
        raise ParameterError("alpha + 2u > -1", f"alpha + 2u = {Phi} <= -1")
    kmax = max(f.max_degree(), g.max_degree())
    gam_su = kc.gamma_coeffs(n, s + u, kmax)
    gam_s = kc.gamma_coeffs(n, s, kmax)
    pref = kc.v_alpha(n, Phi) / kc.v_alpha(n, alpha)
    moments = np.array(series.radial_moments(n, Phi, kmax))
    keep = np.flatnonzero(g.degrees <= f.max_degree())
    k = g.degrees[keep]
    fk = degree_values(f, g.poles)[k, keep]  # f_k at g's degree-k poles
    return pref * float(np.sum((gam_su[k] / gam_s[k]) ** 2 * moments[k] * g.coefs[keep] * fk))


# --------------------------------------------------------------------------
# radius scans for the kernel-growth estimates


def _doubled(value, level: int, rel: float):
    """(value(m), m, gap) at m = level, 2 level, ... until all entries agree to
    rel or m = 16 level; gap is the largest relative change from the pass before."""
    prev, m = None, level
    while True:
        val = value(m)
        gap = None if prev is None else float(np.max(np.abs(val - prev) / np.abs(val)))
        if prev is not None and np.all(np.abs(val - prev) <= rel * np.abs(val)) or m >= 16 * level:
            return val, m, gap
        prev, m = val, 2 * m


def zonal_table(n: int, t, K: int, rows: int):
    """Blocks (k0, T) of T[i, j] = Z_{k0+i}(t_j), degrees up to K, for unit
    vectors with x.y = t_j: kc.zonal_terms at a2 = 1."""
    terms = kc.zonal_terms((n - 2) / 2.0, t, 1.0)
    for k0 in range(0, K + 1, rows):
        T = np.empty((min(rows, K + 1 - k0), t.size))
        for row, s in zip(T, terms):
            row[:] = s
        yield k0, T


def kernel_power_integral(n: int, alpha: float, p: float, radii, rule, level: int):
    """int |R_alpha(x, y)|^p dmu(y) at |x| = r for each r in a 1-D radii, mu radial
    with radial rule(m) -> (rho_i, W_i).  By Funk-Hecke the integrand is
    sum_k gamma_k q^k Z_k(t) in q = r rho and t = cos of the angle to x: the
    (radius, rho) rows, sorted by q, go in 256 KB blocks through one matmul
    each with a zonal_table, using the terms that certify 1e-10 at the block's
    largest q.  Nodes double from level radial x 2 level angle (_doubled, 1e-6);
    returns (values, m, gap) of the last pass, which had m radial nodes.
    """
    def one_pass(m):
        rho, W = rule(m)
        # Gauss-Legendre in v, theta = pi v^3: graded toward the peak at theta = 0
        v, wv = gauss_jacobi(2 * m, 0.0, 0.0)
        theta = np.pi * ((v + 1.0) / 2.0) ** 3
        wt = wv * (v + 1.0) ** 2 * np.sin(theta) ** (n - 2)
        t, wt = np.cos(theta), wt / wt.sum()
        q = np.outer(radii, rho).ravel()
        order, mean = np.argsort(q), np.empty(q.size)
        step = max(1, 32768 // t.size)
        for s in range(0, q.size, step):
            qb = q[order[s:s + step], None]
            K = kc.plan_terms(n, alpha, float(qb[-1, 0]), 1e-10)
            gam = kc.gamma_coeffs(n, alpha, K - 1)
            F = np.zeros((qb.size, t.size))
            for k0, T in zonal_table(n, t, K - 1, step):
                ks = np.arange(k0, k0 + T.shape[0])
                F += (gam[ks] * qb ** ks) @ T
            mean[order[s:s + step]] = np.abs(F) ** p @ wt
        return mean.reshape(len(radii), m) @ W

    return _doubled(one_pass, level, 1e-6)


def kernel_norm_scan(alpha: float, p: float, beta: float, radii,
                     n: int = 2, level: int = 64) -> series.ScanResult:
    """Weighted p-th power integrals of kernel sections along a radius list.

    The growth exponent is c = p(alpha + n) - (beta + n): decay like
    (1-|x|^2)^{-c} for c > 0, log growth at c = 0, bounded for c < 0.  p = 2
    is series.kernel_norm_scan_p2; other p run kernel_power_integral from
    level, and quality holds the node counts of the last pass and its gap.
    """
    if p == 2:
        return series.kernel_norm_scan_p2(alpha, beta, radii, n)
    series.check_beta(beta)
    radii = np.asarray(radii, dtype=np.float64)
    vals, m, gap = kernel_power_integral(n, alpha, p, radii,
                                         lambda m: _radial_rule(n, beta, m), level)
    # V_beta undoes the normalization of the weight-beta rule
    return series.scan_result(radii, kc.v_alpha(n, beta) * vals,
                              -(p * (alpha + n) - (beta + n)),
                              {"radial_nodes": m, "angle_nodes": 2 * m, "gap": gap})
