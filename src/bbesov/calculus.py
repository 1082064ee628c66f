"""Harmonic polynomials, radial differential operators, norms, quadrature.

A harmonic polynomial is stored as zonal atoms: its degree-k homogeneous
part is f_k(x) = sum_j c_j Z_k(x, eta_j) with unit-vector poles eta_j.
This representation is closed under the degree-diagonal operators used
throughout (each degree is simply rescaled) and evaluable in any dimension.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernelcore as kc
from .errors import ParameterError, TruncationError
# no calculus code calls this name; it stays because perfbench/tracer.py
# wraps it here
from .kernelcore import zonal_series


# --------------------------------------------------------------------------
# harmonic polynomials


@dataclass
class HarmonicPolynomial:
    n: int
    # degree k -> list of (coefficient, unit pole)
    parts: dict = field(default_factory=dict)

    def max_degree(self) -> int:
        return max(self.parts, default=0)

    def scaled(self, factors: dict) -> "HarmonicPolynomial":
        """New polynomial with degree-k part multiplied by factors[k]."""
        out = {}
        for k, atoms in self.parts.items():
            fk = factors[k]
            out[k] = [(c * fk, eta) for c, eta in atoms]
        return HarmonicPolynomial(self.n, out)


def _atom_arrays(f: HarmonicPolynomial):
    """Degrees (A,), coefficients (A,) and unit poles (A, n) of f's atoms."""
    atoms = [(k, c, eta) for k, part in f.parts.items() for c, eta in part]
    deg = np.array([k for k, _, _ in atoms], dtype=np.int64)
    coef = np.array([c for _, c, _ in atoms], dtype=np.float64)
    poles = np.array([eta for _, _, eta in atoms], dtype=np.float64).reshape(-1, f.n)
    return deg, coef, poles


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
    deg, coef, poles = _atom_arrays(f)
    if deg.size == 0:
        return out
    cols = [np.flatnonzero(deg == k) for k in range(out.shape[0])]
    nu = (f.n - 2) / 2.0
    step = max(1, 32768 // deg.size)
    for s in range(0, X.shape[0], step):
        Xb = X[s:s + step]
        a2 = np.einsum("ij,ij->i", Xb, Xb)[:, None]
        for k, S in zip(range(out.shape[0]), kc.zonal_terms(nu, Xb @ poles.T, a2)):
            if cols[k].size:
                out[k, s:s + step] = S[:, cols[k]] @ coef[cols[k]]
    return out


def evaluate_batch(f: HarmonicPolynomial, X) -> np.ndarray:
    """f(x) at each row of X, shape (N, n)."""
    return degree_values(f, X).sum(axis=0)


def evaluate(f: HarmonicPolynomial, x) -> float:
    return float(evaluate_batch(f, np.asarray(x, dtype=np.float64)[None, :])[0])


def dts_apply(s: float, t: float, f: HarmonicPolynomial) -> HarmonicPolynomial:
    """Degree-diagonal operator: degree-k part scaled by gamma_k(s+t)/gamma_k(s)."""
    if not f.parts:
        return HarmonicPolynomial(f.n, {})
    kmax = f.max_degree()
    num = kc.gamma_coeffs(f.n, s + t, kmax)
    den = kc.gamma_coeffs(f.n, s, kmax)
    return f.scaled({k: num[k] / den[k] for k in f.parts})


def random_polynomial(n: int, max_degree: int, seed: int) -> HarmonicPolynomial:
    """Reproducible random combination of zonal atoms (normal coefficients)."""
    rng = np.random.default_rng(seed)
    parts = {}
    for k in range(max_degree + 1):
        natoms = 1 if k == 0 else 2
        atoms = []
        for _ in range(natoms):
            eta = rng.normal(size=n)
            eta /= np.linalg.norm(eta)
            atoms.append((float(rng.normal()), eta))
        parts[k] = atoms
    return HarmonicPolynomial(n, parts)


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
    if not f.parts:
        return 0.0
    # a degree-k part is k-homogeneous, f_k(r d) = r^k f_k(d): evaluate the
    # parts on the directions only, and let the radii scale them
    F = degree_values(dts_apply(params.s, params.t, f), rule.dirs)
    vals = np.abs((rule.radii[:, None] ** np.arange(F.shape[0])) @ F) ** params.p
    pref = kc.v_alpha(params.n, w) / kc.v_alpha(params.n, params.alpha)
    total = float(rule.radial_weights @ vals @ rule.dir_weights)
    return float((pref * total) ** (1.0 / params.p))


def radial_moment(n: int, w: float, k: int) -> float:
    """Moment of |x|^{2k} against the normalized weight-w volume measure.

    Equals B(k + n/2, w + 1)/B(n/2, w + 1) = (n/2)_k / (n/2 + w + 1)_k.
    """
    return kc.pochhammer(n / 2.0, k) / kc.pochhammer(n / 2.0 + w + 1.0, k)


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
    moments = np.array([radial_moment(n, Phi, k) for k in range(kmax + 1)])
    deg, coef, poles = _atom_arrays(g)
    keep = np.flatnonzero(deg <= f.max_degree())
    fk = degree_values(f, poles)[deg[keep], keep]  # f_k at g's degree-k poles
    k = deg[keep]
    return pref * float(np.sum((gam_su[k] / gam_s[k]) ** 2 * moments[k] * coef[keep] * fk))


# --------------------------------------------------------------------------
# radius scans for the kernel-growth estimates


def fit_slope(one_minus_r2: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(one_minus_r2)."""
    lx = np.log(np.asarray(one_minus_r2, dtype=np.float64))
    ly = np.log(np.asarray(values, dtype=np.float64))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])


@dataclass
class ScanResult:
    radii: np.ndarray
    one_minus_r2: np.ndarray
    values: np.ndarray
    slope: float
    max_min_ratio: float
    predicted_exponent: float


def radial_moments(n: int, w: float, K: int) -> np.ndarray:
    """radial_moment(n, w, k) for k = 0..K, as a cumulative product of the
    ratios (n/2 + k)/(n/2 + w + 1 + k), which stays finite for large K."""
    ks = np.arange(K)
    return np.concatenate(([1.0], np.cumprod((n / 2.0 + ks) / (n / 2.0 + w + 1.0 + ks))))


def _kernel_power_integral_p2(n: int, alpha: float, r, moments):
    """Exact series for int |R_alpha(x, .)|^2 dmu, |x| = r, mu radial.

    By sphere orthogonality this is sum_k gamma_k^2 h_k r^{2k} M_k, where
    moments(K) returns the moments M_0..M_K of |y|^{2k} under mu.  r is a
    scalar (float result) or an array of radii (array result), with one
    truncation planned at the largest radius.
    """
    r = np.asarray(r, dtype=np.float64)
    rmax = float(r.max(initial=0.0))
    # choose truncation from the plain-kernel planner at q = max r (terms decay
    # at least as fast once multiplied by the moment ratio, which is <= 1)
    K = kc.plan_terms(n, alpha, rmax * rmax, 1e-14) + 16
    c = kc.gamma_coeffs(n, alpha, K) ** 2 * kc.hdim_coeffs(n, K) * moments(K)
    r2 = np.atleast_1d(r) ** 2
    # Horner evaluation of the power series in r2
    out = np.zeros_like(r2)
    for ck in c[::-1]:
        out = out * r2 + ck
    return float(out[0]) if r.ndim == 0 else out


def _doubled(value, level: int, rel: float):
    """value(m) at m = level, 2 level, ... until all entries agree to rel or m = 16 level."""
    prev, m = None, level
    while True:
        val = value(m)
        if prev is not None and np.all(np.abs(val - prev) <= rel * np.abs(val)) or m >= 16 * level:
            return val
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
    largest q.  Nodes double from level radial x 2 level angle (_doubled, 1e-6).
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
                     n: int = 2, level: int = 64) -> ScanResult:
    """Weighted p-th power integrals of kernel sections along a radius list.

    The growth exponent is c = p(alpha + n) - (beta + n): decay like
    (1-|x|^2)^{-c} for c > 0, log growth at c = 0, bounded for c < 0.
    p = 2 is an exact series; other p start kernel_power_integral at level.
    """
    if beta <= -1.0:
        raise ParameterError("weight exponent > -1", f"beta = {beta} <= -1")
    radii = np.asarray(radii, dtype=np.float64)
    # V_beta undoes the normalization of the weight-beta moments and rule
    if p == 2:
        vals = _kernel_power_integral_p2(n, alpha, radii, lambda K: radial_moments(n, beta, K))
    else:
        vals = kernel_power_integral(n, alpha, p, radii,
                                     lambda m: _radial_rule(n, beta, m), level)
    vals = kc.v_alpha(n, beta) * vals
    om = 1.0 - radii**2
    c = p * (alpha + n) - (beta + n)
    return ScanResult(radii, om, vals, fit_slope(om, vals),
                      float(vals.max() / vals.min()), -c)


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss's 2F1(a, b; c; z) for c > 0 and 0 <= z < 1, elementwise over z.

    The power series, after Euler's transformation 2F1(a, b; c; z) =
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) when c < a + b.  With c >= a + b,
    from k0 = max(0, -a, -b, ab - c) on every term ratio
    (a+k)(b+k) z/((c+k)(k+1)) lies in (0, z], so the tail after term t_k is
    at most t_k z/(1-z).  Terms go in blocks of 256, and each z stops once
    that bound is below 2^-53 of its sum.  Raises TruncationError past
    kc.DEFAULT_MAX_TERMS terms.
    """
    z = np.asarray(z, dtype=np.float64)
    if not (c > 0.0 and np.all((z >= 0.0) & (z < 1.0))):
        raise ValueError("2F1 series needs c > 0 and 0 <= z < 1")
    if c < a + b:
        return (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
    zf = z.ravel()
    total, term, bound = np.ones(zf.size), np.ones(zf.size), np.zeros(zf.size)
    live, k0 = np.arange(zf.size), max(0.0, -a, -b, a * b - c)
    for j in range(0, kc.DEFAULT_MAX_TERMS, 256):
        k = np.arange(j, j + 256.0)
        zl = zf[live]
        T = term[live, None] * np.cumprod((a + k) * (b + k) / ((c + k) * (k + 1.0))
                                          * zl[:, None], axis=1)
        total[live] += T.sum(axis=1)
        term[live] = T[:, -1]
        bound[live] = np.abs(term[live]) * zl / ((1.0 - zl) * np.abs(total[live]))
        if j + 256 > k0:
            live = live[~(bound[live] <= 2.0 ** -53)]
            if live.size == 0:
                return total.reshape(z.shape)
    raise TruncationError(float(bound[live].max()), kc.DEFAULT_MAX_TERMS)


def _bracket_angular_mean(n: int, sigma: float, q):
    """Sphere average of [x, y]^(-sigma) over directions at radius product q.

    Equals 2F1(sigma/2, sigma/2 - nu; n/2; q^2) with nu = (n-2)/2, by the
    Gegenbauer generating function; q may be an array.
    """
    nu = (n - 2) / 2.0
    return hyp2f1(sigma / 2.0, sigma / 2.0 - nu, n / 2.0, np.square(q))


def bracket_integral_scan(beta: float, s_exp: float, radii, n: int = 2) -> ScanResult:
    """Weighted bracket-power integrals along a radius list.

    Integrand (1-|y|^2)^beta / [x,y]^(beta+n+s_exp); growth exponent s_exp
    (decay (1-|x|^2)^{-s_exp} for s_exp > 0, log at 0, bounded below 0).
    Summed term by term against the radial moments (n/2)_k/(n/2+beta+1)_k,
    the angular mean's series loses its (n/2)_k, so the integral is
    V_beta 2F1(sigma/2, sigma/2 - nu; n/2 + beta + 1; |x|^2), sigma =
    beta + n + s_exp: no quadrature, and c - a - b = -s_exp.
    """
    if beta <= -1.0:
        raise ParameterError("weight exponent > -1", f"beta = {beta} <= -1")
    radii = np.asarray(radii, dtype=np.float64)
    sigma, nu = beta + n + s_exp, (n - 2) / 2.0
    vals = kc.v_alpha(n, beta) * hyp2f1(sigma / 2.0, sigma / 2.0 - nu,
                                        n / 2.0 + beta + 1.0, radii**2)
    om = 1.0 - radii**2
    return ScanResult(radii, om, vals, fit_slope(om, vals),
                      float(vals.max() / vals.min()), -s_exp)
