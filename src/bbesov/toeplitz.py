"""Finite truncations of positive Toeplitz-type operators on the weighted
harmonic Hilbert space, their spectra and Schatten-norm diagnostics.

Matrix entries follow the quadratic-form convention

    M_ij = int (D e_i)(D e_j) dkappa,     dkappa = (1-|y|^2)^{2u} dmu,

with u = s - alpha, so that mu = nu_alpha gives the identity matrix.  The
integral operators used by the intertwining and boundedness checks carry the
compatible normalization V_alpha / V_{s+t} (the same anchor: the weighted
volume measure maps to the identity).
"""

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import calculus as ca
from . import geometry as ge
from . import kernelcore as kc
from . import measures as me
from . import series
from .errors import ParameterError


@dataclass
class BasisSpec:
    n: int
    alpha: float
    s: float
    max_degree: int

    @property
    def u(self) -> float:
        return self.s - self.alpha

    @property
    def Phi(self) -> float:
        return 2.0 * self.s - self.alpha

    def validate(self):
        if self.n < 2:
            raise ParameterError("n >= 2", f"n = {self.n}")
        if self.Phi <= -1.0:
            raise ParameterError("2s - alpha > -1", f"2s - alpha = {self.Phi}")
        # _poles(n, K) fills a (candidates x h_K) table, the largest of any degree
        k = self.max_degree
        table = ca.sphere_rule_size(self.n, k + 1) * kc.dim_harmonics(self.n, k)
        if table > ca.MAX_RULE_NODES:
            raise ParameterError(f"at most {ca.MAX_RULE_NODES} pivot-table entries",
                                 f"degree {k} in R^{self.n} needs {table}")

    @property
    def size(self) -> int:
        return sum(kc.dim_harmonics(self.n, k) for k in range(self.max_degree + 1))


def _norm_sq(spec: BasisSpec, k: int) -> float:
    """Closed-form squared norm of a sphere-orthonormal solid harmonic."""
    n = spec.n
    ratio = kc.gamma_k(n, spec.Phi, k) / kc.gamma_k(n, spec.s, k)
    return (ratio**2 * kc.v_alpha(n, spec.Phi) / kc.v_alpha(n, spec.alpha)
            * series.radial_moments(n, spec.Phi, k)[k])


@functools.lru_cache(maxsize=None)
def _poles(n: int, k: int):
    """h_k unit poles eta_j and the rows L_p of the pivoted Cholesky factor
    of their degree-k zonal Gram Z_k(eta_i, eta_j) = L_p L_p^T.

    Greedy pivoted Cholesky over the directions c of sphere_rule(n, k + 1),
    one Gram column per pivot; the diagonal Z_k(c, c) is h_k.  That rule
    integrates degree 2k exactly, so sum_j w_j Y(c_j)^2 = ||Y||^2 > 0 for
    every nonzero degree-k harmonic Y: the candidate Gram has rank h_k and
    every pivot is positive.  Depends on neither alpha nor s, so it is
    cached; the arrays are read-only.
    """
    cand, _ = ca.sphere_rule(n, k + 1)
    m = kc.dim_harmonics(n, k)
    onehot = np.zeros(k + 1)
    onehot[k] = 1.0
    diag = np.full(cand.shape[0], float(m))
    L = np.zeros((cand.shape[0], m))
    picked = []
    for col in range(m):
        p = int(np.argmax(diag))
        gram = kc.zonal_series(onehot, (n - 2) / 2.0, cand @ cand[p], 1.0)
        L[:, col] = (gram - L[:, :col] @ L[p, :col]) / math.sqrt(diag[p])
        diag -= L[:, col] ** 2
        diag[p] = -np.inf
        picked.append(p)
    poles, Lp = cand[picked], L[picked]
    poles.flags.writeable = Lp.flags.writeable = False
    return poles, Lp


def basis_build(spec: BasisSpec):
    """Orthonormal basis (list of polynomials) with parallel degree list.

    Degree k holds L_p^{-1} (Z_k(., eta_j))_j with the poles and factor of
    _poles(n, k), the sphere-orthonormal degree-k harmonics, divided by
    their closed-form norm (_norm_sq).  L_p is lower triangular, so e_i has
    atoms at eta_0 .. eta_i only.
    """
    spec.validate()
    basis, degrees = [], []
    for k in range(spec.max_degree + 1):
        poles, Lp = _poles(spec.n, k)
        W = np.linalg.inv(Lp) / math.sqrt(_norm_sq(spec, k))
        for i in range(len(poles)):
            basis.append(ca.HarmonicPolynomial(spec.n, np.full(i + 1, k), W[i, :i + 1],
                                               poles[:i + 1]))
        degrees.extend([k] * len(poles))
    return basis, degrees


@dataclass
class OperatorMatrix:
    spec: BasisSpec
    entries: np.ndarray
    degrees: list
    measure_fingerprint: str = ""


def _measure_fingerprint(mu: me.Measure) -> str:
    return hashlib.sha1(me.measure_to_json(mu).encode()).hexdigest()[:16]


def toeplitz_matrix(mu: me.Measure, spec: BasisSpec, level: int = 64) -> OperatorMatrix:
    """Quadratic-form matrix of the operator attached to mu.

    Atomic part summed exactly; the density is degree-diagonal by sphere
    orthogonality (radial_oracle), from its radial moments at weight 2u.
    level is the number of radial nodes behind the moments of a table.
    """
    spec.validate()
    if mu.n != spec.n:
        raise ValueError("dimension mismatch between measure and basis")
    basis, degrees = basis_build(spec)
    Y = mu.points
    oy = 1.0 - np.einsum("ij,ij->i", Y, Y)
    E = np.stack([ca.evaluate_batch(ca.dts_apply(spec.s, spec.u, e), Y)
                  for e in basis])  # (m, A)
    M = (E * (mu.weights * oy ** (2.0 * spec.u))[None, :]) @ E.T
    if mu.density is not None:
        M += np.diag(radial_oracle(me.Measure(spec.n, density=mu.density), spec, level))
    M = 0.5 * (M + M.T)
    return OperatorMatrix(spec, M, degrees, _measure_fingerprint(mu))


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # descending
    schatten: dict
    trace: float
    K: int


def spectrum(M: OperatorMatrix, p_list=(1.0, 2.0)) -> SpectrumReport:
    """Eigendecomposition and Schatten norms of a PSD truncation."""
    A = M.entries
    ev = np.linalg.eigvalsh(A)[::-1]
    scale = max(abs(ev[0]), 1e-300)
    if ev[-1] < -1e-10 * scale:
        raise RuntimeError(
            f"positivity violation: min eigenvalue {ev[-1]:.3e} "
            "(quadrature failure for a positive measure)")
    evc = np.clip(ev, 0.0, None)
    schatten = {float(p): float((evc**p).sum() ** (1.0 / p)) for p in p_list}
    return SpectrumReport(ev, schatten, float(np.trace(A)), max(M.degrees))


# --------------------------------------------------------------------------
# integral-operator matrices (for the intertwining and boundedness checks)


def _section_operator(mu: me.Measure, spec: BasisSpec, t: float,
                      shifted: bool, level: int) -> np.ndarray:
    """Shared body of the two integral-operator matrices.

    By the reproducing property, the coordinate on e_i (degree k) of the
    truncated kernel section R_w(., y) is
    (V_Phi/V_alpha) (gamma_k(s+u)/gamma_k(s))^2 m_k(Phi) gamma_k(w) e_i(y),
    so atoms need only basis values.  A density is degree-diagonal:
    (V_alpha/V_{s+t}) M_k gamma_k(s+t), with M_k its radial moments at
    weight s - alpha + t for mu and 0 for kappa, whose exponent already
    carries the reweighting.
    """
    if mu.n != spec.n:
        raise ValueError("dimension mismatch between measure and basis")
    basis, degrees = basis_build(spec)
    n, kmax = spec.n, spec.max_degree
    gam_s = kc.gamma_coeffs(n, spec.s, kmax)
    gam_st = kc.gamma_coeffs(n, spec.s + t, kmax)
    gam_su = kc.gamma_coeffs(n, spec.s + spec.u, kmax)
    if shifted:
        # order zero with kernel R_{s+t}: no column rescaling, no reweighting
        gam_w, col, exponent = gam_st, np.ones(kmax + 1), 0.0
    else:
        # order t with kernel R_s: columns rescaled by D = dts_apply(s, t)
        gam_w, col, exponent = gam_s, gam_st / gam_s, spec.s - spec.alpha + t
    pref = kc.v_alpha(n, spec.alpha) / kc.v_alpha(n, spec.s + t)
    moments = np.array(series.radial_moments(n, spec.Phi, kmax))
    sec = (kc.v_alpha(n, spec.Phi) / kc.v_alpha(n, spec.alpha)
           * (gam_su / gam_s) ** 2 * moments * gam_w)
    deg = np.array(degrees)
    Y = mu.points
    E = np.stack([ca.evaluate_batch(e, Y) for e in basis])  # (m, A)
    oy = 1.0 - np.einsum("ij,ij->i", Y, Y)
    A = sec[deg][:, None] * E
    C = col[deg][:, None] * E * (mu.weights * oy ** exponent)[None, :]
    M = pref * (A @ C.T)
    if mu.density is not None:
        M += np.diag(pref * mu.density.moments(n, exponent, kmax, level)[deg]
                     * gam_st[deg])
    return M


def integral_operator_matrix(mu: me.Measure, spec: BasisSpec, t: float,
                             level: int = 32) -> np.ndarray:
    """Matrix of the order-t integral operator attached to mu.

    Column j holds the basis coordinates of the image of e_j:
    (V_alpha / V_{s+t}) int (1-|y|^2)^{s-alpha+t} (D e_j)(y) R_s(., y) dmu,
    with kernel sections truncated at the basis degree.
    """
    return _section_operator(mu, spec, t, False, level)


def shifted_operator_matrix(kappa: me.Measure, spec: BasisSpec, t: float,
                            level: int = 32) -> np.ndarray:
    """Matrix of the order-zero operator with the shifted kernel.

    Column j: (V_alpha / V_{s+t}) int e_j(y) R_{s+t}(., y) dkappa, kappa
    already carrying the reweighting.
    """
    return _section_operator(kappa, spec, t, True, level)


@dataclass
class IntertwineReport:
    residual: float
    lhs: np.ndarray
    rhs: np.ndarray


def intertwine_check(mu: me.Measure, spec: BasisSpec, t: float,
                     level: int = 32) -> IntertwineReport:
    """Compare D T(mu) with T(kappa) D on the truncated basis."""
    spec.validate()
    basis, degrees = basis_build(spec)
    gam_st = kc.gamma_coeffs(spec.n, spec.s + t, spec.max_degree)
    gam_s = kc.gamma_coeffs(spec.n, spec.s, spec.max_degree)
    D = np.diag([gam_st[k] / gam_s[k] for k in degrees])
    T1 = integral_operator_matrix(mu, spec, t, level)
    kappa = me.kappa_from_mu(mu, spec.s, t, spec.alpha)
    T2 = shifted_operator_matrix(kappa, spec, t, level)
    lhs = D @ T1
    rhs = T2 @ D
    return IntertwineReport(float(np.abs(lhs - rhs).max()), lhs, rhs)


# --------------------------------------------------------------------------
# oracles and diagnostics


def radial_oracle(mu: me.Measure, spec: BasisSpec, level: int = 64) -> np.ndarray:
    """Diagonal entries for an atom-free measure with a radial density.

    The matrix is diagonal by sphere orthogonality, with entries
    M_k V_alpha / (V_Phi m_k(Phi)), where M_k are the density's radial
    moments at weight 2u: scale V_w m_k(w), w = 2u + c, for a power weight
    scale (1-|y|^2)^c dnu.  The formula holds in every dimension n >= 2.
    """
    if spec.Phi <= -1.0:
        raise ParameterError("2s - alpha > -1", f"2s - alpha = {spec.Phi}")
    if mu.weights.size or mu.density is None:
        raise ValueError("radial oracle requires an atom-free measure with a density")
    n = spec.n
    M = mu.density.moments(n, 2.0 * spec.u, spec.max_degree, level)
    m = series.radial_moments(n, spec.Phi, spec.max_degree)
    out = []
    for k in range(spec.max_degree + 1):
        val = M[k] * kc.v_alpha(n, spec.alpha) / (kc.v_alpha(n, spec.Phi) * m[k])
        out.extend([val] * kc.dim_harmonics(n, k))
    return np.array(out)


@dataclass
class TraceReport:
    trace: float
    berezin_integral: float
    ratio: float
    horizon: float


def trace_vs_berezin(mu: me.Measure, spec: BasisSpec, lattice: ge.Lattice,
                     level: int = 64, grid_points: int = 400) -> TraceReport:
    """Trace of the truncation against the horizon-truncated transform integral."""
    M = toeplitz_matrix(mu, spec, level)
    tr = float(np.trace(M.entries))

    def fld(X):
        return me.berezin2(mu, spec.Phi, spec.alpha, X)

    rep = me.transform_lp_norm(fld, 1.0, -spec.n, lattice, grid_points)
    integral = rep.radial_integral
    return TraceReport(tr, integral, tr / integral if integral else math.inf,
                       lattice.rmax)


@dataclass
class SchattenReport:
    p: float
    ladder_K: list
    ladder_Sp: list
    ladder_rel_change: float
    berezin_lp: me.TransformLpReport
    averaging_lp_sum: float
    averaging_growth: float
    classifications: dict


def schatten_diagnostic(mu: me.Measure, spec: BasisSpec, p: float,
                        lattice: ge.Lattice, level: int = 64,
                        growth_threshold: float = 1.5) -> SchattenReport:
    """Three comparable statistics for Schatten-class membership at order p.

    (a) S_p of K-truncations for a ladder of K, (b) the L^p integral of the
    squared-kernel transform against the (-n)-weight, (c) the l^p lattice sum
    of the averaging function.  Classifications compare convergence of (a)
    with horizon growth of (b) and (c).
    """
    if p < 1.0:
        raise ParameterError("p >= 1", f"p = {p}")
    Ks = sorted({max(2, spec.max_degree // 2), max(3, 3 * spec.max_degree // 4),
                 spec.max_degree})
    ladder = []
    for K in Ks:
        sub = BasisSpec(spec.n, spec.alpha, spec.s, K)
        rep = spectrum(toeplitz_matrix(mu, sub, level), (p,))
        ladder.append(rep.schatten[float(p)])
    rel = abs(ladder[-1] - ladder[-2]) / max(ladder[-1], 1e-300)

    def fld(X):
        return me.berezin2(mu, spec.Phi, spec.alpha, X)

    ber = me.transform_lp_norm(fld, p, -spec.n, lattice)
    hats = me.averaging(mu, spec.alpha, lattice.delta, lattice.points)
    rr = np.linalg.norm(lattice.points, axis=1)
    tot = float((hats**p).sum())
    half = float((hats[rr <= 1.0 - math.sqrt(1.0 - lattice.rmax)] ** p).sum())
    growth = tot / half if half > 0 else math.inf
    cls = {
        "truncation_converges": rel < 0.01,
        "berezin_lp_stable": ber.growth_ratio < growth_threshold,
        "averaging_lp_stable": growth < growth_threshold,
    }
    return SchattenReport(p, Ks, ladder, rel, ber, tot, growth, cls)


def boundedness_estimate(mu: me.Measure, p1: float, alpha1: float, p2: float,
                         alpha2: float, s: float, t: float, trials: int = 20,
                         seed: int = 0, max_degree: int = 6,
                         level: int = 24) -> float:
    """Monte Carlo lower bound for the operator norm between two spaces.

    The image of each random polynomial is evaluated from the defining
    integral (normalized so the weighted volume measure gives the identity):
    atoms through kernel sections, the density degreewise from its radial
    moments.  Both norms use order-zero operators, so alpha1, alpha2 > -1
    required.
    """
    n = mu.n
    for (pp, aa) in ((p1, alpha1), (p2, alpha2)):
        sp = ca.SpaceParams(n, pp, aa, s, t)
        if not sp.flag_onenorm:
            raise ParameterError("Eq. (1.6)",
                                 f"n+s+1 too small for p={pp}, alpha={aa}")
        if aa <= -1.0:
            raise ParameterError("Eq. (1.4)",
                                 f"alpha = {aa} <= -1 with t = 0")
    rule2 = ca.quadrature_build(n, alpha2, level)
    rule1 = ca.quadrature_build(n, alpha1, level)
    pref = kc.v_alpha(n, alpha1) / kc.v_alpha(n, s + t)
    params1 = ca.SpaceParams(n, p1, alpha1, 0.0, 0.0)
    # atoms, with the boundary weight folded into their masses
    w_exp = s - alpha1 + t
    Y = mu.points
    wts = mu.weights * (1.0 - np.einsum("ij,ij->i", Y, Y)) ** w_exp
    # the density is degreewise: the image of a degree-k part is that part
    # times pref M_k gamma_k(s), so no quadrature enters here
    dens = None
    if mu.density is not None:
        dens = (pref * mu.density.moments(n, w_exp, max_degree, level)
                * kc.gamma_coeffs(n, s, max_degree))
    # kernel sections R_s(., y) at rule2's nodes, one truncation per atom
    Ksec = np.array([kc.kernel_eval_batch(n, s, y, rule2.points, 1e-9)
                     for y in Y]).reshape(len(Y), len(rule2.points))
    best = 0.0
    for i in range(trials):
        f = ca.random_polynomial(n, max_degree, seed + i)
        nrm1 = ca.besov_norm(params1, f, rule1)
        if nrm1 == 0.0:
            continue
        df = ca.dts_apply(s, t, f)
        Tf = pref * ((wts * ca.evaluate_batch(df, Y)) @ Ksec)
        if dens is not None:
            Tf += ca.evaluate_batch(df.scaled(dens), rule2.points)
        nrm2 = (float(np.dot(rule2.weights, np.abs(Tf) ** p2))) ** (1.0 / p2)
        best = max(best, nrm2 / nrm1)
    return best
