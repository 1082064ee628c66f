"""Kernel series coefficients, term planning, the scalar kernel value, and
the radial series of the kernel scans.

The reproducing kernel of the weighted harmonic space with real weight
parameter ``alpha`` on the unit ball of R^n is the series (Eq. (1.1), (1.3))

    R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y)

over extended zonal harmonics Z_k.  This module imports only the standard
library and ``errors`` (a test holds it to that), so that ``kernel eval``,
``kernel bracket-scan`` and ``kernel norm-scan --p 2`` start without numpy.
It holds the gamma_k table (``gamma_table``: an ``array('d')`` that
``kernelcore`` views without a copy; at most GAMMA_CACHE_KEYS keys, oldest
dropped first; grown by replacement, never changed), the certified tail
bound and term planner, ``kernel_eval`` (decimal arithmetic), and the two
series in |x|^2 that a radial measure reduces the scans to:
``p2_coefficients`` (summed by ``horner``) and ``bracket_series``.
"""

import math
from array import array
from collections import namedtuple
from itertools import accumulate
from operator import mul

from .errors import ParameterError, TruncationError

# decimal is imported inside kernel_eval, its one user: numpy commands skip it

DEFAULT_MAX_TERMS = 100_000

GAMMA_CACHE_KEYS = 1024  # `verify all` ends with 118 keys (0.72 MB)
_gamma_cache: dict = {}

DIGITS = 40  # precision of kernel_eval's decimal arithmetic
_UNIT = 0.5 * 10.0 ** (1 - DIGITS)  # its unit roundoff (round half even)
# A double below 1 in modulus has at most 1074 decimals, so a sum of n
# products of two of them has at most 2148 decimals and is exact here.
_EXACT_DIGITS = 2200


def dim_harmonics(n: int, k: int) -> int:
    """Dimension h_k of the space of degree-k spherical harmonics in R^n."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
    if k == 1:
        return n
    return math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2)


def v_alpha(n: int, alpha: float) -> float:
    """Normalizing constant of the weighted volume measure.

    For alpha > -1 it makes the weighted measure a probability measure:
    V_alpha = Gamma(n/2+1) Gamma(alpha+1) / Gamma(n/2+alpha+1).
    For alpha <= -1 the convention V_alpha = 1 is used.
    """
    if alpha <= -1:
        return 1.0
    half = n / 2.0
    return math.gamma(half + 1.0) * math.gamma(alpha + 1.0) / math.gamma(half + alpha + 1.0)


def _gamma_ratios(n: int, alpha: float, ks) -> list:
    """gamma_{k+1}(alpha) / gamma_k(alpha) for each integer k in ks."""
    half = n / 2.0
    if alpha > -(1.0 + half):
        a = 1.0 + half + alpha
        return [(a + k) / (half + k) for k in ks]
    b = 1.0 - (half + alpha)
    return [(k + 1.0) ** 2 / ((b + k) * (half + k)) for k in ks]


def gamma_table(n: int, alpha: float, kmax: int) -> array:
    """The cached table [gamma_0, gamma_1, ...], at least kmax + 1 long.

    Filled by incremental ratios, one running product in degree order.  The
    two closed-form branches meet at alpha = -(1 + n/2) with a genuine jump;
    the branch condition is the strict inequality alpha > -(1 + n/2) and no
    smoothing is applied.  Callers must not write to the table.
    """
    key = (n, float(alpha))
    table = _gamma_cache.get(key)
    if table is None or len(table) <= kmax:
        size = max(kmax + 1, 64, 2 * len(table) if table else 0)
        table = array("d", table or [1.0])
        ratios = _gamma_ratios(n, alpha, range(len(table) - 1, size - 1))
        # products[0] is the seed, already the table's last entry
        products = list(accumulate(ratios, mul, initial=table[-1]))
        table.fromlist(products[1:])
        if key not in _gamma_cache and len(_gamma_cache) >= GAMMA_CACHE_KEYS:
            del _gamma_cache[next(iter(_gamma_cache))]
        _gamma_cache[key] = table
    return table


def gamma_k(n: int, alpha: float, k: int) -> float:
    """Kernel series coefficient gamma_k(alpha); gamma_0 = 1, all positive."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return gamma_table(n, alpha, k)[k]


# a namedtuple, not a dataclass: importing dataclasses costs `kernel eval`
# about 9 ms of start-up
KernelValue = namedtuple("KernelValue", "value truncation_bound rounding_bound terms_used")


def _tail_ratio(n: int, alpha: float, k: int) -> float:
    """R = 1 + m/k >= gamma_{j+1} h_{j+1}/(gamma_j h_j) for every j >= k, with
    the safe exponent m = max(k (r_k - 1), n - 1 + alpha) + 1, r_k that ratio at k."""
    r = _gamma_ratios(n, alpha, (k,))[0] * dim_harmonics(n, k + 1) / dim_harmonics(n, k)
    m = max(k * (r - 1.0), n - 1.0 + alpha) + 1.0
    return 1.0 + max(m, 0.0) / max(k, 1)


def tail_bound(n: int, alpha: float, q: float, k_used: int) -> float:
    """Certified bound on sum_{k >= k_used} gamma_k h_k q^k.

    Uses |Z_k(x,y)| <= h_k (|x||y|)^k and the geometric majorant
    gamma_k h_k <= g_{K} (1 + m/K)^{k-K} with K = k_used.
    Returns +inf when the majorant's geometric ratio is not < 1 yet.  The
    result is rounded up past its own float error: gamma_K is a product of
    K table ratios of at most 6 roundings each, q**K and the quotient add a
    few, and 1 - R q loses an ulp of R q: at most (8 K + 8 + 2/(1 - R q)) 2^-53.
    """
    if q <= 0.0:
        return 0.0
    K = k_used
    Rq = _tail_ratio(n, alpha, K) * q
    if Rq >= 1.0:
        return math.inf
    gK = gamma_k(n, alpha, K) * dim_harmonics(n, K)
    return gK * q**K / (1.0 - Rq) * (1.0 + (8 * K + 8 + 2.0 / (1.0 - Rq)) * 2.0**-53)


def plan_terms(n: int, alpha: float, q: float, tol: float,
               max_terms: int = DEFAULT_MAX_TERMS) -> int:
    """Smallest K (number of terms) with certified tail <= tol at radius product q."""
    if q <= 0.0:
        return 1
    lo, K = 7, 8  # lo: the last K that failed (7 stands for none)
    while K <= max_terms:
        if tail_bound(n, alpha, q, K) <= tol:
            break
        lo, K = K, min(max_terms + 1, max(K + 8, int(K * 1.3)))
    if K > max_terms:
        raise TruncationError(tail_bound(n, alpha, q, max_terms), max_terms)
    # K grew geometrically: bisect between the last failure and K
    while K - lo > 1:
        mid = (lo + K) // 2
        if tail_bound(n, alpha, q, mid) <= tol:
            K = mid
        else:
            lo = mid
    return K


def _point(n: int, v) -> list:
    """v as a list of floats, refused unless it has n finite coordinates."""
    v = [float(c) for c in v]
    if len(v) != n:
        raise ParameterError("Eq. (1.1)", f"a point of R^{n} needs {n} coordinates, "
                                          f"got {len(v)}")
    if not all(map(math.isfinite, v)):
        raise ParameterError("Eq. (1.1)", "points must lie in the open unit ball")
    return v


def _decimal_sum(n: int, alpha: float, w, nx2, ny2, K: int):
    """sum_{k < K} gamma_k S_k(w, a2) as a DIGITS-digit Decimal, from the
    exact Decimals w = x.y, nx2 = |x|^2 and ny2 = |y|^2 (see kernel_eval).

    S_k is the zonal recurrence of kernelcore.zonal_terms, and gamma_k comes
    from the same ratios as gamma_table, both in decimal here.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = DIGITS
        half = Decimal(n) / 2
        alpha = Decimal(alpha)
        upper = alpha > -(1 + half)
        c = 1 + half + alpha if upper else 1 - (half + alpha)
        w = +w  # each rounded once
        a2 = nx2 * ny2
        w2 = 2 * w
        prev, cur, g = Decimal(1), n * w, Decimal(1)
        total = prev
        for k in range(1, K):
            if k > 1:
                # S_k = ((k + nu)/k) (2 w S_{k-1} - c_k a2 S_{k-2}), 2 nu = n - 2
                ck = 2 if k == 2 else Decimal(2 * k + 2 * n - 8) / (2 * k + n - 6)
                prev, cur = cur, Decimal(2 * k + n - 2) / (2 * k) * (
                    w2 * cur - ck * a2 * prev)
            j = k - 1  # gamma_k = gamma_{k-1} * ratio(k - 1)
            g *= ((c + j) / (half + j) if upper
                  else (j + 1) ** 2 / ((c + j) * (half + j)))
            total += g * cur
        return total


def diag_coefficients(n: int, alpha: float, K: int) -> list:
    """[gamma_k h_k for k < K]: R_alpha(x, x) = sum_k gamma_k h_k |x|^(2k),
    and sum_k gamma_k h_k q^k bounds sum_k |gamma_k Z_k| at |x||y| = q."""
    gam = gamma_table(n, alpha, K)
    return [gam[k] * dim_harmonics(n, k) for k in range(K)]


def horner(c, x):
    """sum_k c[k] x^k by Horner's rule, x a float or a numpy array (elementwise)."""
    out = 0.0
    for ck in reversed(c):
        out = out * x + ck
    return out


def kernel_eval(n: int, alpha: float, x, y, tol: float = 1e-12,
                max_terms: int = DEFAULT_MAX_TERMS) -> KernelValue:
    """Certified evaluation of R_alpha(x, y) inside the open unit ball.

    Returns the partial sum over degrees < terms_used, rounded once to a
    float, with truncation_bound (<= tol), a bound on the discarded tail
    (tail_bound), and rounding_bound, a bound on the distance of the float
    from the exact partial sum.  x and y are refused (ParameterError) unless
    each has n coordinates and lies in the open unit ball; TruncationError
    if the tail bound cannot reach tol within max_terms.  The terms are
    planned at q above |x||y| (the exact root rounded, then an ulp up), and
    tail_bound rounds up, so truncation_bound bounds the tail at the exact |x||y|.

    The rounding argument.  w = x.y, |x|^2 and |y|^2 are exact decimals of
    the double inputs (_EXACT_DIGITS), and w and a2 = |x|^2 |y|^2 are
    rounded once to DIGITS significant digits.  The gamma_k ratios, the
    zonal recurrence and the sum then run in decimal with unit roundoff
    u = 5e-40, and float() rounds the result once to nearest, an error of
    at most ulp(value)/2.  The decimal part errs by at most 32 u K^2 M,
    where K = terms_used and M = sum_{k<K} gamma_k h_k q^k:

    - Each step S_k = A_k (2 w S_{k-1} - c_k a2 S_{k-2}) rounds w, 2w, a2,
      A_k, c_k and five operations, so its computed value carries a local
      error of at most 8 u A_k (2|w||S_{k-1}| + c_k a2 |S_{k-2}|), which is
      at most 24 u h_k q^k because |S_j| <= h_j q^j and
      A_k (2 h_{k-1} + c_k h_{k-2}) <= 3 h_k (checked by the test suite).
    - A local error at degree j reaches degree k >= j multiplied by the
      recurrence's own solution from (S_{j-1}, S_j) = (0, 1).  With
      t = w / sqrt(a2) in [-1, 1] (Cauchy-Schwarz) that solution is at most
      (k - j + 1) (h_k / h_j) q^(k-j) in modulus: for n = 2 it is q^(k-j)
      U_{k-j}(t), a Chebyshev polynomial of the second kind, and the same
      bound holds for n >= 3 (the Gegenbauer case; the test suite checks it
      for n <= 8 and degrees <= 600).  Summed over j <= k this gives at most
      12 u (k + 1)^2 h_k q^k at degree k.
    - gamma_k takes at most 8 roundings per ratio, a relative error of at
      most 9 k u, and the K products and additions of the sum add at most
      K u of each |gamma_k S_k|.

    Weighted by gamma_k and summed, these stay under 22 u K^2 M; the factor
    32 also covers the float rounding of M itself.  So

        rounding_bound = ulp(value)/2 + 32 u K^2 M,

    and |value - R_alpha(x, y)| <= truncation_bound + rounding_bound.
    """
    from decimal import Decimal, localcontext

    if tol <= 0:
        raise ValueError("tol must be positive")
    X = [Decimal(c) for c in _point(n, x)]  # exact
    Y = [Decimal(c) for c in _point(n, y)]
    with localcontext() as ctx:
        ctx.prec = _EXACT_DIGITS
        nx2 = sum(c * c for c in X)
        ny2 = sum(c * c for c in Y)
        w = sum(a * b for a, b in zip(X, Y))
        if nx2 >= 1 or ny2 >= 1:
            raise ParameterError("Eq. (1.1)", "points must lie in the open unit ball")
        if nx2 * ny2 == 0:
            return KernelValue(1.0, 0.0, 0.0, 1)
        ctx.prec = DIGITS
        # within an ulp/2 + 1e-39 relative of |x||y|, then an ulp up: above it
        q = math.nextafter(float((nx2 * ny2).sqrt()), math.inf)
    K = plan_terms(n, alpha, q, tol, max_terms)
    value = float(_decimal_sum(n, alpha, w, nx2, ny2, K))
    majorant = horner(diag_coefficients(n, alpha, K), q)
    rounding = math.ulp(value) / 2 + 32 * _UNIT * K * K * majorant
    return KernelValue(value, tail_bound(n, alpha, q, K), rounding, K)


# --------------------------------------------------------------------------
# radial series sum_k c_k M_k |x|^(2k) over the moments M_k = int |y|^(2k) dmu
# of a radial mu on the closed ball (so non-increasing in k)


def radial_moments(n: int, w: float, K: int) -> list:
    """[M_0, ..., M_K] of the normalized weight-w volume measure,
    M_k = (n/2)_k/(n/2 + w + 1)_k, as a running product of ratios."""
    half = n / 2.0
    return list(accumulate(((half + k) / (half + w + 1.0 + k) for k in range(K)),
                           mul, initial=1.0))


def p2_coefficients(n: int, alpha: float, q: float, moments):
    """c_k = gamma_k^2 h_k M_k, k = 0..K, with M_0..M_K = moments(K): the
    series sum_k c_k |x|^(2k) = int |R_alpha(x, .)|^2 dmu (sphere
    orthogonality), truncated for |x|^2 <= q; and its certified tail at q.
    K is the plain kernel's plan_terms at q and 1e-14, plus 16.  For k >= K,
    c_{k+1}/c_k <= U = max(1, gamma_{K+1}/gamma_K) R, R as in tail_bound
    (the gamma ratio tends to 1 from above or stays below 1), so the tail is
    at most c_K q^K U q/(1 - U q), +inf when U q >= 1.
    """
    K = plan_terms(n, alpha, q, 1e-14) + 16
    gam, M = gamma_table(n, alpha, K), moments(K)
    c = [gam[k] * gam[k] * dim_harmonics(n, k) * M[k] for k in range(K + 1)]
    Uq = max(1.0, _gamma_ratios(n, alpha, (K,))[0]) * _tail_ratio(n, alpha, K) * q
    return c, (c[K] * q**K * Uq / (1.0 - Uq) if Uq < 1.0 else math.inf)


def bracket_series(n: int, sigma: float, z: float, moments):
    """(value, K, tail) of sum_{k<K} t_k M_k z^k ~ int [x, y]^(-sigma) dmu(y)
    at |x|^2 = z, with M_0..M_K = moments(K).

    t_k are the coefficients of 2F1(a, b; c; .), a = sigma/2, b = a - (n-2)/2,
    c = n/2, the sphere mean of [x, y]^(-sigma) at |x||y| = q being
    2F1(a, b; c; q^2).  t_{k+1}/t_k - 1 = ((a+b-c-1) k + ab - c)/((c+k)(k+1)):
    past the gate K >= max(1, -a, -b) it is at most U_K - 1, U_K = 1 +
    max(0, a+b-c-1)/K + max(0, ab-c)/K^2, for every k >= K, so the terms from
    K on sum to at most tail = |t_K| M_K z^K/(1 - U_K z).  The sum stops at
    the first K with tail <= 2^-53 of it, and is the math.fsum of the float
    terms (near z = 1 most lie below half an ulp of it).  Raises ValueError
    unless 0 <= z < 1, TruncationError past DEFAULT_MAX_TERMS terms.  With
    c < a + b the terms grow like k^(a+b-c-1); Euler's transformation is this
    series at 2n + 2w - sigma times (1-z)^(n+w-sigma) for the moments of the
    weight-w volume measure (w = -1: unit moments).
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"the bracket series needs 0 <= |x|^2 < 1, got {z}")
    a, b, c = sigma / 2.0, sigma / 2.0 - (n - 2) / 2.0, n / 2.0
    gate = max(1.0, -a, -b)
    up1, up2 = max(0.0, a + b - c - 1.0), max(0.0, a * b - c)
    total, term, tail, k, M = 0.0, 1.0, math.inf, 0, ()  # term = t_k z^k
    terms = []
    while True:
        if k == len(M):  # the moments so far are spent: fetch twice as many
            if k > DEFAULT_MAX_TERMS:
                raise TruncationError(tail, DEFAULT_MAX_TERMS)
            M = moments(min(max(2 * k, 256), DEFAULT_MAX_TERMS))
        if k >= gate:
            Uz = (1.0 + up1 / k + up2 / (k * k)) * z
            tail = abs(term) * M[k] / (1.0 - Uz) if Uz < 1.0 else math.inf
            if tail <= 2.0**-53 * abs(total):
                return math.fsum(terms), k, tail
        terms.append(term * M[k])
        total += terms[-1]
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        k += 1


# quality: {key: value} of the numerical quality of the values, for the footer
ScanResult = namedtuple("ScanResult", "radii one_minus_r2 values slope max_min_ratio "
                                      "predicted_exponent quality")


def fit_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs) in closed form, nan
    unless all values are positive; with one distinct x, the minimum-norm
    solution's mean(log x) mean(log y)/(mean(log x)^2 + 1)."""
    if not all(v > 0.0 for v in (*xs, *ys)):
        return math.nan
    lx, ly = [math.log(v) for v in xs], [math.log(v) for v in ys]
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    if max(lx) == min(lx):
        return mx * my / (mx * mx + 1.0)
    return (math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly))
            / math.fsum((u - mx) ** 2 for u in lx))


def scan_result(radii, values, predicted: float, quality: dict) -> ScanResult:
    om = [1.0 - r * r for r in radii]
    return ScanResult(radii, om, values, fit_slope(om, values),
                      float(max(values) / min(values)), predicted, quality)


def check_beta(beta: float) -> None:
    if beta <= -1.0:
        raise ParameterError("weight exponent > -1", f"beta = {beta} <= -1")


def kernel_norm_scan_p2(alpha: float, beta: float, radii, n: int = 2) -> ScanResult:
    """V_beta int |R_alpha(x, .)|^2 dnu_beta at |x| = r, r in radii: one
    p2_coefficients series on the weight-beta moments, planned at the
    largest r (see calculus.kernel_norm_scan for the exponent).  quality:
    its terms and V_beta times its tail."""
    check_beta(beta)
    rmax, vb = max(0.0, *radii), v_alpha(n, beta)
    c, tail = p2_coefficients(n, alpha, rmax * rmax, lambda K: radial_moments(n, beta, K))
    return scan_result(radii, [vb * horner(c, r * r) for r in radii],
                       -(2.0 * (alpha + n) - (beta + n)),
                       {"terms": len(c), "tail_bound": vb * tail})


def bracket_integral_scan(beta: float, s_exp: float, radii, n: int = 2) -> ScanResult:
    """V_beta int (1-|y|^2)^beta / [x,y]^(beta+n+s_exp) dnu at |x| = r, r in
    radii: a bracket_series on the weight-beta moments per radius, after
    Euler's transformation for s_exp > 0.  Growth exponent s_exp (decay for
    s_exp > 0, log at 0, bounded below 0).  quality: the largest terms and
    the largest tail, times the value's factors."""
    check_beta(beta)
    e, vb = max(s_exp, 0.0), v_alpha(n, beta)
    sums = [(vb * (1.0 - r * r) ** -e, *bracket_series(
        n, beta + n + s_exp - 2.0 * e, r * r, lambda K: radial_moments(n, beta, K)))
        for r in radii]
    return scan_result(radii, [f * v for f, v, _, _ in sums], -s_exp,
                       {"terms": max(K for _, _, K, _ in sums),
                        "tail_bound": max(f * t for f, _, _, t in sums)})
