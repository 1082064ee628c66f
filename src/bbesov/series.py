"""Kernel series coefficients, term planning and the scalar kernel value.

The reproducing kernel of the weighted harmonic space with real weight
parameter ``alpha`` on the unit ball of R^n is the series (Eq. (1.1), (1.3))

    R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y)

over extended zonal harmonics Z_k.  This module imports no numpy, so that
``bbesov kernel eval`` starts without it.  It holds the one gamma_k table
(``gamma_table``, an ``array('d')`` that ``kernelcore`` views as a numpy
array without a copy), the certified tail bound and term planner, and
``kernel_eval``, which sums the series at one pair of points in decimal
arithmetic.  The table keeps at most GAMMA_CACHE_KEYS (n, alpha) keys and
drops the oldest first; a table is never changed once published, growth
builds a new one (numpy views of the old one stay valid).
"""

import math
from array import array
from collections import namedtuple
from itertools import accumulate
from operator import mul

from .errors import ParameterError, TruncationError

# decimal serves kernel_eval alone and is imported inside it: every numpy
# command imports this module (through kernelcore), and would pay for it at
# start-up otherwise

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


def _tail_exponent(n: int, alpha: float, k: int) -> float:
    """Safe exponent m with gamma_j h_j ratio <= (1 + m/j) for j >= k."""
    g = _gamma_ratios(n, alpha, (k,))[0]
    hk = dim_harmonics(n, k)
    hk1 = dim_harmonics(n, k + 1)
    r = g * hk1 / hk
    u_here = k * (r - 1.0)
    u_limit = n - 1.0 + alpha
    return max(u_here, u_limit) + 1.0


def tail_bound(n: int, alpha: float, q: float, k_used: int) -> float:
    """Certified bound on sum_{k >= k_used} gamma_k h_k q^k.

    Uses |Z_k(x,y)| <= h_k (|x||y|)^k and the geometric majorant
    gamma_k h_k <= g_{K} (1 + m/K)^{k-K} with K = k_used.
    Returns +inf when the majorant's geometric ratio is not < 1 yet.
    """
    if q <= 0.0:
        return 0.0
    K = k_used
    m = _tail_exponent(n, alpha, K)
    R = 1.0 + max(m, 0.0) / K if K > 0 else 1.0 + max(m, 0.0)
    if R * q >= 1.0:
        return math.inf
    gK = gamma_k(n, alpha, K) * dim_harmonics(n, K)
    return gK * q**K / (1.0 - R * q)


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


def _majorant(n: int, alpha: float, q: float, K: int) -> float:
    """sum_{k < K} gamma_k h_k q^k in floats, the bound of sum |gamma_k Z_k|."""
    gam = gamma_table(n, alpha, K - 1)
    total, h, qk = 0.0, 1, 1.0
    for k in range(K):
        total += gam[k] * h * qk
        # h_{k+1} = h_k (2k + n)(k + n - 2) / ((2k + n - 2)(k + 1)), exact
        h = n if k == 0 else h * (2 * k + n) * (k + n - 2) // ((2 * k + n - 2) * (k + 1))
        qk *= q
    return total


def kernel_eval(n: int, alpha: float, x, y, tol: float = 1e-12,
                max_terms: int = DEFAULT_MAX_TERMS) -> KernelValue:
    """Certified evaluation of R_alpha(x, y) inside the open unit ball.

    Returns the partial sum over degrees < terms_used, rounded once to a
    float, with two bounds on its distance from R_alpha(x, y):

    - truncation_bound (<= tol) bounds the discarded tail (tail_bound);
    - rounding_bound bounds the distance of the printed float from the
      exact partial sum.

    x and y are refused (ParameterError) unless each has n coordinates and
    lies in the open unit ball.  Raises TruncationError if the tail bound
    cannot reach tol within max_terms.  The terms are planned in floats at
    q = sqrt(fl|x|^2 fl|y|^2), with fl the correctly rounded square norms.

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
    q = math.sqrt(float(nx2) * float(ny2))
    if q == 0.0:
        return KernelValue(1.0, 0.0, 0.0, 1)
    K = plan_terms(n, alpha, q, tol, max_terms)
    value = float(_decimal_sum(n, alpha, w, nx2, ny2, K))
    rounding = math.ulp(value) / 2 + 32 * _UNIT * K * K * _majorant(n, alpha, q, K)
    return KernelValue(value, tail_bound(n, alpha, q, K), rounding, K)
