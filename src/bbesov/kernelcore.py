"""Series coefficients, zonal harmonics, and certified kernel evaluation.

The reproducing kernel of the weighted harmonic space with real weight
parameter ``alpha`` on the unit ball of R^n is the series

    R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y)

over extended zonal harmonics Z_k.  Everything here is a pure function of
immutable inputs; coefficient caches are append-only arrays guarded by the
GIL (single-writer growth, concurrent reads safe).  The gamma cache keeps
at most GAMMA_CACHE_KEYS (n, alpha) keys and drops the oldest first.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ._backend import zonal_series
from .errors import TruncationError

DEFAULT_MAX_TERMS = 100_000
# Test-only fault injection, read once at import (see gamma_coeffs).
_FAULT = os.environ.get("BBESOV_FAULT")

GAMMA_CACHE_KEYS = 1024  # `verify all` ends with 118 keys (0.72 MB)
_gamma_cache: dict = {}
_hdim_cache: dict = {}


def pochhammer(a: float, b: int) -> float:
    """Rising factorial (a)_b as an exact product (b a nonnegative integer)."""
    if b < 0 or b != int(b):
        raise ValueError("pochhammer exponent must be a nonnegative integer")
    out = 1.0
    for j in range(int(b)):
        out *= a + j
    return out


def dim_harmonics(n: int, k: int) -> int:
    """Dimension h_k of the space of degree-k spherical harmonics in R^n."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
    if k == 1:
        return n
    return math.comb(n + k - 1, k) - math.comb(n + k - 3, k - 2)


def _gamma_ratio(n: int, alpha: float, k: int) -> float:
    """gamma_{k+1}(alpha) / gamma_k(alpha)."""
    half = n / 2.0
    if alpha > -(1.0 + half):
        return (1.0 + half + alpha + k) / (half + k)
    return (k + 1.0) ** 2 / ((1.0 - (half + alpha) + k) * (half + k))


def _gamma_array(n: int, alpha: float, kmax: int) -> np.ndarray:
    key = (n, float(alpha))
    arr = _gamma_cache.get(key)
    if arr is None or arr.shape[0] <= kmax:
        size = max(kmax + 1, 64)
        if arr is not None:
            size = max(size, 2 * arr.shape[0])
        new = np.empty(size, dtype=np.float64)
        if arr is not None:
            m = arr.shape[0]
            new[:m] = arr
        else:
            new[0] = 1.0
            m = 1
        for k in range(m - 1, size - 1):
            new[k + 1] = new[k] * _gamma_ratio(n, alpha, k)
        new.setflags(write=False)  # callers get views of the shared cache
        if key not in _gamma_cache and len(_gamma_cache) >= GAMMA_CACHE_KEYS:
            del _gamma_cache[next(iter(_gamma_cache))]
        arr = new
        _gamma_cache[key] = arr
    return arr


def gamma_coeffs(n: int, alpha: float, kmax: int) -> np.ndarray:
    """Array [gamma_0, ..., gamma_kmax], computed by incremental ratios.

    The two closed-form branches meet at alpha = -(1 + n/2) with a genuine
    jump; the branch condition is the strict inequality alpha > -(1 + n/2)
    and no smoothing is applied.
    """
    if _FAULT == "gamma-shift":
        # Test-only fault injection, equivalent to the documented one-line
        # index-shift mutation (coefficients displaced by one degree).
        return _gamma_array(n, alpha, kmax + 1)[1: kmax + 2].copy()
    return _gamma_array(n, alpha, kmax)[: kmax + 1]


def gamma_k(n: int, alpha: float, k: int) -> float:
    """Kernel series coefficient gamma_k(alpha); gamma_0 = 1, all positive."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return float(gamma_coeffs(n, alpha, k)[k])


def hdim_coeffs(n: int, kmax: int) -> np.ndarray:
    """Array [h_0, ..., h_kmax] of spherical-harmonic dimensions (floats)."""
    key = n
    arr = _hdim_cache.get(key)
    if arr is None or arr.shape[0] <= kmax:
        size = max(kmax + 1, 64)
        arr = np.array([dim_harmonics(n, k) for k in range(size)], dtype=np.float64)
        _hdim_cache[key] = arr
    return arr[: kmax + 1]


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


def zonal(n: int, k: int, x, y) -> float:
    """Extended zonal harmonic Z_k(x, y); symmetric, degree-k homogeneous."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.array([float(np.dot(x, y))])
    a2 = np.array([float(np.dot(x, x)) * float(np.dot(y, y))])
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    nu = (n - 2) / 2.0
    return float(zonal_series(coeffs, nu, w, a2)[0])


@dataclass
class KernelValue:
    value: float
    truncation_bound: float
    terms_used: int


def _tail_exponent(n: int, alpha: float, k: int) -> float:
    """Safe exponent m with gamma_j h_j ratio <= (1 + m/j) for j >= k."""
    g = _gamma_ratio(n, alpha, k)
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
    K = 8
    while K <= max_terms:
        if tail_bound(n, alpha, q, K) <= tol:
            break
        K = min(max_terms + 1, max(K + 8, int(K * 1.3)))
    if K > max_terms:
        raise TruncationError(tail_bound(n, alpha, q, max_terms), max_terms)
    # refine downward a little (K grew geometrically)
    while K > 8 and tail_bound(n, alpha, q, K - 1) <= tol:
        K -= 1
    return K


def kernel_eval(n: int, alpha: float, x, y, tol: float = 1e-12,
                max_terms: int = DEFAULT_MAX_TERMS) -> KernelValue:
    """Certified evaluation of R_alpha(x, y) inside the open unit ball.

    Returns the partial sum over degrees < terms_used together with a
    certified bound on the discarded tail (truncation_bound <= tol).
    Raises TruncationError if the bound cannot reach tol within max_terms.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if tol <= 0:
        raise ValueError("tol must be positive")
    nx2 = float(np.dot(x, x))
    ny2 = float(np.dot(y, y))
    if nx2 >= 1.0 or ny2 >= 1.0:
        raise ValueError("points must lie in the open unit ball")
    q = math.sqrt(nx2 * ny2)
    if q == 0.0:
        return KernelValue(1.0, 0.0, 1)
    K = plan_terms(n, alpha, q, tol, max_terms)
    coeffs = gamma_coeffs(n, alpha, K - 1)
    w = np.array([float(np.dot(x, y))])
    a2 = np.array([nx2 * ny2])
    nu = (n - 2) / 2.0
    value = float(zonal_series(coeffs, nu, w, a2)[0])
    return KernelValue(value, tail_bound(n, alpha, q, K), K)


def kernel_eval_batch(n: int, alpha: float, x, Y, tol: float = 1e-12,
                      max_terms: int = DEFAULT_MAX_TERMS) -> np.ndarray:
    """R_alpha(x, y_j) for an (M, n) array Y, one shared truncation.

    x of shape (n,) gives shape (M,); x of shape (N, n) gives (N, M), with
    the truncation planned at the largest |x_i||y_j|.
    """
    x = np.asarray(x, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    ny2 = np.einsum("ij,ij->i", Y, Y)
    if x.ndim == 2:
        nx2 = np.einsum("ij,ij->i", x, x)[:, None]
        w = x @ Y.T
    else:
        nx2 = float(np.dot(x, x))
        w = Y @ x
    qmax = math.sqrt(float(np.max(nx2, initial=0.0)) * float(ny2.max(initial=0.0)))
    if qmax >= 1.0:
        raise ValueError("points must lie in the open unit ball")
    if qmax == 0.0:
        return np.ones(w.shape)
    K = plan_terms(n, alpha, qmax, tol, max_terms)
    coeffs = gamma_coeffs(n, alpha, K - 1)
    a2 = nx2 * ny2
    nu = (n - 2) / 2.0
    return zonal_series(coeffs, nu, w.ravel(), a2.ravel()).reshape(w.shape)


def kernel_diag(n: int, alpha: float, r2: np.ndarray, tol: float = 1e-12,
                max_terms: int = DEFAULT_MAX_TERMS) -> np.ndarray:
    """R_alpha(x, x) as a function of r2 = |x|^2 (= sum gamma_k h_k r2^k)."""
    r2 = np.atleast_1d(np.asarray(r2, dtype=np.float64))
    qmax = float(r2.max(initial=0.0))
    if qmax >= 1.0:
        raise ValueError("points must lie in the open unit ball")
    K = plan_terms(n, alpha, qmax, tol, max_terms) if qmax > 0 else 1
    g = gamma_coeffs(n, alpha, K - 1) * hdim_coeffs(n, K - 1)
    # Horner evaluation of the power series in r2
    out = np.zeros_like(r2)
    for c in g[::-1]:
        out = out * r2 + c
    return out
