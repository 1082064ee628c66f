"""Zonal harmonics and the kernel series R_alpha(x, y) = sum_k gamma_k(alpha)
Z_k(x, y) on arrays of points.  The coefficients, the tail bound, the term
planner and the scalar kernel value live in ``series``, which imports no
numpy.  Everything here is a pure function of immutable inputs; the
coefficient caches only grow, guarded by the GIL (single-writer growth,
concurrent reads safe).
"""

import itertools
import math

import numpy as np

from . import series
# the array layers look these up here (kc.plan_terms, kc.gamma_k, ...), and
# perfbench/tracer.py wraps kc.plan_terms and counts calls of kc.tail_bound,
# so gamma_k, tail_bound and v_alpha are imported for other modules
from .series import (DEFAULT_MAX_TERMS, dim_harmonics, gamma_k, gamma_table,
                     plan_terms, tail_bound, v_alpha)


def _gamma_array(n: int, alpha: float, kmax: int) -> np.ndarray:
    """series.gamma_table as a read-only array without a copy (> kmax long)."""
    arr = np.frombuffer(gamma_table(n, alpha, kmax))
    arr.setflags(write=False)  # callers get views of the shared cache
    return arr


def gamma_coeffs(n: int, alpha: float, kmax: int) -> np.ndarray:
    """Array [gamma_0, ..., gamma_kmax] (see series.gamma_table)."""
    return _gamma_array(n, alpha, kmax)[: kmax + 1]


def zonal_terms(nu: float, w, a2):
    """S_0, S_1, S_2, ... at the pairs (w, a2), without end.

    S_k is the extended zonal harmonic Z_k(x, y) written in w = x . y and
    a2 = |x|^2 |y|^2 (an array, or a float such as 1.0 for unit vectors),
    with nu = (n - 2)/2, by the three-term recurrence

        S_0 = 1
        S_1 = (2 nu + 2) w
        S_k = ((k + nu)/k) * (2 w S_{k-1} - c_k a2 S_{k-2})

    with c_2 = 2 and c_k = (k + 2 nu - 2)/(k + nu - 2) for k >= 3.
    """
    prev = np.ones_like(w)
    yield prev
    cur = (2.0 * nu + 2.0) * w
    yield cur
    for k in itertools.count(2):
        ck = 2.0 if k == 2 else (k + 2.0 * nu - 2.0) / (k + nu - 2.0)
        prev, cur = cur, ((k + nu) / k) * (2.0 * w * cur - ck * a2 * prev)
        yield cur


def zonal_series(coeffs, nu: float, w, a2) -> np.ndarray:
    """sum_k coeffs[k] S_k at many pairs: (N,) arrays w and a2 (see zonal_terms)."""
    w = np.asarray(w, dtype=np.float64)
    out = np.zeros_like(w)
    for c, s in zip(coeffs, zonal_terms(nu, w, np.asarray(a2, dtype=np.float64))):
        out += c * s
    return out


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
    return series.horner(series.diag_coefficients(n, alpha, K), r2)
