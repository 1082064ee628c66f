"""Test helpers for the calculus layer, reached by no command or check.

inner_product_u and project compute by quadrature what the package gets in
closed form (inner_product_u_closed, and a polynomial reproducing itself),
so they serve the tests as oracles; constant_poly builds test input.
"""

import numpy as np

from bbesov import kernelcore as kc
from bbesov.calculus import (HarmonicPolynomial, QuadratureRule, dts_apply,
                             evaluate_batch, quadrature_build)
from bbesov.errors import ParameterError


def constant_poly(n: int, value: float = 1.0) -> HarmonicPolynomial:
    pole = np.zeros(n)
    pole[0] = 1.0
    return HarmonicPolynomial(n, [0], [value], [pole])


def inner_product_u(alpha: float, s: float, u: float,
                    f: HarmonicPolynomial, g: HarmonicPolynomial,
                    rule: QuadratureRule | None = None) -> float:
    """Pairing int (I f)(I g) dnu_alpha with order-u operators (quadrature)."""
    Phi = alpha + 2.0 * u
    if Phi <= -1.0:
        raise ParameterError("alpha + 2u > -1", f"alpha + 2u = {Phi} <= -1")
    if rule is None:
        rule = quadrature_build(f.n, Phi)
    df = dts_apply(s, u, f)
    dg = dts_apply(s, u, g)
    vals = evaluate_batch(df, rule.points) * evaluate_batch(dg, rule.points)
    pref = kc.v_alpha(f.n, Phi) / kc.v_alpha(f.n, alpha)
    return pref * float(np.dot(rule.weights, vals))


def project(Phi: float, f: HarmonicPolynomial, x,
            rule: QuadratureRule | None = None, tol: float = 1e-10):
    """Kernel projection integral at x; reproduces harmonic polynomials.

    x of shape (N, n) gives an (N,) array: f is evaluated on the rule once,
    and each point takes one kernel row.
    """
    if Phi <= -1.0:
        raise ParameterError("weight exponent > -1", f"Phi = {Phi} <= -1")
    if rule is None:
        rule = quadrature_build(f.n, Phi)
    x = np.asarray(x, dtype=np.float64)
    fv = evaluate_batch(f, rule.points)
    out = np.array([np.dot(rule.weights, kc.kernel_eval_batch(f.n, Phi, xi, rule.points, tol)
                           * fv) for xi in np.atleast_2d(x)])
    return float(out[0]) if x.ndim == 1 else out
