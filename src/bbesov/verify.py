"""Lemma-level verification suites.

Each suite runs the invariants of one module and returns per-check records
{name, paper_ref, status, value, bracket}.  Suites are deterministic; every
randomized check carries a fixed seed.
"""

import json
import math

import numpy as np

from . import calculus as ca
from . import geometry as ge
from . import kernelcore as kc
from . import measures as me
from . import series
from . import toeplitz as tp
# perfbench/tracer.py wraps this name, so it stays an import of its own
from .kernelcore import zonal_series as zonal_series_py


def _check(name, paper_ref, ok, value, bracket=None):
    return {
        "name": name,
        "paper_ref": paper_ref,
        "status": "pass" if ok else "fail",
        "value": value,
        "bracket": bracket,
    }


def _sample_ball(rng, n, m, rmax=0.999):
    x = rng.normal(size=(m, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = rmax * rng.uniform(0.0, 1.0, m) ** (1.0 / n)
    return x * r[:, None]


def _lgamma_gamma_k(n, alpha, k):
    """gamma_k via log-gamma closed forms (independent of the product code)."""
    lg = math.lgamma
    h = n / 2.0
    if alpha > -(1.0 + h):
        return math.exp(lg(1 + h + alpha + k) + lg(h)
                        - lg(1 + h + alpha) - lg(h + k))
    b = 1.0 - (h + alpha)
    return math.exp(2 * lg(k + 1) - (lg(b + k) - lg(b)) - (lg(h + k) - lg(h)))


# --------------------------------------------------------------------------


def suite_kernels():
    checks = []
    rng = np.random.default_rng(101)

    alphas = [a for a in np.linspace(-6.0, 6.0, 50)]
    ok = all(kc.gamma_coeffs(n, a, 0)[0] == 1.0
             for n in (2, 3) for a in alphas)
    checks.append(_check("gamma0-unit", "Eq. (1.3)", ok,
                         0.0 if ok else 1.0))

    # Stirling consistency: the incrementally computed gamma_k must match the
    # log-gamma closed form, and log(gamma_k) - (1+alpha) log k stays bounded
    worst = 0.0
    spread = 0.0
    for n in (2, 3):
        for alpha in (-3.2, -1.5, 0.0, 1.7):
            ks = [100, 316, 1000, 3162, 10000]
            g = kc.gamma_coeffs(n, alpha, ks[-1])
            logs = []
            for k in ks:
                exact = _lgamma_gamma_k(n, alpha, k)
                worst = max(worst, abs(g[k] - exact) / abs(exact))
                logs.append(math.log(abs(g[k])) - (1 + alpha) * math.log(k))
            spread = max(spread, max(logs) - min(logs))
    checks.append(_check("stirling-consistency", "Eq. (2.1)",
                         worst < 1e-8 and spread < 2.0,
                         {"rel_error": worst, "log_spread": spread},
                         {"rel_error": [0.0, 1e-8], "log_spread": [0.0, 2.0]}))

    ok = True
    for n in (2, 3):
        for alpha in (-3.0, -1.5, 0.0, 2.0):
            for x in _sample_ball(rng, n, 5, 0.95):
                ok &= series.kernel_eval(n, alpha, x, np.zeros(n)).value == 1.0
    checks.append(_check("kernel-at-zero", "Eq. (2.5)", ok, 0.0 if ok else 1.0))

    ok = True
    for n in (2, 3):
        for alpha in (-3.0, 0.0, 2.0):
            X = _sample_ball(rng, n, 20, 0.9)
            Y = _sample_ball(rng, n, 20, 0.9)
            for x, y in zip(X, Y):
                ok &= (series.kernel_eval(n, alpha, x, y).value
                       == series.kernel_eval(n, alpha, y, x).value)
    checks.append(_check("kernel-symmetry", "Eq. (1.1)", ok, 0.0 if ok else 1.0))

    # certified truncation: brute force to 4K terms within the reported bound
    worst = -np.inf
    ok = True
    for n in (2, 3):
        for alpha in (-2.5, 0.0, 1.5):
            for r in (0.5, 0.9):
                x = np.full(n, r / math.sqrt(n))
                y = -0.9 * x
                kv = series.kernel_eval(n, alpha, x, y, tol=1e-9)
                K4 = 4 * kv.terms_used
                coeffs = kc.gamma_coeffs(n, alpha, K4 - 1)
                w = np.array([float(np.dot(x, y))])
                a2 = np.array([float(np.dot(x, x) * np.dot(y, y))])
                brute = float(zonal_series_py(coeffs, (n - 2) / 2.0, w, a2)[0])
                diff = abs(brute - kv.value)
                ok &= diff <= kv.truncation_bound * (1 + 1e-12) + 1e-15
                worst = max(worst, diff - kv.truncation_bound)
    checks.append(_check("certified-tail-bound", "Lemma 2.10", ok, worst))
    return checks


# --------------------------------------------------------------------------


def suite_geometry():
    checks = []
    rng = np.random.default_rng(202)
    m = 100_000
    X = _sample_ball(rng, 2, m)
    Y = _sample_ball(rng, 2, m)
    A = _sample_ball(rng, 2, m)

    def br(P, Q):
        return np.sqrt(np.maximum(
            1.0 - 2.0 * np.einsum("ij,ij->i", P, Q)
            + np.einsum("ij,ij->i", P, P) * np.einsum("ij,ij->i", Q, Q), 0.0))

    rho_xy = np.linalg.norm(X - Y, axis=1) / br(X, Y)
    ratio = br(X, A) / br(Y, A)
    lo = (1.0 - rho_xy) / (1.0 + rho_xy)
    hi = (1.0 + rho_xy) / (1.0 - rho_xy)
    viol = int(((ratio < lo - 1e-12) | (ratio > hi + 1e-12)).sum())
    checks.append(_check("lemma-2.2-bracket", "Lemma 2.2", viol == 0, viol))

    delta = 0.4
    sel = rho_xy < delta
    lo_d = (1.0 - delta) / (1.0 + delta)
    hi_d = (1.0 + delta) / (1.0 - delta)
    bxy = br(X, Y)[sel]
    ox = 1.0 - np.einsum("ij,ij->i", X[sel], X[sel])
    oy = 1.0 - np.einsum("ij,ij->i", Y[sel], Y[sel])
    ok = bool(np.all((ox / bxy >= lo_d - 1e-12) & (ox / bxy <= hi_d + 1e-12)
                     & (oy / bxy >= lo_d - 1e-12) & (oy / bxy <= hi_d + 1e-12)))
    checks.append(_check("lemma-2.3-comparability", "Lemma 2.3", ok,
                         float(max((ox / bxy).max(), (oy / bxy).max())),
                         [lo_d, hi_d]))

    r_sel = ratio[sel]
    ok = bool(np.all((r_sel >= lo_d - 1e-12) & (r_sel <= hi_d + 1e-12)))
    checks.append(_check("lemma-2.4-sharp", "Lemma 2.4", ok,
                         float(r_sel.max()), [lo_d, hi_d]))

    lat = _shared_lattice()
    sep = ge.lattice_separation(lat)
    uncovered, mult = ge.lattice_coverage(lat, samples=2000, seed=5)
    rt = ge.lattice_from_json(ge.lattice_to_json(lat))
    ok = (sep >= lat.delta - 1e-12 and uncovered == 0
          and mult <= lat.multiplicity_bound
          and np.array_equal(rt.points, lat.points))
    checks.append(_check("lattice-audit", "Lemma 2.5", ok,
                         {"separation": sep, "uncovered": uncovered,
                          "multiplicity": mult}))
    return checks


_LATTICE_CACHE = {}


def _shared_lattice(delta=0.5, rmax=0.95):
    key = (delta, rmax)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = ge.lattice_gen(2, delta, rmax)
    return _LATTICE_CACHE[key]


# --------------------------------------------------------------------------


def suite_calculus():
    checks = []
    rng = np.random.default_rng(303)
    n, p, alpha = 2, 2.0, 0.5
    params = ca.SpaceParams(n, p, alpha, 1.0, 0.0)
    rule = ca.quadrature_build(n, alpha, 48)

    # Lemma 2.6 growth bound with a monotone-window control near the boundary
    inner_max = outer_max = 0.0
    X = _sample_ball(rng, n, 200, 0.995)
    rr = np.linalg.norm(X, axis=1)
    for i in range(50):
        f = ca.random_polynomial(n, 6, 9000 + i)
        nrm = ca.besov_norm(params, f, rule)
        stat = (np.abs(ca.evaluate_batch(f, X))
                * (1.0 - rr**2) ** ((n + alpha) / p) / nrm)
        inner_max = max(inner_max, float(stat[rr < 0.9].max()))
        outer_max = max(outer_max, float(stat[rr >= 0.9].max()))
    ok = outer_max <= 3.0 * inner_max
    checks.append(_check("lemma-2.6-growth", "Lemma 2.6", ok,
                         {"inner": inner_max, "outer": outer_max}))

    # Eq. (2.9) sub-mean-value property with K = 1 for p >= 1
    t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    u01 = 0.5 * (gl_x + 1.0)
    w01 = 0.5 * gl_w
    kworst = 0.0
    for i in range(20):
        f = ca.random_polynomial(n, 5, 9100 + i)
        x = _sample_ball(rng, n, 1, 0.7)[0]
        r = float(rng.uniform(0.05, 0.25))
        rad = r * np.sqrt(u01)
        pts = (x[None, None, :] + rad[:, None, None]
               * np.stack([np.cos(t), np.sin(t)], axis=1)[None, :, :])
        vals = np.abs(ca.evaluate_batch(f, pts.reshape(-1, 2))) ** p
        avg = float((w01 @ vals.reshape(len(rad), -1).mean(axis=1)))
        kworst = max(kworst, abs(ca.evaluate(f, x)) ** p / avg)
    checks.append(_check("eq-2.9-submean", "Eq. (2.9)", kworst <= 1.0 + 1e-6,
                         kworst, [0.0, 1.0]))

    # Lemma 2.8 isomorphism: norm ratio bounded above and below
    tshift = 0.7
    params2 = ca.SpaceParams(n, p, alpha + p * tshift, 1.0 + tshift, 0.0)
    rule2 = ca.quadrature_build(n, alpha + p * tshift, 48)
    ratios = []
    for i in range(30):
        f = ca.random_polynomial(n, 6, 9200 + i)
        df = ca.dts_apply(1.0, tshift, f)
        ratios.append(ca.besov_norm(params2, df, rule2)
                      / ca.besov_norm(params, f, rule))
    lo, hi = min(ratios), max(ratios)
    checks.append(_check("lemma-2.8-isomorphism", "Lemma 2.8",
                         lo > 0 and hi / lo < 100.0,
                         {"ratio": hi / lo, "lo": lo, "hi": hi}, [1.0, 100.0]))

    worst = 0.0
    ok = True
    for i in range(30):
        f = ca.random_polynomial(n, 6, 9300 + i)
        q = ca.inner_product_u_closed(alpha, 1.0, 0.5, f, f)
        ok &= q > 0.0
        worst = min(worst, q)
    zero = ca.HarmonicPolynomial(n)
    ok &= ca.inner_product_u_closed(alpha, 1.0, 0.5, zero, zero) == 0.0
    checks.append(_check("inner-product-psd", "Eq. (6.2)", ok, worst))
    return checks


# --------------------------------------------------------------------------


def _sample_measures(n=2):
    rng = np.random.default_rng(404)
    inner = _sample_ball(rng, n, 4, 0.5), rng.uniform(0.3, 1.0, 4)
    wide = _sample_ball(rng, n, 6, 0.7), rng.uniform(0.1, 0.8, 6)
    return {
        "atoms-inner": me.Measure(n, *inner),
        "atoms-wide": me.Measure(n, *wide),
        "volume": me.nu_alpha_measure(n, 0.5),
        "decaying": me.Measure(n, density=me.Density("power-weight", 3.0, 0.8)),
        "mixed": me.Measure(n, inner[0][:2], inner[1][:2],
                            me.Density("power-weight", 2.5, 0.4)),
    }


def _growth_classify(vals, threshold=10.0):
    base = max(vals[0], 1e-12)
    return bool(vals[-1] / base > threshold)


def suite_carleson():
    checks = []
    alpha = 0.5
    measures = _sample_measures()

    # Lemma 3.1: integrability classification of the averaging field against
    # dnu_{-n} (decided by its boundary decay rate) is delta-independent
    ok = True
    detail = {}
    n = 2
    radii = 1.0 - np.geomspace(0.3, 0.005, 8)
    theta = 2 * np.pi * np.arange(6) / 6
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    X = (radii[:, None, None] * dirs[None]).reshape(-1, n)
    for name, mu in measures.items():
        cls = []
        for delta in (0.3, 0.5, 0.7):
            prof = me.averaging(mu, alpha, delta, X, level=16).reshape(
                len(radii), -1).mean(axis=1)
            tail = prof[-4:]
            if np.all(tail < 1e-12):
                finite = True          # compact metric support
            else:
                sigma = series.fit_slope(1.0 - radii[-5:] ** 2,
                                         np.maximum(prof[-5:], 1e-300))
                finite = bool(sigma > n - 1 + 0.25)
            cls.append(finite)
        detail[name] = cls
        ok &= len(set(cls)) == 1
    checks.append(_check("lemma-3.1-delta-independence", "Lemma 3.1", ok,
                         {k: v for k, v in detail.items()}))

    # Propositions 3.2 / 3.3: the three transforms classify identically
    radii = np.array([0.6, 0.8, 0.9, 0.97])
    ok32 = ok33 = True
    for name in ("atoms-inner", "volume", "decaying"):
        mu = measures[name]
        X = np.outer(radii, [1.0, 0.0])
        hat = me.averaging(mu, alpha, 0.5, X, level=16)
        til = me.berezin2(mu, alpha + 2.0, alpha, X)
        bar = [me.berezin_type(mu, alpha, 1.0, x, level=64) for x in X]
        cls = [_growth_classify(v) for v in (hat, til, bar)]
        ok32 &= len(set(cls)) == 1
        gamma = 0.5
        bounded = [bool(max(v) * (1 - radii[-1] ** 2) ** gamma < 1e6)
                   for v in (hat, til, bar)]
        ok33 &= len(set(bounded)) == 1
    checks.append(_check("prop-3.2-equivalence", "Proposition 3.2", ok32,
                         None))
    checks.append(_check("prop-3.3-pointwise", "Proposition 3.3", ok33, None))

    # exact additivity / homogeneity on atomic parts
    mu1, mu2 = measures["atoms-inner"], measures["atoms-wide"]
    ball = ge.pseudoball(np.array([0.2, 0.1]), 0.6)
    v1 = me.measure_of_pseudoball(mu1, ball)
    v2 = me.measure_of_pseudoball(mu2, ball)
    msum = me.Measure(2, np.concatenate([mu1.points, mu2.points]),
                      np.concatenate([mu1.weights, mu2.weights]))
    vsum = me.measure_of_pseudoball(msum, ball)
    vscaled = me.measure_of_pseudoball(mu1.scaled(2.0), ball)
    ok = vsum == v1 + v2 and vscaled == 2.0 * v1
    checks.append(_check("transform-additivity", "Eq. (3.1)", ok,
                         abs(vsum - v1 - v2)))

    # Lemma 2.7 with the recorded empirical constant
    rng = np.random.default_rng(505)
    mu = measures["atoms-wide"]
    delta, pp = 0.4, 2.0
    t = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    u01 = 0.5 * (gl_x + 1.0)
    w01 = 0.5 * gl_w
    cworst = 0.0
    for x in _sample_ball(rng, 2, 20, 0.8):
        ball = ge.pseudoball(x, delta)
        lhs = me.measure_of_pseudoball(mu, ball) ** pp
        if lhs == 0.0:
            continue
        rad = ball.euclid_radius * np.sqrt(u01)
        pts = (ball.euclid_center[None, None, :] + rad[:, None, None]
               * np.stack([np.cos(t), np.sin(t)], axis=1)[None, :, :]
               ).reshape(-1, 2)
        g = me.measure_of_pseudoball(mu, ge.pseudoball(pts, delta)) ** pp
        wy = (1.0 - np.einsum("ij,ij->i", pts, pts)) ** alpha
        dens = (g * wy).reshape(len(rad), -1).mean(axis=1)
        # integral over the Euclidean ball against nu_alpha
        integral = (ball.euclid_radius ** 2 * float(w01 @ dens)
                    / kc.v_alpha(2, alpha))
        va = ge.weighted_ball_volume(alpha, ball)
        cworst = max(cworst, lhs * va / integral)
    checks.append(_check("lemma-2.7-empirical", "Lemma 2.7", cworst < 1e6,
                         cworst))
    return checks


# --------------------------------------------------------------------------


def suite_toeplitz():
    checks = []
    alpha, s = 0.5, 1.0
    spec = tp.BasisSpec(2, alpha, s, 8)
    measures = _sample_measures()

    ok = True
    mins = {}
    for name in ("atoms-inner", "volume", "mixed"):
        M = tp.toeplitz_matrix(measures[name], spec, level=48)
        ev = np.linalg.eigvalsh(M.entries)
        mins[name] = float(ev.min())
        ok &= ev.min() >= -1e-10 * max(abs(ev).max(), 1e-300)
    checks.append(_check("psd", "Eq. (6.5)", ok, mins))

    mu, wide = measures["atoms-inner"], measures["atoms-wide"]
    bigger = me.Measure(2, np.concatenate([mu.points, wide.points]),
                        np.concatenate([mu.weights, wide.weights]))
    D = (tp.toeplitz_matrix(bigger, spec).entries
         - tp.toeplitz_matrix(mu, spec).entries)
    ev = np.linalg.eigvalsh(D)
    ok = ev.min() >= -1e-10 * max(abs(ev).max(), 1e-300)
    checks.append(_check("monotonicity", "Section 6", ok, float(ev.min())))

    # Lemma 6.4: C_delta * T(hat-mu density) dominates T(mu) for radial mu
    mur = me.Measure(2, density=me.Density("power-weight", alpha + 1.0, 0.9))
    grid = np.linspace(0.0, 0.97, 40)
    hat_vals = me.averaging(mur, alpha, 0.5, np.outer(grid, [1.0, 0.0]), level=24)
    hat_density = me.Density("tabulated-radial", 0.0, 1.0, grid,
                             hat_vals * (1.0 - grid**2) ** alpha
                             / kc.v_alpha(2, alpha))
    Mhat = tp.toeplitz_matrix(me.Measure(2, density=hat_density), spec, 48).entries
    Mmu = tp.toeplitz_matrix(mur, spec, 48).entries
    # generalized eigenvalues of (Mmu, Mhat): those of L^-1 Mmu L^-T, Mhat = L L^T
    L = np.linalg.cholesky(Mhat)
    A = np.linalg.solve(L, np.linalg.solve(L, Mmu).T)
    gev = np.linalg.eigvalsh((A + A.T) / 2.0)
    c_delta = float(gev.max()) * (1.0 + 1e-8)
    resid = np.linalg.eigvalsh(c_delta * Mhat - Mmu).min()
    ok = resid >= -1e-8 * np.abs(Mmu).max() and c_delta < 1e3
    checks.append(_check("lemma-6.4-domination", "Lemma 6.4", ok,
                         {"C_delta": c_delta, "min_eig": float(resid)}))

    # Lemma 6.3: rapidly vanishing symbol -> S_p ladder converges, consistent
    # with the L^p_{-n} statistic of the symbol itself
    mphi = 6.0
    mu_phi = me.Measure(2, density=me.Density("power-weight", alpha + mphi,
                                              1.0 / kc.v_alpha(2, alpha)))
    lat = _shared_lattice()
    sd = tp.schatten_diagnostic(mu_phi, tp.BasisSpec(2, alpha, s, 10),
                                1.0, lat, level=48)

    def phi_field(X):
        return (1.0 - np.einsum("ij,ij->i", X, X)) ** mphi

    rep = me.transform_lp_norm(phi_field, 1.0, -2.0, lat)
    ok = (sd.classifications["truncation_converges"]
          and rep.growth_ratio < 1.5)
    checks.append(_check("lemma-6.3-symbol", "Lemma 6.3", ok,
                         {"ladder_rel_change": sd.ladder_rel_change,
                          "symbol_growth": rep.growth_ratio}))

    # truncation interlacing: eigenvalues increase with K
    mu = measures["atoms-wide"]
    ev6 = np.sort(np.linalg.eigvalsh(
        tp.toeplitz_matrix(mu, tp.BasisSpec(2, alpha, s, 6)).entries))[::-1]
    ev8 = np.sort(np.linalg.eigvalsh(
        tp.toeplitz_matrix(mu, tp.BasisSpec(2, alpha, s, 8)).entries))[::-1]
    ok = bool(np.all(ev8[:len(ev6)] >= ev6 - 1e-10))
    checks.append(_check("truncation-interlacing", "Section 6", ok,
                         float((ev8[:len(ev6)] - ev6).min())))
    return checks


# --------------------------------------------------------------------------


SUITES = {
    "kernels": suite_kernels,
    "geometry": suite_geometry,
    "calculus": suite_calculus,
    "carleson": suite_carleson,
    "toeplitz": suite_toeplitz,
}


def run(suite: str) -> dict:
    """Run one suite (or 'all'); returns {suites, checks, ok}."""
    names = list(SUITES) if suite == "all" else [suite]
    if any(nm not in SUITES for nm in names):
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    checks = []
    for nm in names:
        for c in SUITES[nm]():
            c["suite"] = nm
            checks.append(c)
    ok = all(c["status"] == "pass" for c in checks)
    return {
        "suites": names,
        "checks": checks,
        "ok": ok,
    }


def report_json(result: dict) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        raise TypeError(type(o))

    return json.dumps(result, indent=2, default=default, sort_keys=True)
