"""Output checks, one verdict per command.

A checker takes a command's exit code and standard output and returns the
names of the checks that failed; an empty list means the operation passed.
Every checker first requires exit code 0 (``exit``), parseable output
(``parse``) and finite numbers only (``finite``).  The oracles after that use
closed forms, ``mpmath`` or structural facts, and import nothing from
``bbesov``.
"""

import json
import math
import os

import mpmath

SLOPE_REL_TOL = 0.05          # fitted growth exponent vs the predicted one
IDENTITY_TOL = 1e-6           # T(nu_alpha) = I
INTERTWINE_TOL = 1e-8         # D T(mu) = T(kappa) D on the truncated basis

_HERE = os.path.dirname(os.path.abspath(__file__))
VERIFY_REFERENCE = os.path.join(_HERE, "verify_checks.json")


def _numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _json_checker(oracle):
    """Exit, parse and finiteness checks on a JSON report, then ``oracle``."""
    def check(returncode, stdout):
        fails = [] if returncode == 0 else ["exit"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return fails + ["parse"]
        if not all(math.isfinite(v) for v in _numbers(doc)):
            fails.append("finite")
        try:
            fails.extend(oracle(doc))
        except (KeyError, TypeError, ValueError, IndexError):
            fails.append("parse")
        return fails
    return check


@_json_checker
def lattice(doc):
    # The command exits 1 when its own separation/coverage audit fails.
    pts = doc["points"]
    inside = pts and all(sum(c * c for c in p) < 1.0 for p in pts)
    return [] if inside else ["points"]


@_json_checker
def carleson(doc):
    ok = doc["value"] >= 0.0 and all(v >= 0.0 for v in doc["shells"])
    return [] if ok else ["nonnegative"]


@_json_checker
def spectrum_identity(doc):
    ok = all(abs(v - 1.0) <= IDENTITY_TOL for v in doc["eigenvalues"])
    return [] if ok else ["identity"]


@_json_checker
def spectrum_psd(doc):
    """A positive measure gives a positive semidefinite Toeplitz matrix."""
    ev = doc["eigenvalues"]
    scale = max(abs(v) for v in ev)
    fails = [] if min(ev) >= -1e-9 * scale else ["psd"]
    if abs(doc["trace"] - sum(ev)) > 1e-9 * sum(abs(v) for v in ev):
        fails.append("trace")
    return fails


@_json_checker
def intertwine(doc):
    return [] if doc["residual"] <= INTERTWINE_TOL else ["residual"]


@_json_checker
def schatten(doc):
    """Compressions to nested subspaces have nondecreasing Schatten norms."""
    sp = doc["ladder_Sp"]
    ok = sp[0] > 0.0 and all(b >= a * (1.0 - 1e-12) for a, b in zip(sp, sp[1:]))
    return [] if ok else ["ladder"]


def scan(returncode, stdout):
    """CSV scan: positive values and a fitted slope within 5% of predicted."""
    fails = [] if returncode == 0 else ["exit"]
    try:
        lines = stdout.strip().splitlines()
        if lines[0] != "r,one_minus_r2,value" or not lines[-1].startswith("# "):
            return fails + ["parse"]
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:-1]]
        footer = dict(kv.split("=") for kv in lines[-1][2:].split())
        slope, predicted = float(footer["slope"]), float(footer["predicted"])
        ratio = float(footer["max_min_ratio"])
    except (IndexError, ValueError, KeyError):
        return fails + ["parse"]
    if not rows or any(len(r) != 3 for r in rows):
        return fails + ["parse"]
    values = [v for r in rows for v in r] + [slope, predicted, ratio]
    if not all(math.isfinite(v) for v in values):
        fails.append("finite")
    if not all(r[2] > 0.0 for r in rows):
        fails.append("positive")
    if not abs(slope - predicted) <= SLOPE_REL_TOL * abs(predicted):
        fails.append("slope")
    return fails


def kernel_eval_n2(x, y):
    """Check ``kernel eval --n 2 --alpha 0`` at (x, y) against mpmath.

    The n = 2, alpha = 0 kernel is 2 Re(1/(1 - z conj(w))^2) - 1 with
    z = x1 + i x2, w = y1 + i y2; the computed value must lie within the
    reported truncation bound of it.
    """
    with mpmath.workdps(40):
        z = mpmath.mpc(x[0], x[1])
        w = mpmath.mpc(y[0], y[1])
        exact = 2 * mpmath.re(1 / (1 - z * mpmath.conj(w)) ** 2) - 1

    @_json_checker
    def check(doc):
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(doc["value"]) - exact)
        return [] if err <= doc["truncation_bound"] else ["enclosure"]
    return check


@_json_checker
def verify_all(doc):
    """Every check passes, and every check of the seed's run is present."""
    with open(VERIFY_REFERENCE) as fh:
        reference = json.load(fh)
    seen = {f"{c['suite']}/{c['name']}" for c in doc["checks"]}
    ok = (all(c["status"] == "pass" for c in doc["checks"])
          and set(reference) <= seen)
    return [] if ok else ["verdicts"]
