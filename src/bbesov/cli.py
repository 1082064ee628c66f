"""Command-line interface.

Subcommands: kernel (eval / norm-scan / bracket-scan), lattice, measure
(carleson / vanishing / berezin / averaging), toeplitz (matrix / spectrum /
schatten / intertwine / bounded), verify.  Reports are JSON, scan tables CSV;
identical arguments (including --seed) produce byte-identical output.

Each subcommand imports only the layers it runs, inside its cmd_* function:
a fresh process then compiles and loads no other layer, and start-up is most
of a short command's time (kernel eval, bracket-scan and norm-scan --p 2
run in series alone, without numpy).  Layers are called through their
module (ca.f, not a bare f), so a function replaced there is the one run.

Exit codes: 0 success, 1 failed verification/audit or a report that would
print NaN or +-inf (nothing goes to stdout then), 2 invalid parameters or
input files (a measure whose dimension is not --n, for one), or a series or
Gauss-Jacobi rule that cannot be certified.
"""

import argparse
import json
import math
import sys

from .errors import ParameterError, TruncationError


def _floats(text):
    return [float(v) for v in text.split(",")]


class NonFiniteError(ArithmeticError):
    """A report would print NaN or +-inf."""


def _nonfinite_json(obj, path=""):
    """'key.path = value' of the first NaN or +-inf in parsed JSON, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else f"{path} = {obj}"
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        hit = _nonfinite_json(v, f"{path}[{k}]" if isinstance(k, int)
                              else f"{path}.{k}" if path else k)
        if hit:
            return hit
    return None


def _nonfinite_csv(text):
    """'column at first-column=value' of the first NaN or +-inf in a CSV table
    (header line optional, '# key=value' footer), or None."""
    head = None
    for i, line in enumerate(text.splitlines()):
        if line.startswith("#"):
            for key, v in (f.split("=", 1) for f in line[1:].split()):
                if not math.isfinite(float(v)):
                    return f"{key} = {v}"
            continue
        cells = line.split(",")
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            head = cells
            continue
        for j, v in enumerate(vals):
            if not math.isfinite(v):
                where = f"{head[0]}={cells[0]}" if head else f"row {i}"
                return f"{head[j] if head else f'column {j}'} at {where} = {v}"
    return None


def _emit(args, text):
    hit = (_nonfinite_json(json.loads(text)) if text.startswith(("{", "["))
           else _nonfinite_csv(text))
    if hit:
        raise NonFiniteError(hit)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fmt(v):
    return repr(float(v))


def _json(obj):
    # numpy arrays and scalars; tolist() gives the nested Python values
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda o: o.tolist())


# --------------------------------------------------------------------------


def cmd_kernel(args):
    from . import series
    if args.kernel_cmd == "eval":
        kv = series.kernel_eval(args.n, args.alpha, _floats(args.x), _floats(args.y),
                                args.tol)
        _emit(args, _json({"value": kv.value,
                           "truncation_bound": kv.truncation_bound,
                           "rounding_bound": kv.rounding_bound,
                           "terms_used": kv.terms_used}))
        return 0
    radii = _floats(args.radii)
    if args.kernel_cmd == "bracket-scan":
        res = series.bracket_integral_scan(args.beta, args.s, radii, n=args.n)
    elif args.p == 2:
        res = series.kernel_norm_scan_p2(args.alpha, args.beta, radii, n=args.n)
    else:
        from . import calculus as ca
        res = ca.kernel_norm_scan(args.alpha, args.p, args.beta, radii,
                                  n=args.n, level=args.level)
    lines = ["r,one_minus_r2,value"]
    for r, o, v in zip(res.radii, res.one_minus_r2, res.values):
        lines.append(f"{_fmt(r)},{_fmt(o)},{_fmt(v)}")
    lines.append(f"# slope={_fmt(res.slope)}"
                 f" predicted={_fmt(res.predicted_exponent)}"
                 f" max_min_ratio={_fmt(res.max_min_ratio)}"
                 + "".join(f" {k}={v!r}" for k, v in res.quality.items()))
    _emit(args, "\n".join(lines))
    return 0


def cmd_lattice(args):
    from . import geometry as ge
    if not 0.0 < args.delta < 1.0:
        raise ParameterError("Lemma 2.5", "delta must lie in (0, 1)")
    if not 0.0 < args.horizon < 1.0:
        raise ParameterError("Lemma 2.5", "horizon must lie in (0, 1)")
    lat = ge.lattice_gen(args.n, args.delta, args.horizon)
    sep = ge.lattice_separation(lat)
    uncovered, mult = ge.lattice_coverage(lat, samples=10_000, seed=args.seed)
    _emit(args, ge.lattice_to_json(lat))
    if (sep < args.delta - 1e-12 or uncovered > 0
            or mult > lat.multiplicity_bound):
        print(f"audit failed: separation={sep} uncovered={uncovered} "
              f"multiplicity={mult}", file=sys.stderr)
        return 1
    return 0


def cmd_measure(args):
    import numpy as np

    from . import geometry as ge
    from . import measures as me
    with open(args.file) as fh:
        mu = me.measure_from_json(fh.read())
    if args.measure_cmd in ("carleson", "vanishing"):
        lat = ge.lattice_gen(mu.n, args.delta, args.horizon)
    if args.measure_cmd == "carleson":
        rep = me.carleson_statistic(mu, args.lam, args.alpha, lat, args.level)
        _emit(args, rep.to_json())
    elif args.measure_cmd == "vanishing":
        prof = me.vanishing_profile(mu, args.lam, args.alpha, lat,
                                    level=args.level)
        _emit(args, _json({
            "lambda": prof.lam, "alpha": prof.alpha,
            "shell_edges": prof.shell_edges, "shell_max": prof.shell_max,
            "vanishing": prof.vanishing, "fitted_slope": prof.fitted_slope,
            "note": prof.note, "horizon": lat.rmax}))
    elif args.measure_cmd == "berezin":
        x = np.array(_floats(args.x))
        val = me.berezin2(mu, args.phi, args.alpha, x, args.tol, args.level)
        _emit(args, _json({"x": x, "Phi": args.phi, "alpha": args.alpha,
                           "value": val}))
    else:  # averaging
        r, th = (g.ravel() for g in np.meshgrid(
            _floats(args.radii), 2.0 * np.pi * np.arange(args.angles) / args.angles,
            indexing="ij"))
        X = np.zeros((r.size, mu.n))
        X[:, 0], X[:, 1] = r * np.cos(th), r * np.sin(th)
        vals = me.averaging(mu, args.alpha, args.delta, X, args.level)
        lines = [f"{_fmt(a)},{_fmt(b)},{_fmt(v)}" for a, b, v in zip(r, th, vals)]
        _emit(args, "\n".join(["r,theta,value"] + lines))
    return 0


def cmd_toeplitz(args):
    from . import geometry as ge
    from . import measures as me
    from . import toeplitz as tp
    with open(args.file) as fh:
        mu = me.measure_from_json(fh.read())
    if args.toeplitz_cmd == "bounded":
        est = tp.boundedness_estimate(mu, args.p1, args.alpha1, args.p2,
                                      args.alpha2, args.s, args.t,
                                      args.trials, args.seed, level=args.level)
        zeta = 1.0 + 1.0 / args.p1 - 1.0 / args.p2
        gamma = (args.s + args.t + args.alpha1 / args.p1
                 - args.alpha2 / args.p2) / zeta
        kappa = me.kappa_from_mu(mu, args.s, args.t, args.alpha1)
        lat = ge.lattice_gen(mu.n, args.delta, args.horizon)
        crep = me.carleson_statistic(kappa, zeta, gamma, lat, args.level)
        _emit(args, _json({"estimate": est, "zeta": zeta, "gamma": gamma,
                           "carleson_statistic": crep.value,
                           "carleson_kind": crep.kind,
                           "horizon": crep.horizon}))
        return 0
    spec = tp.BasisSpec(args.n, args.alpha, args.s, args.K)
    if args.toeplitz_cmd == "matrix":
        M = tp.toeplitz_matrix(mu, spec, args.level)
        lines = [",".join(_fmt(v) for v in row) for row in M.entries]
        _emit(args, "\n".join(lines))
    elif args.toeplitz_cmd == "spectrum":
        M = tp.toeplitz_matrix(mu, spec, args.level)
        rep = tp.spectrum(M, _floats(args.p_list))
        _emit(args, _json({"eigenvalues": rep.eigenvalues,
                           "schatten": {str(k): v for k, v in rep.schatten.items()},
                           "trace": rep.trace, "K": rep.K}))
    elif args.toeplitz_cmd == "schatten":
        lat = ge.lattice_gen(mu.n, args.delta, args.horizon)
        sd = tp.schatten_diagnostic(mu, spec, args.p, lat, args.level)
        _emit(args, _json({
            "p": sd.p, "ladder_K": sd.ladder_K, "ladder_Sp": sd.ladder_Sp,
            "ladder_rel_change": sd.ladder_rel_change,
            "berezin_lp": {"lattice_sum": sd.berezin_lp.lattice_sum,
                           "radial_integral": sd.berezin_lp.radial_integral,
                           "growth_ratio": sd.berezin_lp.growth_ratio,
                           "horizon": sd.berezin_lp.horizon},
            "averaging_lp_sum": sd.averaging_lp_sum,
            "averaging_growth": sd.averaging_growth,
            "classifications": sd.classifications}))
    else:  # intertwine
        rep = tp.intertwine_check(mu, spec, args.t, args.level)
        _emit(args, _json({"residual": rep.residual, "t": args.t,
                           "alpha": args.alpha, "s": args.s, "K": args.K}))
    return 0


def cmd_verify(args):
    from . import verify as vf
    res = vf.run(args.suite)
    _emit(args, vf.report_json(res))
    return 0 if res["ok"] else 1


# --------------------------------------------------------------------------


# list(verify.SUITES) + ["all"], written out so that building the parser
# imports no layer; a test keeps the two equal
VERIFY_SUITES = ["kernels", "geometry", "calculus", "carleson", "toeplitz", "all"]

_SHARED = {
    "horizon": {"type": float, "default": 0.95},
    "tol": {"type": float, "default": 1e-9},
    "level": {"type": int, "default": 48},
    "seed": {"type": int, "default": 0},
}


def _options(sp, *names):
    """Add the shared options that sp's command reads, then --output."""
    for name in names:
        sp.add_argument(f"--{name}", **_SHARED[name])
    sp.add_argument("--output", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bbesov",
        description="weighted harmonic function spaces: kernels, lattices, "
                    "Carleson measures, Toeplitz truncations")
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="reproducing kernel evaluation and scans")
    ks = k.add_subparsers(dest="kernel_cmd", required=True)
    ke = ks.add_parser("eval")
    ke.add_argument("--n", type=int, default=2)
    ke.add_argument("--alpha", type=float, required=True)
    ke.add_argument("--x", required=True)
    ke.add_argument("--y", required=True)
    _options(ke, "tol")
    kn = ks.add_parser("norm-scan")
    kn.add_argument("--n", type=int, default=2)
    kn.add_argument("--alpha", type=float, required=True)
    kn.add_argument("--p", type=float, required=True)
    kn.add_argument("--beta", type=float, required=True)
    kn.add_argument("--radii", required=True)
    _options(kn, "level")
    kb = ks.add_parser("bracket-scan")
    kb.add_argument("--n", type=int, default=2)
    kb.add_argument("--beta", type=float, required=True)
    kb.add_argument("--s", type=float, required=True)
    kb.add_argument("--radii", required=True)
    _options(kb)
    k.set_defaults(func=cmd_kernel)

    lt = sub.add_parser("lattice", help="generate and audit a separated net")
    lt.add_argument("--n", type=int, default=2)
    lt.add_argument("--delta", type=float, required=True)
    _options(lt, "horizon", "seed")
    lt.set_defaults(func=cmd_lattice)

    m = sub.add_parser("measure", help="Carleson statistics and transforms")
    ms = m.add_subparsers(dest="measure_cmd", required=True)
    mc = ms.add_parser("carleson")
    mc.add_argument("--file", required=True)
    mc.add_argument("--lambda", dest="lam", type=float, required=True)
    mc.add_argument("--alpha", type=float, required=True)
    mc.add_argument("--delta", type=float, default=0.5)
    _options(mc, "horizon", "level")
    mv = ms.add_parser("vanishing")
    mv.add_argument("--file", required=True)
    mv.add_argument("--lambda", dest="lam", type=float, required=True)
    mv.add_argument("--alpha", type=float, required=True)
    mv.add_argument("--delta", type=float, default=0.5)
    _options(mv, "horizon", "level")
    mb = ms.add_parser("berezin")
    mb.add_argument("--file", required=True)
    mb.add_argument("--Phi", dest="phi", type=float, required=True)
    mb.add_argument("--alpha", type=float, required=True)
    mb.add_argument("--x", required=True)
    _options(mb, "tol", "level")
    ma = ms.add_parser("averaging")
    ma.add_argument("--file", required=True)
    ma.add_argument("--alpha", type=float, required=True)
    ma.add_argument("--delta", type=float, default=0.5)
    ma.add_argument("--radii", default="0.0,0.2,0.4,0.6,0.8")
    ma.add_argument("--angles", type=int, default=4)
    _options(ma, "level")
    m.set_defaults(func=cmd_measure)

    t = sub.add_parser("toeplitz", help="finite operator truncations")
    ts = t.add_subparsers(dest="toeplitz_cmd", required=True)
    for name, shared in (("matrix", ("level",)), ("spectrum", ("level",)),
                         ("schatten", ("horizon", "level")),
                         ("intertwine", ("level",)),
                         ("bounded", ("horizon", "level", "seed"))):
        p = ts.add_parser(name)
        p.add_argument("--file", required=True)
        if name != "bounded":  # the basis; bounded builds none
            p.add_argument("--n", type=int, default=2)
            p.add_argument("--alpha", type=float, default=0.0)
            p.add_argument("--K", type=int, default=8)
        p.add_argument("--s", type=float, default=1.0)
        if name == "spectrum":
            p.add_argument("--p-list", default="1,2")
        if name == "schatten":
            p.add_argument("--p", type=float, default=1.0)
            p.add_argument("--delta", type=float, default=0.5)
        if name == "intertwine":
            p.add_argument("--t", type=float, required=True)
        if name == "bounded":
            p.add_argument("--p1", type=float, required=True)
            p.add_argument("--alpha1", type=float, required=True)
            p.add_argument("--p2", type=float, required=True)
            p.add_argument("--alpha2", type=float, required=True)
            p.add_argument("--t", type=float, required=True)
            p.add_argument("--trials", type=int, default=20)
            p.add_argument("--delta", type=float, default=0.5)
        _options(p, *shared)
    t.set_defaults(func=cmd_toeplitz)

    v = sub.add_parser("verify", help="run lemma-level verification suites")
    v.add_argument("suite", choices=VERIFY_SUITES)
    _options(v)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"non-finite result: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
