"""Outside-in tracer for bbesov: per-function calls, self time and counters.

The tracer changes no file of the package.  It replaces public functions by
wrappers on the module attribute through which callers look them up, so
``kernelcore.zonal_series`` and ``calculus.zonal_series`` are both wrapped,
not only ``_backend.zonal_series``.  Timed wrappers form a span stack: a
span's self time is its duration minus the time of the spans it encloses, so
the self times of all spans add up to the time of the outermost ones.
Functions listed in ``COUNT_ONLY`` are counted without being timed, because
they are called hundreds of thousands of times with microseconds of work
each; their time stays in the self time of the span that called them.

Run one traced CLI command with

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json <bbesov arguments>

which behaves like ``python3 -m bbesov.cli`` and also writes the per-span
totals to STATS.json.
"""

import inspect
import json
import sys
from time import perf_counter

# (module, attribute, span name); the same name may appear under several
# lookups of one function.
TIMED = [
    ("kernelcore", "zonal_series", "kernelcore.series"),
    ("calculus", "zonal_series", "kernelcore.series"),
    ("verify", "zonal_series_py", "kernelcore.series"),
    ("kernelcore", "plan_terms", "kernelcore.plan_terms"),
    ("kernelcore", "gamma_coeffs", "kernelcore.gamma_coeffs"),
    ("kernelcore", "zonal", "kernelcore.zonal"),
    ("calculus", "quadrature_build", "calculus.quadrature_build"),
    ("calculus", "evaluate_batch", "calculus.evaluate_batch"),
    ("calculus", "inner_product_u_closed", "calculus.inner_product_u_closed"),
    ("calculus", "kernel_norm_scan", "calculus.kernel_norm_scan"),
    ("calculus", "bracket_integral_scan", "calculus.bracket_integral_scan"),
    ("geometry", "lattice_gen", "geometry.lattice_gen"),
    ("geometry", "lattice_separation", "geometry.lattice_separation"),
    ("geometry", "lattice_coverage", "geometry.lattice_coverage"),
    ("geometry", "weighted_ball_volume", "geometry.weighted_ball_volume"),
    ("geometry", "rho_batch", "geometry.rho_batch"),
    ("measures", "measure_of_pseudoball", "measures.measure_of_pseudoball"),
    ("measures", "carleson_statistic", "measures.carleson_statistic"),
    ("measures", "berezin2", "measures.berezin2"),
    ("measures", "averaging", "measures.averaging"),
    ("measures", "transform_lp_norm", "measures.transform_lp_norm"),
    ("toeplitz", "basis_build", "toeplitz.basis_build"),
    ("toeplitz", "toeplitz_matrix", "toeplitz.toeplitz_matrix"),
    ("toeplitz", "spectrum", "toeplitz.spectrum"),
    ("toeplitz", "integral_operator_matrix", "toeplitz.integral_operator_matrix"),
    ("toeplitz", "shifted_operator_matrix", "toeplitz.shifted_operator_matrix"),
    ("toeplitz", "schatten_diagnostic", "toeplitz.schatten_diagnostic"),
    ("cli", "main", "cli.main"),
]
COUNT_ONLY = [
    ("kernelcore", "tail_bound", "kernelcore.tail_bound"),
]
VERIFY_SUITES = ["kernels", "geometry", "calculus", "carleson", "toeplitz"]
# Spans whose distinct argument tuples are counted (memoisation headroom).
DISTINCT = {"calculus.quadrature_build", "geometry.lattice_gen"}


class Tracer:
    """Span stack and per-name totals for one process."""

    def __init__(self):
        self.stats = {}     # name -> {"calls", "self_s", extra counters}
        self.root_s = 0.0   # time inside outermost spans
        self._stack = []    # child time accumulated per open span
        self._distinct = {}

    def timed(self, name, fn, counters=()):
        """Wrap fn in a span; each counter(entry, args, kwargs, result) runs after it."""
        entry = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                entry["calls"] += 1
                entry["self_s"] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
            for counter in counters:
                counter(entry, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        entry = self.stats[name] = {"calls": 0}

        def wrapper(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def distinct(self, name, fn):
        """Counter that records how many distinct argument tuples were seen."""
        sig = inspect.signature(fn)
        seen = self._distinct.setdefault(name, set())

        def counter(entry, args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add(repr(tuple(bound.arguments.values())))
            entry["distinct"] = len(seen)
        return counter


def _point_terms(entry, args, kwargs, result):
    # zonal_series(coeffs, nu, w, a2): len(w) points times len(coeffs) terms
    entry["point_terms"] = entry.get("point_terms", 0) + len(args[0]) * len(args[2])


def _lattice_points(entry, args, kwargs, result):
    entry["points"] = entry.get("points", 0) + len(result.points)


COUNTERS = {"kernelcore.series": (_point_terms,),
            "geometry.lattice_gen": (_lattice_points,)}


def install(tracer):
    """Wrap every traced function of the imported package; returns the module map."""
    import bbesov.cli
    from bbesov import calculus, geometry, kernelcore, measures, toeplitz, verify
    mods = {"kernelcore": kernelcore, "calculus": calculus, "geometry": geometry,
            "measures": measures, "toeplitz": toeplitz, "verify": verify,
            "cli": bbesov.cli}
    for mod, attr, name in TIMED:
        fn = getattr(mods[mod], attr)
        counters = COUNTERS.get(name, ())
        if name in DISTINCT:
            counters += (tracer.distinct(name, fn),)
        setattr(mods[mod], attr, tracer.timed(name, fn, counters))
    for mod, attr, name in COUNT_ONLY:
        setattr(mods[mod], attr, tracer.counted(name, getattr(mods[mod], attr)))
    # verify.run looks its suites up in the SUITES table, not as attributes
    for suite in VERIFY_SUITES:
        verify.SUITES[suite] = tracer.timed(f"verify.{suite}", verify.SUITES[suite])
    return mods


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    mods = install(tracer)
    try:
        rc = mods["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump({"root_s": tracer.root_s, "spans": tracer.stats}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
