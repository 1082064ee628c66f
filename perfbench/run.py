"""Benchmark of the bbesov command line: fixed batch workloads, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kernel-scans --seed 1 --seconds 30 --trace 0

The workload is a fixed list of CLI commands (see ``workloads.py``).  They
run in a closed loop, one client and one command at a time, each a fresh
``python -m bbesov.cli`` process with ``PYTHONPATH=src``, as a CI job runs
them.  One pass runs every command once; passes repeat while the next one
still fits in ``--seconds`` (at least one pass always runs).  Every output is
checked on every pass (``checks.py``).

Set-up runs first and is timed on its own: a fresh interpreter importing
``bbesov.cli`` plus writing the seeded inputs, repeated SETUP_REPS times.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median over passes of the sum of the commands' wall times,
  each from spawn to exit, interpreter start included;
- ``setup_s``: median set-up time;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any command process;
- ``success_rate``: operations that passed every check over operations
  attempted (an operation is one command plus its checks).

``--trace 1`` alternates untraced passes with passes in which every command
runs under ``tracer.py``, and reports the per-layer metrics of PER_LAYER: the
medians over traced passes of per-function calls, self times and counters,
the tracing overhead (traced minus untraced pass wall), the untraced remainder
(interpreter start-up and imports, outside ``cli.main``), and the error rate.

Standard output gets an environment record, one line per pass, and last the
result: ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
every failed operation; ``correct`` is false only when a check fails that is
not a documented defect of the program (``Command.known``).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
import workloads

SETUP_REPS = 5
RUN_LIMIT_S = 170.0          # a run must end well inside 180 s
WORK_DIR = ".perfbench_work"
_HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]

# span name -> fields reported for it
LAYER_FIELDS = {
    "kernelcore.series": ("calls", "point_terms", "self_s", "ns_per_point_term"),
    "kernelcore.plan_terms": ("calls", "self_s"),
    "kernelcore.gamma_coeffs": ("calls", "self_s"),
    "kernelcore.zonal": ("calls", "self_s"),
    "kernelcore.tail_bound": ("calls",),
    "calculus.quadrature_build": ("calls", "self_s", "distinct_per_call"),
    "calculus.evaluate_batch": ("calls", "self_s"),
    "calculus.inner_product_u_closed": ("calls", "self_s"),
    "calculus.kernel_norm_scan": ("calls", "self_s"),
    "calculus.bracket_integral_scan": ("calls", "self_s"),
    "geometry.lattice_gen": ("calls", "self_s", "points", "distinct_per_call"),
    "geometry.lattice_separation": ("calls", "self_s"),
    "geometry.lattice_coverage": ("calls", "self_s"),
    "geometry.weighted_ball_volume": ("calls", "self_s"),
    "geometry.rho_batch": ("calls", "self_s"),
    "measures.measure_of_pseudoball": ("calls", "self_s"),
    "measures.carleson_statistic": ("calls", "self_s"),
    "measures.berezin2": ("calls", "self_s"),
    "measures.averaging": ("calls", "self_s"),
    "measures.transform_lp_norm": ("calls", "self_s"),
    "toeplitz.basis_build": ("calls", "self_s"),
    "toeplitz.toeplitz_matrix": ("calls", "self_s"),
    "toeplitz.spectrum": ("calls", "self_s"),
    "toeplitz.integral_operator_matrix": ("calls", "self_s"),
    "toeplitz.shifted_operator_matrix": ("calls", "self_s"),
    "toeplitz.schatten_diagnostic": ("calls", "self_s"),
    **{f"verify.{s}": ("self_s",) for s in tracer.VERIFY_SUITES},
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "point_terms": "count",
               "ns_per_point_term": "ns", "points": "count",
               "distinct_per_call": "ratio"}
PER_LAYER = [(f"{span}.{f}", FIELD_UNITS[f])
             for span, fields in LAYER_FIELDS.items() for f in fields] + [
    ("trace.overhead_s", "s"), ("trace.untraced_remainder_s", "s"),
    ("error_rate", "ratio")]


class SetupError(Exception):
    pass


def child_env(root, nproc):
    """Environment of every child: the checkout's sources, BLAS threads capped."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            env[var] = str(max(1, min(int(env.get(var, nproc)), nproc)))
        except ValueError:
            env[var] = str(nproc)
    return env


def run_child(argv, env, cwd, workdir, timeout):
    """Run argv to completion; returns (wall_s, maxrss_mb, exit code, stdout, stderr)."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def git_sha(root):
    """HEAD commit read from .git, without running git; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


_PROBE = ("import json, sys, bbesov, bbesov.cli, numpy, scipy; "
          "print(json.dumps({'file': bbesov.__file__, 'backend': bbesov.BACKEND, "
          "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
          "'scipy': scipy.__version__}))")


def setup(root, env, workdir, seed):
    """Time import + input generation SETUP_REPS times; returns (median, inputs, probe)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _, _, rc, out, err = run_child([sys.executable, "-c", _PROBE], env,
                                       root, workdir, 60.0)
        inputs = workloads.make_inputs(seed, workdir)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SetupError(f"cannot import bbesov.cli from {root}/src: "
                             f"{err.strip().splitlines()[-1:]}")
    probe = json.loads(out)
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(probe["file"]).startswith(src):
        raise SetupError(f"bbesov was imported from {probe['file']}, "
                         f"not from {src}")
    return statistics.median(times), inputs, probe


def run_pass(commands, env, root, workdir, traced, deadline):
    """One pass over the workload; returns a dict of its measurements."""
    wall = 0.0
    rss = 0.0
    spans = {}
    root_s = 0.0
    verdicts = []
    stats_path = os.path.join(workdir, "trace.json")
    for cmd in commands:
        if traced:
            argv = [sys.executable, os.path.join(_HERE, "tracer.py"), stats_path]
        else:
            argv = [sys.executable, "-m", "bbesov.cli"]
        w, m, rc, out, err = run_child(argv + cmd.argv, env, root, workdir,
                                       deadline - time.perf_counter())
        fails = cmd.check(rc, out)
        if rc != 0 and err.strip():
            fails.append("stderr: " + err.strip().splitlines()[-1])
        verdicts.append((cmd, fails, w))
        wall += w
        rss = max(rss, m)
        if traced:
            try:
                with open(stats_path) as fh:
                    doc = json.load(fh)
                os.remove(stats_path)
            except (OSError, ValueError):
                doc = {"root_s": 0.0, "spans": {}}
            root_s += doc["root_s"]
            for name, entry in doc["spans"].items():
                agg = spans.setdefault(name, {})
                for k, v in entry.items():
                    agg[k] = agg.get(k, 0) + v
    return {"wall": wall, "rss": rss, "verdicts": verdicts,
            "spans": spans, "root_s": root_s, "traced": traced}


def layer_metrics(p):
    """Per-layer metric values of one traced pass."""
    out = {}
    for span, fields in LAYER_FIELDS.items():
        e = p["spans"].get(span, {})
        calls = e.get("calls", 0)
        for f in fields:
            if f == "ns_per_point_term":
                pt = e.get("point_terms", 0)
                v = 1e9 * e.get("self_s", 0.0) / pt if pt else 0.0
            elif f == "distinct_per_call":
                v = e.get("distinct", 0) / calls if calls else 0.0
            else:
                v = e.get(f, 0)
            out[f"{span}.{f}"] = v
    out["trace.untraced_remainder_s"] = p["wall"] - p["root_s"]
    return out


def describe(i, p):
    bad = [f"{c.name}[{','.join(f)}]{' (known defect)' if set(f) <= c.known else ''}"
           for c, f, _ in p["verdicts"] if f]
    walls = " ".join(f"{c.name}={w:.2f}" for c, _, w in p["verdicts"])
    kind = "traced" if p["traced"] else "untraced"
    return (f"pass {i} ({kind}): wall {p['wall']:.3f} s ({walls}), peak rss "
            f"{p['rss']:.1f} MB, failed: {', '.join(bad) or 'none'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bbesov", "cli.py")):
        print(f"error: {root} holds no bbesov sources (src/bbesov/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, nproc)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        try:
            setup_s, inputs, probe = setup(root, env, workdir, args.seed)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"env": {
            "nproc": nproc, "python": probe["python"], "numpy": probe["numpy"],
            "scipy": probe["scipy"], "backend": probe["backend"],
            "blas_threads": {v: env[v] for v in ("OMP_NUM_THREADS",
                                                 "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
            "git_sha": git_sha(root), "seed": args.seed,
            "workload": args.workload, "trace": args.trace,
            "count_only": [name for _, _, name in tracer.COUNT_ONLY]}}),
            flush=True)
        commands = workloads.WORKLOADS[args.workload](inputs, args.seed)
        cycle = [False, True] if args.trace else [False]
        passes = []
        t_measure = time.perf_counter()
        while True:
            t_cycle = time.perf_counter()
            for traced in cycle:
                passes.append(run_pass(commands, env, root, workdir, traced, deadline))
                print(describe(len(passes), passes[-1]), flush=True)
            now = time.perf_counter()
            if now + (now - t_cycle) > min(t_measure + args.seconds, deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    verdicts = [v for p in passes for v in p["verdicts"]]
    attempted = len(verdicts)
    failed = sum(1 for _, f, _ in verdicts if f)
    correct = all(set(f) <= c.known for c, f, _ in verdicts)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                      - statistics.median(p["wall"] for p in untraced))
        values["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(p["wall"] for p in untraced),
                  "setup_s": setup_s,
                  "peak_rss_mb": max(p["rss"] for p in untraced),
                  "success_rate": (attempted - failed) / attempted}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
