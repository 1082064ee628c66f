"""Self-tests of the benchmark: checker, input generator, tracer and contract.

Run from the root of the checkout with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

GOOD_SCAN = ("r,one_minus_r2,value\n0.9,0.19,2.0\n0.95,0.0975,4.0\n"
             "# slope=-1.02 predicted=-1.0 max_min_ratio=2.0\n")


def test_checker_flags_nonzero_exit():
    assert checks.intertwine(0, '{"residual": 1e-12}') == []
    assert "exit" in checks.intertwine(1, '{"residual": 1e-12}')
    assert checks.scan(0, GOOD_SCAN) == []
    assert "exit" in checks.scan(2, GOOD_SCAN)


def test_checker_flags_nan():
    assert "finite" in checks.intertwine(0, '{"residual": NaN}')
    assert "finite" in checks.scan(0, GOOD_SCAN.replace("4.0\n", "nan\n"))
    assert "finite" in checks.scan(0, GOOD_SCAN.replace("-1.02", "nan"))
    assert "parse" in checks.lattice(0, "not json")


def test_kernel_eval_oracle():
    x, y = (0.91, -0.2), (0.5, 0.78)
    z, w = complex(*x), complex(*y)
    exact = 2.0 * (1.0 / (1.0 - z * w.conjugate()) ** 2).real - 1.0
    check = checks.kernel_eval_n2(x, y)
    doc = {"value": exact, "truncation_bound": 1e-12, "terms_used": 300}
    assert check(0, json.dumps(doc)) == []
    doc["value"] = exact + 1e-9
    assert check(0, json.dumps(doc)) == ["enclosure"]


def test_inputs_depend_only_on_seed(tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        inp = workloads.make_inputs(seed, str(d))
        texts = [open(p).read() for p in (inp.mu2, inp.mu3, inp.nu2)]
        return texts, inp.pairs

    assert files(7, "a") == files(7, "b")
    assert files(7, "a2")[0][0] != files(8, "c")[0][0]


def test_tracer_self_times_nest():
    tr = tracer.Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def hot():
        return 1

    hot = tr.counted("hot", hot)
    inner = tr.timed("inner", lambda: busy(0.01) or hot())
    outer = tr.timed("outer", lambda: [busy(0.01), inner(), inner()])
    outer()
    outer()
    s = tr.stats
    assert (s["outer"]["calls"], s["inner"]["calls"], s["hot"]["calls"]) == (2, 4, 4)
    assert "self_s" not in s["hot"]
    assert s["outer"]["self_s"] >= 0.02 and s["inner"]["self_s"] >= 0.04
    total = s["outer"]["self_s"] + s["inner"]["self_s"]
    assert total == pytest.approx(tr.root_s, rel=1e-9)


def test_traced_pass_accounts_for_wall(tmp_path):
    nproc = len(os.sched_getaffinity(0))
    env = run.child_env(ROOT, nproc)
    inp = workloads.make_inputs(3, str(tmp_path))
    commands = [c for c in workloads.WORKLOADS["kernel-scans"](inp, 3)
                if c.name in ("norm-scan-p2", "eval-0")]
    p = run.run_pass(commands, env, ROOT, str(tmp_path), True,
                     time.perf_counter() + 120)
    assert all(set(f) <= c.known for c, f, _ in p["verdicts"])
    self_total = sum(e.get("self_s", 0.0) for e in p["spans"].values())
    # every span's self time plus the time outside the CLI is the wall time
    assert self_total == pytest.approx(p["root_s"], rel=1e-6)
    remainder = p["wall"] - self_total
    assert 0.0 < remainder < p["wall"]
    m = run.layer_metrics(p)
    assert m["calculus.kernel_norm_scan.calls"] == 1
    assert m["kernelcore.plan_terms.calls"] >= 2
    assert m["trace.untraced_remainder_s"] == pytest.approx(remainder, rel=1e-6)


def test_refuses_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
