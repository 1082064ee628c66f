"""The benchmark harness finds its traced functions by name: a name it looks
up that the package no longer has fails a whole benchmark run, so it is
checked here instead."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import bbesov
from bbesov import verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist_and_are_callable():
    tr = _tracer()
    for mod, attr, _ in tr.TIMED + tr.COUNT_ONLY:
        assert callable(getattr(importlib.import_module(f"bbesov.{mod}"), attr, None)), \
            f"bbesov.{mod}.{attr}"
    for suite in tr.VERIFY_SUITES:
        assert callable(verify.SUITES.get(suite)), f"verify.SUITES[{suite!r}]"
    assert isinstance(bbesov.BACKEND, str)



def _traced_spans(tmp_path, argv):
    stats = tmp_path / "stats.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(stats), *argv],
                          cwd=TRACER.parent.parent, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(stats.read_text())["spans"]
    assert {"kernelcore.series", "calculus.evaluate_batch"} <= spans.keys()
    return spans


def test_tracer_runs_traced_commands(tmp_path):
    # its counters read the wrapped calls' arguments (len(w) of zonal_series),
    # so names alone do not show that a traced run still works; `verify
    # kernels` sums a brute-force series through verify.zonal_series_py
    series = _traced_spans(tmp_path, ["verify", "kernels"])["kernelcore.series"]
    assert series["calls"] > 0 and series["point_terms"] > 0
    spans = _traced_spans(tmp_path, ["verify", "calculus"])
    assert spans["calculus.evaluate_batch"]["calls"] > 0
