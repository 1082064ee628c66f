"""The benchmark harness finds its traced functions by name: a name it looks
up that the package no longer has fails a whole benchmark run, so it is
checked here instead."""

import importlib
import importlib.util
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
