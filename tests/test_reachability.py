"""Every top-level function and class of the package is reached from the
package itself: a name that no other source line references is dead code.

The benchmark tracer reaches some names from outside (perfbench/tracer.py's
TIMED and COUNT_ONLY), so those count as referenced.  ALLOWED names are
kept on purpose, each for the reason given.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bbesov"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = {
    # ROADMAP item 5: a Monte Carlo embedding-constant estimate with no command yet
    "measures.embedding_constant_estimate",
    # ROADMAP item 2: the trace against the Berezin integral, no command yet
    "toeplitz.trace_vs_berezin",
    # the tests' oracle for Mobius invariance
    "geometry.mobius",
}


def _tracer_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {f"{m}.{attr}" for m, attr, _ in mod.TIMED + mod.COUNT_ONLY}


def _definitions_and_references():
    """Top-level definitions {module.name: (module, first line, last line)},
    and the (module, line, name) of every Name and Attribute in the source."""
    defs, refs = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        mod = path.stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.lineno, node.attr))
    return defs, refs


def unreferenced():
    """Names defined at top level that no line outside their own definition uses."""
    defs, refs = _definitions_and_references()
    used = _tracer_names() | ALLOWED
    out = []
    for qual, (mod, first, last) in defs.items():
        name = qual.split(".", 1)[1]
        if qual in used or any(r == name and not (m == mod and first <= line <= last)
                               for m, line, r in refs):
            continue
        out.append(qual)
    return out


def test_every_top_level_name_is_referenced():
    assert unreferenced() == []


def test_allowlist_names_exist():
    defs, _ = _definitions_and_references()
    assert ALLOWED <= defs.keys()
