import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bbesov import calculus as ca
from bbesov import measures as me
from bbesov import series
from bbesov import verify as vf
from bbesov.cli import VERIFY_SUITES, main


def write_measure(tmp_path, mu, name="mu.json"):
    path = tmp_path / name
    path.write_text(me.measure_to_json(mu))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_kernel_eval_at_origin(capsys):
    # value at x = 0 is exactly 1 regardless of y
    for y in ("0.5,0.1", "-0.2,0.7"):
        code, out, _ = run(capsys, ["kernel", "eval", "--alpha", "0.3",
                                    "--x", "0,0", f"--y={y}"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 1.0
        assert doc["truncation_bound"] <= 1e-9


def test_kernel_eval_outside_ball_exit2(capsys):
    code, _, err = run(capsys, ["kernel", "eval", "--alpha", "0.0",
                                "--x", "1.0,0.2", "--y", "0,0"])
    assert code == 2
    assert "[violates Eq. (1.1)]" in err


@pytest.mark.parametrize("n, x, y", [
    ("3", "0.1,0.2", "0.1,0.2"),          # 2-vectors for the n = 3 kernel
    ("2", "0.1,0.2,0.3", "0.1,0.2"),      # a 3-vector x
    ("2", "0.1,0.2", "0.1"),              # a 1-vector y
])
def test_kernel_eval_refuses_wrong_dimension(capsys, n, x, y):
    code, out, err = run(capsys, ["kernel", "eval", "--n", n, "--alpha", "0",
                                  f"--x={x}", f"--y={y}"])
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: a point of R^") and "[violates Eq. (1.1)]" in err


def test_kernel_norm_scan_csv_shape(capsys):
    radii = "0.9,0.95,0.98,0.99"
    code, out, _ = run(capsys, ["kernel", "norm-scan", "--alpha", "1.0",
                                "--p", "2.0", "--beta", "0.0",
                                "--radii", radii])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,one_minus_r2,value"
    assert len(lines) == 2 + len(radii.split(","))
    assert lines[-1].startswith("# slope=")
    slope = float(lines[-1].split("slope=")[1].split()[0])
    assert slope == pytest.approx(-4.0, rel=0.1)


def test_bracket_scan_runs(capsys):
    code, out, _ = run(capsys, ["kernel", "bracket-scan", "--beta", "0.0",
                                "--s", "1.0", "--radii", "0.9,0.95,0.98"])
    assert code == 0
    assert "# slope=" in out


_SERIES_QUALITY = {"terms": int, "tail_bound": float}


@pytest.mark.parametrize("argv, keys", [
    (["bracket-scan", "--n", "3", "--beta", "0", "--s", "1"], _SERIES_QUALITY),
    (["norm-scan", "--p", "2", "--alpha", "1", "--beta", "0"], _SERIES_QUALITY),
    (["norm-scan", "--p", "3", "--alpha", "0.5", "--beta", "0", "--level", "8"],
     {"radial_nodes": int, "angle_nodes": int, "gap": float}),
], ids=["bracket-scan", "norm-scan-p2", "norm-scan-p3"])
def test_scan_footer_prints_quality(capsys, argv, keys):
    # the series scans print their terms and certified tail, the doubling
    # scans the node counts of their last pass and its gap to the pass before
    code, out, _ = run(capsys, ["kernel", *argv, "--radii", "0.9,0.95,0.98"])
    assert code == 0
    footer = dict(f.split("=") for f in out.splitlines()[-1][2:].split())
    assert list(footer) == ["slope", "predicted", "max_min_ratio", *keys]
    for key, kind in keys.items():
        assert isinstance(kind(footer[key]), kind) and float(footer[key]) >= 0.0
    if "gap" in keys:
        # doubled from 8 radial nodes until the gap is 1e-6 or the count 16 x 8
        # (this run ends at that cap, with a gap of about 1.8e-6)
        m = int(footer["radial_nodes"])
        assert m in (16, 32, 64, 128) and int(footer["angle_nodes"]) == 2 * m
        assert float(footer["gap"]) <= 1e-6 or m == 128
    else:
        assert 0.0 < float(footer["tail_bound"]) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["bracket-scan", "--beta", "0", "--s", "1"],
    ["norm-scan", "--p", "2", "--alpha", "1", "--beta", "0"],
])
def test_scan_refuses_radius_near_rim(capsys, argv):
    # 1 - r^2 = 2e-4 needs more than 100,000 terms of either series
    code, out, err = run(capsys, ["kernel", *argv, "--radii", "0.9,0.9999"])
    assert (code, out) == (2, "")
    assert err.startswith("truncation error:")


# seed-101 point pairs of the benchmark's kernel-scans workload, and the
# stdout each gave when pinned; a change meant to move this output updates
# the pin and says so (the truncation bounds were re-pinned when they came
# to be planned at a q rounded up from the exact |x||y| and rounded up)
_EVAL_PINS = [
    ("0.8717052783674617,-0.3070540055739413", "0.5078055899037621,-0.8162292587709897",
     "2.2204460492503155e-16", 307, "9.851159584745706e-13", "-3.6459866544257147"),
    ("-0.24944016355726734,-0.8733995219576552", "0.3471228838074293,-0.8888358337351667",
     "2.220446049250314e-16", 252, "8.90115634160985e-13", "-3.5934762827530307"),
    ("0.6075686877349812,0.7373989468407072", "0.24112142628057176,-0.8800852480834925",
     "5.551115123125796e-17", 263, "9.485370451058112e-13", "-0.5422985648032831"),
    ("0.7425270701987614,-0.5952639490691324", "0.7159449599300495,-0.5955296751787182",
     "1.4210854715202004e-14", 301, "9.177071942085506e-13", "144.321534707686"),
]


def test_kernel_eval_output_pinned(capsys):
    for x, y, rounding, terms, bound, value in _EVAL_PINS:
        code, out, _ = run(capsys, ["kernel", "eval", "--n", "2", "--alpha", "0",
                                    "--tol", "1e-12", f"--x={x}", f"--y={y}"])
        assert code == 0
        assert out == (f'{{\n  "rounding_bound": {rounding},\n  "terms_used": {terms},'
                       f'\n  "truncation_bound": {bound},\n  "value": {value}\n}}\n')


def test_lattice_json_and_determinism(capsys, tmp_path):
    argv = ["lattice", "--delta", "0.6", "--horizon", "0.9"]
    f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(argv + ["--output", f1]) == 0
    assert main(argv + ["--output", f2]) == 0
    b1 = open(f1, "rb").read()
    assert b1 == open(f2, "rb").read()
    doc = json.loads(b1)
    assert set(doc) == {"n", "delta", "rmax", "multiplicity_bound", "points"}
    assert doc["points"][0] == [0.0, 0.0]


def test_kernel_norm_scan_n3_p3_slope(capsys):
    # the kernel-scans benchmark command: the (radius, angle) reduction
    # resolves the kernel peak, so the slope meets the predicted -7.5
    code, out, _ = run(capsys, ["kernel", "norm-scan", "--n", "3", "--p", "3",
                                "--alpha", "0.5", "--beta", "0",
                                "--radii", "0.9,0.95,0.98", "--level", "32"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(float(ln.split(",")[2]) > 0.0 for ln in lines[1:-1])
    slope = float(lines[-1].split("slope=")[1].split()[0])
    assert slope == pytest.approx(-7.5, rel=0.05)


def test_lattice_bad_delta_exit2(capsys):
    code, _, err = run(capsys, ["lattice", "--delta", "1.5"])
    assert code == 2
    assert "[violates Lemma 2.5]" in err


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("horizon", [0.5 - 1e-6, 0.5, 0.5 + 1e-6])
def test_lattice_horizon_at_delta_ends(capsys, n, horizon):
    # the delta-ball of the origin ends on or near the horizon sphere: the
    # fill must build with every audit passing (exit 0) or refuse over its
    # box budget, and inside the origin's ball it must build
    t0 = time.perf_counter()
    code, _, err = run(capsys, ["lattice", "--n", str(n), "--delta", "0.5",
                                "--horizon", repr(horizon)])
    assert time.perf_counter() - t0 < 10.0
    if horizon < 0.5:
        assert code == 0
    else:
        assert code == 0 or (code == 2 and "budget" in err)


def test_toeplitz_spectrum_n4_identity(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(4, 0.5))
    code, out, _ = run(capsys, ["toeplitz", "spectrum", "--file", path, "--n", "4",
                                "--alpha", "0.5", "--s", "1", "--K", "2"])
    assert code == 0
    ev = json.loads(out)["eigenvalues"]
    assert len(ev) == 1 + 4 + 9
    assert max(abs(v - 1.0) for v in ev) <= 1e-10


def test_dimension_mismatch_exit2(capsys, tmp_path):
    # exit 1 means a failed verification, so bad input must not use it
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    code, out, err = run(capsys, ["toeplitz", "spectrum", "--file", path, "--n", "3",
                                  "--alpha", "0.5", "--s", "1", "--K", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension mismatch") and err.count("\n") == 1


def test_intertwine_dimension_mismatch_exit2(capsys, tmp_path):
    # the atom's coordinates must not reach a matmul against a 3-d basis
    path = write_measure(tmp_path, me.Measure(2, [np.array([0.4, -0.1])], [1.0]))
    code, out, err = run(capsys, ["toeplitz", "intertwine", "--file", path, "--n", "3",
                                  "--K", "2", "--t", "0.5"])
    assert (code, out) == (2, "")
    assert err == "error: dimension mismatch between measure and basis\n"


def test_measure_averaging_volume_is_one(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    code, out, _ = run(capsys, ["measure", "averaging", "--file", path,
                                "--alpha", "0.5", "--delta", "0.4",
                                "--radii", "0.0,0.3,0.6", "--angles", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,theta,value"
    assert len(lines) == 1 + 3 * 3
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) == pytest.approx(1.0, rel=1e-9)


def test_measure_averaging_n4(capsys, tmp_path):
    mu = me.Measure(4, [np.array([0.1, 0.0, 0.2, -0.1])], [0.5],
                    me.Density("power-weight", 0.5, 1.0))
    path = write_measure(tmp_path, mu)
    code, out, _ = run(capsys, ["measure", "averaging", "--file", path,
                                "--alpha", "0", "--delta", "0.5",
                                "--radii", "0.3", "--angles", "1",
                                "--level", "12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert np.isfinite(float(lines[1].split(",")[2]))


def test_measure_berezin_atom_at_origin(capsys, tmp_path):
    mu = me.Measure(2, [np.zeros(2)], [0.8])
    path = write_measure(tmp_path, mu)
    code, out, _ = run(capsys, ["measure", "berezin", "--file", path,
                                "--Phi", "1.0", "--alpha", "0.0",
                                "--x", "0,0"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.8)


def test_measure_carleson_volume_finite(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.0))
    code, out, _ = run(capsys, ["measure", "carleson", "--file", path,
                                "--lambda", "1.0", "--alpha", "0.0",
                                "--horizon", "0.9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "sup-statistic"
    assert 0.0 < doc["value"] < 10.0


def test_measure_vanishing_profile(capsys, tmp_path):
    mu = me.Measure(2, density=me.Density("power-weight", 4.0, 1.0))
    path = write_measure(tmp_path, mu)
    code, out, _ = run(capsys, ["measure", "vanishing", "--file", path,
                                "--lambda", "1.0", "--alpha", "0.0",
                                "--horizon", "0.9"])
    assert code == 0
    assert json.loads(out)["vanishing"] is True


def test_measure_malformed_json_exit2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["measure", "carleson", "--file", str(path),
                                "--lambda", "1.0", "--alpha", "0.0"])
    assert code == 2
    assert err


def test_negative_density_table_exit2(capsys, tmp_path):
    path = tmp_path / "neg.json"
    path.write_text('{"n": 2, "atoms": [], "density": {"kind": "tabulated-radial", '
                    '"radii": [0, 0.5, 1], "values": [1, -1, 0]}}')
    code, out, err = run(capsys, ["toeplitz", "spectrum", "--file", str(path),
                                  "--alpha", "0.5", "--s", "1", "--K", "4"])
    assert code == 2
    assert out == ""
    assert "/density/values" in err


def test_atom_without_location_exit2(capsys, tmp_path):
    path = tmp_path / "atom.json"
    path.write_text('{"n": 2, "atoms": [{"w": 1}]}')
    code, out, err = run(capsys, ["toeplitz", "spectrum", "--file", str(path),
                                  "--alpha", "0.5", "--s", "1", "--K", "2"])
    assert code == 2
    assert out == ""
    assert "/atoms/0/x" in err


def test_toeplitz_matrix_identity(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    code, out, _ = run(capsys, ["toeplitz", "matrix", "--file", path,
                                "--alpha", "0.5", "--s", "1.0", "--K", "4"])
    assert code == 0
    M = np.array([[float(v) for v in ln.split(",")]
                  for ln in out.strip().splitlines()])
    assert M.shape == (9, 9)
    assert np.max(np.abs(M - np.eye(9))) < 1e-6


def test_toeplitz_spectrum_rank_one(capsys, tmp_path):
    x0 = np.array([0.3, 0.2])
    path = write_measure(tmp_path, me.Measure(2, [x0], [1.0]))
    code, out, _ = run(capsys, ["toeplitz", "spectrum", "--file", path,
                                "--alpha", "0.0", "--s", "1.0", "--K", "8",
                                "--p-list", "1,2,4"])
    assert code == 0
    doc = json.loads(out)
    ev = doc["eigenvalues"]
    assert len(ev) == 17
    assert ev[0] > 0 and max(abs(v) for v in ev[1:]) <= 1e-8 * ev[0]
    assert doc["trace"] == pytest.approx(ev[0], rel=1e-10)
    assert set(doc["schatten"]) == {"1.0", "2.0", "4.0"}


def test_toeplitz_intertwine_residual(capsys, tmp_path):
    path = write_measure(tmp_path,
                         me.Measure(2, [np.array([0.4, -0.1])], [1.0]))
    code, out, _ = run(capsys, ["toeplitz", "intertwine", "--file", path,
                                "--alpha", "0.5", "--s", "1.0", "--K", "6",
                                "--t", "0.5"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-8


def test_toeplitz_bounded_identity(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    code, out, _ = run(capsys, ["toeplitz", "bounded", "--file", path,
                                "--s", "1.0",
                                "--p1", "2.0", "--alpha1", "0.5",
                                "--p2", "2.0", "--alpha2", "0.5",
                                "--t", "0.5", "--trials", "4",
                                "--horizon", "0.9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"] == pytest.approx(1.0, rel=1e-6)
    assert doc["zeta"] == pytest.approx(1.0)
    assert "carleson_statistic" in doc and "carleson_kind" in doc


def test_toeplitz_bounded_refuses_basis_options(capsys, tmp_path):
    # bounded takes its dimension from the file and builds no basis, so it
    # does not accept --n, --alpha or --K
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    with pytest.raises(SystemExit) as exc:
        main(["toeplitz", "bounded", "--file", path, "--n", "3",
              "--p1", "2", "--alpha1", "0.5", "--p2", "2", "--alpha2", "0.5",
              "--t", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments: --n 3" in err


def test_toeplitz_bad_spec_exit2(capsys, tmp_path):
    path = write_measure(tmp_path, me.nu_alpha_measure(2, 0.5))
    code, _, err = run(capsys, ["toeplitz", "matrix", "--file", path,
                                "--alpha", "2.0", "--s", "0.0", "--K", "4"])
    assert code == 2
    assert "violates" in err


def test_verify_single_suite_exit0(capsys):
    code, out, _ = run(capsys, ["verify", "kernels"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert all("paper_ref" in c for c in doc["checks"])


def test_verify_report_identical_for_identical_arguments():
    assert vf.report_json(vf.run("kernels")) == vf.report_json(vf.run("kernels"))


def test_verify_suite_choices_match_suites():
    # the parser lists the suites without importing the verify layer
    assert VERIFY_SUITES == list(vf.SUITES) + ["all"]


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["kernel", "bracket-scan", "--beta", "0", "--s", "1", "--radii", "0.9",
     "--level", "8"],
    ["verify", "all", "--seed", "3"],
    ["kernel", "eval", "--alpha", "0", "--x", "0,0", "--y", "0,0",
     "--horizon", "0.9"],
    ["lattice", "--delta", "0.5", "--level", "8"],
    ["toeplitz", "spectrum", "--file", "mu.json", "--tol", "1e-6"],
])
def test_unread_option_usage_error(capsys, argv):
    # a subcommand accepts only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_PROBE = """
import contextlib, importlib.abc, io, json, sys
modes = sys.argv[2].split(",")
if "block" in modes:
    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
            return None
    sys.meta_path.insert(0, NoScipy())
if "import-scipy" in modes:
    import scipy.special
from bbesov.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "scipy": sorted(m for m in sys.modules
                                                 if m.split(".")[0] == "scipy"),
                  "numpy": "numpy" in sys.modules,
                  "bbesov": sorted(m.partition(".")[2] for m in sys.modules
                                   if m.startswith("bbesov.") and m != "bbesov.cli")}))
"""


def _child_process(argvs, mode):
    """Run main(argv) for each argv in one child interpreter, which prints its
    (exit code, stdout) per argv, the scipy modules and bbesov submodules
    other than cli that it holds at the end, and whether it holds numpy.
    mode is a comma list: "block" makes every scipy import raise ImportError,
    "import-scipy" imports scipy.special before bbesov.  The child inherits
    the caller's environment, with the bbesov under test first on its path."""
    import bbesov
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(bbesov.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs), mode],
                          capture_output=True, text=True, env=env, timeout=600)


def _child(argvs, mode="plain"):
    out = _child_process(argvs, mode)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.splitlines()[-1])


def _perfbench_argvs(directory):
    """argv of every command of every perfbench workload, inputs of seed 101."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    inputs = workloads.make_inputs(101, str(directory))
    return [c.argv for make in workloads.WORKLOADS.values() for c in make(inputs, 101)]


@pytest.fixture(scope="module")
def perfbench_runs(tmp_path_factory):
    argvs = _perfbench_argvs(tmp_path_factory.mktemp("perfbench"))
    return argvs, _child(argvs)


def test_cli_starts_without_scipy(perfbench_runs):
    argvs, plain = perfbench_runs
    assert ["verify", "all"] in argvs and len(argvs) >= 13
    assert [code for code, _ in plain["runs"]] == [0] * len(argvs)
    assert plain["scipy"] == []
    # the probe sees an import that does happen
    assert "scipy.special" in _child([argvs[-1]], "import-scipy")["scipy"]


def test_cli_runs_with_scipy_blocked(perfbench_runs):
    argvs, plain = perfbench_runs
    blocked = _child(argvs, "block")
    assert blocked["runs"] == plain["runs"]
    # the block is real: a direct import fails
    assert "ImportError: scipy is blocked" in _child_process([], "block,import-scipy").stderr


_EVAL_LOADS = {"series", "errors"}
_SERIES_LOADS = _EVAL_LOADS | {"kernelcore"}


@pytest.mark.parametrize("argv, loaded, numpy", [
    (None, {"errors"}, False),
    (["kernel", "eval", "--alpha", "0.3", "--x", "0.1,0", "--y", "0,0.2"], _EVAL_LOADS, False),
    (["kernel", "norm-scan", "--alpha", "1", "--p", "2", "--beta", "0",
      "--radii", "0.9,0.95"], _EVAL_LOADS, False),
    (["kernel", "norm-scan", "--alpha", "1", "--p", "3", "--beta", "0",
      "--radii", "0.9,0.95", "--level", "8"], _SERIES_LOADS | {"calculus"}, True),
    (["kernel", "bracket-scan", "--beta", "0", "--s", "1", "--radii", "0.9,0.95"],
     _EVAL_LOADS, False),
    (["lattice", "--delta", "0.5", "--horizon", "0.6"],
     _SERIES_LOADS | {"calculus", "geometry"}, True),
], ids=["import-only", "eval", "norm-scan", "norm-scan-p3", "bracket-scan", "lattice"])
def test_command_loads_only_its_layers(argv, loaded, numpy):
    # a fresh interpreter, so no other test's imports count; import bbesov.cli
    # alone (argv None) loads no layer, and neither it nor `kernel eval`,
    # `kernel bracket-scan` and `kernel norm-scan --p 2` imports numpy
    got = _child([argv] if argv else [])
    assert [code for code, _ in got["runs"]] == ([0] if argv else [])
    assert set(got["bbesov"]) == loaded
    assert got["numpy"] is numpy


def test_refused_rule_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(ca, "_rule_cache", {})
    monkeypatch.setattr(ca, "NEWTON_STEPS", 0)
    code, out, err = run(capsys, ["kernel", "norm-scan", "--p", "3", "--alpha", "0.5",
                                  "--beta", "0", "--radii", "0.5,0.9", "--level", "8"])
    assert (code, out) == (2, "")
    assert err.startswith("numerical error: no 8-point Gauss-Jacobi(0.0, 0.0) rule")


def test_nonfinite_report_exits_1(capsys, monkeypatch, tmp_path):
    real = series.kernel_norm_scan_p2

    def scan(*args, **kwargs):
        res = real(*args, **kwargs)
        res.values[1] = np.nan
        return res

    monkeypatch.setattr(series, "kernel_norm_scan_p2", scan)
    out = tmp_path / "scan.csv"
    argv = ["kernel", "norm-scan", "--p", "2", "--alpha", "1", "--beta", "0",
            "--radii", "0.9,0.95,0.98"]
    assert run(capsys, argv) == (1, "", "non-finite result: value at r=0.95 = nan\n")
    assert run(capsys, argv + ["--output", str(out)])[:2] == (1, "")
    assert not out.exists()

    real_eval = series.kernel_eval
    monkeypatch.setattr(series, "kernel_eval",
                        lambda *a: real_eval(*a)._replace(value=float("inf")))
    assert run(capsys, ["kernel", "eval", "--alpha", "0", "--x=0.3,0.1", "--y=0,0.5"]) \
        == (1, "", "non-finite result: value = inf\n")

    monkeypatch.setattr(vf, "run", lambda suite: {
        "ok": True, "checks": [{"name": "a", "value": 1.0}, {"name": "b", "value": -np.inf}]})
    assert run(capsys, ["verify", "kernels"]) == (
        1, "", "non-finite result: checks[1].value = -inf\n")
