"""Workload definitions and the seeded input generator.

Each workload is a fixed list of ``bbesov`` CLI commands.  The seed only
chooses the inputs: the atoms of the two sample measures and the point pairs
given to ``kernel eval``.  Parameters that set the amount of work (lattice
horizons, truncation orders, quadrature levels, radius lists) are fixed, so
the work done per run does not depend on the seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

import checks

# Weight parameter of the anchor measure nu_alpha; its Toeplitz matrix is I.
NU_ALPHA = 0.5
# Exponent c of the power-weight density (1 - |x|^2)^c in the sample measures.
DENSITY_EXPONENT = 0.5
EVAL_PAIRS = 4


@dataclass
class Command:
    """One CLI invocation and the checker for its output.

    ``known`` names the checks that fail at the seed commit because of a
    documented defect in the program.  They still count as failed
    operations; they only keep the run from being reported as incorrect.
    """

    name: str
    argv: list
    check: object
    known: frozenset = field(default_factory=frozenset)


@dataclass
class Inputs:
    mu2: str
    mu3: str
    nu2: str
    pairs: list  # [(x, y)] with x, y tuples of floats


def _ball_point(rng, n, rmax):
    g = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(sum(v * v for v in g))
    r = rmax * rng.random() ** (1.0 / n)
    return [r * v / norm for v in g]


def _sample_measure(rng, n):
    atoms = [{"x": _ball_point(rng, n, 0.7), "w": rng.uniform(0.1, 1.0)}
             for _ in range(rng.randint(2, 8))]
    return {"n": n, "atoms": atoms,
            "density": {"kind": "power-weight",
                        "exponent": DENSITY_EXPONENT, "scale": 1.0}}


def nu_alpha(n, alpha):
    """The normalized weight-alpha volume measure, V_alpha from Gamma values."""
    half = n / 2.0
    v = math.gamma(half + 1.0) * math.gamma(alpha + 1.0) / math.gamma(half + alpha + 1.0)
    return {"n": n, "atoms": [],
            "density": {"kind": "power-weight", "exponent": alpha,
                        "scale": 1.0 / v}}


def _boundary_pair(rng):
    """Two points of the unit disc with moduli in [0.9, 0.97]."""
    out = []
    for _ in range(2):
        r = rng.uniform(0.9, 0.97)
        t = rng.uniform(0.0, 2.0 * math.pi)
        out.append((r * math.cos(t), r * math.sin(t)))
    return tuple(out)


def make_inputs(seed, directory):
    """Write the measure files for ``seed`` into ``directory``."""
    rng = random.Random(seed)
    docs = {"mu2": _sample_measure(rng, 2), "mu3": _sample_measure(rng, 3),
            "nu2": nu_alpha(2, NU_ALPHA)}
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    pairs = [_boundary_pair(rng) for _ in range(EVAL_PAIRS)]
    return Inputs(paths["mu2"], paths["mu3"], paths["nu2"], pairs)


def _csv(v):
    return ",".join(repr(c) for c in v)


def _lattice_carleson(inp, seed):
    return [
        Command("lattice-n2", ["lattice", "--n", "2", "--delta", "0.5",
                               "--horizon", "0.9", "--seed", str(seed)],
                checks.lattice),
        Command("carleson-n3", ["measure", "carleson", "--file", inp.mu3,
                                "--lambda", "0.5", "--alpha", "0",
                                "--horizon", "0.7"],
                checks.carleson),
    ]


def _operators(inp, seed):
    return [
        Command("spectrum-nu-alpha", ["toeplitz", "spectrum", "--file", inp.nu2,
                                      "--alpha", str(NU_ALPHA), "--s", "1",
                                      "--K", "8"],
                checks.spectrum_identity),
        Command("spectrum-n3", ["toeplitz", "spectrum", "--file", inp.mu3,
                                "--n", "3", "--K", "6", "--level", "24"],
                checks.spectrum_psd),
        Command("intertwine", ["toeplitz", "intertwine", "--file", inp.mu2,
                               "--K", "4", "--t", "0.5", "--level", "36"],
                checks.intertwine),
        Command("schatten", ["toeplitz", "schatten", "--file", inp.mu2,
                             "--K", "6", "--p", "2", "--horizon", "0.7"],
                checks.schatten),
    ]


def _kernel_scans(inp, seed):
    cmds = [
        # The fixed-level product rule does not resolve the kernel peak at
        # these radii, so the fitted slope misses the predicted exponent.
        Command("norm-scan-n3-p3", ["kernel", "norm-scan", "--n", "3", "--p", "3",
                                    "--alpha", "0.5", "--beta", "0",
                                    "--radii", "0.9,0.95,0.98", "--level", "32"],
                checks.scan, frozenset({"slope"})),
        Command("norm-scan-n2-p3", ["kernel", "norm-scan", "--n", "2", "--p", "3",
                                    "--alpha", "0.5", "--beta", "0",
                                    "--radii", "0.9,0.95,0.98"],
                checks.scan),
        Command("norm-scan-p2", ["kernel", "norm-scan", "--p", "2", "--alpha", "1",
                                 "--beta", "0", "--radii", "0.9,0.95,0.98,0.99"],
                checks.scan),
        Command("bracket-scan-n2", ["kernel", "bracket-scan", "--n", "2",
                                    "--beta", "0", "--s", "1",
                                    "--radii", "0.9,0.95,0.98"],
                checks.scan),
        # n = 3 angular mean has the wrong sign: negative values, slope=nan.
        Command("bracket-scan-n3", ["kernel", "bracket-scan", "--n", "3",
                                    "--beta", "0", "--s", "1",
                                    "--radii", "0.9,0.95,0.98"],
                checks.scan, frozenset({"finite", "positive", "slope"})),
    ]
    for i, (x, y) in enumerate(inp.pairs):
        # The reported bound covers truncation only, not rounding error.
        cmds.append(Command(f"eval-{i}", ["kernel", "eval", "--n", "2",
                                          "--alpha", "0", "--tol", "1e-12",
                                          f"--x={_csv(x)}", f"--y={_csv(y)}"],
                            checks.kernel_eval_n2(x, y),
                            frozenset({"enclosure"})))
    return cmds


def _verify_all(inp, seed):
    return [Command("verify-all", ["verify", "all"], checks.verify_all)]


WORKLOADS = {
    "lattice-carleson": _lattice_carleson,
    "operators": _operators,
    "kernel-scans": _kernel_scans,
    "verify-all": _verify_all,
}
