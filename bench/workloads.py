"""The benchmark's workloads: lists of gsb CLI commands and their inputs.

Each workload is a closed loop: one client process runs its commands one after
another, and every round runs the same commands.  The benchmark seed
reaches the program only as data (the invert coefficient and point files,
and the --seed of the reproducing suites, whose sampled points do not
change the amount of work).  The kernel-tworoute suites keep the program's
fixed sampling seed 0: their known failures depend on the sampled points.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

VERIFY_SUITES = ("unitarity", "mass", "reproducing", "sobolev-isometry", "kernel-tworoute", "toeplitz", "weighted-norm")
REPORT_KINDS = ("bounds", "smoothness", "lattice", "symbol")

# Flags every command states explicitly, so a change of CLI defaults does not
# change what the benchmark measures.  They equal today's defaults.
BASE = {"t": "1", "n": "1,2", "cutoff": "4"}


@dataclass
class Command:
    """One gsb invocation: `gsb <verb> [<what>] --flag value ...`."""

    verb: str  # verify | report | invert
    what: str  # suite, report kind, or "" for invert
    group: str
    flags: dict = field(default_factory=dict)

    def argv(self, out_dir: str) -> list:
        args = [self.verb] + ([self.what] if self.what else []) + ["--group", self.group]
        for key, value in self.flags.items():
            args += [f"--{key}", str(value)]
        return args + ["--out", out_dir]

    def values(self, key: str, cast=float) -> list:
        return [cast(v) for v in str(self.flags[key]).split(",")]


def write_invert_inputs(group: str, seed: int, work: Path, n_points: int) -> dict:
    """Seeded coefficient and point files for `gsb invert`.

    The labels and the number of points are fixed, so the work does not
    depend on the seed; the coefficients and points do.
    """
    rng = random.Random(f"{seed}:{group}")
    if group == "su2":
        labels = [1, 2, 3]
        points = [
            [rng.uniform(0, 2 * math.pi), math.acos(rng.uniform(-1, 1)), rng.uniform(0, 4 * math.pi)]
            for _ in range(n_points)
        ]
    else:
        rank = int(group.split(":")[1])
        # |k_i| <= 1 keeps the inversion integral converged to 1e-8 by radius
        # 7, so the default radii 4,7,10 report it stabilized
        labels = [[-1], [0], [1]] if rank == 1 else [[0, 0], [1, -1], [-1, 0], [1, 1]]
        points = [[rng.uniform(0, 2 * math.pi) for _ in range(rank)] for _ in range(n_points)]
    entries = []
    for label in labels:
        d = label if group == "su2" else 1
        scale = 1.0 / d
        matrix = [[[rng.gauss(0, scale), rng.gauss(0, scale)] for _ in range(d)] for _ in range(d)]
        entries.append({"label": label, "matrix": matrix})
    tag = group.replace(":", "-")
    coeffs, pts = work / f"coeffs_{tag}.json", work / f"points_{tag}.json"
    coeffs.write_text(json.dumps({"group": group, "entries": entries}))
    pts.write_text(json.dumps(points))
    return {"coeffs": str(coeffs), "points": str(pts)}


def su2_kc_norms(seed: int, work: Path) -> list:
    # The k-space suites at default flags take ~80 s per round on a 2-core
    # box; a run must repeat its round about three times in 35 s to be
    # steady, so the rule is cut to levels 16,24 and the irreps to m <= 3
    # (m <= 2 for toeplitz).  The code paths are those of the default flags.
    common = dict(BASE, levels="16,24", cutoff="3")
    return [
        Command("verify", "unitarity", "su2", dict(common)),
        Command("verify", "reproducing", "su2", dict(common, seed=seed)),
        Command("verify", "sobolev-isometry", "su2", dict(common)),
        Command("verify", "weighted-norm", "su2", dict(common)),
        Command("verify", "toeplitz", "su2", dict(common, cutoff="2")),
    ]


def su2_pointwise(seed: int, work: Path) -> list:
    return [
        Command("verify", "kernel-tworoute", "su2", dict(BASE, t="0.25,0.5,1,2", n="1,2,3", seed=0)),
        Command("report", "bounds", "su2", dict(BASE)),
        Command("report", "smoothness", "su2", dict(BASE)),
        Command("invert", "", "su2", dict(BASE, **write_invert_inputs("su2", seed, work, n_points=2))),
    ]


def torus_battery(seed: int, work: Path) -> list:
    out = []
    for group in ("torus:1", "torus:2"):
        for suite in VERIFY_SUITES:
            flags = dict(BASE)
            if suite == "reproducing":
                flags["seed"] = seed
            elif suite == "kernel-tworoute":
                flags["seed"] = 0
            out.append(Command("verify", suite, group, flags))
        out += [Command("report", kind, group, dict(BASE)) for kind in REPORT_KINDS]
        out.append(Command("invert", "", group, dict(BASE, **write_invert_inputs(group, seed, work, n_points=4))))
    out.append(Command("verify", "unitarity", "torus:3", dict(BASE, cutoff="1")))
    return out


WORKLOADS = {
    "su2-kc-norms": su2_kc_norms,
    "su2-pointwise": su2_pointwise,
    "torus-battery": torus_battery,
}
