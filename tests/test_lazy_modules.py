"""Each command runs only the optional modules it uses.

heat, kernels, sobolev and bounds are registered lazily by gsb/__init__.py:
a module whose code has not run is still an importlib.util._LazyModule in
sys.modules, and one that ran is a plain module.  Its type is read, not an
attribute, since touching an attribute would run it.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
OPTIONAL = ("heat", "kernels", "sobolev", "bounds")
GROUPS = ("torus:1", "su2")

# command (less --group) -> the optional modules it runs
RUNS = {
    ("verify", "unitarity"): set(),
    ("verify", "mass"): {"heat"},
    ("verify", "reproducing"): {"kernels"},
    ("verify", "sobolev-isometry"): {"sobolev"},
    ("verify", "kernel-tworoute"): {"kernels", "heat"},
    ("verify", "toeplitz"): {"sobolev"},
    ("verify", "weighted-norm"): {"sobolev"},
    ("report", "symbol"): {"sobolev"},
    ("report", "lattice"): {"bounds"},
    ("report", "smoothness"): {"bounds", "heat"},
    ("report", "bounds"): {"bounds", "heat"},
    ("invert", "--coeffs", "c.json", "--points", "p.json"): set(),
}

COEFFS = {
    "torus:1": ({"group": "torus:1", "entries": [{"label": [1], "matrix": [[[1.0, 0.0]]]}]}, [[0.3]]),
    "su2": ({"group": "su2", "entries": [{"label": 1, "matrix": [[[1.0, 0.0]]]}]}, [[0.3, 0.2, 0.1]]),
}

SCRIPT = """\
import json, sys, types
from gsb.cli import main
code = main(sys.argv[1:])
ran = [m for m in {optional!r} if type(sys.modules["gsb." + m]) is types.ModuleType]
print(json.dumps([code, ran, "fractions" in sys.modules]))
"""


def _run(root, command, group):
    cwd = root / f"{group.replace(':', '-')}-{'-'.join(command[:2])}"
    cwd.mkdir()
    coeffs, points = COEFFS[group]
    (cwd / "c.json").write_text(json.dumps(coeffs))
    (cwd / "p.json").write_text(json.dumps(points))
    argv = [sys.executable, "-c", SCRIPT.format(optional=OPTIONAL), *command, "--group", group, "--out", "o"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    # one fresh process per command, two at a time
    root = tmp_path_factory.mktemp("lazy")
    keys = [(command, group) for command in RUNS for group in GROUPS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(keys, pool.map(lambda key: _run(root, *key), keys)))


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", list(RUNS), ids=lambda command: "-".join(command[: 1 if command[0] == "invert" else 2]))
def test_each_command_runs_only_the_modules_it_uses(runs, command, group):
    r = runs[command, group]
    assert r.returncode == 0, r.stderr
    code, ran, fractions = json.loads(r.stdout.splitlines()[-1])
    assert code == 0, r.stdout
    assert set(ran) == RUNS[command]
    # fractions (and decimal with it) comes in only with the exact symbol evaluation
    assert fractions == ("sobolev" in ran)
