"""Each command runs only the optional modules it uses.

heat, kernels, sobolev and bounds are registered lazily by gsb/__init__.py:
a module whose code has not run is still an importlib.util._LazyModule in
sys.modules, and one that ran is a plain module.  The probe of each fresh
run (tests/conftest.py) reads its type, not an attribute, since touching an
attribute would run it.
"""

import pytest

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


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", list(RUNS), ids=lambda command: "-".join(command[: 1 if command[0] == "invert" else 2]))
def test_each_command_runs_only_the_modules_it_uses(fresh, command, group):
    run = fresh[" ".join([*command, "--group", group])]
    assert run.code == 0, run.err
    assert run.ran == RUNS[command]
    # fractions (and decimal with it) comes in only with the exact symbol evaluation
    assert ("fractions" in run.loaded) == ("sobolev" in run.ran)
