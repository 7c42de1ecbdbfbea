"""Each command runs only the numerical modules it uses.

Every numerical module is registered lazily by gsb/__init__.py: a module
whose code has not run is still an importlib.util._LazyModule in
sys.modules, and one that ran is a plain module.  The probe of each fresh
run (tests/conftest.py) reads its type, not an attribute, since touching an
attribute would run it.
"""

import pytest

GROUPS = ("torus:1", "su2")

# what transform needs and loads with it; validate reads groups and quadrature
CORE = {"groups", "coeffs", "polar", "quadrature", "transform"}
VERIFY = CORE | {"suites"}
REPORT = {"groups", "polar", "quadrature", "bounds"}

# command (less --group) -> the numerical modules it runs
RUNS = {
    ("verify", "unitarity"): VERIFY,
    ("verify", "mass"): VERIFY | {"heat"},
    ("verify", "reproducing"): VERIFY | {"kernels"},
    ("verify", "sobolev-isometry"): VERIFY | {"sobolev"},
    ("verify", "kernel-tworoute"): VERIFY | {"kernels", "heat"},
    ("verify", "toeplitz"): VERIFY | {"sobolev"},
    ("verify", "weighted-norm"): VERIFY | {"sobolev"},
    ("report", "symbol"): CORE | {"sobolev"},
    ("report", "lattice"): REPORT,
    ("report", "smoothness"): REPORT | {"heat"},
    ("report", "bounds"): REPORT | {"heat"},
    ("invert", "--coeffs", "c.json", "--points", "p.json"): CORE,
}


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", list(RUNS), ids=lambda command: "-".join(command[: 1 if command[0] == "invert" else 2]))
def test_each_command_runs_only_the_modules_it_uses(fresh, command, group):
    run = fresh[" ".join([*command, "--group", group])]
    assert run.code == 0, run.err
    assert run.ran == RUNS[command]
    assert "numpy" in run.loaded
    # fractions (and decimal with it) comes in only with the exact symbol evaluation
    assert ("fractions" in run.loaded) == ("sobolev" in run.ran)


@pytest.mark.parametrize("command, code, text", [("--help", 0, "usage: gsb"), ("verify nope", 2, "invalid choice: 'nope'")])
def test_help_and_usage_errors_run_no_numerical_module(fresh, command, code, text):
    # `import gsb.cli` runs cli and config alone, and argparse ends --help
    # and a usage error before any numerical module or numpy is needed
    run = fresh[command]
    assert run.code == code, run.err
    assert text in run.out + run.err
    assert run.ran == set()
    assert run.loaded == set()


def test_the_floor_record_runs_the_numerical_core(fresh):
    # the record that the peak-RSS tests measure against holds what every
    # verify command holds before its suite's own modules run
    run = fresh[""]
    assert run.code == 0, run.err
    assert (run.ran, run.loaded) == (VERIFY, {"numpy"})
