"""Every function of the package is one that a command calls.

Code that no command reaches, and that no check uses as an independent
route, is deleted; the tests keep their own routes in tests/oracles.py.
This test runs COMMANDS in-process through cli.main under sys.setprofile,
from cold lru caches, since a warm cache hides a call.  It fails when a
function defined in src/gsb is never called, unless ALLOWED names it with
the reason, and when ALLOWED names a function that is called or gone.
"""

import ast
import json
import sys
from pathlib import Path

from conftest import COEFFS, DEFAULT_RUNS
from gsb import cli
from test_mutations import _clear_caches

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gsb"

# directory -> the coefficient and point files of invert in it
INPUTS = {
    **{group.replace(":", "-"): files for group, files in COEFFS.items()},
    "bad-label": ({"group": "torus:1", "entries": [{"label": [1, 2], "matrix": [[[1.0, 0.0]]]}]}, [[0.3]]),
}


def _with_inputs(command: str) -> str:
    """A command of DEFAULT_RUNS, its invert files those of its group's directory."""
    name = command.split("--group ")[1].replace(":", "-")
    return command.replace("c.json", f"{name}/c.json").replace("p.json", f"{name}/p.json")


# (command less its --out, exit code)
COMMANDS = (
    *((_with_inputs(command), 0) for command in DEFAULT_RUNS),
    ("verify unitarity --group torus:2 --cutoff 2", 0),
    ("verify weighted-norm --group torus:3 --cutoff 1", 0),
    ("report lattice --group torus:3", 0),
    # bad input, refused before any work
    ("invert --group torus:1 --coeffs bad-label/c.json --points bad-label/p.json", 2),
    ("verify mass --t nan", 2),
    ("verify unitarity --group torus:13 --cutoff 1", 2),
    ("report lattice --group torus:4 --tau 1e-300", 2),
)

# function -> why no command calls it
ALLOWED = {
    "__init__._lazy": "runs when the package is imported, before any command",
    "__init__.__getattr__": "the package API: gsb.<name> of an exported name",
    "config._flag": "builds RunConfig's fields when config is imported",
    # bench/trace_layers.py wraps kspace_rule, and the tensor rules are the tests' oracle
    "quadrature.kspace_rule": "the tensor rules on the whole algebra",
    "quadrature._kspace_rule_cached": "the tensor rules on the whole algebra",
    "quadrature._sphere_rule": "the tensor rules on the whole algebra",
    "quadrature._tensor_rule": "the tensor rules on the whole algebra",
}


def _functions() -> dict:
    """(module, first line, name) of each function's code -> its qualified name."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module, first, child.name] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def _argv(command: str, root: Path) -> list:
    """The command's arguments, each .json file under root, and an --out under root."""
    return [str(root / arg) if arg.endswith(".json") else arg for arg in command.split()] + ["--out", str(root / "o")]


def test_every_function_is_called_by_a_command(tmp_path, capsys):
    for name, (coeffs, points) in INPUTS.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "c.json").write_text(json.dumps(coeffs))
        (tmp_path / name / "p.json").write_text(json.dumps(points))
    _clear_caches()
    codes, seen = [], set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for command, _ in COMMANDS:
            codes.append(cli.main(_argv(command, tmp_path)))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in COMMANDS]

    functions = _functions()
    called = {
        functions.get((Path(code.co_filename).stem, code.co_firstlineno, code.co_name))
        for code in seen
        if Path(code.co_filename).parent == PACKAGE
    }
    assert sorted(set(functions.values()) - called - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) & called) == []
    assert sorted(set(ALLOWED) - set(functions.values())) == []
