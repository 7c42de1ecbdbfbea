"""Static checks on the package source."""

import ast
import importlib
import tracemalloc
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gsb"
TESTS = Path(__file__).resolve().parent


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    # every name a module imports is read in it or listed in its __all__
    # (the check pyflakes makes, written with ast since no linter is a dependency)
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read - _exported(tree)) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_exported_name_resolves(path):
    # a name left in __all__ after its definition was deleted passes the
    # import check above, so each module is imported and every name looked up
    module = importlib.import_module("gsb" if path.stem == "__init__" else f"gsb.{path.stem}")
    assert sorted(name for name in _exported(ast.parse(path.read_text())) if not hasattr(module, name)) == []


def test_every_config_field_is_read():
    # a RunConfig field that only validate reads is a knob nothing uses: each
    # one must be read as cfg.<name> or self.<name> somewhere else in the
    # modules that hold and use the configuration
    trees = [ast.parse((PACKAGE / name).read_text()) for name in ("config.py", "suites.py", "cli.py")]
    (config,) = [node for node in trees[0].body if isinstance(node, ast.ClassDef) and node.name == "RunConfig"]
    names = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    validate = {id(node) for fn in ast.walk(config) if getattr(fn, "name", None) == "validate" for node in ast.walk(fn)}
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("cfg", "self")
        and id(node) not in validate
    }
    assert sorted(names - read) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_each_module_compiles_in_a_small_footprint(path):
    # with no bytecode cached (PYTHONDONTWRITEBYTECODE=1) every process
    # compiles each module it loads, and the compiler holds a module's tokens
    # and AST at once: the largest module sets the peak RSS of every command,
    # so each stays below 1.25 MiB of compiler allocations
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20, f"{path.name}: {peak / 2**20:.2f} MiB"


def _called_name(call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def test_transform_alone_applies_the_damping():
    # C_t f keeps f's blocks, so e^{-lambda t/2} is applied in transform
    # alone: no other module takes an exponential of laplacian_eigenvalue
    damping = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _called_name(node) == "exp":
                inner = [n for n in ast.walk(node) if isinstance(n, ast.Call) and n is not node]
                if any(_called_name(n) == "laplacian_eigenvalue" for n in inner):
                    damping.add(path.name)
    assert damping == {"transform.py"}


def _sites(predicate) -> set:
    # "module.function[.inner]" of each node that predicate holds for, named
    # by its innermost enclosing function (the module alone at top level)
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}"
        found = {owner} if predicate(node) else set()
        for child in ast.iter_child_nodes(node):
            found |= visit(child, owner)
        return found

    return set().union(*(visit(ast.parse(path.read_text()), path.stem) for path in PACKAGE.glob("*.py")))


def test_main_alone_reports_bad_input():
    # bad input is raised as a ConfigError where it is read; cli.main alone
    # catches it and prints the one error line, so every refusal exits the
    # same way
    def error_line(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("error:")

    def catches_config_error(node):
        if not (isinstance(node, ast.ExceptHandler) and node.type):
            return False
        return "ConfigError" in {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}

    assert _sites(error_line) == {"cli.main"}
    assert _sites(catches_config_error) == {"cli.main"}


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda path: path.name)
def test_only_conftest_starts_processes(path):
    # a fresh process is a record of conftest's launcher, started once per
    # session, so no test module imports subprocess to start one of its own
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "subprocess" not in imported
