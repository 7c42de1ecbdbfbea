"""The benchmark's layer tracer still finds every function it wraps.

`bench/trace_layers.py` wraps the (module, attribute) pairs of its LAYERS
tuple with a plain getattr and binds some of their arguments by name, so a
renamed or deleted function would break `bench/run.py --trace 1`.  The file
is read as source here, not imported, so the test writes nothing there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_LAYERS = ROOT / "bench" / "trace_layers.py"


def _layers():
    tree = ast.parse(TRACE_LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found")


def _resolve(module, attr):
    obj = importlib.import_module(f"gsb.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", _layers())
def test_traced_layer_resolves(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize(
    "module, attr, names",
    [
        ("quadrature", "integrate_laguerre", {"f"}),
        ("sobolev", "toeplitz_symbol", {"spec", "n"}),
        ("cli", "write_report", {"path"}),
    ],
)
def test_traced_arguments_exist(module, attr, names):
    assert (module, attr) in _layers()
    assert names <= set(inspect.signature(_resolve(module, attr)).parameters)


def test_import_cli_registers_every_traced_module(fresh):
    # Tracer.install reads sys.modules["gsb.<module>"] for each layer after
    # `import gsb.cli`, whether or not the module's code has run yet; --help
    # ends before any of it runs
    run = fresh["--help"]
    assert run.code == 0, run.err
    assert sorted({f"gsb.{module}" for module, _ in _layers()} - set(run.gsb)) == []
