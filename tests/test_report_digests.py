"""Report bytes of every verify suite, report kind and invert, at default
flags on torus:1, torus:2 and su2, and of `report symbol` at orders up to
32 on torus:1, torus:3 and su2, against the sha256 digests in
tests/data/report_digests.json.

A change that keeps the numerical method keeps every byte.  A change that
means to move values regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py

and says which reports moved and why; the run prints each digest that it
changes, adds or drops against the file it replaces.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gsb import cli, config

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"
GROUPS = ("torus:1", "torus:2", "su2")
COMMANDS = [("verify", suite) for suite in config.VERIFY_SUITES] + [("report", kind) for kind in cli.REPORT_COLUMNS] + [("invert",)]
# phi_n up to n = 32, at times off the default t = 1, so the file names
# differ from the default-flag reports; alpha = d/2 - 1 is -1/2 on torus:1
# and 1/2 on torus:3 and su2, which adds |delta|^2 = 1/4
SYMBOL_GROUPS = ("torus:1", "torus:3", "su2")
SYMBOL_COMMAND = ("report", "symbol", "--n", "1,2,3,8,16,32", "--t", "0.3,0.7,4")

# invert's inputs: a few labels with fixed coefficients, and points of K
# (angles on a torus, Euler triples on SU(2))
_INVERT_INPUTS = {
    "torus:1": ([([-1], [[[0.5, -0.25]]]), ([0], [[[1.0, 0.0]]]), ([1], [[[-0.75, 0.5]]])], [[0.3], [2.1], [4.4]]),
    "torus:2": (
        [([0, 0], [[[1.0, 0.0]]]), ([1, -1], [[[0.25, 0.5]]]), ([-1, 0], [[[-0.5, 0.125]]]), ([1, 1], [[[0.3, -0.2]]])],
        [[0.3, 1.7], [2.9, 5.1]],
    ),
    "su2": (
        [
            (1, [[[1.0, 0.0]]]),
            (2, [[[0.5, 0.1], [0.0, -0.2]], [[0.3, 0.0], [-0.4, 0.25]]]),
            (3, [[[0.1 * (i - j), 0.05 * (i + j)] for j in range(3)] for i in range(3)]),
        ],
        [[0.4, 1.1, 2.3], [5.0, 2.6, 9.1]],
    ),
}


def _argv(command, group: str, work: Path) -> list:
    if command[0] != "invert":
        return [*command, "--group", group]
    entries, points = _INVERT_INPUTS[group]
    tag = group.replace(":", "-")
    coeffs, pts = work / f"coeffs_{tag}.json", work / f"points_{tag}.json"
    coeffs.write_text(json.dumps({"group": group, "entries": [{"label": lb, "matrix": m} for lb, m in entries]}))
    pts.write_text(json.dumps(points))
    return ["invert", "--group", group, "--coeffs", str(coeffs), "--points", str(pts)]


def report_digests(command, group: str, work: Path) -> dict:
    """Run one command through cli.main; {report file name: sha256} of what it wrote."""
    out = work / "out"
    code = cli.main([*_argv(command, group, work), "--out", str(out)])
    assert code in (0, 1)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: "-".join(command))
def test_report_bytes_match_the_recorded_digests(tmp_path, command, group):
    expected = json.loads(DIGESTS.read_text())
    got = report_digests(command, group, tmp_path)
    assert got and got == {name: expected.get(name) for name in got}


@pytest.mark.parametrize("group", SYMBOL_GROUPS)
def test_symbol_report_bytes_at_high_orders_match_the_recorded_digests(tmp_path, group):
    expected = json.loads(DIGESTS.read_text())
    got = report_digests(SYMBOL_COMMAND, group, tmp_path)
    assert len(got) == 3 and got == {name: expected.get(name) for name in got}


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    runs = [(command, group) for group in GROUPS for command in COMMANDS]
    runs += [(SYMBOL_COMMAND, group) for group in SYMBOL_GROUPS]
    digests = {}
    for command, group in runs:
        # the commands' own lines are dropped, so the run prints only what moved
        with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
            digests.update(report_digests(command, group, Path(work)))
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(recorded.keys() | digests.keys()):
        if name not in digests:
            print(f"dropped {name}", file=sys.stderr)
        elif name not in recorded:
            print(f"added {name}", file=sys.stderr)
        elif digests[name] != recorded[name]:
            print(f"changed {name}", file=sys.stderr)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
