"""Mutation checks: a wrong Laplacian eigenvalue must fail the suites.

Each mutation changes lambda by about one part in 10^4: on SU(2) (m^2 - 1)/4
becomes (m^2 - 1)/4.0001, on a torus |n|^2 becomes 1.0001 |n|^2.  It is
patched into every module that binds laplacian_eigenvalue, so both sides of
an identity see it, with the package's lru caches cleared before and after.
Only the damping e^{-lambda t/2} of C_t reads lambda in the transform, while
each rule's completed square leaves its own scale, so the two no longer
cancel and unitarity and invert (whose sides never read lambda) fail.  The
idea is mutation adequacy (DeMillo, Lipton and Sayward, IEEE Computer
11(4), 1978).
"""

import sys

import pytest

from gsb import cli, coeffs, groups, transform
from test_report_digests import _argv

GROUPS = ("torus:1", "torus:2", "su2")
COMMANDS = [("verify", "unitarity"), ("verify", "sobolev-isometry"), ("verify", "reproducing"), ("invert",)]
MUTATIONS = {
    "su2": lambda spec, label: (int(label) ** 2 - 1) / 4.0001,
    "torus": lambda spec, label: 1.0001 * float(sum(n * n for n in label)),
}


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "gsb" or name.startswith("gsb."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def mutate(monkeypatch):
    """Patch the eigenvalue mutation of a group's kind into groups, coeffs and transform."""

    def apply(group: str):
        kind = groups.parse_group(group).kind
        for module in (groups, coeffs, transform):
            monkeypatch.setattr(module, "laplacian_eigenvalue", MUTATIONS[kind])
        _clear_caches()

    yield apply
    monkeypatch.undo()
    _clear_caches()


def _exit_code(argv, work, capsys):
    code = cli.main([*argv, "--out", str(work / "out")])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("command", COMMANDS, ids="-".join)
def test_eigenvalue_mutation_fails(tmp_path, capsys, mutate, command, group):
    argv = _argv(command, group, tmp_path)
    assert _exit_code(argv, tmp_path, capsys) == 0  # the unmutated control
    mutate(group)
    assert _exit_code(argv, tmp_path, capsys) == 1
