"""Fresh-process runs of the command line, each started once per session.

Some facts about a command show only in a process of its own: its peak RSS,
and which modules it loads or runs.  FRESH lists every such command; one
small launcher runs each of them once, two at a time, and every test that
asks reads the `fresh` fixture's record of it instead of starting a process.

A child's ru_maxrss is at least the peak of the process it was spawned from
(the kernel carries the spawning address space's high-water mark across
exec), so the children are started by the launcher, whose own RSS stays
below the import floor, not by the test process, which holds numpy and
scipy.  The launcher caps its children's address space at 2 GiB, so a
runaway allocation ends in a MemoryError within seconds instead of taking
the machine's memory, and gives each one BLAS thread, as OpenBLAS maps a
buffer per thread and the peak would otherwise depend on the core count.
It starts as soon as collection ends, so its children run while the
in-process tests do.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
OPTIONAL = ("heat", "kernels", "sobolev", "bounds")  # registered lazily by gsb/__init__.py
WATCHED = ("numpy.random", "fractions", "scipy", "sympy")

# the input files of invert, by group: one block and one point
COEFFS = {
    "torus:1": ({"group": "torus:1", "entries": [{"label": [1], "matrix": [[[1.0, 0.0]]]}]}, [[0.3]]),
    "su2": (
        {"group": "su2", "entries": [{"label": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]},
        [[0.3, 0.5, 0.7]],
    ),
}

# every command of the command line at default flags, on torus:1 and on su2
DEFAULT_RUNS = tuple(
    f"{command} --group {group}"
    for command in (
        "verify unitarity",
        "verify mass",
        "verify reproducing",
        "verify sobolev-isometry",
        "verify kernel-tworoute",
        "verify toeplitz",
        "verify weighted-norm",
        "report symbol",
        "report lattice",
        "report smoothness",
        "report bounds",
        "invert --coeffs c.json --points p.json",
    )
    for group in COEFFS
)

# Each entry is a command line less its `--out o`.  "" imports gsb.cli and
# runs nothing: the import floor.  The runs of "-m gsb.cli" are the entry
# point; every other one goes through a probe that calls cli.main and then
# records which modules the process holds.
FRESH = (
    "",
    "-m gsb.cli verify reproducing --group su2",
    "-m gsb.cli verify mass --group so3",
    "-m gsb.cli report bounds --group torus:4 --t 1e-300",
    *DEFAULT_RUNS,
    "verify kernel-tworoute --group su2 --cutoff 4 --t 0.25,0.5,1,2 --n 1,2,3 --seed 0",
    "report lattice --group torus:3",
    "report bounds --group torus:3",
    "verify kernel-tworoute --group torus:4",
    "verify sobolev-isometry --group su2 --cutoff 40 --n 1,2,3,4",
    "verify unitarity --group su2 --cutoff 40 --t 0.5,1,2,4",
    "report smoothness --group su2 --cutoff 64",
    "report smoothness --group torus:4 --cutoff 8",
    "verify toeplitz --group su2 --cutoff 1",
    "verify reproducing --group su2 --cutoff 2 --levels 16,24",
    "verify unitarity --group torus:2 --cutoff 2",
)

PROBE = f"""\
import json, sys, types
from gsb.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
modules = sys.modules
facts = {{
    "ran": [m for m in {OPTIONAL!r} if type(modules["gsb." + m]) is types.ModuleType],
    "loaded": [m for m in {WATCHED!r} if m in modules],
    "gsb": sorted(m for m in modules if m.split(".")[0] == "gsb"),
}}
with open("facts.json", "w") as fp:
    json.dump(facts, fp)
sys.exit(code)
"""

LAUNCH = """\
import json, os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
jobs, running = json.loads(sys.argv[1]), {}
pending = list(range(len(jobs)))[::-1]
while pending or running:
    while pending and len(running) < 2:
        i = pending.pop()
        cwd, args = jobs[i]
        with open(os.path.join(cwd, "stdout"), "wb") as out, open(os.path.join(cwd, "stderr"), "wb") as err:
            p = subprocess.Popen([sys.executable, *args], cwd=cwd, stdout=out, stderr=err, env=env)
        running[p.pid] = i, p
    pid, status, usage = os.wait4(-1, 0)
    i, p = running.pop(pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([i, p.returncode, usage.ru_maxrss]), flush=True)
"""


@dataclass(frozen=True)
class Run:
    """One fresh process: exit code, output, peak RSS (MB), its cwd (the
    report directory is cwd / "o"), and, for a probed run, the optional
    gsb modules that ran, the watched modules it loaded and every gsb
    module it holds."""

    code: int
    out: str
    err: str
    peak_mb: float
    cwd: Path
    ran: frozenset = frozenset()
    loaded: frozenset = frozenset()
    gsb: tuple = ()


class FreshRuns:
    """The records of FRESH, read as the launcher reports each one."""

    def __init__(self):
        self.root = Path(tempfile.mkdtemp(prefix="gsb-fresh-"))
        self.jobs = []
        for i, command in enumerate(FRESH):
            cwd = self.root / f"{i:02d}"
            cwd.mkdir()
            argv = command.split()
            if "--coeffs" in argv:
                coeffs, points = COEFFS[argv[argv.index("--group") + 1]]
                (cwd / "c.json").write_text(json.dumps(coeffs))
                (cwd / "p.json").write_text(json.dumps(points))
            if argv:
                argv += ["--out", "o"]
            self.jobs.append((str(cwd), argv if argv[:1] == ["-m"] else ["-c", PROBE, *argv]))
        # each child runs in its own cwd, so the package path must be absolute
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, json.dumps(self.jobs)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            start_new_session=True,
        )
        self.done = {}

    def __getitem__(self, command: str) -> Run:
        i = FRESH.index(command)
        while i not in self.done:
            line = self.launcher.stdout.readline()
            if not line:
                raise RuntimeError(f"the launcher ended before {command!r}: {self.launcher.stderr.read()}")
            index, code, kb = json.loads(line)
            self.done[index] = code, kb / 1024.0
        code, peak = self.done[i]
        cwd = Path(self.jobs[i][0])
        facts = cwd / "facts.json"
        found = json.loads(facts.read_text()) if facts.exists() else {}
        return Run(
            code,
            (cwd / "stdout").read_text(),
            (cwd / "stderr").read_text(),
            peak,
            cwd,
            frozenset(found.get("ran", ())),
            frozenset(found.get("loaded", ())),
            tuple(found.get("gsb", ())),
        )

    def close(self):
        # the launcher and any child it still runs share its process group
        if self.launcher.poll() is None:
            os.killpg(self.launcher.pid, signal.SIGKILL)
        self.launcher.communicate()
        shutil.rmtree(self.root, ignore_errors=True)


RUNS = pytest.StashKey[FreshRuns]()


def pytest_collection_finish(session):
    if not session.config.option.collectonly and any("fresh" in getattr(item, "fixturenames", ()) for item in session.items):
        session.config.stash[RUNS] = FreshRuns()


def pytest_sessionfinish(session):
    if RUNS in session.config.stash:
        session.config.stash[RUNS].close()


@pytest.fixture(scope="session")
def fresh(pytestconfig) -> FreshRuns:
    return pytestconfig.stash[RUNS]
