"""Benchmark entry point for gsb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's gsb CLI commands for about S seconds
(at least one round), checks every value they write against
bench/reference.py, and prints one JSON line as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.

--trace 0: each command runs in a fresh `python -m gsb.cli` process, and
the metrics are the end-to-end ones (wall_s, slowest_cmd_s, peak_rss_mb,
setup_s, accuracy_digits).  --trace 1: the same commands run in-process
through gsb.cli.main with the layer wrappers of bench/trace_layers.py installed,
and the metrics are the per-layer ones.

Run it from the root of a checkout; it builds nothing, reads the package
from ./src and writes only under ./.bench_work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Every process this benchmark runs, itself included (set before numpy is
# imported here), uses one BLAS thread: a busy neighbour on another core then
# slows a run by its share of one core, not by stalling a thread pool.  The
# program's own case threads stay off (GSB_THREADS unset), which the traced
# run's span stack also needs.
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
os.environ.pop("GSB_THREADS", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_command  # noqa: E402
from reference import DOUBLE_DIGITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3


def child_env(src: Path) -> dict:
    """Environment for a gsb child: this one, with the absolute src path."""
    return dict(os.environ, PYTHONPATH=str(src))


def run_child(argv: list, env: dict, cwd: Path):
    """Run one process; return (wall seconds, peak RSS in MB, exit code, stdout)."""
    out_path = cwd / "child.out"
    with open(out_path, "w") as out, open(cwd / "child.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()


def import_wall(src: Path, work: Path) -> float:
    """Wall time of a fresh process that only imports gsb.cli."""
    wall, _, code, _ = run_child([sys.executable, "-c", "import gsb.cli"], child_env(src), work)
    if code != 0:
        raise RuntimeError("import gsb.cli failed: " + (work / "child.err").read_text()[-2000:])
    return wall


class Tally:
    """Operations attempted and failed, and the fewest correct digits."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.min_digits = DOUBLE_DIGITS
        self.whole = True  # every command left readable reports

    def add(self, checked):
        ops, whole = checked
        self.whole = self.whole and whole
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        for op in ops:
            if op.digits:
                self.min_digits = min(self.min_digits, min(op.digits))


def run_rounds(seconds: float, one_round) -> list:
    """Whole rounds until another one would pass the time budget (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_round(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def subprocess_round(commands, src: Path, work: Path, tally: Tally, index: int):
    """One round in fresh processes; returns (per-command walls, peak RSS)."""
    env = child_env(src)
    walls, peak = [], 0.0
    for k, cmd in enumerate(commands):
        out_dir = work / f"r{index}c{k}"
        argv = [sys.executable, "-m", "gsb.cli", *cmd.argv(str(out_dir))]
        wall, rss, code, stdout = run_child(argv, env, work)
        walls.append(wall)
        peak = max(peak, rss)
        tally.add(check_command(cmd, code, stdout))
        shutil.rmtree(out_dir, ignore_errors=True)
    return walls, peak


def end_to_end(commands, src: Path, work: Path, seconds: float, tally: Tally):
    """End-to-end metrics: {name: (value, unit)}.

    The host's noise only ever slows a process, and it comes in spells of
    seconds, so each time is the best of samples spread over the run: a
    command's over the rounds, set-up's over imports made before each round
    (and after the last, to have at least SETUP_REPEATS).
    """
    setup = []

    def one_round(index):
        setup.append(import_wall(src, work))
        return subprocess_round(commands, src, work, tally, index)

    rounds = run_rounds(seconds, one_round)
    while len(setup) < SETUP_REPEATS:
        setup.append(import_wall(src, work))
    best = [min(walls[k] for walls, _ in rounds) for k in range(len(commands))]
    metrics = {
        "wall_s": (sum(best), "s"),
        "slowest_cmd_s": (max(best), "s"),
        "peak_rss_mb": (max(peak for _, peak in rounds), "MB"),
        "setup_s": (min(setup), "s"),
        "accuracy_digits": (tally.min_digits, "digits"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = HERE.parent
    src = root / "src"
    if not (src / "gsb" / "cli.py").is_file():
        print(f"error: no gsb package under {src}; run from the root of a gsb checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        commands = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            from trace_layers import traced

            metrics = traced(commands, src, work, args.seconds, tally, child_env(src), run_rounds)
        else:
            metrics = end_to_end(commands, src, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    result = {
        "correct": tally.whole,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
