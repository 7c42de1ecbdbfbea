"""Steadiness check: do two sets of benchmark runs of the same code agree?

    python3 bench/steady.py [--runs 10] [--workload NAME ...] [--first-seed 1]

Runs bench/run.py (untraced) --runs times per set, two sets, each run with
its own seed, for every workload of BENCHMARK.json.  For each end-to-end
metric and workload it prints the median of each set, the spread of each
set (quartile distance as a share of the median, as
statistics.quantiles(values, n=4) gives the quartiles) and whether

* the spread stays within the metric's bound (setup_s is exempt),
* the second set's median is no worse than the first's by more than it,

and whether the share of failed operations is the same in both sets.
Exits 1 if any of these fails.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workload", action="append", help="workload name (default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs per set for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                runs.append(one_run(spec, workload, seed))
                seed += 1
            sets.append(runs)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        same = len(shares[0] | shares[1]) == 1
        ok = ok and same and all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: failed share {sorted(shares[0] | shares[1])} {'same' if same else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            change = (meds[1] - meds[0]) / meds[0]
            worse = change if metric["better"] == "lower" else -change
            steady = name == "setup_s" or max(spreads) <= bound
            agree = worse <= bound
            ok = ok and steady and agree
            print(
                f"  {name:16s} median {meds[0]:.4g} / {meds[1]:.4g} ({worse:+.2%} worse)"
                f"  spread {spreads[0]:.2%} / {spreads[1]:.2%} of bound {bound:.0%}"
                f"  all-runs spread {spread(vals[0] + vals[1]):.2%}"
                f"  {'ok' if steady and agree else 'OUT OF BOUND'}"
            )
            print("    values " + " | ".join(" ".join(f"{x:.4g}" for x in v) for v in vals))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
