#!/usr/bin/env python3
"""Run-to-run spread of the ledger's end-to-end metrics.

    python3 e2e_ledger/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs run.py --trace 0 once per seed on each workload (run_seconds from
BENCHMARK.json) and prints, per end-to-end metric, the median and the
interquartile range as a share of the median, next to the metric's
bound.  Spreads above a third of the bound are flagged.  Exits non-zero
if any run fails.  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(ROOT / spec["command"][1]),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr[-2000:]}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {med:12.5g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.2f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
