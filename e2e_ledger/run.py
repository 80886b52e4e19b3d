#!/usr/bin/env python3
"""End-to-end checkpoint ledger: build the benchmark from source, run one workload.

    python3 e2e_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_ledger/run.py --self-test

Run from the repository root.  The package under e2e_ledger/ builds the
ickpt libraries from ../src into $CARGO_TARGET_DIR/e2e_ledger (default
.bench_build/e2e_ledger), then runs the e2e_ledger program, whose last
stdout line is the result JSON.  Stores, results and span lists live
under the same build directory.  --self-test builds and runs the
package's own tests instead.  Exit status is non-zero when the build
fails or any operation of the run failed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e_ledger"


def run_logged(cmd, timeout=None) -> int:
    """Run cmd with its stdout sent to our stderr; wait until it has ended."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return 1


def build(out: Path, targets) -> bool:
    if not (out / "CMakeCache.txt").exists():
        rc = run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
        if rc != 0:
            return False
    cmd = ["cmake", "--build", str(out), "-j", "4"]
    for t in targets:
        cmd += ["--target", t]
    return run_logged(cmd) == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    targets = ["e2e_ledger_test"] if args.self_test else ["e2e_ledger"]
    if not build(out, targets):
        print("run.py: build failed", file=sys.stderr)
        return 1

    if args.self_test:
        # The tests write their scratch stores into the current directory.
        return subprocess.run([str(out / "e2e_ledger_test")], cwd=out).returncode

    cmd = [str(out / "e2e_ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--state-dir", str(out / "state"), "--out-dir", str(out / "results")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: e2e_ledger timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
