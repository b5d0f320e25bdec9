#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the repository's
src/ tree) into $CARGO_TARGET_DIR, or .bench_build when that is unset. The
last line of stdout is the run's JSON result; build logs and progress go to
stderr. A run whose outputs are incorrect prints no result and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("loopback-tcp", "sharded-wal", "sim-churn")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    exe = build_dir / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return exe


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    bench_dir = Path(__file__).resolve().parent
    if not (bench_dir.parent / "src" / "tetrabft.hpp").is_file():
        print("perfbench: the repository's src/ tree is missing; nothing to build",
              file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = build_dir / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 3
    spans = work / "spans.csv"
    if spans.is_file():
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        kept = traces / f"{args.workload}-seed{args.seed}.spans.csv"
        shutil.move(str(spans), str(kept))
        print(f"perfbench: spans written to {kept}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        print("perfbench: malformed or incorrect result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
