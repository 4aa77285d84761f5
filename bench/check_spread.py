"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 bench/check_spread.py --workload beam-latency --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the interquartile
distance as a share of the median, next to a third of the metric's bound
from BENCHMARK.json. Runs go one after another, never in parallel. Each
run's result line is appended to ``.bench_work/spread/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    log_dir = ROOT / ".bench_work" / "spread"
    log_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in seeds_from(args.seeds):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, "trace": args.trace, "result": result}) + "\n")
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        runs.append(result)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound/3':>8s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        bound = bounds.get(name)
        limit = f"{bound / 3:8.4f}" if bound else " " * 8
        flag = "  WIDE" if bound and spread > bound / 3 else ""
        print(f"{name:40s} {median:14.6f} {spread:8.4f} {limit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
