#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 riobench/spread.py --workloads yard_circle suburban_street --seeds 1-10

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
the runs and the distance between their first and third quartile as a share
of the median, next to the metric's bound, and exits with 1 if a run is
not correct, the share of failed steps differs between runs, or a spread
exceeds its bound. Runs go one at a time;
the raw results are kept in ``.riobench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "riobench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"in {results[-1]['run_s']:.1f} s", file=sys.stderr)
        out = ROOT / ".riobench_out" / f"spread-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seeds": args.seeds, "results": results}, indent=1))
        shares = {r["failed"] / r["attempted"] for r in results}
        ok &= all(r["correct"] for r in results) and len(shares) == 1
        run_s = [r["run_s"] for r in results]
        print(f"\n{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed shares: {sorted(shares)}, run time mean {statistics.mean(run_s):.1f} s "
              f"max {max(run_s):.1f} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            limit = "ok" if share < bound / 3 else "within bound" if share <= bound else "OVER BOUND"
            ok &= share <= bound
            print(f"  {name:16s} median {median:12.6g}  IQR/median {share:7.4f}  bound {bound}  {limit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
