#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 1-10                  # all four workloads
    python3 bench/sweep.py --workloads cli --seeds 1-5 --compare .bench_out/a.json

Each run is a fresh ``bench/run.py`` process. For every workload and metric
the sweep prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json. With ``--compare`` it also prints how far each median moved
against an earlier sweep, positive meaning worse. All values go to
``--out`` as JSON.
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
WORKLOADS = ("dominance", "ic_grid", "elicit_queries", "cli")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", help="an earlier sweep's JSON output")
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / f"sweep-{int(time.time())}.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            runs.setdefault(workload, []).append({"seed": seed, "wall_s": wall, **result})
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"))
            print(f"{workload} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {shown}", flush=True)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:<45} median {median:12.4f}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {(q3 - q1) / median:7.4f}"
            metric = bounds.get(name, {})
            if "bound" in metric:
                line += f"  bound {metric['bound']}"
            if workload in earlier and median:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                if before:
                    shift = (median / before - 1) * (1 if metric.get("better") == "lower" else -1)
                    line += f"  worse by {shift:+.4f}"
            print(line)
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(runs, indent=1))
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
