#!/usr/bin/env python3
"""elicitkit benchmark: one workload in this process, every answer checked.

Run from the repository root:

    python3 bench/run.py --workload dominance --seed 1 --seconds 20 --trace 0

Workloads: dominance, ic_grid, elicit_queries, cli (see bench/README.md).
elicitkit is imported from ``src/`` next to this directory, never from an
installed copy, and CLI children get the same ``src/`` on PYTHONPATH.

With ``--trace 0`` the run sets up, warms up, then repeats whole rounds of
its operations until ``--seconds`` have passed and at least the workload's
minimum number of operations ran. It prints the end-to-end metrics, whose
times are calibrated against the machine's current speed (see
``Workload.calibrate``). With ``--trace 1`` it runs a fixed list of
operations twice, untraced and then traced, and prints the per-layer
metrics and the tracing overhead. Either
way the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the
    calibration measures."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not offered here: run unpinned
        pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dominance", "ic_grid", "elicit_queries", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_ops(workload, op, pool, indices):
    """Run ``op`` on the inputs at ``indices``, calibrating around each.

    Returns (latencies, records, failed, raw wall seconds of the
    operations); latencies are calibrated (see ``Workload.calibrate``).
    """
    latencies, records, failed, wall = [], [], 0, 0.0
    before = workload.calibrate()
    for index in indices:
        start = time.perf_counter()
        try:
            result = op(pool[index])
        except Exception:  # a failed operation is counted, and the run goes on
            failed += 1
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - start
        after = workload.calibrate()
        wall += elapsed
        latencies.append(elapsed * 2 * workload.nominal_s / (before + after))
        records.append((index, result))
        before = after
    return latencies, records, failed, wall


def check_records(workload, pool, records) -> list[str]:
    """Check every answer, then show the checks reject corrupted ones."""
    if not records:
        return ["no operation succeeded"]
    errors, claims = [], {}
    for index, result in records:
        found, new_claims = workload.check(pool[index], result)
        errors += [f"op {index}: {e}" for e in found]
        for position, claim in enumerate(new_claims):
            claims[(index, position, claim[0], claim[3])] = claim
    if claims:
        errors += checker.float_claim_errors(claims.values())
    for label, index, bad in workload.corruptions(pool, records):
        if workload.check(pool[index], bad)[0]:
            print(f"self-test: a corrupted {label} (op {index}) was rejected", file=sys.stderr)
        else:
            errors.append(f"self-test: a corrupted {label} was accepted")
    return errors


def nearest_rank(values, fraction: Fraction) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(fraction * len(ordered)) - 1]


def timed_run(workload, pool, seconds: float):
    if run_ops(workload, workload.op, pool, workload.warmup)[2]:
        print("warm-up operation failed", file=sys.stderr)
    gc.collect()
    latencies, records, failed, done, wall = [], [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        indices = [(done + k) % len(pool) for k in range(len(workload.round))]
        lat, rec, fail, busy = run_ops(workload, workload.op, pool, indices)
        latencies += lat
        records += rec
        failed += fail
        wall += busy
        done += len(indices)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and done >= workload.min_ops:
            break
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (done / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(latencies, workload.tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{done} timed operations in {elapsed:.2f} s, {wall:.2f} s of them in operations "
          f"({done / wall:.4f} ops/s uncalibrated, machine at {sum(latencies) / wall:.3f} "
          f"of reference speed); tail is p{float(workload.tail) * 100:.3g}", file=sys.stderr)
    return metrics, records, done, failed


def traced_run(workload, pool, seed: int):
    import layers

    indices = list(range(workload.trace_ops))
    untraced = run_ops(workload, workload.op, pool, indices)[0]
    tracer = layers.install()
    try:
        latencies, records, failed, wall = run_ops(workload, tracer.wrap("op", workload.op), pool, indices)
    finally:
        tracer.uninstall()
    extra = {"trace.overhead_pct": (sum(latencies) / sum(untraced) - 1) * 100}
    if workload.name == "cli":
        extra.update(cli_probes(workload))
        for command in ("compare", "verify", "demo"):
            mine = [t for t, (i, _) in zip(latencies, records) if pool[i]["command"] == command]
            extra[f"cli.{command}.p50_ms"] = statistics.median(mine) * 1e3
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload.name}-{seed}.jsonl")
    print(f"traced {len(indices)} operations: {sum(untraced):.2f} s untraced, "
          f"{sum(latencies):.2f} s traced", file=sys.stderr)
    values = layers.layer_values(tracer, extra, sum(latencies) / wall)
    metrics = {k: (v["value"], v["unit"]) for k, v in values.items()}
    return metrics, records, len(indices), failed


def cli_probes(workload) -> dict:
    """Interpreter start, CLI import and demos import, each a median of fresh children."""
    import workloads

    env = workload.env
    return {
        "cli.interpreter_ms": statistics.median(
            workload.calibrate() * 1e3 for _ in range(PROBE_REPEATS)
        ),
        "cli.import_ms": statistics.median(
            workloads.import_ms(env, "import elicitkit.cli", "elicitkit.cli")
            for _ in range(PROBE_REPEATS)
        ),
        "cli.demos_import_ms": statistics.median(
            workloads.import_ms(env, "import elicitkit.cli, elicitkit.demos", "elicitkit.demos")
            for _ in range(PROBE_REPEATS)
        ),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # single-threaded, for this process and its children
    pin_to_one_cpu()
    src = ROOT / "src"
    if not (src / "elicitkit" / "__init__.py").is_file():
        print(f"error: no elicitkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import elicitkit

    if Path(elicitkit.__file__).resolve().parent != (src / "elicitkit").resolve():
        print(f"error: elicitkit was imported from {elicitkit.__file__}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT)
    env = workloads.child_env(ROOT)
    setups = []
    before = workload.calibrate()
    for _ in range(SETUP_REPEATS):
        imported = workloads.import_ms(env, "import elicitkit", "elicitkit") / 1e3
        start = time.perf_counter()
        pool = workload.build(args.seed)
        built = time.perf_counter() - start
        after = workload.calibrate()
        setups.append((imported + built) * 2 * workload.nominal_s / (before + after))
        before = after

    if args.trace:
        metrics, records, attempted, failed = traced_run(workload, pool, args.seed)
    else:
        metrics, records, attempted, failed = timed_run(workload, pool, args.seconds)
        metrics["setup_s"] = (statistics.median(setups), "s")
    errors = check_records(workload, pool, records)
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<45} {value:14.4f} {unit}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, checks "
          f"{'passed' if not errors else f'FAILED ({len(errors)})'}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
