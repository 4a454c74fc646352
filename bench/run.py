#!/usr/bin/env python3
"""Benchmark symdel end to end (untraced) or layer by layer (traced).

    python3 bench/run.py --workload factual_chain --seed 1 --seconds 50 --trace 0

Runs whole rounds of the workload's operations for about `--seconds`
seconds in this single process, checks every answer, and prints one
JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones
of bench/tracer.py, per traced round, after two untraced rounds that
give the tracing overhead.  symdel is imported from src/ of the checkout this file sits
in; without it the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5


def import_program():
    """Put the checkout's src/ first on the path and check that symdel comes from it."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import symdel
    except ImportError as error:
        sys.exit(f"bench: cannot import symdel from {ROOT / 'src'}: {error}")
    if not Path(symdel.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: symdel imported from {symdel.__file__}, not from this checkout")


def prepare(workload_name, seed, work_dir):
    """Inputs and warm-up: what setup_s measures after the interpreter starts."""
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, work_dir)
    workload.warm_up(work_dir)
    return workload


def measure_setup(args) -> float:
    """Median wall time from starting a fresh interpreter to its first timed operation."""
    times = []
    for _ in range(SETUP_PROBES):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
        ]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            ready = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or ready.strip() != "ready":
            sys.exit(f"bench: set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return statistics.median(times)


class Tally:
    """Per-operation outcomes and per-round times of one timed stretch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # whole stretch: operations, the collections before them and the checks
        self.wall = 0.0
        self.problems: list[str] = []
        self.round_wall: list[float] = []
        self.round_cpu: list[float] = []
        self.round_ops: list[int] = []


def run_round(workload, tally: Tally) -> None:
    """Each operation once.  Garbage of the previous operation is collected
    before the timer starts: engines hold reference cycles."""
    wall = cpu = 0.0
    operations = workload.operations()
    for label, op in operations:
        gc.collect()
        tally.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = op()
        except Exception as error:  # an operation that raises counts as failed
            result, problem = None, f"{label}: {type(error).__name__}: {error}"
        else:
            problem = None
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if problem is None:
            problem = workload.verify(label, result)
        if problem is not None:
            tally.failed += 1
            tally.problems.append(problem)
    tally.round_wall.append(wall)
    tally.round_cpu.append(cpu)
    tally.round_ops.append(len(operations))


def run_for(workload, seconds: float) -> Tally:
    """Whole rounds, at least one, as long as another round is expected to
    end nearer to `seconds` than stopping now: the timed stretch lands within
    half a round of `seconds` instead of up to a whole round past it."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(workload, tally)
        tally.wall = time.perf_counter() - start
        if tally.wall + tally.wall / len(tally.round_wall) / 2 >= seconds:
            return tally


def end_to_end(tally: Tally, workload, setup_s: float, peak_rss_mb: float) -> dict:
    per_op_wall = [w / n for w, n in zip(tally.round_wall, tally.round_ops)]
    per_op_cpu = [c / n for c, n in zip(tally.round_cpu, tally.round_ops)]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / tally.wall, "1/s"),
        "op_median_s": (statistics.median(per_op_wall), "s"),
        "op_cpu_median_s": (statistics.median(per_op_cpu), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "structure_nodes": (workload.structure_nodes(), "nodes"),
    }


def traced(args, workload, results_dir: Path) -> tuple[Tally, dict]:
    import tracer
    import workloads

    # The first full-size round runs cold (the heap grows), so the second
    # untraced round is the base the tracing overhead is measured against.
    base = Tally()
    run_round(workload, base)
    run_round(workload, base)
    tracing = tracer.Tracer(lambda law: workloads.diagram_nodes([law]))
    tracing.install(extra_modules=[workloads, sys.modules[__name__]])
    try:
        tally = run_for(workload, max(args.seconds - sum(base.round_wall), 0))
    finally:
        tracing.uninstall()
    layers = tracing.layer_metrics(len(tally.round_wall))
    metrics = {name: (layers[name], unit) for name, unit in tracer.metric_names()}
    overhead = statistics.median(tally.round_wall) / base.round_wall[-1]
    metrics["trace.overhead"] = (overhead, "ratio")
    spans = results_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracing.write_spans(spans)
    tally.attempted += base.attempted
    tally.failed += base.failed
    tally.problems += base.problems
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("factual_chain", "belief_queries", "prove_suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    work_dir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, work_dir)
            print("ready", flush=True)
            return 0
        setup_s = measure_setup(args) if not args.trace else None
        workload = prepare(args.workload, args.seed, work_dir)
        results_dir = BENCH / "results"
        results_dir.mkdir(exist_ok=True)
        if args.trace:
            tally, metrics = traced(args, workload, results_dir)
        else:
            tally = run_for(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = workload.final_checks()
        if not args.trace:
            metrics = end_to_end(tally, workload, setup_s, peak_rss_mb)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in tally.problems + wrong:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
