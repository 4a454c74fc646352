#!/usr/bin/env python3
"""Sweep the randomized equivalence suite across instance sizes.

For each vocabulary size up to --max-vars, runs the symbolic-versus-
explicit checks on seeded random instances and prints one line with
the timing and failure count.  Exits nonzero if any size produced a
counterexample; the smallest one is printed in full.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symdel.bridge import SUITE_PARTS, Bounds, SuiteReport, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200, help="instances per size")
    parser.add_argument("--depth", type=int, default=2, help="modal depth of checked formulas")
    parser.add_argument("--max-vars", type=int, default=4)
    parser.add_argument("--agents", type=int, default=2)
    parser.add_argument(
        "--parts",
        nargs="+",
        default=list(SUITE_PARTS),
        choices=list(SUITE_PARTS),
    )
    args = parser.parse_args()

    total = SuiteReport()
    for size in range(1, args.max_vars + 1):
        bounds = Bounds(max_vocab=size, max_agents=args.agents)
        start = time.perf_counter()
        report = run_suite(
            seed=args.seed,
            count=args.count,
            depth=args.depth,
            bounds=bounds,
            parts=tuple(args.parts),
        )
        elapsed = time.perf_counter() - start
        checked = sum(report.checked.values())
        print(
            f"vars<={size}: {checked} checks in {elapsed:.2f}s, "
            f"{len(report.failures)} failures"
        )
        total.failures.extend(report.failures)

    worst = total.minimal_failure()
    if worst is not None:
        print()
        print(f"smallest counterexample (part {worst.part}, seed {worst.seed}):")
        print(f"  {worst.detail}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
