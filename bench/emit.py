#!/usr/bin/env python3
"""Write one round of a workload's generated inputs and symdel's outputs to a directory.

    python3 bench/emit.py --workload factual_chain --seed 1 --out /tmp/factual_chain-1

The benchmark never compares against such a copy; this is for reading
what the program answered, or for diffing two versions of it by hand.
"""

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("factual_chain", "belief_queries", "prove_suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    run.import_program()
    import workloads
    from symdel import format_formula

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    failed = 0
    for label, op in workload.operations():
        result = op()
        problem = workload.verify(label, result)
        if problem:
            failed += 1
            print(f"problem: {problem}", file=sys.stderr)
        if args.workload == "factual_chain":
            (out / f"{label}.json").write_text(result[1], encoding="utf-8")
        elif args.workload == "belief_queries":
            (out / "instance.scn").write_text(workload.instance.text, encoding="utf-8")
            lines = [f"{format_formula(phi)}\t{str(v).lower()}" for phi, v in zip(workload.family, result)]
            (out / "answers.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            summary = {
                "seed": result.seed,
                "checked": result.checked,
                "failures": [vars(c) for c in result.failures],
            }
            (out / f"{label}.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
