#!/usr/bin/env python3
"""Walk the false-belief story step by step through the library API.

Prints the belief structure after every event, optionally minimized,
then queries what Sally believes about the marble's place.  The same
story ships as scenarios/sally_anne.scn for the command line runner;
this script shows the equivalent calls in code.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symdel import Engine, build_scene, load_scenario, parse, run_events, scene_eval
from symdel.cli import format_scene

QUERIES = [
    "t",
    "[Sally] t",
    "[Anne] ~t",
    "[Anne] [Sally] t",
    "[Sally] [Anne] [Sally] t",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="keep snapshot variables instead of shrinking after each step",
    )
    args = parser.parse_args()

    scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "sally_anne.scn"
    scenario = load_scenario(str(scenario_path))
    scene = build_scene(scenario, Engine())

    print(format_scene(scene, "initial (t: marble in basket, p: Sally present)"))
    steps = run_events(scenario, scene, minimize=not args.no_minimize)
    for step, (_, scene) in enumerate(steps, start=1):
        print()
        print(format_scene(scene, f"after event {step}"))

    print()
    for text in QUERIES:
        value = scene_eval(scene, parse(text))
        print(f"{text}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
