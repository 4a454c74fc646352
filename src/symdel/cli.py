"""Command-line front end: check, translate, prove.

check runs a scenario file: it prints the initial structure, applies
each event in order printing the structure after it, and evaluates the
CHECK queries.  translate converts between the two update descriptions
(an EVENT block into an ACTION block and back).  prove runs the seeded
equivalence suites between the symbolic and the explicit pipeline.

Exit codes: 0 success, 1 a failed CHECK expectation or a found
counterexample, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .boolfun import Engine
from .bridge import (
    SUITE_PARTS,
    Bounds,
    SuiteReport,
    act,
    generate_model_action,
    generate_scene_event,
    run_suite,
    trf,
)
from .errors import SymdelError
from .explicit import format_model
from .language import format_formula, recover_formula
from .scenario import (
    build_action,
    build_event,
    build_scene,
    format_action_block,
    format_event_block,
    load_scenario,
)
from .symbolic import Scene, apply_event, scene_eval, shrink_scene


def format_scene(scene: Scene, heading: str) -> str:
    data = _scene_json(scene)
    lines = [heading, "  vars: " + " ".join(data["vars"]), "  law: " + data["law"]]
    lines.extend(f"  obs {agent}: {text}" for agent, text in data["obs"].items())
    lines.append("  state: {" + ",".join(data["state"]) + "}")
    return "\n".join(lines)


def _scene_json(scene: Scene) -> dict:
    structure = scene.structure
    return {
        "vars": [v.name for v in structure.vocabulary],
        "law": format_formula(recover_formula(structure.law)),
        "obs": {
            agent: format_formula(recover_formula(obs))
            for agent, obs in structure.observations.items()
        },
        "state": [v.name for v in structure.vocabulary if v in scene.state],
    }


def run_check(args) -> int:
    try:
        scenario = load_scenario(args.file)
        engine = Engine()
        scene = build_scene(scenario, engine)
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    except SymdelError as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2

    keep = list(scene.structure.vocabulary)
    scenes = [scene]
    steps = []
    for number, spec in enumerate(scenario.events, start=1):
        try:
            event = build_event(spec, scene.structure, engine)
            scene = apply_event(scene, event)
            keep.extend(event.transformer.add_vocab)
            if args.minimize:
                scene = shrink_scene(scene, keep)
        except SymdelError as error:
            print(f"{args.file}: step {number}: {error}", file=sys.stderr)
            return 2
        scenes.append(scene)
        steps.append(event)

    checks = []
    failed = False
    for spec in scenario.checks:
        index = spec.after if spec.after is not None else len(scenario.events)
        if not 0 <= index <= len(scenario.events):
            print(
                f"{args.file}: line {spec.line}: "
                f"check after {index} outside 0..{len(scenario.events)}",
                file=sys.stderr,
            )
            return 2
        try:
            value = scene_eval(scenes[index], spec.formula)
        except SymdelError as error:
            print(f"{args.file}: line {spec.line}: {error}", file=sys.stderr)
            return 2
        ok = None if spec.expect is None else value == spec.expect
        if ok is False:
            failed = True
        checks.append((spec, index, value, ok))

    if args.json:
        payload = {
            "trace": [_scene_json(s) for s in scenes],
            "checks": [
                {
                    "formula": format_formula(spec.formula),
                    "after": index,
                    "value": value,
                    "expect": spec.expect,
                    "ok": ok,
                }
                for spec, index, value, ok in checks
            ],
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    print(format_scene(scenes[0], "initial"))
    for number, after in enumerate(scenes[1:], start=1):
        if args.trace:
            print()
            print(format_event_block(steps[number - 1].transformer, steps[number - 1].actual))
        print()
        print(format_scene(after, f"after event {number}"))
    if checks:
        print()
    for spec, index, value, ok in checks:
        clause = f"after {spec.after} " if spec.after is not None else ""
        line = f"check {clause}{format_formula(spec.formula)} = {str(value).lower()}"
        if ok is True:
            line += " [ok]"
        elif ok is False:
            line += f" [FAIL expected {str(spec.expect).lower()}]"
        print(line)
    return 1 if failed else 0


def run_translate(args) -> int:
    try:
        scenario = load_scenario(args.file)
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    except SymdelError as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2
    engine = Engine()
    try:
        if args.target == "action":
            if len(scenario.events) != 1:
                print(
                    f"{args.file}: translate --to action needs exactly one EVENT block",
                    file=sys.stderr,
                )
                return 2
            scene = build_scene(scenario, engine)
            event = build_event(scenario.events[0], scene.structure, engine)
            action, designated = act(event)
            body = format_action_block(action, designated)
        else:
            if scenario.action is None:
                print(
                    f"{args.file}: translate --to transformer needs an ACTION block",
                    file=sys.stderr,
                )
                return 2
            action, designated = build_action(scenario.action, scenario, engine)
            transformer, actual = trf(engine, action, designated)
            body = format_event_block(transformer, actual)
    except SymdelError as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2
    if scenario.agents:
        print("AGENTS " + " ".join(scenario.agents))
    if scenario.vars:
        print("VARS " + " ".join(scenario.vars))
    print()
    print(body)
    return 0


def _print_instance(part: str, seed: int, bounds: Bounds) -> None:
    if part == "event":
        scene, event = generate_scene_event(seed, bounds)
        print(format_scene(scene, "scene"))
        print(format_event_block(event.transformer, event.actual))
    else:
        pointed, action, designated = generate_model_action(seed, bounds)
        print(format_model(pointed.model, pointed.point))
        print(format_action_block(action, designated))


def run_prove(args) -> int:
    bounds = Bounds()
    total = SuiteReport()
    for part in SUITE_PARTS:
        start = time.perf_counter()
        report = run_suite(
            seed=args.seed,
            count=args.count,
            depth=args.depth,
            bounds=bounds,
            parts=(part,),
        )
        elapsed = time.perf_counter() - start
        print(
            f"part {part}: {report.checked[part]} instances, "
            f"{len(report.failures)} failures ({elapsed:.1f}s)"
        )
        total.failures.extend(report.failures)
    worst = total.minimal_failure()
    if worst is None:
        print("all checks passed")
        return 0
    print(f"minimal failing instance: part {worst.part}, seed {worst.seed}")
    print(f"  {worst.detail}")
    _print_instance(worst.part, worst.seed, bounds)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symdel",
        description="Symbolic model checking for epistemic scenarios with factual change.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a scenario file and its CHECK queries")
    check.add_argument("file", help="scenario file")
    check.add_argument(
        "--minimize",
        action="store_true",
        help="drop determined snapshot variables after each event",
    )
    check.add_argument(
        "--trace",
        action="store_true",
        help="also print the event applied at each step",
    )
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.set_defaults(run=run_check)

    translate = sub.add_parser(
        "translate", help="convert between EVENT and ACTION descriptions"
    )
    translate.add_argument("file", help="scenario file")
    translate.add_argument(
        "--to",
        dest="target",
        choices=("action", "transformer"),
        required=True,
        help="target description",
    )
    translate.set_defaults(run=run_translate)

    prove = sub.add_parser(
        "prove", help="run the symbolic-vs-explicit equivalence suites"
    )
    prove.add_argument("--seed", type=int, default=0)
    prove.add_argument("--count", type=int, default=500)
    prove.add_argument("--depth", type=int, default=2)
    prove.set_defaults(run=run_prove)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except RecursionError:
        # The parser, printer, translator and engine are recursive, so a
        # deeply nested formula or a very long conjunction exhausts the stack.
        print(
            "error: input too deeply nested or too long for the recursion limit",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
