"""Command-line front end: check, translate, prove.

check runs a scenario file: it prints the initial structure, applies
each event in order printing the structure after it, and evaluates the
CHECK queries.  translate converts between the two update descriptions
(an EVENT block into an ACTION block and back); for either target it
checks every EVENT block and every CHECK as check does, except that the
events need not be executable.  Every command rejects a malformed
ACTION block, which the parser checks, though only translate builds
it.  prove runs the seeded equivalence suites between the symbolic and
the explicit pipeline, on instances drawn within the bounds its flags
set.

Exit codes: 0 success, 1 a failed CHECK expectation or a found
counterexample, 2 bad input.  main alone turns bad input into exit 2:
it prints an unreadable file's OSError as is, and a SymdelError as
`FILE: [step N: ][line N: ]message`.
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
    generate_scene,
    generate_scene_event,
    run_suite,
    trf_with_labels,
)
from .errors import ParseError, SymdelError
from .explicit import format_model
from .language import format_formula, recover_formula
from .scenario import (
    at_line,
    build_action,
    build_event,
    build_scene,
    format_action_block,
    format_event_block,
    load_scenario,
    run_events,
)
from .symbolic import Event, Scene, scene_eval, transform_with_copies

# translate --to action writes one event per assignment of the event
# variables (and, without OBS+, a relation over all pairs of them):
# 11 variables already print 168 MB
MAX_ACTION_EVENT_VARS = 10

# prove's bounds.  The Kripke models of the checks grow as 2^vars:
# 20 seeds at --max-vars 10 took 30 s and 509 MB, and at 12 the process
# was killed.  The formula battery grows 2 x agents-fold per level of
# --depth: over 4 atoms and 2 agents it holds 6,138 formulas at depth 4
# and 98,298 at depth 6.  At the caps, 5 seeds take 15 s and 166 MB.
MAX_PROVE_VARS = 8
MAX_PROVE_AGENTS = 4
MAX_PROVE_DEPTH = 4


def format_scene(scene: Scene, heading: str) -> str:
    data = _scene_json(scene)
    lines = [heading, "  vars: " + " ".join(data["vars"]), "  law: " + data["law"]]
    lines.extend(f"  obs {agent}: {text}" for agent, text in data["obs"].items())
    lines.append("  state: {" + ",".join(data["state"]) + "}")
    return "\n".join(lines)


def _scene_json(scene: Scene) -> dict:
    """The scene's fields as printed.  Most factors recur unchanged from
    one scene to the next; the engine keeps each recovered formula."""
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
    scenario = load_scenario(args.file)
    # (event, scene after it) per step; the initial scene has no event
    steps = [(None, build_scene(scenario, Engine()))]
    try:
        steps.extend(run_events(scenario, steps[0][1], args.minimize))
    except SymdelError as error:
        raise SymdelError(f"step {len(steps)}: {error}") from error

    records, lines = [], []
    for spec in scenario.checks:
        index = _check_step(spec, scenario)
        with at_line(spec.line):
            value = scene_eval(steps[index][1], spec.formula)
        ok = None if spec.expect is None else value == spec.expect
        formula = format_formula(spec.formula)
        records.append(
            {"formula": formula, "after": index, "value": value, "expect": spec.expect, "ok": ok}
        )
        clause = f"after {spec.after} " if spec.after is not None else ""
        line = f"check {clause}{formula} = {str(value).lower()}"
        if ok is True:
            line += " [ok]"
        elif ok is False:
            line += f" [FAIL expected {str(spec.expect).lower()}]"
        lines.append(line)
    passed = all(record["ok"] is not False for record in records)

    if args.json:
        payload = {
            "trace": [_scene_json(scene) for _, scene in steps],
            "checks": records,
            "ok": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_scene(steps[0][1], "initial"))
        for number, (event, after) in enumerate(steps[1:], start=1):
            if args.trace:
                print()
                print(format_event_block(event.transformer, event.actual))
            print()
            print(format_scene(after, f"after event {number}"))
        if lines:
            print()
            print("\n".join(lines))
    return 0 if passed else 1


def _check_step(spec, scenario) -> int:
    """The step a CHECK reads: after event `after`, else after the last."""
    return spec.after if spec.after is not None else len(scenario.events)


def run_translate(args) -> int:
    scenario = load_scenario(args.file)
    if args.target == "action":
        if len(scenario.events) != 1:
            raise SymdelError("translate --to action needs exactly one EVENT block")
        spec = scenario.events[0]
        if len(spec.add) > MAX_ACTION_EVENT_VARS:
            raise ParseError(
                f"translate --to action would expand {len(spec.add)} event variables "
                f"into 2^{len(spec.add)} events; at most {MAX_ACTION_EVENT_VARS} "
                "event variables are supported",
                line=spec.lines["ADDVARS", ()],
            )
        (event,) = _compile_checks(scenario)
        body = format_action_block(*act(event))
    else:
        if scenario.action is None:
            raise SymdelError("translate --to transformer needs an ACTION block")
        engine = Engine()
        action, designated = build_action(scenario.action, scenario, engine)
        transformer, actual, _ = trf_with_labels(engine, action, designated)
        body = format_event_block(transformer, actual)
        _compile_checks(scenario)
    if scenario.agents:
        print("AGENTS " + " ".join(scenario.agents))
    if scenario.vars:
        print("VARS " + " ".join(scenario.vars))
    print()
    print(body)
    return 0


def _compile_checks(scenario) -> list[Event]:
    """Build the scenario's structures and events as check does, and
    compile each CHECK against the structure it names, so an EVENT block
    or a CHECK that check rejects fails here too; returns the events.

    The structures are built in a fresh engine, so snapshot names match
    the ones check gives; the events need not be executable.
    """
    engine = Engine()
    structure = build_scene(scenario, engine).structure
    steps = [(None, structure)]
    for spec in scenario.events:
        event = build_event(spec, structure, engine)
        structure = transform_with_copies(structure, event.transformer).structure
        steps.append((event, structure))
    for spec in scenario.checks:
        with at_line(spec.line):
            steps[_check_step(spec, scenario)][1].translator.fn(spec.formula)
    return [event for event, _ in steps[1:]]


def _print_instance(part: str, seed: int, bounds: Bounds) -> None:
    if part == "event":
        scene, event = generate_scene_event(seed, bounds)
        print(format_scene(scene, "scene"))
        print(format_event_block(event.transformer, event.actual))
    elif part in ("translation", "minimization"):
        print(format_scene(generate_scene(seed, bounds), "scene"))
    else:
        pointed, action, designated = generate_model_action(seed, bounds)
        print(format_model(pointed.model, pointed.point))
        print(format_action_block(action, designated))


def _check_range(flag: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise SymdelError(f"{flag} must be between 1 and {cap}, got {value}")


def run_prove(args) -> int:
    _check_range("--max-vars", args.max_vars, MAX_PROVE_VARS)
    _check_range("--agents", args.agents, MAX_PROVE_AGENTS)
    _check_range("--depth", args.depth, MAX_PROVE_DEPTH)
    if args.count < 0:
        raise SymdelError(f"--count must be at least 0, got {args.count}")
    bounds = Bounds(args.max_vars, args.agents)
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
    prove.add_argument(
        "--depth", type=int, default=2, help="modal depth of the checked formulas"
    )
    prove.add_argument(
        "--max-vars",
        type=int,
        default=Bounds.max_vocab,
        help="largest vocabulary drawn; every size from 1 up is drawn",
    )
    prove.add_argument(
        "--agents", type=int, default=Bounds.max_agents, help="most agents drawn"
    )
    prove.set_defaults(run=run_prove)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except OSError as error:
        print(error, file=sys.stderr)
    except SymdelError as error:
        # prove reads no file
        print(f"{getattr(args, 'file', args.command)}: {error}", file=sys.stderr)
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
