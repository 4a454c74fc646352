"""The benchmark's three workloads: input generators, operations and checks.

Every workload is built from a seed and hands symdel only the inputs it
generated.  An operation returns its raw output; `verify` compares that
output with answers the generator derived on its own (closed form), and
`final_checks` compares the program against the explicit pipeline or
against properties its answers must have.  Nothing here compares with a
stored copy of an earlier run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from symdel import (
    And,
    Atom,
    Bounds,
    Box,
    Engine,
    GlobalEvaluator,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    act,
    apply_event,
    build_event,
    build_scene,
    formula_family,
    generate_model_action,
    generate_scene_event,
    model_of_structure,
    parse,
    parse_scenario,
    product_update,
    run_suite,
    scene_eval,
    shrink_scene,
    structure_of_model,
    transform_with_copies,
    trf_with_labels,
)
from symdel import cli

# Timed sizes.  The current variable order makes factual_chain grow
# exponentially: 12 Sally-Anne rounds take about 10 s and 240 MB, and
# 16 rounds pass 4 GB, so these stay where one file takes 1-3 s.
SALLY_ROUNDS = 10
FLIPS = 11
BELIEF_VARS = 16
BELIEF_AGENTS = 4
# The explicit replays stay small: worlds double with every private event.
REPLAY_ROUNDS = 3
REPLAY_FLIPS = 6
SMALL_VARS = 8
SMALL_AGENTS = 4
# Seeds per batch: each batch takes 8-10 s.  Instance cost varies with the
# drawn sizes, so a round of one seed's batches costs a few percent more or
# less than another's; larger batches shrink that difference.
SUITE_COUNTS = {"event": 900, "action": 720, "roundtrip": 2400}


def diagram_nodes(functions) -> int:
    """Distinct decision-diagram nodes under the functions, terminals excluded."""
    seen = set()
    stack = [f.node for f in functions]
    while stack:
        node = stack.pop()
        if node.var is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.append(node.lo)
        stack.append(node.hi)
    return len(seen)


def structure_nodes(structure) -> int:
    """Nodes of the law and the observation functions, shared nodes once."""
    return diagram_nodes([structure.law, *structure.observations.values()])


def _pipeline_scenes(scenario, minimize: bool):
    """The scenes `symdel check` computes, through the library calls it makes."""
    engine = Engine()
    scene = build_scene(scenario, engine)
    keep = list(scene.structure.vocabulary)
    scenes = [scene]
    for spec in scenario.events:
        event = build_event(spec, scene.structure, engine)
        scene = apply_event(scene, event)
        keep.extend(event.transformer.add_vocab)
        if minimize:
            scene = shrink_scene(scene, keep)
        scenes.append(scene)
    return scenes


def _explicit_replay(scenario, events: int):
    """Pointed Kripke models after each of the first `events` events.

    The initial structure is expanded once; every event then goes through
    `act` and `product_update`, never through the symbolic update.
    """
    engine = Engine()
    scene = build_scene(scenario, engine)
    model = model_of_structure(scene.structure)
    point = frozenset(v.name for v in scene.state)
    pointed = [(model, point)]
    for spec in scenario.events[:events]:
        event = build_event(spec, scene.structure, engine)
        action, designated = act(event)
        model = product_update(model, action)
        point = (point, designated)
        if point not in model.valuation:
            raise AssertionError("explicit replay eliminated the actual world")
        pointed.append((model, point))
        scene = apply_event(scene, event)
    return pointed


# -- factual_chain -------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    after: int
    formula: str
    expect: bool


@dataclass(frozen=True)
class ChainInput:
    name: str
    text: str
    checks: tuple[Check, ...]
    replay_events: int


def sally_anne_chain(rounds: int) -> ChainInput:
    """The Sally-Anne story told `rounds` times in a row.

    Each round: the marble goes into the basket in public, Sally leaves,
    Anne privately moves it to the box (event variable q<r>, which Sally
    thinks is false), Sally returns.  After every round Sally believes
    the marble is in the basket, it is not, Anne knows that, and Anne
    knows Sally's false belief.
    """
    lines = [
        "AGENTS Sally Anne",
        "VARS p t",
        "LAW p & ~t",
        "OBS Sally: Top",
        "OBS Anne: Top",
        "STATE p",
    ]
    checks = []
    for r in range(1, rounds + 1):
        q = f"q{r}"
        lines += [
            "EVENT",
            "  CHANGE t := Top",
            "EVENT",
            "  CHANGE p := Bot",
            "EVENT",
            f"  ADDVARS {q}",
            f"  CHANGE t := (~{q} -> t) & ({q} -> Bot)",
            f"  OBS+ Sally: ~{q}'",
            f"  OBS+ Anne: {q} <-> {q}'",
            f"  ASSIGN {q}",
            "EVENT",
            "  CHANGE p := Top",
        ]
        after = 4 * r
        checks += [
            Check(after, "[Sally] t", True),
            Check(after, "~t", True),
            Check(after, "[Anne] ~t", True),
            Check(after, "[Anne] [Sally] t", True),
        ]
    return _chain_input("sally_anne", lines, checks, 4 * min(rounds, REPLAY_ROUNDS))


def coin_flips(flips: int, seed: int) -> ChainInput:
    """A coin flipped `flips` times; only agent b sees how it lands.

    The seed draws each landing.  After flip i, b believes heads exactly
    when it landed heads, a does not believe heads, and a believes that
    b knows which way it landed.
    """
    rng = random.Random(f"flips-{seed}")
    heads = [rng.random() < 0.5 for _ in range(flips)]
    lines = [
        "AGENTS a b",
        "VARS p",
        "LAW p",
        "OBS a: p <-> p'",
        "OBS b: p <-> p'",
        "STATE p",
    ]
    checks = []
    for i, landed in enumerate(heads, start=1):
        q = f"q{i}"
        lines += ["EVENT", f"  ADDVARS {q}", f"  CHANGE p := {q}", f"  OBS+ b: {q} <-> {q}'"]
        if landed:
            lines.append(f"  ASSIGN {q}")
        checks += [
            Check(i, "[b] p", landed),
            Check(i, "[a] p", False),
            Check(i, "[a] ([b] p | [b] ~p)", True),
        ]
    return _chain_input("coin_flips", lines, checks, min(flips, REPLAY_FLIPS))


def _chain_input(name, lines, checks, replay_events) -> ChainInput:
    lines.append("")
    for c in checks:
        lines.append(f"CHECK after {c.after} {c.formula} EXPECT {str(c.expect).lower()}")
    return ChainInput(name, "\n".join(lines) + "\n", tuple(checks), replay_events)


def verify_check_output(chain: ChainInput, code: int, output: str) -> str | None:
    """None when `symdel check --json` answered every CHECK as derived."""
    if code != 0:
        return f"{chain.name}: exit code {code}"
    try:
        payload = json.loads(output)
    except json.JSONDecodeError as error:
        return f"{chain.name}: output is not JSON: {error}"
    if payload.get("ok") is not True:
        return f"{chain.name}: ok is {payload.get('ok')!r}"
    answers = payload.get("checks", [])
    if len(answers) != len(chain.checks):
        return f"{chain.name}: {len(answers)} checks reported, {len(chain.checks)} asked"
    for want, got in zip(chain.checks, answers):
        if got.get("after") != want.after or got.get("value") is not want.expect:
            return (
                f"{chain.name}: after {want.after} {want.formula}: "
                f"got {got.get('value')!r}, derived {want.expect}"
            )
    return None


class FactualChain:
    """`symdel check --minimize --json` on the generated chain files."""

    name = "factual_chain"

    def __init__(self, seed: int, work_dir: Path, rounds=SALLY_ROUNDS, flips=FLIPS):
        self.inputs = [sally_anne_chain(rounds), coin_flips(flips, seed)]
        self.paths = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        for chain in self.inputs:
            path = work_dir / f"{chain.name}.scn"
            path.write_text(chain.text, encoding="utf-8")
            self.paths[chain.name] = str(path)
        self.last_output = {}

    def warm_up(self, work_dir: Path) -> None:
        small = FactualChain(0, work_dir / "warm", rounds=1, flips=2)
        for label, op in small.operations():
            small.verify(label, op())

    def operations(self):
        return [(chain.name, self._checker(chain)) for chain in self.inputs]

    def _checker(self, chain):
        argv = ["check", self.paths[chain.name], "--minimize", "--json"]

        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return op

    def verify(self, label, result) -> str | None:
        chain = next(c for c in self.inputs if c.name == label)
        failure = verify_check_output(chain, *result)
        if failure is None:
            self.last_output[label] = json.loads(result[1])
        return failure

    def final_checks(self) -> list[str]:
        """Replay a prefix of each file through the explicit pipeline."""
        problems = []
        for chain in self.inputs:
            scenario = parse_scenario(chain.text)
            pointed = _explicit_replay(scenario, chain.replay_events)
            reported = self.last_output.get(chain.name, {}).get("checks", [])
            for want, got in zip(chain.checks, reported):
                if want.after > chain.replay_events:
                    continue
                model, point = pointed[want.after]
                explicit = GlobalEvaluator(model).satisfies(point, parse(want.formula))
                if explicit is not want.expect or got.get("value") is not explicit:
                    problems.append(
                        f"{chain.name}: after {want.after} {want.formula}: explicit "
                        f"{explicit}, derived {want.expect}, symdel {got.get('value')}"
                    )
            if not reported:
                problems.append(f"{chain.name}: no verified output to compare")
        return problems

    def structure_nodes(self) -> int:
        return sum(
            structure_nodes(_pipeline_scenes(parse_scenario(c.text), True)[-1].structure)
            for c in self.inputs
        )


# -- belief_queries ------------------------------------------------------------


def _lit(var: str, positive: bool) -> str:
    return var if positive else f"~{var}"


@dataclass(frozen=True)
class BeliefInstance:
    text: str
    atoms: tuple[str, ...]
    agents: tuple[str, ...]
    final_state: frozenset[str]


def belief_instance(variables: int, agents: int, seed: int) -> BeliefInstance:
    """`variables` variables, `agents` agents, three events; every
    observation function stays S5.

    Agent k sees a window of consecutive variables (an equivalence
    relation).  The law conjoins two-literal clauses over disjoint pairs,
    with signs the seed draws, so its diagram shape does not depend on
    the seed.  Then:
    a public announcement of a clause true at the actual state; a
    semi-private announcement telling two agents whether a conjunction
    holds (the others know that they learn it); a factual change of one
    variable to a fresh coin that one agent sees.  Positions are fixed,
    signs, the actual state and the coin come from the seed.
    """
    rng = random.Random(f"beliefs-{variables}-{agents}-{seed}")
    vs = [f"v{i}" for i in range(1, variables + 1)]
    ags = [f"a{i}" for i in range(1, agents + 1)]
    sign = {v: rng.random() < 0.5 for v in vs}
    clauses = [(vs[j], vs[j + 1]) for j in range(0, variables - 1, 4)]
    while True:
        state = {v for v in vs if rng.random() < 0.5}
        if all((a in state) == sign[a] or (b in state) == sign[b] for a, b in clauses):
            break
    law = " & ".join(f"({_lit(a, sign[a])} | {_lit(b, sign[b])})" for a, b in clauses)
    width = -(-variables // agents) + 1
    lines = ["AGENTS " + " ".join(ags), "VARS " + " ".join(vs), f"LAW {law}"]
    for k, agent in enumerate(ags):
        start = k * variables // agents
        window = [vs[(start + j) % variables] for j in range(width)]
        lines.append(f"OBS {agent}: " + " & ".join(f"({v} <-> {v}')" for v in window))
    lines.append("STATE " + " ".join(v for v in vs if v in state))

    a, b = vs[2 % variables], vs[(variables // 2 + 2) % variables]
    lines += ["EVENT", f"  PRE {_lit(a, a in state)} | {_lit(b, sign[b])}"]

    c, d = vs[5 % variables], vs[(variables // 2 + 5) % variables]
    told = (c in state) == sign[c] and (d in state) != sign[d]
    lines += [
        "EVENT",
        "  ADDVARS x",
        f"  PRE x <-> ({_lit(c, sign[c])} & {_lit(d, not sign[d])})",
        f"  OBS+ {ags[0]}: x <-> x'",
        f"  OBS+ {ags[agents // 2]}: x <-> x'",
    ]
    if told:
        lines.append("  ASSIGN x")

    changed = vs[variables - 3]
    coin = rng.random() < 0.5
    lines += ["EVENT", "  ADDVARS y", f"  CHANGE {changed} := y", f"  OBS+ {ags[-1]}: y <-> y'"]
    if coin:
        lines.append("  ASSIGN y")
    final = (state - {changed}) | ({changed} if coin else set())
    return BeliefInstance("\n".join(lines) + "\n", tuple(vs), tuple(ags), frozenset(final))


def _boolean_value(phi, true_atoms) -> bool:
    """Truth of a belief-free formula, straight from the generator's state."""
    match phi:
        case Top():
            return True
        case Atom(name):
            return name in true_atoms
        case Not(body):
            return not _boolean_value(body, true_atoms)
        case And(parts):
            return all(_boolean_value(p, true_atoms) for p in parts)
        case Or(parts):
            return any(_boolean_value(p, true_atoms) for p in parts)
        case Iff(left, right):
            return _boolean_value(left, true_atoms) == _boolean_value(right, true_atoms)
    raise ValueError(f"not a battery leaf: {phi}")


def final_scene(instance: BeliefInstance):
    scenario = parse_scenario(instance.text)
    return _pipeline_scenes(scenario, False)[-1]


def evaluate_battery(instance: BeliefInstance, family) -> list[bool]:
    """One operation: a fresh engine, three events, every query by scene_eval."""
    scene = final_scene(instance)
    return [scene_eval(scene, phi) for phi in family]


def battery_problems(instance: BeliefInstance, family, values) -> list[str]:
    """What the answers must satisfy whatever the model: leaves read off the
    actual state, negation, and T, 4, 5 wherever the battery holds both sides."""
    if len(values) != len(family) or not all(isinstance(v, bool) for v in values):
        return [f"{len(values)} answers for {len(family)} queries"]
    value = dict(zip(family, values))
    problems = []
    for phi, v in value.items():
        match phi:
            case Box(agent, body):
                if v and not value[body]:
                    problems.append(f"T fails: {phi} true, body false")
                if (v and value.get(Box(agent, phi)) is False) or (
                    not v and value.get(Box(agent, Not(phi))) is False
                ):
                    problems.append(f"4 or 5 fails at {phi}")
            case Not(Box() as boxed):
                if v == value[boxed]:
                    problems.append(f"{phi} and its negation agree")
            case _:
                if v != _boolean_value(phi, instance.final_state):
                    problems.append(f"{phi} is {v} at the actual state")
    return problems


def s5_problems(instance: BeliefInstance, family) -> list[str]:
    """T, 4 and 5 at the actual state, for every agent and battery formula.

    All 3 x agents x battery implications go through one scene_eval call
    on their conjunction, so one translator serves them.  Only when that
    is false is each (agent, axiom) group evaluated alone, to name it.
    """
    scene = final_scene(instance)
    groups = {}
    for agent in instance.agents:
        boxed = [Box(agent, phi) for phi in family]
        groups[(agent, "T")] = [Implies(b, phi) for b, phi in zip(boxed, family)]
        groups[(agent, "4")] = [Implies(b, Box(agent, b)) for b in boxed]
        groups[(agent, "5")] = [Implies(Not(b), Box(agent, Not(b))) for b in boxed]
    everything = And(tuple(f for group in groups.values() for f in group))
    if scene_eval(scene, everything):
        return []
    return [
        f"S5 axiom {axiom} fails for {agent}"
        for (agent, axiom), group in groups.items()
        if not scene_eval(scene, And(tuple(group)))
    ]


def explicit_battery_problems(instance: BeliefInstance, family) -> list[str]:
    """Every query by scene_eval against the explicit product-update replay."""
    scenario = parse_scenario(instance.text)
    model, point = _explicit_replay(scenario, len(scenario.events))[-1]
    evaluator = GlobalEvaluator(model)
    symbolic = evaluate_battery(instance, family)
    return [
        f"{phi}: symbolic {s}, explicit {not s}"
        for phi, s in zip(family, symbolic)
        if evaluator.satisfies(point, phi) != s
    ]


class BeliefQueries:
    """The depth-2 battery over all agents at the actual state, one instance."""

    name = "belief_queries"

    def __init__(self, seed: int, work_dir: Path, variables=BELIEF_VARS, agents=BELIEF_AGENTS):
        self.seed = seed
        self.instance = belief_instance(variables, agents, seed)
        self.family = formula_family(self.instance.atoms, self.instance.agents, 2)

    def warm_up(self, work_dir: Path) -> None:
        small = BeliefQueries(self.seed, work_dir, variables=6, agents=3)
        for label, op in small.operations():
            small.verify(label, op())

    def operations(self):
        return [("battery", lambda: evaluate_battery(self.instance, self.family))]

    def verify(self, label, values) -> str | None:
        problems = battery_problems(self.instance, self.family, values)
        return "; ".join(problems[:3]) or None

    def final_checks(self) -> list[str]:
        small = belief_instance(SMALL_VARS, SMALL_AGENTS, self.seed)
        small_family = formula_family(small.atoms, small.agents, 2)
        return explicit_battery_problems(small, small_family)[:5] + s5_problems(
            self.instance, self.family
        )

    def structure_nodes(self) -> int:
        return structure_nodes(final_scene(self.instance).structure)


# -- prove_suite ---------------------------------------------------------------


def verify_suite(report, part: str, count: int) -> str | None:
    if report.checked != {part: count}:
        return f"{part}: checked {report.checked}, asked {count}"
    if report.failures:
        worst = report.minimal_failure()
        return f"{part}: counterexample at seed {worst.seed}: {worst.detail}"
    return None


class ProveSuite:
    """`run_suite` at the default Bounds, one part and one batch per operation."""

    name = "prove_suite"

    def __init__(self, seed: int, work_dir: Path, counts=SUITE_COUNTS):
        self.first = seed * 1000
        self.counts = counts

    def warm_up(self, work_dir: Path) -> None:
        small = ProveSuite(0, work_dir, counts={part: 2 for part in self.counts})
        for label, op in small.operations():
            small.verify(label, op())

    def operations(self):
        return [(part, self._batch(part)) for part in self.counts]

    def _batch(self, part):
        return lambda: run_suite(
            seed=self.first, count=self.counts[part], depth=2, bounds=Bounds(), parts=(part,)
        )

    def verify(self, label, report) -> str | None:
        return verify_suite(report, label, self.counts[label])

    def final_checks(self) -> list[str]:
        return []

    def structure_nodes(self) -> int:
        """Updated structures of the event and action parts, as the checks build them."""
        total = 0
        for seed in range(self.first, self.first + self.counts["event"]):
            scene, event = generate_scene_event(seed, Bounds())
            total += structure_nodes(
                transform_with_copies(scene.structure, event.transformer)[0]
            )
        for seed in range(self.first, self.first + self.counts["action"]):
            pointed, action, designated = generate_model_action(seed, Bounds())
            engine = Engine()
            structure, _ = structure_of_model(engine, pointed.model)
            transformer, _, _ = trf_with_labels(engine, action, designated)
            total += structure_nodes(transform_with_copies(structure, transformer)[0])
        return total


WORKLOADS = {w.name: w for w in (FactualChain, BeliefQueries, ProveSuite)}
