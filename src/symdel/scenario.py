"""Scenario files: a line-oriented format for structures, events, checks.

A file declares the agents, the vocabulary, the initial structure
(LAW, OBS lines, STATE), then any number of EVENT blocks applied in
order, CHECK queries, and optionally one ACTION block (an explicit
action model, used by the translate command).  `#` starts a comment;
blank lines separate nothing in particular.

    AGENTS a b
    VARS p q
    LAW p | q
    OBS a: p <-> p'
    STATE p

    EVENT
      ADDVARS x
      PRE [a] p
      CHANGE p := x & p
      OBS+ a: x <-> x'
      ASSIGN x

    CHECK after 1 [a] p EXPECT true
    CHECK ~q

    ACTION
      EVENTS e0 e1
      PRE e1: p
      POST e1: p := ~p
      REL a: e0->e0 e1->e1
      DESIGNATED e1

Omitted LAW and PRE default to Top, omitted OBS and OBS+ to Top (the
agent learns nothing), omitted REL to the empty relation, omitted
STATE and ASSIGN to the empty set.  CHECK without `after` runs after
the last event; N in `CHECK after N` must be at most the number of
EVENT blocks.  EXPECT turns the query into a pass/fail assertion.
The parser checks the ACTION block whole (DESIGNATED given, POST
targets in VARS, postconditions belief-free, names declared), so every
command rejects a malformed one.

Each keyword other than EVENT and CHECK may appear once per block (the
top level counts as one), except that CHANGE, OBS, OBS+, REL,
`PRE e:` and `POST e: v` may appear once per variable, agent or event
they name.  Names in VARS, STATE, ADDVARS and ASSIGN are plain
identifiers, with no `°`, `@o` or `'`; elsewhere `p@o` is `p°`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .boolfun import Engine
from .errors import ParseError, SymdelError
from .explicit import ActionModel, format_point
from .language import (
    IDENT,
    TOP,
    Formula,
    agents_of,
    atoms_of,
    compile_formula,
    format_formula,
    is_boolean,
    parse,
    read_ident,
    recover_formula,
)
from .symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    apply_event,
)

# the names VARS, STATE, ADDVARS and ASSIGN declare: no decorations
_VAR = r"[A-Za-z_][A-Za-z0-9_]*"
_EVENT_ID = r"[^\s:]+"

_CHECK_RE = re.compile(
    r"^CHECK\s+(?:after\s+(\d+)\s+)?(.*?)(?:\s+EXPECT\s+(true|false))?$"
)

# The block each block keyword belongs in; every other keyword ends
# the open block.
_BLOCKS = {
    "ADDVARS": ("EVENT",),
    "CHANGE": ("EVENT",),
    "OBS+": ("EVENT",),
    "ASSIGN": ("EVENT",),
    "EVENTS": ("ACTION",),
    "POST": ("ACTION",),
    "REL": ("ACTION",),
    "DESIGNATED": ("ACTION",),
    "PRE": ("EVENT", "ACTION"),
}
_TOP_LEVEL = ("AGENTS", "VARS", "LAW", "OBS", "STATE", "EVENT", "CHECK", "ACTION")

# Keywords whose text names what they are given for, by keyword and the
# block they are in: the pattern of that text and its form for errors.
# The last group is the body; the others key the keyword's repeats.
_NAMED = re.compile(rf"({IDENT})\s*:\s*(.*)")
_KEYED = {
    ("OBS", None): (_NAMED, "<agent>: <formula>"),
    ("OBS+", "EVENT"): (_NAMED, "<agent>: <formula>"),
    ("REL", "ACTION"): (_NAMED, "<agent>: <id>-><id> ..."),
    ("CHANGE", "EVENT"): (re.compile(rf"({IDENT})\s*:=\s*(.*)"), "<var> := <formula>"),
    ("PRE", "ACTION"): (re.compile(rf"({_EVENT_ID})\s*:\s*(.*)"), "<event>: <formula>"),
    ("POST", "ACTION"): (
        re.compile(rf"({_EVENT_ID})\s*:\s*({IDENT})\s*:=\s*(.*)"),
        "<event>: <var> := <formula>",
    ),
}


# Each spec's `lines` maps every (keyword, key) pair given in it, keyed
# as the repeat check keys them, to its line, so that errors found after
# parsing can name the line at fault.
@dataclass
class EventSpec:
    line: int
    add: list[str] = field(default_factory=list)
    pre: Formula = TOP
    changes: list[tuple[str, Formula]] = field(default_factory=list)
    obs: dict[str, Formula] = field(default_factory=dict)
    assign: list[str] = field(default_factory=list)
    lines: dict[tuple, int] = field(default_factory=dict)


@dataclass
class ActionSpec:
    line: int
    events: list[str] = field(default_factory=list)
    pre: dict[str, Formula] = field(default_factory=dict)
    post: dict[str, list[tuple[str, Formula]]] = field(default_factory=dict)
    rel: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    designated: str | None = None
    lines: dict[tuple, int] = field(default_factory=dict)


@dataclass
class CheckSpec:
    line: int
    after: int | None
    formula: Formula
    expect: bool | None


@dataclass
class Scenario:
    agents: list[str] = field(default_factory=list)
    vars: list[str] = field(default_factory=list)
    law: Formula = TOP
    obs: dict[str, Formula] = field(default_factory=dict)
    state: list[str] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)
    checks: list[CheckSpec] = field(default_factory=list)
    action: ActionSpec | None = None
    lines: dict[tuple, int] = field(default_factory=dict)


def _names(rest: str, what: str, line: int, pattern: str = _VAR) -> list[str]:
    names = rest.split()
    for name in names:
        if not re.fullmatch(pattern, name):
            raise ParseError(f"bad {what} name: {name}", line=line)
    names = [read_ident(name) for name in names]
    if len(set(names)) != len(names):
        raise ParseError(f"repeated {what} name", line=line)
    return names


def _formula(text: str, line: int) -> Formula:
    if not text.strip():
        raise ParseError("missing formula", line=line)
    return parse(text, line=line)


def parse_scenario(text: str) -> Scenario:
    """Parse the scenario text; raises ParseError with a line number."""
    scenario = Scenario()
    block: EventSpec | ActionSpec | None = None
    kind = None  # "EVENT" or "ACTION" while a block is open
    given = scenario.lines  # (keyword, key) -> line, for the open block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        rest = line[len(word):].strip()

        if word in _TOP_LEVEL:
            block, kind, given = None, None, scenario.lines
        elif word not in _BLOCKS:
            raise ParseError(f"unknown keyword: {word}", line=lineno)
        elif kind not in _BLOCKS[word]:
            where = " or ".join(_BLOCKS[word])
            raise ParseError(f"{word} outside an {where} block", line=lineno)

        key: tuple = ()
        keyed = _KEYED.get((word, kind))
        if keyed is not None:
            pattern, form = keyed
            m = pattern.fullmatch(rest)
            if not m:
                raise ParseError(f"expected {word} {form}", line=lineno)
            *names, rest = m.groups()
            # PRE and POST name an event first, whose identifier stays as written
            kept = 1 if word in ("PRE", "POST") else 0
            key = (*names[:kept], *map(read_ident, names[kept:]))
        elif word in ("EVENT", "ACTION") and rest:
            raise ParseError(f"unexpected text after {word}", line=lineno)

        if word not in ("EVENT", "CHECK"):
            if (word, key) in given:
                if word == "ACTION":
                    raise ParseError("a second ACTION block", line=lineno)
                # POST's key is (event, variable): "for p of e"
                whom = f" for {' of '.join(reversed(key))}" if key else ""
                raise ParseError(f"{word} given twice{whom}", line=lineno)
            given[word, key] = lineno

        if word == "AGENTS":
            scenario.agents = _names(rest, "agent", lineno, IDENT)
        elif word == "VARS":
            scenario.vars = _names(rest, "variable", lineno)
        elif word == "LAW":
            scenario.law = _formula(rest, lineno)
        elif word == "OBS":
            scenario.obs[key[0]] = _formula(rest, lineno)
        elif word == "STATE":
            scenario.state = _names(rest, "variable", lineno)
        elif word == "EVENT":
            block = EventSpec(line=lineno)
            kind, given = word, block.lines
            scenario.events.append(block)
        elif word == "ACTION":
            block = ActionSpec(line=lineno)
            kind, given = word, block.lines
            scenario.action = block
        elif word == "CHECK":
            m = _CHECK_RE.match(line)
            body = m.group(2) if m else ""
            if not m or not body.strip():
                raise ParseError(
                    "expected CHECK [after N] <formula> [EXPECT true|false]",
                    line=lineno,
                )
            after = int(m.group(1)) if m.group(1) else None
            expect = None if m.group(3) is None else m.group(3) == "true"
            scenario.checks.append(
                CheckSpec(lineno, after, _formula(body, lineno), expect)
            )
        elif word == "ADDVARS":
            block.add = _names(rest, "event variable", lineno)
        elif word == "PRE" and kind == "EVENT":
            block.pre = _formula(rest, lineno)
        elif word == "PRE":
            block.pre[key[0]] = _formula(rest, lineno)
        elif word == "CHANGE":
            block.changes.append((key[0], _formula(rest, lineno)))
        elif word == "OBS+":
            block.obs[key[0]] = _formula(rest, lineno)
        elif word == "ASSIGN":
            block.assign = _names(rest, "event variable", lineno)
        elif word == "EVENTS":
            block.events = rest.split()
            if not block.events:
                raise ParseError("EVENTS needs at least one event", line=lineno)
            if len(set(block.events)) != len(block.events):
                raise ParseError("repeated event identifier", line=lineno)
        elif word == "POST":
            eid, name = key
            block.post.setdefault(eid, []).append((name, _formula(rest, lineno)))
        elif word == "REL":
            pairs = []
            for chunk in rest.split():
                halves = chunk.split("->")
                if len(halves) != 2 or not halves[0] or not halves[1]:
                    raise ParseError(f"bad relation pair: {chunk}", line=lineno)
                pairs.append((halves[0], halves[1]))
            block.rel[key[0]] = pairs
        else:  # DESIGNATED
            parts = rest.split()
            if len(parts) != 1:
                raise ParseError("DESIGNATED takes one event", line=lineno)
            block.designated = parts[0]

    _validate(scenario)
    return scenario


def _line(lines: dict, fallback: int | None, word: str, *key: str) -> int | None:
    """The first line that gives `word` with a key starting with `key`,
    else `fallback`."""
    return next(
        (at for (w, k), at in lines.items() if w == word and k[: len(key)] == key),
        fallback,
    )


@contextmanager
def at_line(line: int | None):
    """Report a SymdelError raised inside as a ParseError at `line`."""
    try:
        yield
    except SymdelError as error:
        raise ParseError(str(error), line=line) from error


def _check_names(formulas, lines: dict, fallback: int, atoms, agents) -> None:
    """Raise a ParseError for the first formula that names an atom outside
    `atoms` or an agent outside `agents`, at the line that gives it;
    `formulas` pairs each formula with its keyword and key in `lines`."""
    for given, phi in formulas:
        for what, stray in (
            ("unbound atom", atoms_of(phi) - atoms),
            ("unknown agent", agents_of(phi) - agents),
        ):
            if stray:
                raise ParseError(
                    f"{what}: {', '.join(sorted(stray))}",
                    line=_line(lines, fallback, *given),
                )


def _validate(scenario: Scenario) -> None:
    agents = set(scenario.agents)
    declared = set(scenario.vars)
    for agent in scenario.obs:
        if agent not in agents:
            raise ParseError(
                f"OBS for undeclared agent: {agent}",
                line=_line(scenario.lines, None, "OBS", agent),
            )
    stray = set(scenario.state) - declared
    if stray:
        raise ParseError(
            f"STATE uses undeclared variable: {sorted(stray)[0]}",
            line=_line(scenario.lines, None, "STATE"),
        )
    for spec in scenario.events:
        for agent in spec.obs:
            if agent not in agents:
                raise ParseError(
                    f"OBS+ for undeclared agent: {agent}",
                    line=_line(spec.lines, spec.line, "OBS+", agent),
                )
        assigned = set(spec.assign) - set(spec.add)
        if assigned:
            raise ParseError(
                f"ASSIGN of undeclared event variable: {sorted(assigned)[0]}",
                line=_line(spec.lines, spec.line, "ASSIGN"),
            )
    steps = len(scenario.events)
    for check in scenario.checks:
        if check.after is not None and check.after > steps:
            raise ParseError(
                f"check after {check.after} outside 0..{steps}", line=check.line
            )
    action = scenario.action
    if action is not None:
        ids = set(action.events)
        for what, keys in (("PRE", action.pre), ("POST", action.post)):
            for eid in keys:
                if eid not in ids:
                    raise ParseError(
                        f"{what} for undeclared event: {eid}",
                        line=_line(action.lines, action.line, what, eid),
                    )
        for agent, pairs in action.rel.items():
            line = _line(action.lines, action.line, "REL", agent)
            if agent not in agents:
                raise ParseError(f"REL for undeclared agent: {agent}", line=line)
            for a, b in pairs:
                if a not in ids or b not in ids:
                    raise ParseError(
                        f"REL pair uses undeclared event: {a}->{b}", line=line
                    )
        if action.designated is not None and action.designated not in ids:
            raise ParseError(
                f"DESIGNATED undeclared event: {action.designated}",
                line=_line(action.lines, action.line, "DESIGNATED"),
            )
        # each formula with the keyword and key that give it
        formulas = [(("PRE", eid), phi) for eid, phi in action.pre.items()]
        for eid, entries in action.post.items():
            for name, phi in entries:
                if name not in declared:
                    fault = f"POST of a variable outside the vocabulary: {name}"
                elif not is_boolean(phi):
                    fault = f"postcondition {name} of {eid!r} is not belief-free"
                else:
                    formulas.append((("POST", eid, name), phi))
                    continue
                raise ParseError(
                    fault, line=_line(action.lines, action.line, "POST", eid, name)
                )
        _check_names(formulas, action.lines, action.line, declared, agents)
        if action.designated is None:
            raise ParseError("ACTION block without DESIGNATED", line=action.line)


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; text that is not UTF-8 is a ParseError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(f"not UTF-8: {error.reason} at byte {error.start}") from error
    return parse_scenario(text)


# -- building ------------------------------------------------------------------

def build_scene(scenario: Scenario, engine: Engine) -> Scene:
    """The initial scene of the scenario, in the given engine."""
    vocab = tuple(engine.variable(name) for name in scenario.vars)
    env = {v.name: v for v in vocab}
    with at_line(scenario.lines.get(("LAW", ()))):
        law = compile_formula(scenario.law, env, engine)
    full_env = dict(env)
    full_env.update({engine.primed(v).name: engine.primed(v) for v in vocab})
    observations = {}
    for agent in scenario.agents:
        phi = scenario.obs.get(agent, TOP)
        with at_line(scenario.lines.get(("OBS", (agent,)))):
            observations[agent] = compile_formula(phi, full_env, engine)
    structure = BeliefStructure(engine, vocab, law, observations)
    state = frozenset(env[name] for name in scenario.state)
    # a state that violates the law is at fault on STATE, or on LAW
    # when STATE is omitted
    lines = scenario.lines
    with at_line(lines.get(("STATE", ()), lines.get(("LAW", ())))):
        return Scene(structure, state)


def build_event(
    spec: EventSpec, structure: BeliefStructure, engine: Engine
) -> Event:
    """Build the event of one EVENT block against the current structure.

    An atom or agent that the structure and the event variables do not
    declare is a ParseError at its line, as are an event variable the
    structure already has, a CHANGE of a snapshot or one that is not
    belief-free, and an event variable under a belief operator in PRE,
    which `Transformer` rejects.
    """
    env = structure.env
    added = set(spec.add)
    reused = sorted(added.intersection(env))
    if reused:
        raise ParseError(
            f"event variables already in the vocabulary: {', '.join(reused)}",
            line=spec.lines["ADDVARS", ()],
        )
    add = tuple(engine.variable(name) for name in spec.add)
    obs_env = {v.name: v for v in add}
    obs_env.update({engine.primed(v).name: engine.primed(v) for v in add})
    event_obs = dict.fromkeys(structure.agents, engine.true)
    for agent, phi in spec.obs.items():
        with at_line(spec.lines["OBS+", (agent,)]):
            event_obs[agent] = compile_formula(phi, obs_env, engine)
    changes = {}
    for name, phi in spec.changes:
        var = env.get(name)
        if var is None:
            fault = f"CHANGE of a variable outside the vocabulary: {name}"
        elif var.copy:
            fault = f"CHANGE of a snapshot, which keeps an old value: {name}"
        elif not is_boolean(phi):
            fault = f"change law of {name} is not belief-free"
        else:
            changes[var] = phi
            continue
        raise ParseError(fault, line=spec.lines["CHANGE", (name,)])
    formulas = [(("PRE",), spec.pre)]
    formulas += [(("CHANGE", name), phi) for name, phi in spec.changes]
    _check_names(formulas, spec.lines, spec.line, set(env) | added, set(structure.agents))
    with at_line(_line(spec.lines, spec.line, "PRE")):
        transformer = Transformer(add, spec.pre, changes, event_obs)
    actual = frozenset(engine.variable(name) for name in spec.assign)
    return Event(transformer, actual)


def run_events(
    scenario: Scenario, scene: Scene, minimize: bool = False
) -> Iterator[tuple[Event, Scene]]:
    """Apply the scenario's events to `scene` in order, yielding each
    event with the scene after it.

    With `minimize`, each event is one minimized `apply_event`: every
    scene keeps its plain variables (the starting vocabulary and the
    event variables issued so far), so only snapshots go, and the update
    makes no snapshot whose value the law fixes before the event.  An
    event that fails raises when its step is reached.
    """
    engine = scene.structure.engine
    for spec in scenario.events:
        event = build_event(spec, scene.structure, engine)
        scene = apply_event(scene, event, minimize)
        yield event, scene


def build_action(
    spec: ActionSpec, scenario: Scenario, engine: Engine
) -> tuple[ActionModel, str]:
    """Build the ACTION block's action model and its designated event.

    `parse_scenario` has checked the block, so this only builds.
    """
    for name in scenario.vars:
        engine.variable(name)
    relations = {
        agent: frozenset(spec.rel.get(agent, ())) for agent in scenario.agents
    }
    post = {eid: dict(entries) for eid, entries in spec.post.items()}
    action = ActionModel(tuple(spec.events), relations, dict(spec.pre), post)
    return action, spec.designated


# -- writing -------------------------------------------------------------------

def format_event_block(transformer: Transformer, actual) -> str:
    """Render a transformer with its actual event as an EVENT block."""
    lines = ["EVENT"]
    if transformer.add_vocab:
        names = " ".join(v.name for v in transformer.add_vocab)
        lines.append(f"  ADDVARS {names}")
    if transformer.event_law != TOP:
        lines.append(f"  PRE {format_formula(transformer.event_law)}")
    for v, phi in transformer.change_laws.items():
        lines.append(f"  CHANGE {v.name} := {format_formula(phi)}")
    for agent, obs in transformer.event_obs.items():
        if not obs.is_true:
            lines.append(f"  OBS+ {agent}: {format_formula(recover_formula(obs))}")
    if actual:
        names = " ".join(sorted(v.name for v in actual))
        lines.append(f"  ASSIGN {names}")
    return "\n".join(lines)


def format_action_block(action: ActionModel, designated) -> str:
    """Render an action model with its designated event as an ACTION block."""
    ids = {a: format_point(a) for a in action.events}
    lines = ["ACTION"]
    lines.append("  EVENTS " + " ".join(ids[a] for a in action.events))
    for a in action.events:
        pre = action.pre[a]
        if pre != TOP:
            lines.append(f"  PRE {ids[a]}: {format_formula(pre)}")
    for a in action.events:
        for prop, phi in action.post.get(a, {}).items():
            lines.append(f"  POST {ids[a]}: {prop} := {format_formula(phi)}")
    index = {a: k for k, a in enumerate(action.events)}
    for agent, rel in action.relations.items():
        pairs = sorted(rel, key=lambda ab: (index[ab[0]], index[ab[1]]))
        body = " ".join(f"{ids[a]}->{ids[b]}" for a, b in pairs)
        lines.append(f"  REL {agent}: {body}".rstrip())
    lines.append(f"  DESIGNATED {ids[designated]}")
    return "\n".join(lines)
