"""Scenario format tests: parsing, validation, building, rendering."""

from pathlib import Path

import pytest

from symdel.boolfun import Engine
from symdel.errors import NotExecutable, ParseError
from symdel.language import TOP, parse
from symdel.scenario import (
    EventSpec,
    build_action,
    build_event,
    build_scene,
    format_action_block,
    format_event_block,
    load_scenario,
    parse_scenario,
    run_events,
)
from symdel.symbolic import Event, apply_event, scene_eval

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FULL = """\
# a structure, one event, two checks, one action
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
"""


def test_parse_full_scenario():
    scenario = parse_scenario(FULL)
    assert scenario.agents == ["a", "b"]
    assert scenario.vars == ["p", "q"]
    assert scenario.law == parse("p | q")
    assert scenario.obs == {"a": parse("p <-> p'")}
    assert scenario.state == ["p"]

    assert len(scenario.events) == 1
    spec = scenario.events[0]
    assert spec.add == ["x"]
    assert spec.pre == parse("[a] p")
    assert spec.changes == [("p", parse("x & p"))]
    assert spec.obs == {"a": parse("x <-> x'")}
    assert spec.assign == ["x"]

    assert len(scenario.checks) == 2
    first, second = scenario.checks
    assert (first.after, first.expect) == (1, True)
    assert first.formula == parse("[a] p")
    assert (second.after, second.expect) == (None, None)
    assert second.formula == parse("~q")

    action = scenario.action
    assert action is not None
    assert action.events == ["e0", "e1"]
    assert action.pre == {"e1": parse("p")}
    assert action.post == {"e1": [("p", parse("~p"))]}
    assert action.rel == {"a": [("e0", "e0"), ("e1", "e1")]}
    assert action.designated == "e1"


def test_parse_defaults():
    scenario = parse_scenario("AGENTS a\nVARS p\n")
    assert scenario.law == TOP
    assert scenario.obs == {}
    assert scenario.state == []
    assert scenario.events == []
    assert scenario.checks == []
    assert scenario.action is None

    scene = build_scene(scenario, Engine())
    assert scene.structure.law.is_true
    assert scene.structure.observations["a"].is_true
    assert scene.state == frozenset()


def test_comments_and_blank_lines_are_ignored():
    text = "\n# leading\nAGENTS a  # trailing\n\nVARS p # another\n   \n"
    scenario = parse_scenario(text)
    assert scenario.agents == ["a"]
    assert scenario.vars == ["p"]


@pytest.mark.parametrize(
    "char", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_cr_lf_and_crlf_end_a_line(char):
    # the other characters that str.splitlines breaks at stay in their
    # line: in a comment they are comment text, elsewhere whitespace
    text = f"AGENTS a # note{char}more\r\nVARS p q\rLAW p &{char}q\nCHECK{char}p\r\n"
    scenario = parse_scenario(text)
    assert scenario.agents == ["a"]
    assert scenario.law == parse("p & q")
    assert [(c.line, c.formula) for c in scenario.checks] == [(4, parse("p"))]
    assert _error(text + f"STATE p{char}z") == "line 5: STATE uses undeclared variable: z"


def test_check_line_variants():
    scenario = parse_scenario(
        "AGENTS a\nVARS p q\n"
        "CHECK p\n"
        "CHECK after 0 p & q\n"
        "CHECK p EXPECT false\n"
        "CHECK after 2 [a] p EXPECT true\n"
        "EVENT\nEVENT\n"
    )
    got = [(c.after, c.expect, c.formula) for c in scenario.checks]
    assert got == [
        (None, None, parse("p")),
        (0, None, parse("p & q")),
        (None, False, parse("p")),
        (2, True, parse("[a] p")),
    ]


def _error(text: str) -> str:
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    return str(err.value)


def test_parse_errors_carry_line_numbers():
    assert "line 3" in _error("AGENTS a\nVARS p\nBOGUS x")
    assert "line 2" in _error("AGENTS a\nAGENTS b")
    assert "line 3" in _error("VARS p\nLAW p\nLAW ~p")
    assert "line 2" in _error("AGENTS a\nOBS a p")
    assert "line 3" in _error("AGENTS a\nOBS a: p\nOBS a: ~p")
    assert "line 1" in _error("EVENT now")
    assert "line 1" in _error("ADDVARS x")
    assert "line 3" in _error("EVENT\nADDVARS x\nADDVARS y")
    assert "line 3" in _error("EVENT\nPRE p\nPRE q")
    assert "line 1" in _error("CHANGE p := q")
    assert "line 2" in _error("EVENT\nCHANGE p q")
    assert "line 3" in _error("EVENT\nCHANGE p := q\nCHANGE p := ~q")
    assert "line 2" in _error("EVENT\nOBS+ a q")
    assert "line 1" in _error("ASSIGN x")
    assert "line 2" in _error("ACTION\nEVENTS")
    assert "line 3" in _error("ACTION\nEVENTS e\nEVENTS f")
    assert "line 2" in _error("ACTION\nEVENTS e e")
    assert "line 1" in _error("EVENTS e")
    assert "line 2" in _error("ACTION\nPOST e: p")
    assert "line 4" in _error("ACTION\nEVENTS e\nPOST e: p := q\nPOST e: p := ~q")
    assert "line 2" in _error("ACTION\nREL a: e->")
    assert "line 3" in _error("ACTION\nREL a: e->e\nREL a: e->e")
    assert "line 3" in _error("ACTION\nDESIGNATED e\nDESIGNATED e")
    assert "line 2" in _error("ACTION\nDESIGNATED e f")
    assert "line 3" in _error("VARS p\nACTION\nACTION")
    assert "line 1" in _error("CHECK")
    assert "line 1" in _error("CHECK p &")
    assert "line 2" in _error("VARS p\nLAW p & ")
    assert "line 1" in _error("VARS p 1q")
    # a repeat is found by its keyword, not by the value it stored
    assert _error("EVENT\nPRE Top\nPRE ~p") == "line 3: PRE given twice"
    assert _error("EVENT\nADDVARS\nADDVARS x") == "line 3: ADDVARS given twice"
    assert _error("EVENT\nADDVARS x\nASSIGN x\nASSIGN") == "line 4: ASSIGN given twice"
    # variables carry no snapshot or prime decorations
    assert _error("VARS p@o") == "line 1: bad variable name: p@o"
    assert _error("VARS p'") == "line 1: bad variable name: p'"
    assert _error("EVENT\nADDVARS x°") == "line 2: bad event variable name: x°"
    assert _error("PRE p") == "line 1: PRE outside an EVENT or ACTION block"
    assert _error("REL a: e->e") == "line 1: REL outside an ACTION block"
    assert _error("POST e: p := q") == "line 1: POST outside an ACTION block"
    assert _error("DESIGNATED e") == "line 1: DESIGNATED outside an ACTION block"
    assert _error("OBS+ a: p") == "line 1: OBS+ outside an EVENT block"
    assert _error("EVENT\nREL a: e->e") == "line 2: REL outside an ACTION block"
    assert _error("ACTION\nCHANGE p := q") == "line 2: CHANGE outside an EVENT block"
    assert _error("ACTION\nASSIGN x") == "line 2: ASSIGN outside an EVENT block"


def test_validation_errors():
    assert "undeclared agent" in _error("VARS p\nOBS a: p")
    assert "undeclared variable" in _error("VARS p\nSTATE q")
    assert "undeclared agent" in _error("AGENTS a\nEVENT\nOBS+ b: Top")
    assert "undeclared event variable" in _error("EVENT\nADDVARS x\nASSIGN y")
    assert "undeclared event" in _error("ACTION\nEVENTS e\nPRE f: p")
    assert "undeclared event" in _error("ACTION\nEVENTS e\nPOST f: p := q")
    assert "undeclared agent" in _error("ACTION\nEVENTS e\nREL a: e->e")
    assert "undeclared event" in _error(
        "AGENTS a\nACTION\nEVENTS e\nREL a: e->f"
    )
    assert "undeclared event" in _error("ACTION\nEVENTS e\nDESIGNATED f")
    # checked when the file is parsed, so a blocked step 1 cannot hide it
    blocked = "AGENTS a\nVARS p\nLAW p\nSTATE p\nEVENT\nPRE ~p\nCHECK after 3 p\n"
    assert _error(blocked) == "line 7: check after 3 outside 0..1"
    # each error names the line of the keyword at fault, not its block's
    for text, error in (
        ("VARS p\nOBS a: p", "line 2: OBS for undeclared agent: a"),
        ("VARS p\nSTATE q", "line 2: STATE uses undeclared variable: q"),
        (
            "AGENTS a\nEVENT\nADDVARS x\nOBS+ a: x\nOBS+ b: Top",
            "line 5: OBS+ for undeclared agent: b",
        ),
        (
            "EVENT\nADDVARS x\nPRE Top\nASSIGN y",
            "line 4: ASSIGN of undeclared event variable: y",
        ),
        (
            "ACTION\nEVENTS e\nPOST e: p := q\nPOST e: q := ~q\nPOST f: p := q",
            "line 5: POST for undeclared event: f",
        ),
        ("ACTION\nEVENTS e\nPOST e: p := q\nPRE f: p", "line 4: PRE for undeclared event: f"),
        ("ACTION\nEVENTS e\nPRE e: p\nREL a: e->e", "line 4: REL for undeclared agent: a"),
        (
            "AGENTS a\nACTION\nEVENTS e\nREL a: e->f",
            "line 4: REL pair uses undeclared event: e->f",
        ),
        ("ACTION\nEVENTS e\nPRE e: p\nDESIGNATED f", "line 4: DESIGNATED undeclared event: f"),
    ):
        assert _error(text) == error, text


def test_load_scenario(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text("AGENTS a\nVARS p\nLAW p\nSTATE p\n", encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.vars == ["p"]


# -- building -------------------------------------------------------------------

def test_build_scene_and_apply_event():
    scenario = parse_scenario(FULL)
    engine = Engine()
    scene = build_scene(scenario, engine)
    assert [v.name for v in scene.structure.vocabulary] == ["p", "q"]
    assert scene.structure.agents == ("a", "b")
    # b has no OBS line and so learns nothing
    assert scene.structure.observations["b"].is_true
    assert scene_eval(scene, parse("[a] p"))

    event = build_event(scenario.events[0], scene.structure, engine)
    assert [v.name for v in event.transformer.add_vocab] == ["x"]
    assert [v.name for v in event.actual] == ["x"]
    after = apply_event(scene, event)
    assert scene_eval(after, parse("[a] p"))


def test_build_event_rejects_unknown_change_target():
    scenario = parse_scenario(
        "AGENTS a\nVARS p\nLAW p\nSTATE p\nEVENT\nCHANGE z := p\n"
    )
    engine = Engine()
    scene = build_scene(scenario, engine)
    with pytest.raises(ParseError) as err:
        build_event(scenario.events[0], scene.structure, engine)
    assert "outside the vocabulary" in str(err.value)
    assert str(err.value) == "line 6: CHANGE of a variable outside the vocabulary: z"


def _vocabulary(scene) -> list[str]:
    return [v.name for v in scene.structure.vocabulary]


def test_run_events_on_sally_anne():
    scenario = load_scenario(str(SCENARIOS / "sally_anne.scn"))

    def steps(minimize):
        return list(run_events(scenario, build_scene(scenario, Engine()), minimize))

    full, shrunk = steps(False), steps(True)
    assert len(full) == len(shrunk) == len(scenario.events) == 4
    assert all(isinstance(event, Event) for event, _ in full + shrunk)
    # q is an event variable and stays; the snapshots of p and t go
    assert [_vocabulary(scene) for _, scene in shrunk] == [
        ["p", "t"], ["p", "t"], ["p", "t", "q"], ["p", "t", "q"],
    ]
    assert _vocabulary(full[-1][1]) == ["p", "t", "t°", "p°", "q", "t°2", "p°2"]
    assert scene_eval(shrunk[-1][1], parse("[Sally] t"))
    assert scene_eval(full[-1][1], parse("[Sally] t"))


def test_run_events_keeps_the_vocabulary_and_event_variables():
    # the law fixes p, x and the snapshot of p; minimizing drops only the snapshot
    scenario = parse_scenario(
        "AGENTS a\nVARS p\nLAW p\nSTATE p\n"
        "EVENT\nADDVARS x\nPRE x\nCHANGE p := x\nASSIGN x\n"
    )
    [(_, full)] = run_events(scenario, build_scene(scenario, Engine()))
    [(_, shrunk)] = run_events(scenario, build_scene(scenario, Engine()), minimize=True)
    assert _vocabulary(full) == ["p", "x", "p°"]
    assert _vocabulary(shrunk) == ["p", "x"]


def test_run_events_stops_at_a_blocked_step():
    # after step 1 the marble is in the basket, so a step 2 that needs it
    # elsewhere is blocked; the generator raises only when it gets there
    scenario = load_scenario(str(SCENARIOS / "sally_anne.scn"))
    scenario.events.insert(1, EventSpec(line=0, pre=parse("~t")))
    steps = run_events(scenario, build_scene(scenario, Engine()))
    _, scene = next(steps)
    assert scene.state == {scene.structure.engine.variable(n) for n in ("p", "t")}
    with pytest.raises(NotExecutable):
        next(steps)


def test_build_action_defaults_and_designated():
    scenario = parse_scenario(
        "AGENTS a b\nVARS p\nACTION\nEVENTS e f\nREL a: e->f\nDESIGNATED e\n"
    )
    engine = Engine()
    action, designated = build_action(scenario.action, scenario, engine)
    assert designated == "e"
    assert action.pre == {"e": TOP, "f": TOP}
    # agents without a REL line get the empty relation
    assert action.relations == {
        "a": frozenset({("e", "f")}),
        "b": frozenset(),
    }

    # the parser rejects a stray name at the line of its PRE or POST, a
    # POST with a belief operator, and a block without DESIGNATED
    head = "AGENTS a\nVARS p\nACTION\nEVENTS e f\nPRE f: p\n"
    for body, error in (
        ("POST e: p := Top\nPOST f: z := p\n", "line 7: POST of a variable outside the vocabulary: z"),
        ("POST e: p := Top\nPOST f: p := y\n", "line 7: unbound atom: y"),
        ("PRE e: [b] p\nPOST f: p := p\n", "line 6: unknown agent: b"),
        ("POST f: p := [a] p\n", "line 6: postcondition p of 'f' is not belief-free"),
    ):
        assert _error(head + body + "DESIGNATED e\n") == error, body
    missing = "AGENTS a\nVARS p\nACTION\nEVENTS e\n"
    assert _error(missing) == "line 3: ACTION block without DESIGNATED"


# -- rendering ------------------------------------------------------------------

def test_format_event_id():
    from symdel.explicit import ActionModel

    events = (frozenset({"b", "a"}), frozenset(), "e1")
    action = ActionModel(
        events=events,
        relations={"a": {(e, e) for e in events}},
        pre={},
    )
    assert format_action_block(action, frozenset({"b", "a"})) == (
        "ACTION\n"
        "  EVENTS {a,b} {} e1\n"
        "  REL a: {a,b}->{a,b} {}->{} e1->e1\n"
        "  DESIGNATED {a,b}"
    )
    assert format_action_block(action, frozenset()).endswith("DESIGNATED {}")
    assert format_action_block(action, "e1").endswith("DESIGNATED e1")


def test_format_event_block_golden():
    from symdel.language import Atom
    from symdel.symbolic import Transformer

    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    transformer = Transformer(
        add_vocab=(q,),
        event_law=TOP,
        change_laws={p: Atom("q")},
        event_obs={
            "a": engine.true,
            "b": engine.atom(q).iff(engine.atom(engine.primed(q))),
        },
    )
    block = format_event_block(transformer, frozenset({q}))
    assert block == (
        "EVENT\n"
        "  ADDVARS q\n"
        "  CHANGE p := q\n"
        "  OBS+ b: q <-> q'\n"
        "  ASSIGN q"
    )


def test_format_action_block_golden():
    from symdel.explicit import ActionModel
    from symdel.language import BOT

    events = ("a1", "a2")
    action = ActionModel(
        events=events,
        relations={
            "a": {(e, f) for e in events for f in events},
            "b": {(e, e) for e in events},
        },
        pre={"a2": parse("p")},
        post={"a1": {"p": BOT}, "a2": {"p": TOP}},
    )
    block = format_action_block(action, "a2")
    assert block == (
        "ACTION\n"
        "  EVENTS a1 a2\n"
        "  PRE a2: p\n"
        "  POST a1: p := Bot\n"
        "  POST a2: p := Top\n"
        "  REL a: a1->a1 a1->a2 a2->a1 a2->a2\n"
        "  REL b: a1->a1 a2->a2\n"
        "  DESIGNATED a2"
    )


def test_event_block_round_trips_through_the_parser():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    from symdel.language import Atom
    from symdel.symbolic import Transformer

    transformer = Transformer(
        add_vocab=(q,),
        event_law=parse("[a] p"),
        change_laws={p: parse("q | p")},
        event_obs={
            "a": engine.atom(q).iff(engine.atom(engine.primed(q))),
            "b": engine.true,
        },
    )
    block = format_event_block(transformer, frozenset({q}))
    text = "AGENTS a b\nVARS p\nLAW p\nSTATE p\n" + block + "\n"
    scenario = parse_scenario(text)
    engine2 = Engine()
    scene = build_scene(scenario, engine2)
    rebuilt = build_event(scenario.events[0], scene.structure, engine2)
    assert [v.name for v in rebuilt.transformer.add_vocab] == ["q"]
    assert rebuilt.transformer.event_law == parse("[a] p")
    assert rebuilt.transformer.change_laws == {
        engine2.variable("p"): parse("q | p")
    }
    assert [v.name for v in rebuilt.actual] == ["q"]
    q2 = engine2.variable("q")
    assert rebuilt.transformer.event_obs["a"] == engine2.atom(q2).iff(
        engine2.atom(engine2.primed(q2))
    )
    assert rebuilt.transformer.event_obs["b"].is_true
