"""Diagram sizes of repeated factual change.

Each event snapshots the variables it changes.  With snapshots placed
after the event variables declared before them, the state law grows
linearly in the number of events; these bounds fail if it grows
exponentially again (a stem-grouped order gives 3·2^k - 1 nodes after
k coin flips).  The printed laws and observations must grow linearly
too.  Most runs apply every event without minimizing; the minimized
runs bound the nodes that shrinking and a belief query build.
"""

import pytest

from symdel.boolfun import Engine
from symdel.language import format_formula, parse, recover_formula
from symdel.scenario import build_scene, parse_scenario, run_events
from symdel.symbolic import scene_eval, shrink, shrink_scene


def coin_flips(flips: int) -> str:
    """A coin flipped `flips` times; only b sees each landing."""
    lines = ["AGENTS a b", "VARS p", "LAW p", "OBS a: p <-> p'", "OBS b: p <-> p'"]
    lines.append("STATE p")
    for i in range(1, flips + 1):
        q = f"q{i}"
        lines += ["EVENT", f"  ADDVARS {q}", f"  CHANGE p := {q}", f"  OBS+ b: {q} <-> {q}'"]
        if i % 2:
            lines.append(f"  ASSIGN {q}")
    return "\n".join(lines) + "\n"


def sally_anne(rounds: int) -> str:
    """The Sally-Anne story told `rounds` times in a row."""
    lines = ["AGENTS Sally Anne", "VARS p t", "LAW p & ~t", "OBS Sally: Top", "OBS Anne: Top"]
    lines.append("STATE p")
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
    return "\n".join(lines) + "\n"


def final_scene(text: str, minimize: bool = False):
    """The last scene, shrunk after each event if asked, as `check` computes it."""
    scenario = parse_scenario(text)
    scene = build_scene(scenario, Engine())
    for _, scene in run_events(scenario, scene, minimize):
        pass
    return scene


def final_structure(text: str):
    return final_scene(text).structure


def final_law_nodes(text: str) -> int:
    return final_structure(text).law.node_count()


def printed_length(fn) -> int:
    return len(format_formula(recover_formula(fn)))


@pytest.mark.parametrize("flips", [8, 16, 60])
def test_coin_flip_law_grows_linearly(flips):
    assert final_law_nodes(coin_flips(flips)) <= 12 * flips


def test_if_then_else_builds_no_intermediate_diagrams():
    # Every node the engine ever made stays in its unique table.  An
    # if-then-else composed of and/or/not calls leaves about 75,000 there
    # after 60 flips; one recursion leaves 37,605.  Engine.stats()
    # (ROADMAP item 3) is to replace this read of a private table.
    engine = final_structure(coin_flips(60)).engine
    assert len(engine._unique) <= 45_000


def test_minimized_chain_builds_few_nodes():
    # Deciding each variable by two entailments leaves 255,319 nodes in
    # the unique table after 40 shrunk flips, and quantifying one primed
    # variable per pass makes the query add 31,592; reading the fixed
    # variables off the law's factors and quantifying the primed set in
    # one recursion leave 16,365 and add 1,400.
    scene = final_scene(coin_flips(40), minimize=True)
    engine = scene.structure.engine
    built = len(engine._unique)
    assert built <= 40_000
    assert scene_eval(scene, parse("[a] ([b] p | [b] ~p)"))
    assert len(engine._unique) - built <= 5_000


def test_minimized_sally_anne_makes_no_snapshot_it_drops():
    # Every Sally-Anne event changes a variable whose old value the law
    # fixes.  Snapshotting it and shrinking the snapshot away leaves
    # 28,166 nodes in the unique table after 40 minimized rounds; making
    # no such snapshot leaves 10,749.
    scene = final_scene(sally_anne(40), minimize=True)
    structure = scene.structure
    assert len(structure.engine._unique) <= 12_000
    # each update already dropped what shrinking drops, so shrinking
    # again builds nothing and returns its input
    plain = [v for v in structure.vocabulary if not v.copy]
    assert shrink(structure, plain) is structure
    assert shrink_scene(scene, plain) is scene


def test_sally_anne_chained_law_stays_small():
    assert final_law_nodes(sally_anne(16)) <= 256


@pytest.mark.parametrize("flips", [8, 16, 60])
def test_coin_flip_law_prints_linearly(flips):
    # the law and b's observation are conjunctions of small equivalences;
    # printed as the diagram's paths they grow as 2^flips
    structure = final_structure(coin_flips(flips))
    assert printed_length(structure.law) <= 20 * flips
    assert printed_length(structure.observations["b"]) <= 20 * flips


def test_sally_anne_chained_law_prints_short():
    assert printed_length(final_structure(sally_anne(16)).law) <= 768


def test_node_count_counts_distinct_inner_nodes():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    a, b = engine.atom(p), engine.atom(q)
    assert engine.true.node_count() == 0
    assert a.node_count() == 1
    assert (a & b).node_count() == 2
    assert a.iff(b).node_count() == 3
