"""Belief structure tests: translation, update, snapshots, minimization.

The two worked examples (a hidden coin flip and the false-belief story)
are traced step by step, asserting the exact boolean functions produced
by each update.  Equality of BoolFn values is identity in the engine,
so these assertions pin the semantics, not just the printed shape.
"""

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import (
    bf_truth,
    diagram_facts,
    epistemic_formulas,
    minimize_scene,
    random_boolean_formula,
    scene_eval_enum,
)
from test_node_counts import coin_flips, sally_anne
from symdel.boolfun import Engine
from symdel.bridge import Bounds, formula_family, generate_scene, generate_scene_event
from symdel.cli import format_scene
from symdel.errors import (
    CompileError,
    EvalError,
    NotDetermined,
    NotExecutable,
    VocabularyError,
)
from symdel.explicit import GlobalEvaluator, model_of_structure
from symdel.language import (
    TOP,
    And,
    Atom,
    Box,
    Or,
    agents_of,
    atoms_of,
    compile_formula,
    compile_with,
    format_formula,
    parse,
)
from symdel.scenario import (
    build_event,
    build_scene,
    format_event_block,
    parse_scenario,
    run_events,
)
from symdel import symbolic
from symdel.symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    Translator,
    apply_event,
    compile_event_law,
    minimize,
    scene_eval,
    shrink,
    shrink_scene,
    transform_with_copies,
)


def var_named(structure: BeliefStructure, name: str):
    return next(v for v in structure.vocabulary if v.name == name)


def coin_start(engine: Engine) -> Scene:
    """One coin, heads up, everyone sees it."""
    p = engine.variable("p")
    watch = engine.atom(p).iff(engine.atom(engine.primed(p)))
    structure = BeliefStructure(
        engine, (p,), engine.atom(p), {"a": watch, "b": watch}
    )
    return Scene(structure, frozenset({p}))


def coin_flip(engine: Engine) -> Event:
    """Toss the coin, hide the result from a, show it to b."""
    q = engine.variable("q")
    return Event(
        Transformer(
            add_vocab=(q,),
            event_law=TOP,
            change_laws={engine.variable("p"): Atom("q")},
            event_obs={
                "a": engine.true,
                "b": engine.atom(q).iff(engine.atom(engine.primed(q))),
            },
        ),
        frozenset({q}),
    )


# -- the coin flip, step by step ----------------------------------------------

def test_coin_flip_update_exact():
    engine = Engine()
    scene = coin_start(engine)
    event = coin_flip(engine)
    p, q = engine.variable("p"), engine.variable("q")

    after = apply_event(scene, event)
    new_structure = after.structure
    pc = var_named(new_structure, "p°")
    assert new_structure.vocabulary == (p, q, pc)

    fp = engine.atom(p)
    fq = engine.atom(q)
    fpc = engine.atom(pc)
    assert new_structure.law == fpc & fp.iff(fq)
    watch_copy = fpc.iff(engine.atom(engine.primed(pc)))
    assert new_structure.observations["a"] == watch_copy
    assert new_structure.observations["b"] == watch_copy & fq.iff(
        engine.atom(engine.primed(q))
    )
    assert after.state == frozenset({pc, q, p})

    small = minimize_scene(after, keep=(p, q))
    assert small.structure.vocabulary == (p, q)
    assert small.structure.law == fp.iff(fq)
    assert small.structure.observations["a"].is_true
    assert small.structure.observations["b"] == fq.iff(
        engine.atom(engine.primed(q))
    )
    assert small.state == frozenset({p, q})

    assert scene_eval(small, parse("p"))
    assert scene_eval(small, parse("[b] p"))
    assert not scene_eval(small, parse("[a] p"))
    assert not scene_eval(small, parse("[a] ~p"))
    assert scene_eval(small, parse("[a] ([b] p | [b] ~p)"))


def test_updated_state_components():
    # old unmodified values stay, modified ones move to their snapshots,
    # the event variables come in as they happened
    engine = Engine()
    scene = coin_start(engine)
    event = coin_flip(engine)
    p, q = engine.variable("p"), engine.variable("q")
    update = transform_with_copies(scene.structure, event.transformer)
    copies = update.copies

    tails = update.post_state(frozenset({p}), frozenset())
    assert tails == frozenset({copies[p]})
    heads = update.post_state(frozenset({p}), frozenset({q}))
    assert heads == frozenset({copies[p], q, p})


def test_update_object_agrees_with_apply_event():
    # the same instance is drawn twice, so both engines allocate the
    # same snapshot generations
    executable = 0
    for seed in range(100):
        scene, event = generate_scene_event(seed)
        update = transform_with_copies(scene.structure, event.transformer)
        assert update[0] is update.structure
        scene, event = generate_scene_event(seed)
        try:
            after = apply_event(scene, event)
        except NotExecutable:
            continue
        executable += 1
        assert update.post_state(scene.state, event.actual) == after.state
    assert executable >= 95


# -- a public change ----------------------------------------------------------

def test_public_change_schema():
    # p := phi seen by everyone: no event variables, trivial event law
    # and observations, one change law
    engine = Engine()
    u, r = engine.variable("u"), engine.variable("r")
    up, rp = engine.primed(u), engine.primed(r)
    fu, fr = engine.atom(u), engine.atom(r)
    obs = fu.iff(engine.atom(up)) & fr.iff(engine.atom(rp))
    structure = BeliefStructure(engine, (u, r), fu.iff(fr), {"a": obs})
    change = Transformer(
        add_vocab=(),
        event_law=TOP,
        change_laws={u: parse("~r")},
        event_obs={"a": engine.true},
    )
    after = apply_event(
        Scene(structure, frozenset({u, r})), Event(change, frozenset())
    )
    new_structure = after.structure
    uc = var_named(new_structure, "u°")
    fuc = engine.atom(uc)
    assert new_structure.law == fuc.iff(fr) & fu.iff(~fr)
    assert new_structure.observations["a"] == fuc.iff(
        engine.atom(engine.primed(uc))
    ) & fr.iff(engine.atom(rp))
    assert after.state == frozenset({r, uc})
    assert scene_eval(after, parse("[a] ~u"))


def test_pure_announcement_changes_nothing_factual():
    # no modified variables: the law just gains the translated event law
    # and each observation its event observation, with no renaming
    engine = Engine()
    p = engine.variable("p")
    fp = engine.atom(p)
    obs_b = fp.iff(engine.atom(engine.primed(p)))
    structure = BeliefStructure(
        engine, (p,), engine.true, {"a": engine.true, "b": obs_b}
    )
    announce = Transformer(
        add_vocab=(),
        event_law=parse("[b] p"),
        event_obs={"a": engine.true, "b": engine.true},
    )
    new_structure, copies, _ = transform_with_copies(structure, announce)
    assert copies == {}
    assert new_structure.vocabulary == (p,)
    assert new_structure.law == structure.law & structure.translator.fn(parse("[b] p"))
    # only b can truthfully learn p here, so the law collapses to p
    assert new_structure.law == fp
    assert new_structure.observations["a"] == structure.observations["a"]
    assert new_structure.observations["b"] == obs_b


# -- the false-belief story, step by step --------------------------------------

def test_false_belief_story_exact():
    engine = Engine()
    p, t = engine.variable("p"), engine.variable("t")
    fp, ft = engine.atom(p), engine.atom(t)
    both = {"Sally": engine.true, "Anne": engine.true}
    scene = Scene(
        BeliefStructure(engine, (p, t), fp & ~ft, dict(both)),
        frozenset({p}),
    )

    def step(scene, modified, change, add=(), law=TOP, obs=None, actual=()):
        transformer = Transformer(
            add_vocab=tuple(add),
            event_law=law,
            change_laws={modified: change},
            event_obs=dict(obs or both),
        )
        return apply_event(scene, Event(transformer, frozenset(actual)))

    # the marble goes into the basket
    one = step(scene, t, TOP)
    tc = var_named(one.structure, "t°")
    assert one.structure.vocabulary == (p, t, tc)
    assert one.structure.law == fp & ~engine.atom(tc) & ft
    assert one.state == frozenset({p, t})
    assert scene_eval(one, parse("[Sally] t & [Anne] t"))

    # Sally leaves the room
    two = step(one, p, parse("Bot"))
    pc = var_named(two.structure, "p°")
    assert two.structure.vocabulary == (p, t, tc, pc)
    assert two.structure.law == engine.atom(pc) & ~engine.atom(tc) & ft & ~fp
    assert two.state == frozenset({t, pc})
    two = minimize_scene(two, keep=(p, t))
    assert two.structure.vocabulary == (p, t)
    assert two.structure.law == ft & ~fp
    assert two.state == frozenset({t})

    # Anne moves the marble; Sally is out and sees nothing
    q = engine.variable("q")
    fq = engine.atom(q)
    sneak = {
        "Sally": ~engine.atom(engine.primed(q)),
        "Anne": fq.iff(engine.atom(engine.primed(q))),
    }
    three = step(
        two, t, parse("(~q -> t) & (q -> Bot)"),
        add=(q,), obs=sneak, actual=(q,),
    )
    tc2 = var_named(three.structure, "t°2")
    assert three.structure.vocabulary == (p, t, q, tc2)
    assert three.structure.law == engine.atom(tc2) & ~fp & ft.iff(~fq)
    assert three.state == frozenset({tc2, q})
    assert three.structure.observations["Sally"] == sneak["Sally"]
    assert three.structure.observations["Anne"] == sneak["Anne"]
    three = minimize_scene(three, keep=(p, t, q))
    assert three.structure.law == ~fp & ft.iff(~fq)
    assert three.state == frozenset({q})

    # Sally comes back; her return is plainly visible
    four = step(three, p, TOP)
    pc2 = var_named(four.structure, "p°2")
    assert four.structure.law == ~engine.atom(pc2) & ft.iff(~fq) & fp
    assert four.state == frozenset({q, p})
    four = minimize_scene(four, keep=(p, t, q))
    assert four.structure.law == ft.iff(~fq) & fp
    assert four.state == frozenset({p, q})
    assert four.structure.observations["Sally"] == sneak["Sally"]
    assert four.structure.observations["Anne"] == sneak["Anne"]

    # Sally looks in the basket, Anne knows better and knows Sally is wrong
    assert not scene_eval(four, parse("t"))
    assert scene_eval(four, parse("[Sally] t"))
    assert scene_eval(four, parse("[Anne] ~t"))
    assert scene_eval(four, parse("[Anne] [Sally] t"))

    # the belief operator unfolds to a quantified implication over the
    # primed vocabulary, which here is a tautology
    translator = Translator(four.structure)
    fn = translator.fn(parse("[Sally] t"))
    prime = {v: engine.primed(v) for v in four.structure.vocabulary}
    law_primed = engine.rename(four.structure.law, prime)
    manual = engine.forall(
        law_primed.implies(
            four.structure.observations["Sally"].implies(
                engine.atom(prime[t])
            )
        ),
        list(prime.values()),
    )
    assert fn == manual
    assert fn.is_true


# -- three routes to the same truth values ------------------------------------

_ROUTE_ENGINE = Engine()


def _route_structure():
    engine = _ROUTE_ENGINE
    p, q = engine.variable("p"), engine.variable("q")
    fp, fq = engine.atom(p), engine.atom(q)
    pp, qp = engine.atom(engine.primed(p)), engine.atom(engine.primed(q))
    return BeliefStructure(
        engine,
        (p, q),
        engine.true,
        {"a": fp.iff(pp), "b": fp.iff(pp) & fq.implies(qp)},
    )


@settings(max_examples=200, deadline=None)
@given(epistemic_formulas(("p", "q"), ("a", "b")))
def test_three_evaluation_routes_agree(formula):
    structure = _route_structure()
    model = model_of_structure(structure)
    evaluator = GlobalEvaluator(model)
    for state in structure.states():
        scene = Scene(structure, state)
        expected = scene_eval_enum(scene, formula)
        assert scene_eval(scene, formula) == expected
        world = frozenset(v.name for v in state)
        assert evaluator.satisfies(world, formula) == expected


def test_states_and_membership():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    structure = BeliefStructure(engine, (p, q), engine.true, {"a": engine.true})
    assert structure.states() == [
        frozenset(),
        frozenset({q}),
        frozenset({p}),
        frozenset({p, q}),
    ]
    law = engine.atom(p)
    tight = BeliefStructure(engine, (p, q), law, {"a": engine.true})
    assert tight.states() == [frozenset({p}), frozenset({p, q})]


# -- minimization -------------------------------------------------------------

def test_minimize_requires_determined_values():
    engine = Engine()
    scene = minimize_scene(
        apply_event(coin_start(engine), coin_flip(engine)),
        keep=(engine.variable("p"), engine.variable("q")),
    )
    with pytest.raises(NotDetermined):
        minimize(scene.structure, keep=(engine.variable("p"),))
    with pytest.raises(NotDetermined):
        minimize(scene.structure)


def test_shrink_drops_exactly_the_determined_variables():
    engine = Engine()
    after = apply_event(coin_start(engine), coin_flip(engine))
    p, q = engine.variable("p"), engine.variable("q")
    pc = var_named(after.structure, "p°")

    # p° is fixed to true, and p and q are not fixed
    reduced = shrink(after.structure)
    assert reduced.vocabulary == (p, q)
    assert reduced.law == engine.compose_many(after.structure.law, {pc: engine.true})
    direct = minimize(after.structure, keep=(p, q))
    assert reduced.law == direct.law
    assert reduced.observations == direct.observations

    small = shrink_scene(after)
    assert small.state == after.state & frozenset((p, q))

    # a variable fixed to false disappears from the state as well
    engine2 = Engine()
    u, w = engine2.variable("u"), engine2.variable("w")
    law = engine2.atom(u) & ~engine2.atom(w)
    structure = BeliefStructure(engine2, (u, w), law, {"a": engine2.true})
    assert minimize(structure, keep=(u,)).law == engine2.atom(u)
    reduced = minimize(structure, keep=())
    assert reduced.vocabulary == ()
    assert reduced.law.is_true


def test_shrink_decides_each_variable_once(monkeypatch):
    # one split of the law into factors decides every variable
    engine = Engine()
    after = apply_event(coin_start(engine), coin_flip(engine))
    splits = []
    factors = engine.factors

    def counting(f):
        splits.append(f)
        return factors(f)

    monkeypatch.setattr(engine, "factors", counting)
    assert shrink(after.structure).vocabulary == (engine.variable("p"), engine.variable("q"))
    assert splits == [after.structure.law]


def reference_shrink(structure, keep=()):
    """The per-variable shrink: up to two entailments per variable outside
    keep, and each fixed variable replaced by its value through
    compose_many, which shares no code with the relational product that
    shrink runs on."""
    engine = structure.engine
    keep_set = set(keep)
    law = structure.law
    observations = dict(structure.observations)
    for v in structure.vocabulary:
        if v in keep_set:
            continue
        fn = engine.atom(v)
        if engine.entails(structure.law, fn):
            value = True
        elif engine.entails(structure.law, ~fn):
            value = False
        else:
            keep_set.add(v)
            continue
        const = engine.true if value else engine.false
        law = engine.compose_many(law, {v: const})
        both = {v: const, engine.primed(v): const}
        observations = {
            agent: engine.compose_many(obs, both)
            for agent, obs in observations.items()
        }
    vocab = tuple(v for v in structure.vocabulary if v in keep_set)
    return BeliefStructure(engine, vocab, law, observations)


def assert_shrinks_as_reference(structure, keep):
    got, want = shrink(structure, keep), reference_shrink(structure, keep)
    assert got.vocabulary == want.vocabulary
    assert got.law == want.law
    assert got.observations == want.observations
    return len(structure.vocabulary) - len(got.vocabulary)


def test_shrink_matches_the_per_variable_reference_on_updates():
    rng = random.Random("shrink")
    dropped = 0
    for seed in range(300):
        scene, event = generate_scene_event(seed)
        structure = transform_with_copies(scene.structure, event.transformer).structure
        keep = [v for v in structure.vocabulary if rng.random() < 0.5]
        dropped += assert_shrinks_as_reference(structure, keep)
        dropped += assert_shrinks_as_reference(structure, ())
    assert dropped >= 300


@pytest.mark.parametrize("text", [coin_flips(12), sally_anne(4)], ids=["coin_flips", "sally_anne"])
def test_shrink_matches_the_per_variable_reference_on_chains(text):
    # every prefix, minimised after each event as `check --minimize` does
    scenario = parse_scenario(text)
    engine = Engine()
    scene = build_scene(scenario, engine)
    keep = list(scene.structure.vocabulary)
    dropped = 0
    for spec in scenario.events:
        event = build_event(spec, scene.structure, engine)
        scene = apply_event(scene, event)
        keep.extend(event.transformer.add_vocab)
        dropped += assert_shrinks_as_reference(scene.structure, keep)
        assert_shrinks_as_reference(scene.structure, ())
        scene = shrink_scene(scene, keep)
    assert dropped > 0


def test_shrink_of_a_false_law_drops_every_variable_outside_keep():
    engine = Engine()
    u, w = engine.variable("u"), engine.variable("w")
    obs = engine.atom(u).iff(engine.atom(engine.primed(w)))
    structure = BeliefStructure(engine, (u, w), engine.false, {"a": obs})
    for keep in [(), (u,), (w,), (u, w)]:
        assert_shrinks_as_reference(structure, keep)
    reduced = shrink(structure, (u,))
    assert reduced.vocabulary == (u,)
    assert reduced.law.is_false
    assert reduced.observations["a"] == engine.atom(u)


def test_shrink_matches_truth_tables():
    """shrink drops the variables outside keep that the law fixes; the
    law becomes exists over them, its split the old one without their
    literals, and the observation function takes their fixed values on
    both sides, all read off truth tables.  A false law fixes every
    variable, to true."""
    rng = random.Random("shrink-tables")
    engine = Engine()
    plain = [engine.variable(s) for s in "pqr"]
    both = [w for v in plain for w in (v, engine.primed(v))]
    env = {v.name: v for v in both}
    rows = [
        frozenset(v for j, v in enumerate(both) if k >> j & 1)
        for k in range(2 ** len(both))
    ]

    def table_of(fn):
        return {row: fn.holds(row) for row in rows}

    dropped = 0
    for _ in range(150):
        law = compile_formula(random_boolean_formula(rng, "pqr", 3), env, engine)
        for v in rng.sample(plain, rng.randint(0, 2)):
            law &= engine.atom(v) if rng.random() < 0.5 else ~engine.atom(v)
        obs = compile_formula(random_boolean_formula(rng, list(env), 3), env, engine)
        keep = rng.sample(plain, rng.randint(0, 2))
        reduced = shrink(BeliefStructure(engine, tuple(plain), law, {"a": obs}), keep)

        table = table_of(law)
        models = [row for row in rows if table[row]]
        value = {}  # the value the law fixes, for each variable it fixes
        for v in plain:
            if all(v in row for row in models):
                value[v] = True
            elif not any(v in row for row in models):
                value[v] = False
        drop = [v for v in plain if v in value and v not in keep]
        dropped += len(drop)
        assert reduced.vocabulary == tuple(v for v in plain if v not in drop)
        want = table
        for v in drop:
            want = {row: want[row - {v}] or want[row | {v}] for row in rows}
        assert table_of(reduced.law) == want
        if not law.is_false:
            assert engine.factors(reduced.law) == [
                g for g in engine.factors(law) if not g.support() <= set(drop)
            ]

        def fix(row):
            for v in drop:
                pair = {v, engine.primed(v)}
                row = row | pair if value[v] else row - pair
            return row

        obs_table = table_of(obs)
        assert table_of(reduced.observations["a"]) == {row: obs_table[fix(row)] for row in rows}
    assert dropped >= 150


def test_shrink_that_drops_nothing_keeps_the_law(monkeypatch):
    # the law is the function shrink was given, with no conjunction rebuilt
    engine = Engine()
    after = apply_event(coin_start(engine), coin_flip(engine))
    u, w = engine.variable("u"), engine.variable("w")
    loose = BeliefStructure(engine, (u, w), engine.atom(u) | engine.atom(w), {"a": engine.true})
    monkeypatch.setattr(engine, "conjoin_factors", None)
    for structure in (after.structure, loose):
        assert shrink(structure, structure.vocabulary).law is structure.law
        assert shrink(structure, structure.vocabulary) is structure
    assert shrink(loose).law is loose.law
    assert shrink_scene(after, after.structure.vocabulary) is after


# -- the minimized update against update-then-shrink ----------------------------

def plain_keep(scene, event):
    """What a minimized update keeps: the plain variables, old and new."""
    plain = [v for v in scene.structure.vocabulary if not v.copy]
    return plain + list(event.transformer.add_vocab)


def minimized_step(scene, event, fused):
    """The scene after the event, shrunk to its plain variables, printed:
    by one minimized update, or by a full update and then `shrink_scene`."""
    if fused:
        after = apply_event(scene, event, minimize=True)
    else:
        after = shrink_scene(apply_event(scene, event), plain_keep(scene, event))
    return after, format_scene(after, "after")


def both_minimized(make):
    """One minimized step, each way in its own fresh engine from make(),
    printed, or the message of the NotExecutable that each raised."""
    printed = []
    for fused in (True, False):
        scene, event = make()
        try:
            printed.append(minimized_step(scene, event, fused)[1])
        except NotExecutable as error:
            printed.append(f"NotExecutable: {error}")
    return printed


def fixes_a_modified_variable(scene, event):
    engine = scene.structure.engine
    literals = set(engine.factors(scene.structure.law))
    return any(
        {engine.atom(v), ~engine.atom(v)} & literals
        for v in event.transformer.change_laws
    )


@pytest.mark.parametrize("bounds", [Bounds(), Bounds(max_vocab=6, max_agents=3)], ids=str)
def test_minimized_update_matches_update_then_shrink(bounds):
    fixed = 0
    for seed in range(300):
        def make():
            return generate_scene_event(seed, bounds)

        fixed += fixes_a_modified_variable(*make())
        fused, shrunk = both_minimized(make)
        assert fused == shrunk, seed
    assert fixed >= 50


OLD_SNAPSHOT_FIXED = """\
AGENTS a
VARS p
OBS a: p <-> p'
STATE p
EVENT
  CHANGE p := ~p
EVENT
  PRE p@o
  CHANGE p := Top
"""


def minimized_chain(text, fused):
    """Each scene of a minimized run of the scenario, printed, with the
    last scene; one minimized update per event, or a full update and
    then `shrink_scene`."""
    scenario = parse_scenario(text)
    engine = Engine()
    scene = build_scene(scenario, engine)
    printed = []
    for spec in scenario.events:
        event = build_event(spec, scene.structure, engine)
        scene, text = minimized_step(scene, event, fused)
        printed.append(text)
    return printed, scene


@pytest.mark.parametrize(
    "text",
    [coin_flips(8), sally_anne(3), OLD_SNAPSHOT_FIXED],
    ids=["coin_flips", "sally_anne", "old_snapshot_fixed"],
)
def test_minimized_chain_matches_update_then_shrink(text):
    fused, _ = minimized_chain(text, True)
    assert fused == minimized_chain(text, False)[0]


def test_minimized_update_restricts_an_observation_on_both_sides():
    # the first coin flip changes p, which the law fixes and a's
    # observation p <-> p' mentions on both sides
    _, scene = minimized_chain(coin_flips(1), True)
    engine = scene.structure.engine
    p, q = engine.variable("p"), engine.variable("q1")
    assert scene.structure.vocabulary == (p, q)
    assert scene.structure.law == engine.atom(p).iff(engine.atom(q))
    assert scene.structure.observations["a"].is_true
    assert scene.state == {p, q}


def test_minimized_update_leaves_a_snapshot_fixed_by_pre_to_shrink(monkeypatch):
    # the second event's PRE fixes the older snapshot p°, and with it
    # the new snapshot p°2 of p, which the old law does not fix: both go
    # after the update, in the shrink that apply_event ends with
    dropped = []
    shrink_once = symbolic.shrink

    def recording(structure, keep=()):
        reduced = shrink_once(structure, keep)
        dropped.append([v.name for v in structure.vocabulary if v not in reduced.vocabulary])
        return reduced

    monkeypatch.setattr(symbolic, "shrink", recording)
    _, scene = minimized_chain(OLD_SNAPSHOT_FIXED, True)
    assert dropped == [[], ["p°", "p°2"]]
    assert [v.name for v in scene.structure.vocabulary] == ["p"]


# -- the law's factor split, carried through each update ------------------------

def random_chain(seed: int) -> str:
    """Scenario text: a law over p, q, r, s that splits between {p, q}
    and {r, s}, agent a with a random observation and b observing p and
    q, then four events.  Most events add x<k>, which happens, with a
    precondition that x<k> or a random formula (under a belief operator
    or not) holds, so every event is executable; each event changes one
    or two variables by random change laws."""
    rng = random.Random(f"chain-{seed}")
    names = list("pqrs")
    law, state = None, set()
    while law is None or not bf_truth(law, state):
        law = And((random_boolean_formula(rng, "pq", 2), random_boolean_formula(rng, "rs", 2)))
        state = {n for n in names if rng.random() < 0.5}
    both = names + [f"{n}'" for n in names]
    lines = [
        "AGENTS a b",
        "VARS p q r s",
        f"LAW {format_formula(law)}",
        f"OBS a: {format_formula(random_boolean_formula(rng, both, 2))}",
        "OBS b: (p <-> p') & (q <-> q')",
        "STATE " + " ".join(sorted(state)),
    ]
    for k in range(1, 5):
        lines.append("EVENT")
        pool = names
        if rng.random() < 0.75:
            x = f"x{k}"
            pool = names + [x]
            body = random_boolean_formula(rng, names, 2)
            if rng.random() < 0.5:
                body = Box(rng.choice("ab"), body)
            lines += [
                f"  ADDVARS {x}",
                f"  PRE {format_formula(Or((body, Atom(x))))}",
                f"  OBS+ {rng.choice('ab')}: {x} <-> {x}'",
                f"  ASSIGN {x}",
            ]
        for v in rng.sample(names, rng.randint(1, 2)):
            change = random_boolean_formula(rng, rng.sample(pool, 2), 1)
            lines.append(f"  CHANGE {v} := {format_formula(change)}")
    return "\n".join(lines) + "\n"


SPLIT_CHAINS = {
    "coin_flips": coin_flips(6),
    "sally_anne": sally_anne(2),
    **{f"random{seed}": random_chain(seed) for seed in range(12)},
}


def updates_along(text, minimize, monkeypatch, record=True):
    """Each update `run_events` makes along the scenario, as (the old
    structure, the transformer, the update).  Without record, the engine
    conjoins a split as any other conjunction and records nothing, so
    each split and support it gives is derived by walking the law."""
    engine = Engine()
    if not record:
        monkeypatch.setattr(engine, "conjoin_factors", engine.conj)
    made = []
    transform = symbolic.transform_with_copies

    def recording(structure, transformer, minimize=False):
        update = transform(structure, transformer, minimize)
        made.append((structure, transformer, update))
        return update

    monkeypatch.setattr(symbolic, "transform_with_copies", recording)
    scenario = parse_scenario(text)
    for _ in run_events(scenario, build_scene(scenario, engine), minimize):
        pass
    monkeypatch.undo()
    assert len(made) == len(scenario.events)
    return made


@pytest.mark.parametrize("minimize", [False, True], ids=["full", "minimized"])
@pytest.mark.parametrize("text", list(SPLIT_CHAINS.values()), ids=list(SPLIT_CHAINS))
def test_updates_carry_the_law_split(text, minimize, monkeypatch):
    """Every law the update builds is rename(law & event law) & the
    change equivalences, with each modified variable that the update
    gives no snapshot, which only a minimized run does, set to the value
    the old law fixes; and the split it records, with the support read
    from it, is what an engine that derives both by walking the law finds."""
    carried = updates_along(text, minimize, monkeypatch)
    derived = updates_along(text, minimize, monkeypatch, record=False)
    kept = fixed = 0
    for (old, transformer, update), (_, _, plain) in zip(carried, derived):
        engine = old.engine
        law = update.structure.law
        literals = set(engine.factors(old.law))
        binding = {}
        for v in update.change_fns:
            atom = engine.atom(v)
            if v in update.copies:
                binding[v] = engine.atom(update.copies[v])
                assert not minimize or not literals & {atom, ~atom}
            else:
                assert minimize and literals & {atom, ~atom}
                binding[v] = engine.true if atom in literals else engine.false
                fixed += 1
        want = engine.compose_many(old.law & compile_event_law(old, transformer), binding)
        for v, fn in update.change_fns.items():
            want &= engine.atom(v).iff(engine.compose_many(fn, binding))
        assert law == want
        kept += bool(set(engine.factors(law)) & set(engine.factors(old.law)))
        assert diagram_facts(engine, law) == diagram_facts(
            plain.structure.engine, plain.structure.law
        )
    # some factor of an old law carried over untouched
    assert kept
    # a minimized run makes no snapshot of a variable its law fixes
    assert bool(fixed) == minimize


# -- the belief operator against its first definition --------------------------

class QuantifiedImplication:
    """The paper's translation, spelled out with public engine calls:
    K_i phi = forall V' (law' -> (obs_i -> phi'))."""

    def __init__(self, structure: BeliefStructure):
        self.structure = structure
        engine = structure.engine
        self.prime = {v: engine.primed(v) for v in structure.vocabulary}
        self.law_primed = engine.rename(structure.law, self.prime)

    def fn(self, formula):
        structure = self.structure
        return compile_with(formula, structure.env, structure.engine, self.box)

    def box(self, formula):
        engine = self.structure.engine
        body = engine.rename(self.fn(formula.body), self.prime)
        obs = self.structure.observations[formula.agent]
        return engine.forall(
            self.law_primed.implies(obs.implies(body)), self.prime.values()
        )


def test_relational_product_matches_the_quantified_implication():
    for seed in range(200):
        structure = generate_scene(seed).structure
        oracle = QuantifiedImplication(structure)
        atoms = [v.name for v in structure.vocabulary]
        for formula in formula_family(atoms, structure.agents, 2):
            assert structure.translator.fn(formula) == oracle.fn(formula), (seed, formula)


# -- the S5 translation against the general one ---------------------------------

def observing(engine: Engine, variables):
    """AND_{p in variables} (p <-> p'): the agent observes these variables."""
    return engine.conj(engine.atom(v).iff(engine.atom(engine.primed(v))) for v in variables)


def s5_chain(seed: int):
    """A structure over three or four variables whose agents observe
    nothing, everything and a random subset, followed by the structures
    after one and two events whose observations are S5 too.  Each event
    adds x<k>, sets a random variable by a random change law and shows
    x<k> to each agent or not."""
    rng = random.Random(f"s5-{seed}")
    engine = Engine()
    vocab = [engine.variable(n) for n in "pqrs"[: rng.randint(3, 4)]]
    names = [v.name for v in vocab]
    env = {v.name: v for v in vocab}
    law = engine.false
    while law.is_false:
        law = compile_formula(random_boolean_formula(rng, names, 3), env, engine)
    observed = {"a": [], "b": vocab, "c": [v for v in vocab if rng.random() < 0.5]}
    observations = {agent: observing(engine, o) for agent, o in observed.items()}
    structure = BeliefStructure(engine, tuple(vocab), law, observations)
    yield structure
    for k in (1, 2):
        x = engine.variable(f"x{k}")
        changed = rng.choice(vocab)
        event_names = names + [x.name]
        updated = engine.false
        while updated.is_false:
            transformer = Transformer(
                (x,),
                random_boolean_formula(rng, event_names, 2),
                {changed: random_boolean_formula(rng, event_names, 2)},
                {a: observing(engine, [x][: rng.randrange(2)]) for a in observed},
            )
            update = transform_with_copies(structure, transformer)
            updated = update.structure.law
        structure = update.structure
        yield structure


def assert_translations_agree(structure: BeliefStructure, label):
    translator = structure.translator
    oracle = QuantifiedImplication(structure)
    atoms = [v.name for v in structure.vocabulary]
    for formula in formula_family(atoms, structure.agents, 2):
        assert translator.fn(formula) == oracle.fn(formula), (label, formula)


def takes_s5_path(structure: BeliefStructure, agent: str) -> bool:
    return not structure.translator._view(agent).primed


@pytest.mark.parametrize("seed", range(8))
def test_s5_translation_matches_the_quantified_implication(seed):
    for step, structure in enumerate(s5_chain(seed)):
        assert all(takes_s5_path(structure, a) for a in structure.agents)
        assert_translations_agree(structure, (seed, step))


@pytest.mark.parametrize(
    "text",
    [
        "p <-> ~p'",
        "p <-> q'",
        "p'",
        "(p <-> p') | r",
        "(p <-> p') & (q <-> q') & (r <-> ~r')",
    ],
)
def test_near_s5_observations_take_the_general_path(text):
    engine = Engine()
    vocab = tuple(engine.variable(n) for n in "pqr")
    env = {v.name: v for v in vocab}
    env.update({engine.primed(v).name: engine.primed(v) for v in vocab})
    rng = random.Random(f"near-{text}")
    for seed in range(4):
        law = engine.false
        while law.is_false:
            law = compile_formula(random_boolean_formula(rng, "pqr", 3), env, engine)
        observations = {
            "a": compile_formula(parse(text), env, engine),
            "b": observing(engine, [v for v in vocab if rng.random() < 0.5]),
        }
        structure = BeliefStructure(engine, vocab, law, observations)
        assert not takes_s5_path(structure, "a")
        assert takes_s5_path(structure, "b")
        assert_translations_agree(structure, (text, seed))


@pytest.mark.parametrize("minimize", [False, True], ids=["full", "minimized"])
def test_chains_of_s5_events_stay_on_the_s5_path(minimize):
    def paths(text):
        """Per scene, whether each agent takes the S5 path."""
        scenario = parse_scenario(text)
        scene = build_scene(scenario, Engine())
        scenes = [scene] + [s for _, s in run_events(scenario, scene, minimize)]
        return [
            {a: takes_s5_path(s.structure, a) for a in s.structure.agents}
            for s in scenes
        ]

    assert paths(coin_flips(12)) == [{"a": True, "b": True}] * 13
    # Sally's observation becomes ~q1' & ... at the third event of each
    # round, and no later event takes that back
    assert paths(sally_anne(2)) == [
        {"Sally": step < 3, "Anne": True} for step in range(9)
    ]


# Spellings of p <-> p', and near misses of it, for a variable p and
# another variable q.
S5_LINKS = [
    "{p} <-> {p}'",
    "{p}' <-> {p}",
    "({p} & {p}') | (~{p} & ~{p}')",
    "~({p} <-> ~{p}')",
    "({p} -> {p}') & ({p}' -> {p})",
    "~{p} <-> ~{p}'",
]
NEAR_LINKS = [
    "{p} <-> ~{p}'",
    "{p} -> {p}'",
    "{p} <-> {q}'",
    "{p} <-> {q}",
    "{p}' <-> {q}'",
    "{p}'",
    "{p}",
    "{p} | {p}'",
    "Bot",
]


def s5_by_truth_table(formula, names) -> bool:
    """Whether some set O of the names makes the formula true at exactly
    the pairs of valuations of the names and their primes that agree on
    O, by evaluating the formula on every row."""
    rows = {}
    for bits in range(4 ** len(names)):
        now = [bits >> k & 1 for k in range(len(names))]
        then = [bits >> (len(names) + k) & 1 for k in range(len(names))]
        true = {n for n, b in zip(names, now) if b} | {
            n + "'" for n, b in zip(names, then) if b
        }
        rows[tuple(now), tuple(then)] = bf_truth(formula, true)
    return any(
        all(value == all(now[k] == then[k] for k in observed)
            for (now, then), value in rows.items())
        for size in range(len(names) + 1)
        for observed in itertools.combinations(range(len(names)), size)
    )


def random_observation(rng: random.Random, names) -> str:
    """An observation text: AND (p <-> p') over a random subset, in
    random spellings and order and sometimes with a repeated link and
    Top; the same with a near miss in place of a link or as one more
    conjunct; or a random formula over the names and their primes."""
    roll = rng.random()
    if roll < 0.2:
        atoms = list(names) + [n + "'" for n in names]
        return format_formula(random_boolean_formula(rng, atoms, 3))
    observed = [n for n in names if rng.random() < 0.6]
    links = [rng.choice(S5_LINKS).format(p=n) for n in observed]
    if rng.random() < 0.2:
        links += links[:1] + ["Top"]
    if roll < 0.6:
        p, q = rng.sample(names, 2)
        near = rng.choice(NEAR_LINKS).format(p=p, q=q)
        if links and rng.random() < 0.5:
            links[rng.randrange(len(links))] = near
        else:
            links.append(near)
    rng.shuffle(links)
    return " & ".join(f"({link})" for link in links) or "Top"


def test_s5_decision_matches_a_truth_table():
    rng = random.Random("s5-decision")
    seen = Counter()
    for case in range(300):
        engine = Engine()
        names = "pqrs"[: rng.randint(2, 4)]
        vocab = tuple(engine.variable(n) for n in names)
        env = {v.name: v for v in vocab}
        env.update({engine.primed(v).name: engine.primed(v) for v in vocab})
        law = engine.false
        while law.is_false:
            law = compile_formula(random_boolean_formula(rng, names, 3), env, engine)
        text = random_observation(rng, names)
        formula = parse(text)
        structure = BeliefStructure(
            engine, vocab, law, {"a": compile_formula(formula, env, engine)}
        )
        expected = s5_by_truth_table(formula, names)
        assert takes_s5_path(structure, "a") == expected, (case, text)
        seen[expected] += 1
        oracle = QuantifiedImplication(structure)
        for query in [f"[a] {n}" for n in names] + [f"[a] ({names[0]} -> {names[1]})"]:
            phi = parse(query)
            assert structure.translator.fn(phi) == oracle.fn(phi), (case, text, query)
    assert min(seen[True], seen[False]) >= 100, seen


def test_deciding_an_s5_observation_adds_no_node():
    rng = random.Random("s5-nodes")
    for case in range(50):
        engine = Engine()
        vocab = [engine.variable(n) for n in "pqrstu"[: rng.randint(1, 6)]]
        observed = [v for v in vocab if rng.random() < 0.7]
        rng.shuffle(observed)
        obs = observing(engine, observed)
        structure = BeliefStructure(engine, tuple(vocab), engine.true, {"a": obs})
        built = len(engine._unique)
        assert takes_s5_path(structure, "a"), case
        assert len(engine._unique) == built, case


# -- translation guards -------------------------------------------------------

def test_translator_rejects_event_variables_under_belief():
    engine = Engine()
    scene = coin_start(engine)
    structure = scene.structure
    x = engine.variable("x")

    def transformer(text):
        return Transformer((x,), parse(text), event_obs={"a": engine.true, "b": engine.true})

    def law_after(text):
        return transform_with_copies(structure, transformer(text)).structure.law

    assert law_after("x") == structure.law & engine.atom(x)
    box = structure.translator.fn(parse("[a] p"))
    assert law_after("x & [a] p") == structure.law & engine.atom(x) & box
    # the transformer itself is at fault, before any structure meets it
    with pytest.raises(CompileError, match=r"^event variable under belief operator \[a\]: x$"):
        transformer("[a] x")
    with pytest.raises(CompileError, match=r"^event variable under belief operator \[b\]: x$"):
        transformer("~[b] (p | x)")
    # the outermost operator at fault is named
    with pytest.raises(CompileError, match=r"\[a\]: x$"):
        transformer("[a] [b] x")


def test_translator_error_cases():
    engine = Engine()
    scene = coin_start(engine)
    with pytest.raises(EvalError):
        scene.structure.translator.fn(parse("[c] p"))
    with pytest.raises(CompileError):
        scene.structure.translator.fn(parse("r"))
    with pytest.raises(CompileError):
        scene_eval(scene, parse("r"))
    with pytest.raises(EvalError):
        scene_eval_enum(scene, parse("[c] p"))


# -- validation ---------------------------------------------------------------

def test_structure_validation_errors():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    with pytest.raises(VocabularyError):
        BeliefStructure(engine, (p, p), engine.true, {})
    with pytest.raises(VocabularyError):
        BeliefStructure(engine, (engine.primed(p),), engine.true, {})
    with pytest.raises(VocabularyError):
        BeliefStructure(engine, (p,), engine.atom(q), {})
    with pytest.raises(VocabularyError):
        BeliefStructure(engine, (p,), engine.true, {"a": engine.atom(q)})
    # an observation may mention the vocabulary and its primed copies only
    pc = engine.fresh_copy(p)
    fn = engine.conj(engine.atom(v) for v in (p, engine.primed(p), pc, engine.primed(pc)))
    BeliefStructure(engine, (p, pc), engine.true, {"a": fn})
    with pytest.raises(
        VocabularyError,
        match="^observation function of a mentions non-vocabulary variables: p°, p°'$",
    ):
        BeliefStructure(engine, (p,), engine.true, {"a": fn})
    other = Engine()
    with pytest.raises(VocabularyError):
        BeliefStructure(engine, (p,), other.true, {})
    with pytest.raises(VocabularyError):
        Scene(
            BeliefStructure(engine, (p,), engine.atom(p), {}),
            frozenset(),
        )
    with pytest.raises(VocabularyError):
        Scene(
            BeliefStructure(engine, (p,), engine.true, {}),
            frozenset({q}),
        )


def test_transformer_validation_errors():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    with pytest.raises(VocabularyError, match="^change law of p is not belief-free$"):
        Transformer((q,), TOP, change_laws={p: parse("[a] q")})
    with pytest.raises(VocabularyError, match="^the modified set must be unprimed: p'$"):
        Transformer((q,), TOP, change_laws={engine.primed(p): TOP})
    pp, qq = (engine.atom(v).iff(engine.atom(engine.primed(v))) for v in (p, q))
    Transformer((q,), TOP, event_obs={"a": qq})
    with pytest.raises(
        VocabularyError,
        match="^event observation of a mentions variables other than the event "
        "variables: p, p'$",
    ):
        Transformer((q,), TOP, event_obs={"a": qq & pp})
    with pytest.raises(VocabularyError):
        Transformer((engine.primed(q),), TOP)
    with pytest.raises(VocabularyError):
        Event(Transformer((q,), TOP), frozenset({p}))
    # a snapshot keeps an old value; rejecting one allocates no snapshot
    pc = engine.fresh_copy(p)
    with pytest.raises(VocabularyError, match="^the modified set must not hold a snapshot: p°$"):
        Transformer((), TOP, {pc: TOP})
    assert engine.fresh_copy(p).name == "p°2"
    # an event variable is new, so it cannot be a snapshot either
    x = engine.variable("x")
    with pytest.raises(
        VocabularyError, match="^the event vocabulary must not hold a snapshot: x°$"
    ):
        Transformer((engine.fresh_copy(x),), TOP)


def test_modified_variables_follow_the_change_laws_order():
    # the snapshots and the printed CHANGE lines come in this order
    engine = Engine()
    p, q, r = (engine.variable(name) for name in "pqr")
    transformer = Transformer((), TOP, {r: TOP, p: parse("~q"), q: TOP})
    assert tuple(transformer.change_laws) == (r, p, q)
    structure = BeliefStructure(engine, (p, q, r), engine.true, {})
    update = transform_with_copies(structure, transformer)
    assert [v.name for v in update.structure.vocabulary] == ["p", "q", "r", "r°", "p°", "q°"]
    assert format_event_block(transformer, frozenset()).splitlines()[1:] == [
        "  CHANGE r := Top",
        "  CHANGE p := ~q",
        "  CHANGE q := Top",
    ]


def test_transform_validation_errors():
    engine = Engine()
    scene = coin_start(engine)
    p = engine.variable("p")
    r = engine.variable("r")
    agents = {"a": engine.true, "b": engine.true}
    with pytest.raises(VocabularyError):
        transform_with_copies(
            scene.structure, Transformer((p,), TOP, event_obs=agents)
        )
    with pytest.raises(VocabularyError):
        transform_with_copies(
            scene.structure,
            Transformer((), TOP, {r: TOP}, agents),
        )
    with pytest.raises(VocabularyError):
        transform_with_copies(
            scene.structure, Transformer((), TOP, event_obs={"a": engine.true})
        )
    other = Engine()
    with pytest.raises(VocabularyError):
        transform_with_copies(
            scene.structure,
            Transformer((), TOP, event_obs={"a": other.true, "b": other.true}),
        )


def test_blocked_event_is_not_executable():
    engine = Engine()
    scene = coin_start(engine)
    agents = {"a": engine.true, "b": engine.true}
    blocked = Transformer((), parse("~p"), event_obs=agents)
    with pytest.raises(NotExecutable):
        apply_event(scene, Event(blocked, frozenset()))


# -- garbage ------------------------------------------------------------------

def test_calls_leave_no_reference_cycles():
    engine = Engine()
    scene = coin_start(engine)
    p = var_named(scene.structure, "p")
    watch = scene.structure.observations["a"]
    pair = (p, engine.primed(p))
    phi = parse("[a] p | ~p")
    env = scene.structure.env
    calls = {
        "scene_eval": lambda: scene_eval(scene, phi),
        "scene_eval in a fresh engine": lambda: scene_eval(coin_start(Engine()), phi),
        "atoms_of": lambda: atoms_of(phi),
        "agents_of": lambda: agents_of(phi),
        "format_formula": lambda: format_formula(phi),
        "compile_formula": lambda: compile_formula(parse("p & ~(p -> p) | p"), env, engine),
        "a fresh Translator.fn": lambda: Translator(scene.structure).fn(phi),
        "sat_assignments": lambda: engine.sat_assignments(watch, pair),
        "cubes": lambda: engine.cubes(watch),
    }
    for name, call in calls.items():
        call()  # warm the translator's memo
        gc.collect()
        gc.disable()
        try:
            for _ in range(1000):
                call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()
