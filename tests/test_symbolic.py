"""Belief structure tests: translation, update, snapshots, minimization.

The two worked examples (a hidden coin flip and the false-belief story)
are traced step by step, asserting the exact boolean functions produced
by each update.  Equality of BoolFn values is identity in the engine,
so these assertions pin the semantics, not just the printed shape.
"""

import gc

import pytest
from hypothesis import given, settings

from conftest import epistemic_formulas, scene_eval_enum
from symdel.boolfun import Engine
from symdel.bridge import generate_scene_event
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
    Atom,
    agents_of,
    atoms_of,
    format_formula,
    parse,
)
from symdel.symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    Translator,
    apply_event,
    bool_translate,
    determined_value,
    minimize,
    minimize_scene,
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
            modified=(engine.variable("p"),),
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
        modified=(u,),
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
    assert new_structure.law == structure.law & bool_translate(
        structure, parse("[b] p")
    )
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
            modified=(modified,),
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
    assert tight.is_state({p})
    assert not tight.is_state({q})
    assert not tight.is_state({p, engine.variable("r")})


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
    assert determined_value(after.structure, pc) is True
    assert determined_value(after.structure, p) is None

    reduced = shrink(after.structure)
    assert reduced.vocabulary == (p, q)
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
    assert determined_value(structure, w) is False
    reduced = minimize(structure, keep=())
    assert reduced.vocabulary == ()
    assert reduced.law.is_true


# -- translation guards -------------------------------------------------------

def test_translator_rejects_event_variables_under_belief():
    engine = Engine()
    scene = coin_start(engine)
    structure = scene.structure
    x = engine.variable("x")

    def law_after(text):
        transformer = Transformer(
            (x,), parse(text), event_obs={"a": engine.true, "b": engine.true}
        )
        return transform_with_copies(structure, transformer).structure.law

    assert law_after("x") == structure.law & engine.atom(x)
    assert law_after("x & [a] p") == structure.law & engine.atom(x) & bool_translate(
        structure, parse("[a] p")
    )
    with pytest.raises(CompileError):
        law_after("[a] x")
    with pytest.raises(CompileError):
        law_after("~[b] (p | x)")


def test_translator_error_cases():
    engine = Engine()
    scene = coin_start(engine)
    with pytest.raises(EvalError):
        bool_translate(scene.structure, parse("[c] p"))
    with pytest.raises(CompileError):
        bool_translate(scene.structure, parse("r"))
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
    with pytest.raises(VocabularyError):
        Transformer((q,), TOP, modified=(p,))
    with pytest.raises(VocabularyError):
        Transformer((q,), TOP, change_laws={p: TOP})
    with pytest.raises(VocabularyError):
        Transformer((q,), TOP, modified=(p,), change_laws={p: parse("[a] q")})
    with pytest.raises(VocabularyError):
        Transformer((q,), TOP, event_obs={"a": engine.atom(p)})
    with pytest.raises(VocabularyError):
        Transformer((engine.primed(q),), TOP)
    with pytest.raises(VocabularyError):
        Event(Transformer((q,), TOP), frozenset({p}))


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
            Transformer((), TOP, (r,), {r: TOP}, agents),
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
    calls = {
        "scene_eval": lambda: scene_eval(scene, phi),
        "scene_eval in a fresh engine": lambda: scene_eval(coin_start(Engine()), phi),
        "atoms_of": lambda: atoms_of(phi),
        "agents_of": lambda: agents_of(phi),
        "format_formula": lambda: format_formula(phi),
        "sat_assignments": lambda: engine.sat_assignments(watch, pair),
        "count_sat": lambda: engine.count_sat(watch, pair),
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
