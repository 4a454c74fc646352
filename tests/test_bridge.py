"""Bridge tests: event/action translations, morphism checks, the harness.

The coin flip is traced through both directions of the translation and
pinned against the explicit action model.  The harness tests include a
deliberately broken update (observations conjoined without snapshot
renaming) to show the morphism check actually has teeth, and replay
chains of events, scenario files included, against the explicit
pipeline step by step.
"""

import re
from pathlib import Path

import pytest

from test_node_counts import coin_flips, sally_anne
from symdel import bridge
from symdel.boolfun import Engine
from symdel.bridge import (
    Bounds,
    Counterexample,
    SuiteReport,
    act,
    check_minimization,
    check_morphism,
    check_part_i,
    check_part_ii,
    check_roundtrip,
    check_translation,
    formula_family,
    generate_formulas,
    generate_model_action,
    generate_scene,
    generate_scene_event,
    run_suite,
    trf_with_labels,
)
from symdel.errors import NotExecutable, VocabularyError
from symdel.explicit import (
    ActionModel,
    GlobalEvaluator,
    KripkeModel,
    PointedModel,
    format_model,
    model_of_structure,
    product_update,
)
from symdel.language import BOT, TOP, Atom, Not, atoms_of, compile_formula, parse
from symdel.scenario import build_event, build_scene, parse_scenario
from symdel.symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    apply_event,
    compile_event_law,
    scene_eval,
    transform_with_copies,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def coin_scene(engine: Engine) -> Scene:
    p = engine.variable("p")
    watch = engine.atom(p).iff(engine.atom(engine.primed(p)))
    structure = BeliefStructure(
        engine, (p,), engine.atom(p), {"a": watch, "b": watch}
    )
    return Scene(structure, frozenset({p}))


def coin_event(engine: Engine) -> Event:
    q = engine.variable("q")
    p = engine.variable("p")
    return Event(
        Transformer(
            add_vocab=(q,),
            event_law=TOP,
            change_laws={p: Atom("q")},
            event_obs={
                "a": engine.true,
                "b": engine.atom(q).iff(engine.atom(engine.primed(q))),
            },
        ),
        frozenset({q}),
    )


def coin_kripke() -> KripkeModel:
    return KripkeModel(
        vocabulary=("p",),
        worlds=("w",),
        relations={"a": {("w", "w")}, "b": {("w", "w")}},
        valuation={"w": {"p"}},
    )


def flip_action() -> ActionModel:
    events = ("a1", "a2")
    return ActionModel(
        events=events,
        relations={
            "a": {(e, f) for e in events for f in events},
            "b": {(e, e) for e in events},
        },
        pre={},
        post={"a1": {"p": BOT}, "a2": {"p": TOP}},
    )


# -- event -> action -----------------------------------------------------------

def test_act_coin_event_gives_the_flip_action():
    engine = Engine()
    action, designated = act(coin_event(engine))
    hidden = frozenset()
    shown = frozenset({"q"})
    assert action.events == (hidden, shown)
    assert designated == shown
    assert action.pre == {hidden: TOP, shown: TOP}
    assert action.post == {hidden: {"p": BOT}, shown: {"p": TOP}}
    assert action.relations["a"] == frozenset(
        (x, y) for x in action.events for y in action.events
    )
    assert action.relations["b"] == frozenset((x, x) for x in action.events)

    updated = product_update(coin_kripke(), action)
    assert updated.valuation[("w", hidden)] == frozenset()
    assert updated.valuation[("w", shown)] == frozenset({"p"})


def test_act_event_order_counts_in_binary():
    # the first event variable is the least significant bit
    engine = Engine()
    x1, x2 = engine.variable("x1"), engine.variable("x2")
    event = Event(
        Transformer((x1, x2), TOP, event_obs={"a": engine.true}),
        frozenset({x2}),
    )
    action, designated = act(event)
    assert action.events == (
        frozenset(),
        frozenset({"x1"}),
        frozenset({"x2"}),
        frozenset({"x1", "x2"}),
    )
    assert designated == frozenset({"x2"})


def test_act_substitutes_event_variables_into_laws():
    engine = Engine()
    x = engine.variable("x")
    p = engine.variable("p")
    event = Event(
        Transformer(
            (x,),
            parse("x -> [a] p"),
            {p: parse("p & ~x")},
            {"a": engine.true},
        ),
        frozenset(),
    )
    action, designated = act(event)
    assert designated == frozenset()
    assert action.pre[frozenset()] == parse("Bot -> [a] p")
    assert action.pre[frozenset({"x"})] == parse("Top -> [a] p")
    assert action.post[frozenset()] == {"p": parse("p & ~Bot")}
    assert action.post[frozenset({"x"})] == {"p": parse("p & ~Top")}


def test_act_without_event_variables_is_a_single_event():
    engine = Engine()
    event = Event(
        Transformer((), parse("[b] p"), event_obs={"b": engine.true}),
        frozenset(),
    )
    action, designated = act(event)
    assert action.events == (frozenset(),)
    assert action.pre[frozenset()] == parse("[b] p")
    assert designated == frozenset()


# -- action -> event -----------------------------------------------------------

def test_trf_flip_action_matches_the_coin_transformer():
    engine = Engine()
    for prop in ("p",):
        engine.variable(prop)
    transformer, actual, label = trf_with_labels(engine, flip_action(), "a2")

    assert len(transformer.add_vocab) == 1
    q1 = transformer.add_vocab[0]
    assert q1.name == "q1"
    assert label == {"a1": frozenset(), "a2": frozenset({q1})}
    assert actual == frozenset({q1})

    p = engine.variable("p")
    assert tuple(transformer.change_laws) == (p,)
    env = {"p": p, "q1": q1}
    law_fn = compile_formula(transformer.event_law, env, engine)
    assert law_fn.is_true
    change_fn = compile_formula(transformer.change_laws[p], env, engine)
    assert change_fn == engine.atom(q1)
    assert transformer.event_obs["a"].is_true
    assert transformer.event_obs["b"] == engine.atom(q1).iff(
        engine.atom(engine.primed(q1))
    )


def test_trf_single_event_action_needs_no_labels():
    engine = Engine()
    engine.variable("p")
    announce = ActionModel(
        ("e",), {"a": {("e", "e")}}, {"e": parse("[a] p")}
    )
    transformer, actual, _ = trf_with_labels(engine, announce, "e")
    assert transformer.add_vocab == ()
    assert actual == frozenset()
    assert tuple(transformer.change_laws) == ()
    assert transformer.event_law == parse("[a] p")
    assert transformer.event_obs["a"].is_true


def test_trf_unknown_designated_event():
    engine = Engine()
    with pytest.raises(VocabularyError):
        trf_with_labels(engine, flip_action(), "a3")


def test_changed_props_is_syntactic():
    # writing p back unchanged does not count as a modification, while a
    # differently spelled equivalent does
    frozen = ActionModel(("e",), {}, {}, {"e": {"p": Atom("p")}})
    assert frozen.changed_props() == ()
    spelled = ActionModel(("e",), {}, {}, {"e": {"p": Not(Not(Atom("p")))}})
    assert spelled.changed_props() == ("p",)

    engine = Engine()
    p = engine.variable("p")
    transformer, _, _ = trf_with_labels(engine, spelled, "e")
    assert tuple(transformer.change_laws) == (p,)
    change_fn = compile_formula(transformer.change_laws[p], {"p": p}, engine)
    assert change_fn == engine.atom(p)


# -- morphism ------------------------------------------------------------------

def _identity_g(structure):
    var_of = structure.env
    return {
        frozenset(v.name for v in s): s for s in structure.states()
    }, var_of


def test_check_morphism_accepts_the_state_model():
    engine = Engine()
    structure = coin_scene(engine).structure
    model = model_of_structure(structure)
    g = {w: frozenset(structure.env[p] for p in w) for w in model.worlds}
    assert check_morphism(structure, model, ("p",), g) is None


def test_check_morphism_rejects_each_condition():
    engine = Engine()
    p = engine.variable("p")
    fp = engine.atom(p)
    watch = fp.iff(engine.atom(engine.primed(p)))
    structure = BeliefStructure(engine, (p,), engine.true, {"a": watch})
    states = {frozenset(): frozenset(), frozenset({"p"}): frozenset({p})}
    worlds = tuple(states)
    good_rel = frozenset((w, w) for w in worlds)
    valuation = {w: w for w in worlds}

    model = KripkeModel(("p",), worlds, {"a": good_rel}, valuation)
    assert check_morphism(structure, model, ("p",), states) is None

    # C1: an edge the observation function rejects
    cross = KripkeModel(
        ("p",), worlds, {"a": good_rel | {worlds}}, valuation
    )
    assert check_morphism(structure, cross, ("p",), states) == (
        "C1 fails for a at ({},{p}): observation says False, edge says True"
    )

    # C2: the map contradicts the valuation on a shared atom
    swapped = {worlds[0]: states[worlds[1]], worlds[1]: states[worlds[0]]}
    assert check_morphism(structure, model, ("p",), swapped) == (
        "C2 fails at {} on atom p"
    )

    # C3: a state without preimage
    half = KripkeModel(
        ("p",), worlds[:1], {"a": frozenset({(worlds[0], worlds[0])})},
        {worlds[0]: worlds[0]},
    )
    assert check_morphism(structure, half, ("p",), states) == (
        "C3 fails: state {p} has no g-preimage"
    )

    # C3 the other way: an image that is not a state
    law_p = BeliefStructure(engine, (p,), fp, {"a": watch})
    assert check_morphism(law_p, model, ("p",), states) == (
        "C3 fails: g-image {} is not a state"
    )

    # map not even defined or out of vocabulary
    assert check_morphism(structure, model, ("p",), {}) == "g undefined on world {}"
    q = engine.variable("q")
    stray = {w: frozenset({q}) for w in worlds}
    assert check_morphism(structure, model, ("p",), stray) == (
        "g({}) leaves the vocabulary"
    )


def _broken_part_i(scene, event) -> str | None:
    """check_part_i with a sabotaged update: the observation functions are
    conjoined with the event observations without renaming the modified
    variables to their snapshots."""
    structure = scene.structure
    engine = structure.engine
    transformer = event.transformer
    model = model_of_structure(structure)
    action, _ = act(event)
    update = transform_with_copies(structure, transformer)
    broken = BeliefStructure(
        engine,
        update.structure.vocabulary,
        update.structure.law,
        {
            agent: structure.observations[agent] & transformer.event_obs[agent]
            for agent in structure.agents
        },
    )
    product = product_update(model, action)
    var_of = structure.env
    xvar_of = {v.name: v for v in transformer.add_vocab}
    g = {
        (w, a): update.post_state(
            frozenset(var_of[n] for n in w),
            frozenset(xvar_of[n] for n in a),
        )
        for (w, a) in product.worlds
    }
    return check_morphism(broken, product, model.vocabulary, g)


def test_skipping_the_snapshot_renaming_is_caught():
    engine = Engine()
    failure = _broken_part_i(coin_scene(engine), coin_event(engine))
    assert failure is not None and failure.startswith("C1 fails")

    caught = 0
    for seed in range(50):
        scene, event = generate_scene_event(seed)
        if _broken_part_i(scene, event) is not None:
            caught += 1
    assert caught >= 10


# -- the full agreement checks on the worked example -----------------------------

def test_part_i_on_the_coin_flip():
    engine = Engine()
    assert check_part_i(coin_scene(engine), coin_event(engine)) is None


def test_part_ii_and_roundtrip_on_the_flip_action():
    pointed = PointedModel(coin_kripke(), "w")
    assert check_part_ii(pointed, flip_action(), "a2") is None
    assert check_part_ii(pointed, flip_action(), "a1") is None
    assert check_roundtrip(pointed, flip_action(), "a2") is None


# -- formula family ---------------------------------------------------------------

def test_formula_family_counts():
    atoms = ("p", "q", "r", "u")
    agents = ("a", "b")
    family = formula_family(atoms, agents, depth=2)
    assert len(family) == 378
    assert len(set(family)) == len(family)
    assert family[0] == TOP
    shallow = formula_family(atoms, agents, depth=0)
    assert len(shallow) == 18


def test_formula_family_is_built_once_and_handed_out_as_fresh_lists():
    first = formula_family(["p", "q"], ["a"])
    second = formula_family(("p", "q"), ("a",))
    assert second == first
    assert second is not first
    # one battery behind both lists: the nodes are the same objects
    assert all(x is y for x, y in zip(first, second))
    size = len(first)
    first.clear()
    second.append(TOP)
    assert len(formula_family(["p", "q"], ["a"])) == size
    assert formula_family(["p", "q"], ["a"]) == formula_family(("p", "q"), ("a",))


# -- generators -------------------------------------------------------------------

def test_generate_scene_is_deterministic_and_bounded():
    small = Bounds(max_vocab=2, max_agents=1)
    for seed in range(20):
        scene = generate_scene(seed)
        again = generate_scene(seed)
        assert format_model(model_of_structure(scene.structure)) == format_model(
            model_of_structure(again.structure)
        )
        assert scene.state == {
            scene.structure.env[v.name] for v in again.state
        }
        assert 1 <= len(scene.structure.vocabulary) <= 4
        assert 1 <= len(scene.structure.agents) <= 2
        assert scene.structure.law.holds(scene.state)

        tiny = generate_scene(seed, small)
        assert len(tiny.structure.vocabulary) <= 2
        assert len(tiny.structure.agents) == 1


def test_generate_scene_event_is_mostly_executable():
    executable = 0
    for seed in range(100):
        scene, event = generate_scene_event(seed)
        assert set(event.transformer.event_obs) == set(scene.structure.agents)
        law = compile_event_law(scene.structure, event.transformer)
        direct = law.holds(scene.state | event.actual)
        try:
            apply_event(scene, event)
            executable += 1
            assert direct
        except NotExecutable:
            assert not direct
    assert executable >= 95


def test_generate_model_action_prefers_surviving_points():
    surviving = 0
    for seed in range(100):
        pointed, action, designated = generate_model_action(seed)
        assert designated in action.pre
        assert len(pointed.model.worlds) <= 6
        assert len(action.events) <= 3
        evaluator = GlobalEvaluator(pointed.model)
        if evaluator.satisfies(pointed.point, action.pre[designated]):
            surviving += 1
    assert surviving >= 90


def test_generators_reach_their_bounds():
    """Larger bounds give larger instances, with distinct names that
    never take the letter-then-digits form of translation variables."""
    bounds = Bounds(max_vocab=8, max_agents=3)
    sizes = {"scene_vars": 0, "scene_agents": 0, "model_vars": 0, "model_agents": 0}
    for seed in range(300):
        scene, _ = generate_scene_event(seed, bounds)
        pointed, _, _ = generate_model_action(seed, bounds)
        found = {
            "scene_vars": [v.name for v in scene.structure.vocabulary],
            "scene_agents": list(scene.structure.agents),
            "model_vars": list(pointed.model.vocabulary),
            "model_agents": list(pointed.model.agents),
        }
        for key, names in found.items():
            assert len(set(names)) == len(names)
            assert not any(re.fullmatch(r"[dqx][0-9]+", n) for n in names)
            sizes[key] = max(sizes[key], len(names))
    assert sizes == {"scene_vars": 8, "scene_agents": 3, "model_vars": 8, "model_agents": 3}


# -- random structure checks --------------------------------------------------------

def test_translation_agrees_on_random_structures():
    for seed in range(20):
        scene = generate_scene(seed)
        formulas = generate_formulas(seed, scene.structure)
        assert check_translation(scene, formulas) is None, seed


def test_translation_part_draws_formulas_at_the_suite_depth(monkeypatch):
    depths = []

    def recording(seed, structure, count=6, depth=3):
        depths.append(depth)
        return generate_formulas(seed, structure, count, depth)

    monkeypatch.setattr(bridge, "generate_formulas", recording)
    for depth in (1, 4):
        report = run_suite(seed=0, count=3, depth=depth, parts=("translation",))
        assert not report.failures
    assert depths == [1, 1, 1, 4, 4, 4]


def _event_chains():
    for path in sorted(SCENARIOS.glob("*.scn")):
        yield pytest.param(path.read_text(encoding="utf-8"), id=path.stem)
    yield pytest.param(sally_anne(2), id="sally_anne_2")
    yield pytest.param(coin_flips(4), id="coin_flips_4")


@pytest.mark.parametrize("text", _event_chains())
def test_event_chain_matches_the_explicit_pipeline(text):
    """Each event of the chain, unminimized, against the product update by
    its action: the composed state map g_k(w, a) = post_state(g_{k-1}(w), a)
    is a morphism, and the formula family and every CHECK over VARS agree
    at the point."""
    scenario = parse_scenario(text)
    engine = Engine()
    scene = build_scene(scenario, engine)
    structure = scene.structure
    model = model_of_structure(structure)
    g = {w: frozenset(v for v in structure.vocabulary if v.name in w) for w in model.worlds}
    point = frozenset(v.name for v in scene.state)
    family = formula_family(scenario.vars, scenario.agents, 2)
    steps = []
    for k in range(len(scenario.events) + 1):
        if k:
            event = build_event(scenario.events[k - 1], structure, engine)
            update = transform_with_copies(structure, event.transformer)
            action, designated = act(event)
            model = product_update(model, action)
            named = {v.name: v for v in event.transformer.add_vocab}
            g = {
                (w, a): update.post_state(g[w], frozenset(named[n] for n in a))
                for w, a in model.worlds
            }
            structure, point = update.structure, (point, designated)
        assert check_morphism(structure, model, scenario.vars, g) is None, k
        scene = Scene(structure, g[point])
        evaluator = GlobalEvaluator(model)
        for phi in family:
            assert scene_eval(scene, phi) == evaluator.satisfies(point, phi), (k, phi)
        steps.append((scene, evaluator, point))
    for check in scenario.checks:
        if atoms_of(check.formula) <= set(scenario.vars):
            k = len(scenario.events) if check.after is None else check.after
            scene, evaluator, point = steps[k]
            phi = check.formula
            assert scene_eval(scene, phi) == evaluator.satisfies(point, phi), check.line


def test_minimization_preserves_truth_on_random_structures():
    for seed in range(10):
        scene = generate_scene(seed)
        for target in scene.structure.vocabulary:
            assert check_minimization(scene, target) is None, (seed, target)


# -- suite runner ---------------------------------------------------------------------

def test_run_suite_small():
    report = run_suite(seed=0, count=25)
    assert not report.failures
    assert report.checked == {
        "event": 25,
        "action": 25,
        "roundtrip": 25,
        "translation": 25,
        "minimization": 25,
    }
    assert report.minimal_failure() is None


def test_run_suite_selected_parts():
    report = run_suite(seed=7, count=5, parts=("event",))
    assert report.checked == {"event": 5}
    assert not report.failures


def test_suite_report_minimal_failure_ordering():
    report = SuiteReport()
    report.failures = [
        Counterexample("event", seed=5, detail="big", size=9),
        Counterexample("event", seed=9, detail="small", size=2),
        Counterexample("action", seed=3, detail="also small", size=2),
    ]
    best = report.minimal_failure()
    assert best is not None
    assert (best.size, best.seed) == (2, 3)
    assert report.failures
