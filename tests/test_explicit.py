"""Explicit model tests: Kripke semantics, product update, conversions."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import epistemic_formulas, scene_eval_enum
from symdel.boolfun import Engine
from symdel.bridge import Bounds, check_morphism, formula_family, generate_model_action
from symdel.errors import EvalError, VocabularyError
from symdel.explicit import (
    ActionModel,
    GlobalEvaluator,
    KripkeModel,
    PointedModel,
    binary_code,
    format_model,
    format_point,
    model_of_structure,
    observation_of,
    product_update,
    relation_of,
    structure_of_model,
)
from symdel.language import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Box,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    compile_formula,
    parse,
)
from symdel.symbolic import BeliefStructure, Scene


def coin_model() -> KripkeModel:
    return KripkeModel(
        vocabulary=("p",),
        worlds=("w",),
        relations={"a": {("w", "w")}, "b": {("w", "w")}},
        valuation={"w": {"p"}},
    )


def flip_action() -> ActionModel:
    """Toss a coin: hide the outcome from a, reveal it to b."""
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


# -- product update ----------------------------------------------------------

def test_coin_flip_product_update():
    model = coin_model()
    before = GlobalEvaluator(model)
    assert before.satisfies("w", parse("p"))
    assert before.satisfies("w", parse("[a] p"))
    assert before.satisfies("w", parse("[b] p"))

    updated = product_update(model, flip_action())
    assert set(updated.worlds) == {("w", "a1"), ("w", "a2")}
    assert updated.valuation[("w", "a1")] == frozenset()
    assert updated.valuation[("w", "a2")] == frozenset({"p"})
    assert len(updated.relations["a"]) == 4
    assert updated.relations["b"] == frozenset(
        {(("w", "a1"), ("w", "a1")), (("w", "a2"), ("w", "a2"))}
    )

    # a no longer knows the face, b does, on both branches
    after = GlobalEvaluator(updated)
    tails, heads = ("w", "a1"), ("w", "a2")
    assert after.satisfies(tails, parse("~p"))
    assert after.satisfies(tails, parse("~[a] ~p"))
    assert after.satisfies(tails, parse("~[a] p"))
    assert after.satisfies(tails, parse("[b] ~p"))
    assert after.satisfies(heads, parse("p & ~[a] p & [b] p"))


def test_skip_action_preserves_the_model():
    model = KripkeModel(
        vocabulary=("p", "q"),
        worlds=("u", "v"),
        relations={"a": {("u", "v"), ("v", "v")}},
        valuation={"u": {"p"}, "v": {"p", "q"}},
    )
    skip = ActionModel(("e",), {"a": {("e", "e")}}, {})
    updated = product_update(model, skip)
    pair = {w: (w, "e") for w in model.worlds}
    assert set(updated.worlds) == set(pair.values())
    for w in model.worlds:
        assert updated.valuation[pair[w]] == model.valuation[w]
    assert updated.relations["a"] == frozenset(
        (pair[u], pair[v]) for u, v in model.relations["a"]
    )


def test_false_precondition_eliminates_everything():
    model = coin_model()
    halt = ActionModel(("e",), {"a": set(), "b": set()}, {"e": BOT})
    updated = product_update(model, halt)
    assert updated.worlds == ()
    assert ("w", "e") not in updated.valuation


def test_epistemic_precondition_filters_worlds():
    model = KripkeModel(
        vocabulary=("p",),
        worlds=("u", "v"),
        relations={"a": {("u", "u"), ("v", "v")}},
        valuation={"u": {"p"}, "v": set()},
    )
    announce = ActionModel(("e",), {"a": {("e", "e")}}, {"e": parse("[a] p")})
    updated = product_update(model, announce)
    assert set(updated.worlds) == {("u", "e")}


def test_pointed_update_tracks_the_designated_pair():
    # the product names each surviving world by its (world, event) pair
    product = product_update(coin_model(), flip_action())
    assert ("w", "a2") in product.valuation
    assert GlobalEvaluator(product).satisfies(("w", "a2"), parse("p"))
    assert ("w", "a3") not in product.valuation


def test_postconditions_read_the_old_world():
    # simultaneous swap: p and q exchange values in one event
    model = KripkeModel(
        vocabulary=("p", "q"),
        worlds=("w",),
        relations={"a": {("w", "w")}},
        valuation={"w": {"p"}},
    )
    swap = ActionModel(
        ("e",),
        {"a": {("e", "e")}},
        {},
        {"e": {"p": parse("q"), "q": parse("p")}},
    )
    updated = product_update(model, swap)
    assert updated.valuation[("w", "e")] == frozenset({"q"})


# -- the explicit evaluator against the pointwise oracle ---------------------

def chain_model() -> KripkeModel:
    """Three worlds with deliberately non-symmetric relations."""
    return KripkeModel(
        vocabulary=("p", "q"),
        worlds=(0, 1, 2),
        relations={
            "a": {(0, 1), (1, 2), (2, 2)},
            "b": {(0, 0), (1, 0), (1, 2)},
        },
        valuation={0: {"p"}, 1: {"p", "q"}, 2: set()},
    )


@settings(max_examples=300, deadline=None)
@given(epistemic_formulas(("p", "q"), ("a", "b")))
def test_global_evaluator_matches_scene_eval_enum(formula):
    model = chain_model()
    evaluator = GlobalEvaluator(model)
    structure, g = structure_of_model(Engine(), model)
    for w in model.worlds:
        expected = scene_eval_enum(Scene(structure, g[w]), formula)
        assert evaluator.satisfies(w, formula) == expected


def test_global_evaluator_memo_is_stable():
    evaluator = GlobalEvaluator(chain_model())
    formula = parse("[a] (p -> [b] ~q)")
    first = evaluator.extension(formula)
    assert evaluator.extension(formula) == first
    # ~q holds at 0 and 2, the only b-successors, so [b] ~q holds everywhere
    assert first == frozenset({0, 1, 2})


def test_worlds_without_successors_believe_everything():
    model = KripkeModel(("p",), ("w",), {"a": set()}, {"w": set()})
    evaluator = GlobalEvaluator(model)
    assert evaluator.satisfies("w", parse("[a] p"))
    assert evaluator.satisfies("w", parse("[a] ~p"))
    assert not evaluator.satisfies("w", parse("~[a] p"))


def reference_truth(model: KripkeModel, world, formula) -> bool:
    """Truth at one world by recursion over the formula, reading the
    valuation and the relations directly; the reference for the
    evaluator's bitmasks."""
    match formula:
        case Top():
            return True
        case Bot():
            return False
        case Atom(name):
            return name in model.valuation[world]
        case Not(body):
            return not reference_truth(model, world, body)
        case And(parts):
            return all(reference_truth(model, world, p) for p in parts)
        case Or(parts):
            return any(reference_truth(model, world, p) for p in parts)
        case Implies(a, b):
            return not reference_truth(model, world, a) or reference_truth(model, world, b)
        case Iff(a, b):
            return reference_truth(model, world, a) == reference_truth(model, world, b)
        case Box(agent, body):
            return all(
                reference_truth(model, v, body)
                for u, v in model.relations[agent]
                if u == world
            )
    raise TypeError(f"not a formula: {formula!r}")


def assert_evaluator_matches_reference(model: KripkeModel):
    evaluator = GlobalEvaluator(model)
    for phi in formula_family(model.vocabulary, model.agents, 2):
        truth = {w: reference_truth(model, w, phi) for w in model.worlds}
        for w in model.worlds:
            assert evaluator.satisfies(w, phi) == truth[w], (w, phi)
        assert evaluator.extension(phi) == frozenset(w for w in model.worlds if truth[w])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Bounds(), Bounds(max_vocab=3, max_agents=3)]))
def test_global_evaluator_matches_the_reference_on_generated_models(seed, bounds):
    pointed, action, _ = generate_model_action(seed, bounds)
    assert_evaluator_matches_reference(pointed.model)
    assert_evaluator_matches_reference(product_update(pointed.model, action))


def test_global_evaluator_on_worlds_without_successors_and_outside_the_model():
    # v has no a-successor; w and u see each other
    model = KripkeModel(
        ("p",),
        ("w", "u", "v"),
        {"a": {("w", "u"), ("u", "w")}},
        {"w": {"p"}, "u": set(), "v": set()},
    )
    assert_evaluator_matches_reference(model)
    evaluator = GlobalEvaluator(model)
    assert evaluator.extension(parse("[a] p")) == frozenset({"u", "v"})
    assert evaluator.extension(parse("[a] Bot")) == frozenset({"v"})
    assert evaluator.extension(parse("~[a] p & ~[a] ~p")) == frozenset()
    for outside in ("x", ("w", "e"), 0):
        assert evaluator.satisfies(outside, TOP) is False
        assert evaluator.satisfies(outside, parse("[a] Bot")) is False


def test_global_evaluator_errors_come_from_evaluation():
    evaluator = GlobalEvaluator(coin_model())  # building it checks no formula
    for bad, message in (("q", "unknown atom: q"), ("[c] p", "unknown agent: c")):
        with pytest.raises(EvalError, match=re.escape(message)):
            evaluator.satisfies("w", parse(bad))
        with pytest.raises(EvalError, match=re.escape(message)):
            evaluator.satisfies("elsewhere", parse(bad))
        with pytest.raises(EvalError, match=re.escape(message)):
            evaluator.extension(parse(f"p & ~({bad})"))
    with pytest.raises(TypeError):
        evaluator.extension("p")
    with pytest.raises(TypeError):
        evaluator.satisfies("w", And((Atom("p"), "q")))
    assert evaluator.satisfies("w", parse("p & [a] p & [b] p"))


def reference_product(model: KripkeModel, action: ActionModel) -> KripkeModel:
    """Product update pair by pair: each precondition and postcondition
    read at one world through `satisfies`."""
    evaluator = GlobalEvaluator(model)
    pairs = [
        (w, a)
        for w in model.worlds
        for a in action.events
        if evaluator.satisfies(w, action.pre[a])
    ]
    valuation = {
        (w, a): frozenset(
            p
            for p in model.vocabulary
            if evaluator.satisfies(w, action.post.get(a, {}).get(p, Atom(p)))
        )
        for w, a in pairs
    }
    relations = {
        agent: frozenset(
            ((w, a), (v, b))
            for (w, v) in model.relations[agent]
            for (a, b) in action.relations[agent]
            if (w, a) in valuation and (v, b) in valuation
        )
        for agent in model.relations
    }
    return KripkeModel(model.vocabulary, tuple(pairs), relations, valuation)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Bounds(), Bounds(max_vocab=3, max_agents=3)]))
def test_product_update_matches_the_pair_by_pair_reference(seed, bounds):
    pointed, action, _ = generate_model_action(seed, bounds)
    product = product_update(pointed.model, action)
    expected = reference_product(pointed.model, action)
    assert product.worlds == expected.worlds
    assert format_model(product) == format_model(expected)
    again = product_update(product, action)
    assert format_model(again) == format_model(reference_product(product, action))


def test_product_update_of_a_model_without_worlds_evaluates_nothing():
    empty = KripkeModel(("p",), (), {"a": set()}, {})
    action = ActionModel(("e", "f"), {"a": {("e", "f")}}, {"e": parse("[c] p"), "f": parse("z")})
    assert product_update(empty, action).worlds == ()
    with pytest.raises(EvalError, match="unknown agent: c"):
        product_update(KripkeModel(("p",), ("w",), {"a": set()}, {"w": set()}), action)


# -- validation --------------------------------------------------------------

def test_model_validation_errors():
    with pytest.raises(VocabularyError):
        KripkeModel(("p", "p"), ("w",), {}, {"w": set()})
    with pytest.raises(VocabularyError):
        KripkeModel(("p",), ("w", "w"), {}, {"w": set()})
    with pytest.raises(VocabularyError):
        KripkeModel(("p",), ("w",), {"a": {("w", "v")}}, {"w": set()})
    with pytest.raises(VocabularyError):
        KripkeModel(("p",), ("w", "v"), {}, {"w": set()})
    with pytest.raises(VocabularyError):
        KripkeModel(("p",), ("w",), {}, {"w": {"q"}})
    with pytest.raises(VocabularyError):
        PointedModel(coin_model(), "v")


def test_action_validation_errors():
    with pytest.raises(VocabularyError):
        ActionModel(("e", "e"), {}, {})
    with pytest.raises(VocabularyError):
        ActionModel(("e",), {}, {"f": TOP})
    with pytest.raises(VocabularyError):
        ActionModel(("e",), {}, {}, {"f": {"p": TOP}})
    with pytest.raises(VocabularyError):
        ActionModel(("e",), {}, {}, {"e": {"p": parse("[a] q")}})
    # epistemic preconditions are fine
    ActionModel(("e",), {}, {"e": parse("[a] q")})


def test_update_validation_errors():
    model = coin_model()
    with pytest.raises(VocabularyError):
        product_update(model, ActionModel(("e",), {"a": set()}, {}))
    both = {"a": set(), "b": set()}
    with pytest.raises(VocabularyError):
        product_update(
            model, ActionModel(("e",), both, {}, {"e": {"q": TOP}})
        )
    with pytest.raises(EvalError):
        product_update(
            model, ActionModel(("e",), both, {}, {"e": {"p": parse("q")}})
        )
    with pytest.raises(EvalError):
        GlobalEvaluator(model).satisfies("w", parse("q"))
    with pytest.raises(EvalError):
        GlobalEvaluator(model).satisfies("w", parse("[c] p"))
    with pytest.raises(EvalError):
        GlobalEvaluator(model).extension(parse("[c] p"))


# -- structures to models ----------------------------------------------------

def test_model_of_structure_single_state():
    engine = Engine()
    p = engine.variable("p")
    env = {"p": p, "p'": engine.primed(p)}
    obs = compile_formula(parse("p <-> p'"), env, engine)
    structure = BeliefStructure(
        engine, (p,), engine.atom(p), {"a": obs, "b": obs}
    )
    model = model_of_structure(structure)
    state = frozenset({"p"})
    assert model.worlds == (state,)
    assert model.valuation[state] == state
    assert model.relations["a"] == frozenset({(state, state)})
    assert model.relations["b"] == frozenset({(state, state)})


def test_model_of_structure_empty_law():
    engine = Engine()
    p = engine.variable("p")
    structure = BeliefStructure(engine, (p,), engine.false, {"a": engine.true})
    model = model_of_structure(structure)
    assert model.worlds == ()
    assert model.relations["a"] == frozenset()


def test_model_of_structure_two_states():
    # the end of the false-belief story: p fixed, t and q complementary,
    # one observer pinned to the q-free state and one tracking q
    engine = Engine()
    env = {}
    for stem in ("p", "t", "q"):
        var = engine.variable(stem)
        env[stem] = var
        env[stem + "'"] = engine.primed(var)
    structure = BeliefStructure(
        engine,
        (env["p"], env["t"], env["q"]),
        compile_formula(parse("(t <-> ~q) & p"), env, engine),
        {
            "Sally": compile_formula(parse("~q'"), env, engine),
            "Anne": compile_formula(parse("q <-> q'"), env, engine),
        },
    )
    model = model_of_structure(structure)
    pt = frozenset({"p", "t"})
    pq = frozenset({"p", "q"})
    assert set(model.worlds) == {pt, pq}
    assert model.relations["Sally"] == frozenset({(pt, pt), (pq, pt)})
    assert model.relations["Anne"] == frozenset({(pt, pt), (pq, pq)})
    evaluator = GlobalEvaluator(model)
    assert evaluator.satisfies(pq, parse("[Sally] t"))
    assert evaluator.satisfies(pq, parse("[Anne] ~t"))
    assert evaluator.satisfies(pq, parse("[Anne] [Sally] t"))


# -- models to structures ----------------------------------------------------

def test_structure_of_model_distinct_valuations():
    model = product_update(coin_model(), flip_action())
    engine = Engine()
    structure, g = structure_of_model(engine, model)
    assert tuple(v.name for v in structure.vocabulary) == ("p",)
    for w in model.worlds:
        assert frozenset(v.name for v in g[w]) == model.valuation[w]
    assert check_morphism(structure, model, ("p",), g) is None
    assert len(structure.states()) == len(model.worlds)


def test_structure_of_model_duplicate_valuations():
    model = KripkeModel(
        vocabulary=("p",),
        worlds=("u", "v", "x"),
        relations={"a": {("u", "v"), ("v", "x"), ("x", "u")}},
        valuation={"u": {"p"}, "v": {"p"}, "x": {"p"}},
    )
    engine = Engine()
    structure, g = structure_of_model(engine, model)
    # distinguishing variables make the state map injective
    assert len({g[w] for w in model.worlds}) == 3
    assert len(structure.vocabulary) == 3
    assert check_morphism(structure, model, ("p",), g) is None
    back = model_of_structure(structure)
    assert len(back.worlds) == 3
    assert all("p" in back.valuation[w] for w in back.worlds)


def _random_function(rng, engine, variables, depth):
    if depth == 0:
        atom = engine.atom(rng.choice(variables))
        return atom if rng.random() < 0.5 else ~atom
    a = _random_function(rng, engine, variables, depth - 1)
    b = _random_function(rng, engine, variables, depth - 1)
    return rng.choice((a & b, a | b, a.iff(b)))


def test_relation_and_observation_invert_each_other():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    assert binary_code("wxyz", [p, q]) == {
        "w": frozenset(), "x": {p}, "y": {q}, "z": {p, q}
    }
    rng = random.Random("coding")
    for _ in range(50):
        engine = Engine()
        universe = [engine.variable(s) for s in ("p", "q", "r")[: rng.randint(1, 3)]]
        primed = [engine.primed(v) for v in universe]
        # a relation over points with distinct codes comes back from its
        # observation function
        points = binary_code(range(rng.randint(1, 2 ** len(universe))), universe)
        relation = frozenset(
            (a, b) for a in points for b in points if rng.random() < 0.4
        )
        obs = observation_of(engine, relation, points, universe)
        assert relation_of(obs, points) == relation
        # when every subset of the universe is a point, an observation
        # function is determined by the pairs it accepts
        subsets = binary_code(range(2 ** len(universe)), universe)
        obs = _random_function(rng, engine, universe + primed, 3)
        assert observation_of(engine, relation_of(obs, subsets), subsets, universe) == obs


# -- formatting ---------------------------------------------------------------

def test_format_point_shapes():
    assert format_point(frozenset({"q", "p"})) == "{p,q}"
    assert format_point(("w", "a1")) == "(w,a1)"
    assert format_point((("w", "a1"), frozenset())) == "((w,a1),{})"
    assert format_point(3) == "3"


def test_format_model_golden():
    assert format_model(coin_model(), point="w") == (
        "props: p\n"
        "* w |= {p}\n"
        "rel a: w->w\n"
        "rel b: w->w"
    )
