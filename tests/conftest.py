"""Shared oracles and formula generators for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from symdel.errors import EvalError
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
)
from symdel.symbolic import Scene, minimize


def diagram_facts(engine, fn):
    """fn's support and factor split, by name, comparable across engines
    that allocated the same variables in the same order."""
    return (
        sorted(v.name for v in fn.support()),
        [[[(v.name, value) for v, value in cube] for cube in engine.cubes(g)]
         for g in engine.factors(fn)],
    )


def bf_truth(formula, true_set):
    """Independent truth evaluation of a belief-free formula.

    Recursive over the AST against a set of true atom names; used as
    the oracle for the boolean-function engine and the compiler.
    """
    match formula:
        case Top():
            return True
        case Bot():
            return False
        case Atom(name):
            return name in true_set
        case Not(body):
            return not bf_truth(body, true_set)
        case And(parts):
            return all(bf_truth(p, true_set) for p in parts)
        case Or(parts):
            return any(bf_truth(p, true_set) for p in parts)
        case Implies(a, b):
            return not bf_truth(a, true_set) or bf_truth(b, true_set)
        case Iff(a, b):
            return bf_truth(a, true_set) == bf_truth(b, true_set)
        case _:
            raise TypeError(f"not a boolean formula: {formula!r}")


def scene_eval_enum(scene, formula):
    """Independent truth evaluation at a scene, pointwise over the AST.

    Enumerates the structure's states at each belief operator, so it is
    exponential in the vocabulary; used as the oracle for the explicit
    evaluator and the boolean translation.
    """
    structure, state = scene.structure, scene.state
    engine = structure.engine
    env = structure.env
    match formula:
        case Top():
            return True
        case Bot():
            return False
        case Atom(name):
            var = env.get(name)
            if var is None:
                raise EvalError(f"unknown atom: {name}")
            return var in state
        case Not(body):
            return not scene_eval_enum(scene, body)
        case And(parts):
            return all(scene_eval_enum(scene, p) for p in parts)
        case Or(parts):
            return any(scene_eval_enum(scene, p) for p in parts)
        case Implies(a, b):
            return not scene_eval_enum(scene, a) or scene_eval_enum(scene, b)
        case Iff(a, b):
            return scene_eval_enum(scene, a) == scene_eval_enum(scene, b)
        case Box(agent, body):
            obs = structure.observations.get(agent)
            if obs is None:
                raise EvalError(f"unknown agent: {agent}")
            for t in structure.states():
                primed_t = {engine.primed(v) for v in t}
                if obs.holds(state | primed_t):
                    if not scene_eval_enum(Scene(structure, t), body):
                        return False
            return True
        case _:
            raise TypeError(f"not a formula: {formula!r}")


def minimize_scene(scene, keep=()):
    """The scene with every variable outside keep minimized away
    (`minimize`) and its state cut to the remaining vocabulary."""
    reduced = minimize(scene.structure, keep)
    return Scene(reduced, scene.state & frozenset(reduced.vocabulary))


def truth_table(formula, atoms):
    """Tuple of values over all assignments, in binary counting order."""
    atoms = list(atoms)
    rows = []
    for k in range(2 ** len(atoms)):
        row = {a for j, a in enumerate(atoms) if (k >> (len(atoms) - 1 - j)) & 1}
        rows.append(bf_truth(formula, row))
    return tuple(rows)


def random_boolean_formula(rng: random.Random, atoms, depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TOP
        if roll < 0.2:
            return BOT
        return Atom(rng.choice(atoms))
    k = rng.randrange(5)
    if k == 0:
        return Not(random_boolean_formula(rng, atoms, depth - 1))
    a = random_boolean_formula(rng, atoms, depth - 1)
    b = random_boolean_formula(rng, atoms, depth - 1)
    if k == 1:
        return And((a, b))
    if k == 2:
        return Or((a, b))
    if k == 3:
        return Implies(a, b)
    return Iff(a, b)


def boolean_formulas(atoms, max_depth=4):
    """Hypothesis strategy for belief-free formulas over the given atoms."""
    leaves = st.one_of(
        st.just(TOP),
        st.just(BOT),
        st.sampled_from([Atom(a) for a in atoms]),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            st.tuples(children, children).map(lambda ab: Iff(*ab)),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


def epistemic_formulas(atoms, agents, max_depth=4):
    """Hypothesis strategy for formulas with belief operators."""
    leaves = st.one_of(
        st.just(TOP),
        st.just(BOT),
        st.sampled_from([Atom(a) for a in atoms]),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            st.tuples(children, children).map(lambda ab: Iff(*ab)),
            st.tuples(st.sampled_from(list(agents)), children).map(
                lambda pair: Box(*pair)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


@pytest.fixture
def engine():
    from symdel.boolfun import Engine

    return Engine()
