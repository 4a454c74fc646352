"""Formula syntax tests: parser, printer, substitutions, compiler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bf_truth, boolean_formulas, epistemic_formulas
from symdel.boolfun import Engine
from symdel.errors import CompileError, ParseError
from symdel.language import (
    BOT,
    TOP,
    And,
    Atom,
    Box,
    Iff,
    Implies,
    Not,
    Or,
    atoms_of,
    agents_of,
    compile_formula,
    conj,
    disj,
    format_formula,
    is_boolean,
    parse,
    recover_formula,
    subformulas,
    subset_formula,
    substitute,
)


# -- parsing and printing ----------------------------------------------------

def test_precedence_and_associativity():
    assert parse("p & q | r") == Or((And((Atom("p"), Atom("q"))), Atom("r")))
    assert parse("p | q & r") == Or((Atom("p"), And((Atom("q"), Atom("r")))))
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
    assert parse("p <-> q <-> r") == Iff(Iff(Atom("p"), Atom("q")), Atom("r"))
    assert parse("~p & q") == And((Not(Atom("p")), Atom("q")))
    assert parse("~(p & q)") == Not(And((Atom("p"), Atom("q"))))
    assert parse("[a] p & q") == And((Box("a", Atom("p")), Atom("q")))
    assert parse("[a] (p & q)") == Box("a", And((Atom("p"), Atom("q"))))
    assert parse("[a] [b] p") == Box("a", Box("b", Atom("p")))
    assert parse("~[a] ~p") == Not(Box("a", Not(Atom("p"))))


def test_decorated_atoms_and_constants():
    assert parse("p'") == Atom("p'")
    assert parse("p°") == Atom("p°")
    assert parse("p@o") == Atom("p°")
    assert parse("p@o2'") == Atom("p°2'")
    assert parse("Top") is TOP
    assert parse("Bot") is BOT


def test_minimal_parentheses():
    cases = {
        "p & q | r": "p & q | r",
        "(p | q) & r": "(p | q) & r",
        "p -> (q -> r)": "p -> q -> r",
        "(p -> q) -> r": "(p -> q) -> r",
        "(p <-> q) <-> r": "p <-> q <-> r",
        "p <-> (q <-> r)": "p <-> (q <-> r)",
        "~(p -> q)": "~(p -> q)",
        "[a] (p -> q)": "[a] (p -> q)",
        "[a] p -> q": "[a] p -> q",
    }
    for text, expected in cases.items():
        assert format_formula(parse(text)) == expected


@settings(max_examples=200)
@given(epistemic_formulas(["p", "q", "r'", "t°"], ["a", "sally"]))
def test_format_parse_round_trip(formula):
    assert parse(format_formula(formula)) == formula


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("p $ q")
    assert "col 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("p q")
    assert "unexpected" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("[a p")
    assert "expected ']'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("(p", line=7)
    assert "line 7" in str(err.value)


# -- helpers ------------------------------------------------------------------

def test_smart_constructors_fold_units():
    p = Atom("p")
    assert conj([]) is TOP
    assert conj([p]) is p
    assert conj([TOP, p, TOP]) is p
    assert conj([p, BOT]) is BOT
    assert disj([]) is BOT
    assert disj([p, TOP]) is TOP
    assert disj([BOT, p]) is p


def test_atoms_agents_boolean():
    phi = parse("[a] (p & ~q) -> [b] r | p")
    assert atoms_of(phi) == {"p", "q", "r"}
    assert agents_of(phi) == {"a", "b"}
    assert not is_boolean(phi)
    assert is_boolean(parse("p & ~q | Top"))


def test_walkers_past_the_recursion_limit():
    phi = Box("a", Atom("p"))
    for _ in range(20_000):
        phi = Not(phi)
    assert atoms_of(phi) == {"p"}
    assert agents_of(phi) == {"a"}
    assert not is_boolean(phi)
    assert list(subformulas(parse("p & ~q -> [a] r"))) == [
        parse("p & ~q -> [a] r"),
        parse("p & ~q"),
        Atom("p"),
        parse("~q"),
        Atom("q"),
        parse("[a] r"),
        Atom("r"),
    ]


def test_map_atoms_and_substitute_parallel():
    phi = parse("p -> q")
    swapped = substitute(phi, {"p": Atom("q"), "q": Atom("p")})
    assert swapped == parse("q -> p")
    boxed = parse("[a] p & q")
    assert substitute(boxed, {"p": BOT, "q": TOP}) == And((Box("a", BOT), TOP))


def test_subset_formula_order_and_errors():
    assert subset_formula({"q"}, ["p", "q", "r"]) == parse("q & ~p & ~r")
    assert subset_formula(set(), ["p", "q"]) == parse("~p & ~q")
    assert subset_formula({"p", "q"}, ["p", "q"]) == parse("p & q")
    assert subset_formula(set(), []) is TOP
    assert subset_formula({"b"}, {"a", "b"}) == parse("b & ~a")
    with pytest.raises(ValueError):
        subset_formula({"z"}, ["p"])


# -- compilation ---------------------------------------------------------------

@settings(max_examples=150)
@given(
    boolean_formulas(["p", "q", "r"]),
    st.sets(st.sampled_from(["p", "q", "r"])),
)
def test_compile_matches_truth_oracle(formula, true_names):
    engine = Engine()
    env = {n: engine.variable(n) for n in ["p", "q", "r"]}
    fn = compile_formula(formula, env, engine)
    assert fn.holds({env[n] for n in true_names}) == bf_truth(formula, true_names)


def test_compile_homomorphism():
    engine = Engine()
    env = {n: engine.variable(n) for n in ["p", "q"]}
    f = parse("p -> q")
    g = parse("q & ~p")
    assert compile_formula(Not(f), env, engine) == ~compile_formula(f, env, engine)
    assert compile_formula(And((f, g)), env, engine) == (
        compile_formula(f, env, engine) & compile_formula(g, env, engine)
    )
    assert compile_formula(Iff(f, g), env, engine) == compile_formula(
        f, env, engine
    ).iff(compile_formula(g, env, engine))


def test_compile_errors():
    engine = Engine()
    env = {"p": engine.variable("p")}
    with pytest.raises(CompileError):
        compile_formula(parse("p & z"), env, engine)
    with pytest.raises(CompileError):
        compile_formula(parse("[a] p"), env, engine)


def test_substitution_then_compile_is_compose():
    """[p/ψ]φ compiled equals function composition on the compiled parts."""
    rng = random.Random("subst")
    engine = Engine()
    names = ["p", "q", "r"]
    env = {n: engine.variable(n) for n in names}
    from conftest import random_boolean_formula

    for _ in range(100):
        phi = random_boolean_formula(rng, names, 3)
        psi = random_boolean_formula(rng, names, 2)
        target = rng.choice(names)
        via_formula = compile_formula(
            substitute(phi, {target: psi}), env, engine
        )
        via_function = engine.compose(
            compile_formula(phi, env, engine),
            env[target],
            compile_formula(psi, env, engine),
        )
        assert via_formula == via_function


# -- recovery -------------------------------------------------------------------

def test_recover_simple_shapes():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    assert recover_formula(engine.true) is TOP
    assert recover_formula(engine.false) is BOT
    assert recover_formula(engine.atom(p)) == Atom("p")
    assert recover_formula(~engine.atom(p)) == Not(Atom("p"))
    assert recover_formula(engine.atom(p).iff(engine.atom(q))) == Iff(
        Atom("p"), Atom("q")
    )
    assert recover_formula(engine.atom(p).iff(~engine.atom(q))) == Iff(
        Atom("p"), Not(Atom("q"))
    )


@settings(max_examples=150)
@given(boolean_formulas(["p", "q", "r"]))
def test_recover_round_trips_through_compile(formula):
    engine = Engine()
    env = {n: engine.variable(n) for n in ["p", "q", "r"]}
    fn = compile_formula(formula, env, engine)
    primed_env = dict(env)
    back = compile_formula(recover_formula(fn), primed_env, engine)
    assert back == fn
