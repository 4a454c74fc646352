"""Formula syntax tests: parser, printer, substitutions, compiler."""

import copy
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bf_truth, boolean_formulas, epistemic_formulas
import symdel
from symdel.boolfun import Engine
from symdel.errors import CompileError, EvalError, ParseError
from symdel.explicit import GlobalEvaluator, KripkeModel
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
from symdel.symbolic import BeliefStructure, Translator


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


def test_hash_is_stored_when_a_node_is_built():
    phi = Box("a", Atom("p"))
    for _ in range(20_000):
        phi = Not(phi)
    # a recursive hash would pass the recursion limit here
    assert {phi: 1}[phi] == 1
    same = parse("[a] (p & ~q) -> r | Top")
    for twin in (copy.copy(same), copy.deepcopy(same), parse(format_formula(same))):
        assert twin == same
        assert hash(twin) == hash(same)


PICKLED_TEXT = "[a] (p & ~q) -> r° | [b] Top"


def _python(code: str, hash_seed: str, stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(Path(symdel.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code, PICKLED_TEXT],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_pickled_formula_is_found_under_another_hash_seed():
    # string hashes differ between the two processes, so a stored hash
    # carried by the pickle would miss the dict key
    dump = (
        "import pickle, sys\n"
        "from symdel.language import parse\n"
        "print(pickle.dumps(parse(sys.argv[1])).hex())\n"
    )
    load = (
        "import pickle, sys\n"
        "from symdel.language import parse\n"
        "phi = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "table = {parse(sys.argv[1]): 'found'}\n"
        "print(table.get(phi, 'missing'), hash(phi) == hash(parse(sys.argv[1])))\n"
    )
    data = _python(dump, "1")
    assert _python(load, "2", stdin=data).split() == ["found", "True"]


def test_map_atoms_and_substitute_parallel():
    phi = parse("p -> q")
    swapped = substitute(phi, {"p": Atom("q"), "q": Atom("p")})
    assert swapped == parse("q -> p")
    boxed = parse("[a] p & q")
    assert substitute(boxed, {"p": BOT, "q": TOP}) == And((Box("a", BOT), TOP))


def test_substitute_builds_only_what_changes():
    phi = parse("[a] (p & ~q) | (r -> s) | (t <-> u)")
    assert substitute(phi, {}) is phi
    assert substitute(phi, {"zz": TOP}) is phi
    changed = substitute(phi, {"p": TOP})
    assert changed == parse("[a] (Top & ~q) | (r -> s) | (t <-> u)")
    assert changed.parts[0].body.parts[1] is phi.parts[0].body.parts[1]
    assert changed.parts[1] is phi.parts[1]
    assert changed.parts[2] is phi.parts[2]


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
        via_function = engine.compose_many(
            compile_formula(phi, env, engine),
            {env[target]: compile_formula(psi, env, engine)},
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


# -- the walkers against match-statement references ----------------------------
#
# Each walker dispatches on the exact node class.  The references below
# are the same walkers written with one `match` case per node kind, the
# form they had before; the test runs both on formulas of all nine kinds.

ATOMS = ("p", "q", "r")
AGENTS = ("a", "b")


def all_kinds(atoms=ATOMS, agents=AGENTS):
    """Formulas of all nine node kinds, with n-ary (also empty) And and Or."""
    leaves = st.one_of(
        st.just(TOP), st.just(BOT), st.sampled_from([Atom(a) for a in atoms])
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.lists(children, max_size=3).map(lambda ps: And(tuple(ps))),
            st.lists(children, max_size=3).map(lambda ps: Or(tuple(ps))),
            st.tuples(children, children).map(lambda ab: Implies(*ab)),
            st.tuples(children, children).map(lambda ab: Iff(*ab)),
            st.tuples(st.sampled_from(agents), children).map(lambda ab: Box(*ab)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def ref_subformulas(formula):
    stack = [formula]
    while stack:
        phi = stack.pop()
        yield phi
        match phi:
            case Not(body) | Box(_, body):
                stack.append(body)
            case And(parts) | Or(parts):
                stack.extend(reversed(parts))
            case Implies(a, b) | Iff(a, b):
                stack.extend((b, a))


def ref_map_atoms(formula, fn):
    match formula:
        case Atom():
            return fn(formula)
        case Not(body):
            new = ref_map_atoms(body, fn)
            return formula if new is body else Not(new)
        case And(parts) | Or(parts):
            new = tuple(ref_map_atoms(p, fn) for p in parts)
            if all(a is b for a, b in zip(new, parts)):
                return formula
            return type(formula)(new)
        case Implies(a, b) | Iff(a, b):
            new_a, new_b = ref_map_atoms(a, fn), ref_map_atoms(b, fn)
            if new_a is a and new_b is b:
                return formula
            return type(formula)(new_a, new_b)
        case Box(agent, body):
            new = ref_map_atoms(body, fn)
            return formula if new is body else Box(agent, new)
        case _:
            return formula


def ref_format(phi, ctx=1):
    def wrap(text, level):
        return f"({text})" if level < ctx else text

    match phi:
        case Top():
            return "Top"
        case Bot():
            return "Bot"
        case Atom(name):
            return name
        case Not(body):
            return wrap("~" + ref_format(body, 5), 5)
        case Box(agent, body):
            return wrap(f"[{agent}] " + ref_format(body, 5), 5)
        case And(parts):
            return wrap(" & ".join(ref_format(p, 5) for p in parts), 4)
        case Or(parts):
            return wrap(" | ".join(ref_format(p, 4) for p in parts), 3)
        case Implies(a, b):
            return wrap(ref_format(a, 3) + " -> " + ref_format(b, 2), 2)
        case Iff(a, b):
            return wrap(ref_format(a, 1) + " <-> " + ref_format(b, 2), 1)
        case _:
            raise TypeError(f"not a formula: {phi!r}")


def ref_compile_with(formula, env, engine, box):
    """Compilation through the public function operations."""
    match formula:
        case Top():
            return engine.true
        case Bot():
            return engine.false
        case Atom(name):
            if name not in env:
                raise CompileError(f"unbound atom: {name}")
            return engine.atom(env[name])
        case Not(body):
            return ~ref_compile_with(body, env, engine, box)
        case And(parts):
            return engine.conj([ref_compile_with(p, env, engine, box) for p in parts])
        case Or(parts):
            return engine.disj([ref_compile_with(p, env, engine, box) for p in parts])
        case Implies(a, b):
            return ref_compile_with(a, env, engine, box).implies(
                ref_compile_with(b, env, engine, box)
            )
        case Iff(a, b):
            return ref_compile_with(a, env, engine, box).iff(
                ref_compile_with(b, env, engine, box)
            )
        case Box():
            return box(formula)
        case _:
            raise TypeError(f"not a formula: {formula!r}")


class RefTranslator:
    """K_i phi = ~ exists V' (law' & obs_i & ~phi'), with public operations."""

    def __init__(self, structure):
        self.structure = structure
        engine = structure.engine
        self.primed = [engine.primed(v) for v in structure.vocabulary]
        self.law_primed = engine.prime(structure.law)

    def fn(self, formula):
        s = self.structure
        return ref_compile_with(formula, s.env, s.engine, self.box)

    def box(self, formula):
        engine = self.structure.engine
        obs = self.structure.observations.get(formula.agent)
        if obs is None:
            raise EvalError(f"unknown agent: {formula.agent}")
        refuted = ~engine.prime(self.fn(formula.body))
        return ~engine.and_exists(self.law_primed & obs, refuted, self.primed)


class RefEvaluator:
    """Extension masks by a `match` over the formula, world k at bit k."""

    def __init__(self, model):
        self.model = model
        self.all = (1 << len(model.worlds)) - 1
        index = {w: k for k, w in enumerate(model.worlds)}
        self.succ = {}
        for agent, rel in model.relations.items():
            succ = self.succ[agent] = [0] * len(model.worlds)
            for u, v in rel:
                succ[index[u]] |= 1 << index[v]

    def mask(self, formula):
        match formula:
            case Not(body):
                return self.all ^ self.mask(body)
            case Box(agent, body):
                succ = self.succ.get(agent)
                if succ is None:
                    raise EvalError(f"unknown agent: {agent}")
                outside = self.all ^ self.mask(body)
                return sum(1 << k for k, s in enumerate(succ) if not s & outside)
            case Atom(name):
                m = self.model
                if name not in m.vocabulary:
                    raise EvalError(f"unknown atom: {name}")
                return sum(1 << k for k, w in enumerate(m.worlds) if name in m.valuation[w])
            case And(parts):
                mask = self.all
                for p in parts:
                    mask &= self.mask(p)
                return mask
            case Or(parts):
                mask = 0
                for p in parts:
                    mask |= self.mask(p)
                return mask
            case Implies(a, b):
                return (self.all ^ self.mask(a)) | self.mask(b)
            case Iff(a, b):
                return self.all ^ self.mask(a) ^ self.mask(b)
            case Top():
                return self.all
            case Bot():
                return 0
            case _:
                raise TypeError(f"not a formula: {formula!r}")


def walker_structure():
    """Three variables, a law with two holes, and two agents whose
    observation functions are neither reflexive nor symmetric."""
    engine = Engine()
    env = {n: engine.variable(n) for n in ATOMS}
    env.update({n + "'": engine.primed(v) for n, v in list(env.items())})

    def fn(text):
        return compile_formula(parse(text), env, engine)

    return BeliefStructure(
        engine,
        tuple(engine.variable(n) for n in ATOMS),
        fn("p | q"),
        {"a": fn("(p <-> q') & ~r'"), "b": fn("q -> p' | r")},
    )


WALKER_MODEL = KripkeModel(
    ATOMS,
    ("w", "u", "v", "x"),
    {"a": {("w", "u"), ("u", "v"), ("v", "v")}, "b": {("w", "w"), ("u", "w"), ("x", "v")}},
    {"w": {"p"}, "u": {"p", "q"}, "v": set(), "x": {"r"}},
)


def original_nodes(result, formula):
    """The ids of the nodes of formula that result reuses."""
    ids = {id(phi) for phi in subformulas(formula)}
    return {id(phi) for phi in subformulas(result)} & ids


@settings(max_examples=300, deadline=None)
@given(all_kinds(), st.sets(st.sampled_from(ATOMS)), st.sampled_from(ATOMS))
def test_walkers_match_their_match_statement_references(formula, true_names, name):
    # traversal and printing
    assert list(subformulas(formula)) == list(ref_subformulas(formula))
    assert format_formula(formula) == ref_format(formula)

    # atom maps: equal results that reuse the same original nodes
    for binding in ({}, {"zz": TOP}, {name: Not(Atom(name))}, {"p": Atom("q"), "q": BOT}):
        new = substitute(formula, binding)
        ref = ref_map_atoms(formula, lambda atom: binding.get(atom.name, atom))
        assert new == ref
        assert original_nodes(new, formula) == original_nodes(ref, formula)
        if not binding.keys() & atoms_of(formula):
            assert new is formula

    # compilation: the same node as the public operations build, and the
    # truth table of the belief-free formulas
    engine = Engine()
    env = {n: engine.variable(n) for n in ATOMS}
    if is_boolean(formula):
        fn = compile_formula(formula, env, engine)
        assert fn == ref_compile_with(formula, env, engine, None)
        assert fn.holds({env[n] for n in true_names}) == bf_truth(formula, true_names)
    else:
        with pytest.raises(CompileError, match=r"belief operator \[\w+\] in a boolean-only"):
            compile_formula(formula, env, engine)

    # the translator, once fresh and once from its warm memo
    structure = walker_structure()
    translator, ref = Translator(structure), RefTranslator(structure)
    expected = ref.fn(formula)
    assert translator.fn(formula) == expected
    for phi in subformulas(formula):
        assert translator.fn(phi) == ref.fn(phi)
    assert translator.fn(formula) == expected

    # the explicit oracle's masks
    evaluator, ref_eval = GlobalEvaluator(WALKER_MODEL), RefEvaluator(WALKER_MODEL)
    mask = ref_eval.mask(formula)
    worlds = WALKER_MODEL.worlds
    assert evaluator.extension(formula) == {w for k, w in enumerate(worlds) if mask >> k & 1}
    for phi in subformulas(formula):
        assert evaluator._mask(phi) == ref_eval.mask(phi)


def test_walker_errors():
    engine = Engine()
    env = {n: engine.variable(n) for n in ATOMS}
    structure = walker_structure()
    evaluator = GlobalEvaluator(WALKER_MODEL)
    p = Atom("p")
    for bad in (5, "p", None, [p]):
        message = re.escape(f"not a formula: {bad!r}")
        with pytest.raises(TypeError, match=message):
            compile_formula(bad, env, engine)
        with pytest.raises(TypeError, match=message):
            Translator(structure).fn(bad)
        with pytest.raises(TypeError, match=message):
            format_formula(bad)
        if isinstance(bad, list):
            continue  # a node's children are hashable
        with pytest.raises(TypeError, match=message):
            compile_formula(And((p, Not(bad))), env, engine)
        with pytest.raises(TypeError, match=message):
            Translator(structure).fn(Box("a", Iff(p, bad)))
        with pytest.raises(TypeError, match=message):
            format_formula(Or((p, Box("a", bad))))
        with pytest.raises(TypeError, match=message):
            evaluator.extension(Implies(p, bad))

    with pytest.raises(CompileError, match="^unbound atom: z$"):
        compile_formula(parse("p & (q | ~z)"), env, engine)
    with pytest.raises(CompileError, match="^unbound atom: z$"):
        Translator(structure).fn(parse("[a] (p -> z)"))
    with pytest.raises(CompileError, match=r"^belief operator \[b\] in a boolean-only context$"):
        compile_formula(parse("p -> ~[b] q"), env, engine)
    with pytest.raises(EvalError, match="^unknown agent: c$"):
        Translator(structure).fn(parse("p & [c] q"))
    with pytest.raises(EvalError, match="^unknown agent: c$"):
        evaluator.extension(parse("p & [c] q"))
    with pytest.raises(EvalError, match="^unknown atom: z$"):
        evaluator.extension(parse("[a] z"))
