"""Engine tests: canonicity against truth tables, operation oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bf_truth,
    boolean_formulas,
    diagram_facts,
    random_boolean_formula,
    truth_table,
)
from symdel.boolfun import BoolFnError, Engine, VarId
from symdel.language import And, Atom, Not, compile_formula, parse


def _env(engine, names):
    return {name: engine.variable(name) for name in names}


def test_canonicity_on_random_pairs():
    """Equal as objects exactly when the truth tables agree: 1000 pairs."""
    rng = random.Random("canonicity")
    engine = Engine()
    names = ["p", "q", "r"]
    env = _env(engine, names)
    for _ in range(1000):
        a = random_boolean_formula(rng, names, 3)
        b = random_boolean_formula(rng, names, 3)
        fa = compile_formula(a, env, engine)
        fb = compile_formula(b, env, engine)
        same = truth_table(a, names) == truth_table(b, names)
        assert (fa == fb) == same
        assert (fa.node is fb.node) == same


@settings(max_examples=150)
@given(boolean_formulas(["p", "q", "r"]), st.sets(st.sampled_from(["p", "q", "r"])))
def test_holds_matches_direct_evaluation(formula, true_names):
    engine = Engine()
    env = _env(engine, ["p", "q", "r"])
    fn = compile_formula(formula, env, engine)
    assignment = {env[n] for n in true_names}
    assert fn.holds(assignment) == bf_truth(formula, true_names)


def test_constants():
    engine = Engine()
    assert engine.true.is_true and not engine.true.is_false
    assert engine.false.is_false and not engine.false.is_true
    assert engine.true.support() == frozenset()
    p = engine.atom(engine.variable("p"))
    assert (engine.true & p) == p


def test_combine_contradiction_and_iff():
    engine = Engine()
    p = engine.variable("p")
    q = engine.variable("q")
    fp, fq = engine.atom(p), engine.atom(q)
    assert (fp & ~fp).is_false
    models = engine.sat_assignments(fp.iff(fq), [p, q])
    assert models == [frozenset(), frozenset({p, q})]


CONNECTIVES = {
    "not": lambda a: not a,
    "and": lambda *args: all(args),
    "or": lambda *args: any(args),
    "implies": lambda a, b: not a or b,
    "iff": lambda a, b: a == b,
}


def test_combine_matches_truth_tables():
    """Every connective on seeded random functions, their complements and
    the constants, so equal, complementary and constant arguments occur."""
    rng = random.Random("combine")
    engine = Engine()
    names = ["p", "q", "r"]
    env = _env(engine, names)
    rows = [{n for j, n in enumerate(names) if (k >> j) & 1} for k in range(8)]

    def table_of(fn):
        return tuple(fn.holds({env[n] for n in row}) for row in rows)

    for _ in range(40):
        pool = [(engine.true, (True,) * 8), (engine.false, (False,) * 8)]
        for _ in range(2):
            formula = random_boolean_formula(rng, names, 3)
            fn = compile_formula(formula, env, engine)
            table = tuple(bf_truth(formula, row) for row in rows)
            pool += [(fn, table), (~fn, tuple(not v for v in table))]
        for op, truth in CONNECTIVES.items():
            arity = 1 if op == "not" else 2
            for picks in itertools.product(pool, repeat=arity):
                args = [fn for fn, _ in picks]
                want = tuple(truth(*values) for values in zip(*(t for _, t in picks)))
                assert table_of(engine.combine(op, args)) == want, op
        picks = rng.sample(pool, 3)
        tables = list(zip(*(t for _, t in picks)))
        args = [fn for fn, _ in picks]
        assert table_of(engine.combine("and", args)) == tuple(map(all, tables))
        assert table_of(engine.combine("or", args)) == tuple(map(any, tables))
        for op in ("and", "or"):
            assert engine.combine(op, args[:1]) == args[0]
    assert engine.combine("and", []).is_true
    assert engine.combine("or", []).is_false


def test_combine_arity_and_unknown_connective():
    engine = Engine()
    p = engine.atom(engine.variable("p"))
    with pytest.raises(BoolFnError, match="not takes exactly one argument"):
        engine.combine("not", [p, p])
    for op in ("implies", "iff"):
        for args in ([p], [p, p, p]):
            with pytest.raises(BoolFnError, match=f"{op} takes exactly two arguments"):
                engine.combine(op, args)
    for op in ("nand", "xor"):
        with pytest.raises(BoolFnError, match=f"unknown connective: {op}"):
            engine.combine(op, [p, p])


def test_coin_result_law_built_from_parts():
    engine = Engine()
    p = engine.variable("p")
    q = engine.variable("q")
    pc = engine.fresh_copy(p)
    by_ops = engine.atom(pc) & engine.atom(p).iff(engine.atom(q))
    env = {"p": p, "q": q, "p°": pc}
    by_text = compile_formula(parse("p° & (p <-> q)"), env, engine)
    by_alias = compile_formula(parse("p@o & (p <-> q)"), env, engine)
    assert by_ops == by_text == by_alias


def test_rename_single_and_empty():
    engine = Engine()
    p = engine.variable("p")
    pc = engine.fresh_copy(p)
    f = engine.atom(p)
    assert engine.rename(f, {p: pc}) == engine.atom(pc)
    assert engine.rename(f, {}) == f


def test_rename_swap_and_errors():
    engine = Engine()
    p, q, r = (engine.variable(s) for s in "pqr")
    f = engine.atom(p) & ~engine.atom(q)
    swapped = engine.rename(f, {p: q, q: p})
    assert swapped == engine.atom(q) & ~engine.atom(p)
    with pytest.raises(BoolFnError):
        engine.rename(f, {p: r, q: r})
    with pytest.raises(BoolFnError):
        engine.rename(f, {p: q})


def test_rename_coin_update_left_conjunct():
    """[p ↦ p°] on the old law conjoined with the event law gives the
    snapshot conjunct of the new law."""
    engine = Engine()
    p = engine.variable("p")
    pc = engine.fresh_copy(p)
    law_and_event = engine.atom(p) & engine.true
    assert engine.rename(law_and_event, {p: pc}) == engine.atom(pc)


def test_rename_outside_the_support_returns_f():
    """A mapping that moves no variable of the support returns f itself
    and builds nothing: not even the atoms of the support's variables,
    which a rebuild of f would make."""
    engine = Engine()
    p, q, r, s = (engine.variable(name) for name in "pqrs")
    # primed negative literals only: the atoms of p' and q' are not built
    f = engine.prime(~engine.atom(p) & ~engine.atom(q))
    size = len(engine._unique)
    for mapping in ({}, {r: s}, {p: q, r: s}, {engine.primed(p): engine.primed(p)}):
        out = engine.rename(f, mapping)
        assert out == f and out.node is f.node
        assert len(engine._unique) == size
    with pytest.raises(BoolFnError):
        engine.rename(f, {VarId("z"): r})


def test_rename_leaves_the_part_below_its_last_level_alone(monkeypatch):
    """Nothing below the last renamed level changes, so compose returns
    that part as it is and calls no connective on it."""
    engine = Engine()
    p = engine.variable("p")
    pc = engine.fresh_copy(p)
    below = [engine.variable(f"v{i}") for i in range(12)]
    chain = engine.conj(engine.atom(v).iff(engine.atom(w)) for v, w in zip(below, below[1:]))
    f = engine.atom(p).iff(engine.atom(below[0])) & chain
    calls = []
    ite = engine._ite

    def counting(*args):
        calls.append(args)
        return ite(*args)

    monkeypatch.setattr(engine, "_ite", counting)
    out = engine.rename(f, {p: pc})
    monkeypatch.undo()
    assert out == engine.atom(pc).iff(engine.atom(below[0])) & chain
    # one node tests p: one if-then-else on p's copy, whose two
    # cofactor calls end at once
    assert len(calls) == 3


def test_compose_matches_assignment_oracle():
    rng = random.Random("compose")
    engine = Engine()
    names = ["p", "q", "r"]
    env = _env(engine, names)
    variables = list(env.values())
    for _ in range(200):
        f = random_boolean_formula(rng, names, 3)
        g = random_boolean_formula(rng, names, 2)
        target = rng.choice(names)
        fn = engine.compose_many(
            compile_formula(f, env, engine),
            {env[target]: compile_formula(g, env, engine)},
        )
        for k in range(8):
            true_names = {n for j, n in enumerate(names) if (k >> j) & 1}
            inner = bf_truth(g, true_names)
            outer = (true_names - {target}) | ({target} if inner else set())
            expected = bf_truth(f, outer)
            assert fn.holds({env[n] for n in true_names}) == expected


def test_compose_many_is_simultaneous():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    f = engine.atom(p) & ~engine.atom(q)
    # swap p and q through functions; sequential substitution would collapse
    g = engine.compose_many(f, {p: engine.atom(q), q: engine.atom(p)})
    assert g == engine.atom(q) & ~engine.atom(p)


@settings(max_examples=100)
@given(boolean_formulas(["p", "q", "r"]))
def test_forall_is_restrict_conjunction(formula):
    engine = Engine()
    env = _env(engine, ["p", "q", "r"])
    fn = compile_formula(formula, env, engine)
    v = env["q"]
    both = engine.restrict(fn, v, True) & engine.restrict(fn, v, False)
    either = engine.restrict(fn, v, True) | engine.restrict(fn, v, False)
    assert engine.forall(fn, [v]) == both
    assert engine.exists(fn, [v]) == either
    assert v not in engine.forall(fn, [v]).support()


def test_quantifier_order_does_not_matter():
    rng = random.Random("quant")
    engine = Engine()
    names = ["p", "q", "r", "u"]
    env = _env(engine, names)
    for _ in range(100):
        f = compile_formula(random_boolean_formula(rng, names, 3), env, engine)
        subset = rng.sample(list(env.values()), 2)
        assert engine.forall(f, subset) == engine.forall(f, list(reversed(subset)))
        assert engine.exists(f, subset) == engine.exists(f, list(reversed(subset)))
    # A whole set at once equals one variable after another, each step
    # spelled out by restriction: sets of every size over five-variable
    # formulas, in one engine so the quantifier caches are shared.  z is
    # in no support.
    names = ["p", "q", "r", "u", "w"]
    env = _env(engine, names + ["z"])
    variables = list(env.values())
    for _ in range(60):
        f = compile_formula(random_boolean_formula(rng, names, 4), env, engine)
        for size in range(len(variables) + 1):
            subset = rng.sample(variables, size)
            every = some = f
            for v in subset:
                every = engine.restrict(every, v, False) & engine.restrict(every, v, True)
                some = engine.restrict(some, v, False) | engine.restrict(some, v, True)
            assert engine.forall(f, subset) == every
            assert engine.exists(f, subset) == some


def test_and_exists_is_exists_of_the_conjunction():
    """The relational product equals quantifying the built conjunction,
    over up to six variables whose quantified levels interleave with
    kept ones, for every number of quantified variables from none up."""
    rng = random.Random("and_exists")
    engine = Engine()
    plain = [engine.variable(s) for s in "pqr"]
    variables = [w for v in plain for w in (v, engine.primed(v))]
    env = {v.name: v for v in variables}
    names = list(env)
    for _ in range(300):
        used = rng.sample(names, rng.randint(1, 6))
        f = compile_formula(random_boolean_formula(rng, used, 4), env, engine)
        g = compile_formula(random_boolean_formula(rng, used, 4), env, engine)
        vs = rng.sample(variables, rng.randint(0, 6))
        assert engine.and_exists(f, g, vs) == engine.exists(f & g, vs)
        assert engine.and_exists(f, f, vs) == engine.exists(f, vs)
        assert engine.and_exists(engine.true, g, vs) == engine.exists(g, vs)
        assert engine.and_exists(f, engine.false, vs).is_false


def test_quantifiers_match_truth_tables():
    """exists, forall, restrict and and_exists against truth tables read
    with holds, on every assignment: all four run on the relational
    product, so this oracle shares no code with it.  Plain and primed
    levels interleave; the quantified sets run from empty to all seven
    variables and include z, which no function mentions; the arguments
    include the constants and f and f."""
    rng = random.Random("quantifier-tables")
    engine = Engine()
    plain = [engine.variable(s) for s in "pqr"]
    variables = [w for v in plain for w in (v, engine.primed(v))]
    env = {v.name: v for v in variables}
    names = list(env)
    universe = variables + [engine.variable("z")]
    rows = [
        frozenset(v for j, v in enumerate(universe) if k >> j & 1)
        for k in range(2 ** len(universe))
    ]

    def table_of(fn):
        return {row: fn.holds(row) for row in rows}

    def quantified(table, vs, join):
        for v in vs:
            table = {row: join(table[row - {v}], table[row | {v}]) for row in rows}
        return table

    def assert_table(fn, table):
        assert all(fn.holds(row) == table[row] for row in rows)

    def random_fn():
        used = rng.sample(names, rng.randint(1, 6))
        return compile_formula(random_boolean_formula(rng, used, 4), env, engine)

    for i in range(120):
        f, g = random_fn(), random_fn()
        vs = rng.sample(universe, i % (len(universe) + 1))
        pairs = [(f, g), (f, f), (engine.true, g), (f, engine.true), (engine.false, g)]
        for a, b in pairs:
            ta, tb = table_of(a), table_of(b)
            conj = {row: ta[row] and tb[row] for row in rows}
            assert_table(engine.and_exists(a, b, vs), quantified(conj, vs, bool.__or__))
        for h in (f, engine.true, engine.false):
            th = table_of(h)
            assert_table(engine.exists(h, vs), quantified(th, vs, bool.__or__))
            assert_table(engine.forall(h, vs), quantified(th, vs, bool.__and__))
        x = rng.choice(universe)
        tf = table_of(f)
        for value in (False, True):
            fixed = {row: tf[row - {x} | ({x} if value else set())] for row in rows}
            assert_table(engine.restrict(f, x, value), fixed)


def test_prime_is_rename_to_the_primed_copies():
    rng = random.Random("prime")
    engine = Engine()
    plain = [engine.variable(s) for s in "pqr"]
    # a snapshot allocated after r sits below it in the order
    plain.append(engine.fresh_copy(plain[0]))
    env = {v.name: v for v in plain}
    names = list(env)
    mapping = {v: engine.primed(v) for v in plain}
    for _ in range(200):
        f = compile_formula(random_boolean_formula(rng, names, 4), env, engine)
        assert engine.prime(f) == engine.rename(f, mapping)
    assert engine.prime(engine.true).is_true
    assert engine.prime(engine.false).is_false


def test_prime_rejects_a_primed_support():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    for f in (
        engine.atom(engine.primed(p)),
        engine.atom(p) & engine.atom(engine.primed(q)),
    ):
        with pytest.raises(BoolFnError, match="already primed"):
            engine.prime(f)


def test_quantify_whole_support_gives_constant():
    engine = Engine()
    env = _env(engine, ["p", "q"])
    fn = compile_formula(parse("p | q"), env, engine)
    assert engine.exists(fn, env.values()).is_true
    assert engine.forall(fn, env.values()).is_false


def test_sat_assignments_order_and_membership():
    rng = random.Random("sat")
    engine = Engine()
    names = ["p", "q", "r"]
    env = _env(engine, names + ["s"])
    # as given, reversed, and with s, which no formula mentions
    for order in (names, names[::-1], ["p", "s", "q", "r"]):
        universe = [env[n] for n in order]
        for _ in range(100):
            formula = random_boolean_formula(rng, names, 3)
            fn = compile_formula(formula, env, engine)
            got = engine.sat_assignments(fn, universe)
            expected = []
            for k in range(2 ** len(order)):
                row = {n for j, n in enumerate(order) if (k >> (len(order) - 1 - j)) & 1}
                if bf_truth(formula, row):
                    expected.append(frozenset(env[n] for n in row))
            assert got == expected


def test_sat_assignments_universe_validation():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    fn = engine.atom(p) & engine.atom(q)
    with pytest.raises(BoolFnError):
        engine.sat_assignments(fn, [p, p])
    with pytest.raises(BoolFnError):
        engine.sat_assignments(fn, [p])


def test_variable_namespaces_and_names():
    engine = Engine()
    t = engine.variable("t")
    assert t.name == "t"
    tp = engine.primed(t)
    assert tp.name == "t'"
    c1 = engine.fresh_copy(t)
    c2 = engine.fresh_copy(t)
    assert (c1.name, c2.name) == ("t°", "t°2")
    assert engine.primed(c1).name == "t°'"
    with pytest.raises(BoolFnError):
        engine.fresh_copy(tp)
    with pytest.raises(BoolFnError):
        engine.fresh_copy(c1)
    with pytest.raises(BoolFnError):
        engine.primed(tp)
    for bad in ("", "p q", "p'", "p°", " p"):
        with pytest.raises(BoolFnError):
            engine.variable(bad)


def test_fresh_stem_skips_taken_names():
    engine = Engine()
    engine.variable("q")
    engine.variable("q2")
    assert engine.fresh_stem("q").stem == "q1"
    assert engine.fresh_stem("q").stem == "q3"


def test_undeclared_snapshot_rejected():
    engine = Engine()
    engine.variable("p")
    with pytest.raises(BoolFnError):
        engine.atom(VarId("p", copy=5))
    with pytest.raises(BoolFnError):
        engine.atom(VarId("zzz"))
    # a VarId equals the tuple of its fields, but only a VarId is a variable
    with pytest.raises(BoolFnError):
        engine.atom(("p", 0, False))


def test_allocation_keeps_existing_functions_stable():
    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    fn = engine.atom(p).iff(engine.atom(q))
    before = engine.sat_assignments(fn, [p, q])
    engine.fresh_copy(p)
    engine.variable("zebra")
    engine.fresh_stem("w")
    assert engine.atom(p).iff(engine.atom(q)) == fn
    assert engine.sat_assignments(fn, [p, q]) == before


def test_cross_engine_mixing_rejected():
    left, right = Engine(), Engine()
    p = left.variable("p")
    right.variable("p")
    with pytest.raises(BoolFnError):
        left.atom(p) & right.atom(right.variable("p"))


def test_entailment_and_equivalence():
    engine = Engine()
    env = _env(engine, ["p", "q"])
    strong = compile_formula(parse("p & q"), env, engine)
    weak = compile_formula(parse("p | q"), env, engine)
    assert engine.entails(strong, weak)
    assert not engine.entails(weak, strong)
    assert (weak | ~weak).is_true
    assert (strong & ~strong).is_false
    assert ~(~strong) == strong


def test_cubes_cover_exactly_the_function():
    rng = random.Random("cubes")
    engine = Engine()
    names = ["p", "q", "r"]
    env = _env(engine, names)
    for _ in range(50):
        fn = compile_formula(random_boolean_formula(rng, names, 3), env, engine)
        rebuilt = engine.disj(
            [
                engine.conj(
                    [engine.atom(v) if pol else ~engine.atom(v) for v, pol in cube]
                )
                for cube in engine.cubes(fn)
            ]
        )
        assert rebuilt == fn


def _cubes_by_recursion(engine, fn):
    """Paths to true by a recursive walk, low branch first: the reference."""
    out = []

    def walk(u, path):
        if u is engine._false:
            return
        if u is engine._true:
            out.append(list(path))
            return
        walk(u.lo, path + [(u.var, False)])
        walk(u.hi, path + [(u.var, True)])

    walk(fn.node, [])
    return out


def test_cubes_match_a_recursive_walk_path_for_path():
    rng = random.Random("cubes-order")
    engine = Engine()
    names = ["p", "q", "r", "s"]
    env = _env(engine, names)
    for _ in range(100):
        fn = compile_formula(random_boolean_formula(rng, names, 4), env, engine)
        assert engine.cubes(fn) == _cubes_by_recursion(engine, fn)


def _splits(engine, fn):
    """Whether fn = g(X) & h(Y) for a split of its support into X, Y != {}."""
    sup = sorted(fn.support(), key=engine.level)
    for mask in range(1, 2 ** len(sup) - 1):
        xs = [v for i, v in enumerate(sup) if mask >> i & 1]
        ys = [v for v in sup if v not in xs]
        if engine.exists(fn, ys) & engine.exists(fn, xs) == fn:
            return True
    return False


def _random_product(rng, engine, names):
    """A conjunction of random blocks of 1-3 variables, each neither true
    nor false, whose variables interleave in the diagram order."""
    order = rng.sample(names, len(names))
    env = {name: engine.variable(name) for name in order}
    pool = rng.sample(names, rng.randint(1, len(names)))
    out = engine.true
    while pool:
        block = [env[name] for name in pool[: rng.randint(1, 3)]]
        pool = pool[len(block):]
        rows = 2 ** len(block)
        minterms = [
            engine.conj(
                engine.atom(v) if row >> i & 1 else ~engine.atom(v)
                for i, v in enumerate(block)
            )
            for row in rng.sample(range(rows), rng.randint(1, rows - 1))
        ]
        out = out & engine.disj(minterms)
    return out


def test_factors_are_the_finest_disjoint_split():
    rng = random.Random("factors")
    names = [f"v{i}" for i in range(7)]
    for _ in range(400):
        engine = Engine()
        fn = _random_product(rng, engine, rng.sample(names, rng.randint(1, 7)))
        parts = engine.factors(fn)
        assert engine.conj(parts) == fn
        supports = [g.support() for g in parts]
        assert sum(len(s) for s in supports) == len(frozenset().union(*supports))
        tops = [min(engine.level(v) for v in s) for s in supports]
        assert tops == sorted(tops)
        for g in parts:
            assert not (g.is_true or g.is_false)
            assert not _splits(engine, g)


def test_factors_fixed_cases():
    engine = Engine()
    # the allocation order of three private coin flips
    p = engine.variable("p")
    order = [p]
    for i in (1, 2, 3):
        order += [engine.variable(f"q{i}"), engine.fresh_copy(p)]
    env = {v.name: v for v in order}

    def fn(text):
        return compile_formula(parse(text), env, engine)

    assert engine.factors(engine.true) == []
    assert engine.factors(engine.false) == [engine.false]
    assert engine.factors(fn("p <-> q1")) == [fn("p <-> q1")]
    parity = fn("(p <-> q1) <-> q2")
    assert engine.factors(parity) == [parity]
    chain = fn("(p°2 <-> q1) & (p°3 <-> q2) & (p <-> q3)")
    assert engine.factors(chain) == [fn("p <-> q3"), fn("q1 <-> p°2"), fn("q2 <-> p°3")]
    assert engine.factors(fn("~p & (q1 | q2) & q3")) == [fn("~p"), fn("q1 | q2"), fn("q3")]


def test_cached_support_and_factors_match_a_fresh_engine():
    """support and factors are cached per root, and conjoin_factors
    records its result's split, also for a split that leaves out some
    literal factors, as shrink conjoins them.  Asked again in any
    order after other operations have filled the caches, they give what
    a fresh engine computes once."""
    rng = random.Random("cached-facts")
    names = [f"v{i}" for i in range(6)]
    engine = Engine()
    env = _env(engine, names)
    asked = []  # (function, how a fresh engine rebuilds it)
    for _ in range(80):
        formula = random_boolean_formula(rng, rng.sample(names, rng.randint(1, 6)), 4)
        for name in rng.sample(names, rng.randint(0, 2)):
            formula = And((formula, Atom(name) if rng.random() < 0.5 else Not(Atom(name))))
        fn = compile_formula(formula, env, engine)
        first = diagram_facts(engine, fn)
        others = [f for f, _ in asked[-3:]]
        engine.exists(fn, rng.sample(list(env.values()), 2))
        engine.conj([fn, *others])
        engine.prime(fn)
        assert diagram_facts(engine, fn) == first
        asked.append((fn, (formula, ())))
        # a second function over the variables fn leaves out
        rest = [n for n in names if env[n] not in fn.support()]
        if rest:
            other = random_boolean_formula(rng, rest, 3)
            parts = engine.factors(fn) + engine.factors(compile_formula(other, env, engine))
            rng.shuffle(parts)
            joined = engine.conjoin_factors(parts)
            assert joined == fn & compile_formula(other, env, engine)
            if not joined.is_false:
                assert set(engine.factors(joined)) == set(parts)
            asked.append((joined, (And((formula, other)), ())))
        literals = {
            v: g for g in engine.factors(fn) if len(g.support()) == 1 for v in g.support()
        }
        if literals:
            drop = rng.sample(sorted(literals), rng.randint(1, len(literals)))
            gone = {literals[v] for v in drop}
            kept = engine.conjoin_factors(g for g in engine.factors(fn) if g not in gone)
            asked.append((kept, (formula, tuple(v.name for v in drop))))
    rng.shuffle(asked)
    for fn, (formula, drop) in asked * 2:
        fresh = Engine()
        fresh_env = _env(fresh, names)
        want = fresh.exists(
            compile_formula(formula, fresh_env, fresh), [fresh_env[n] for n in drop]
        )
        assert diagram_facts(engine, fn) == diagram_facts(fresh, want)


def test_factors_and_conjoin_factors_match_truth_tables():
    """The factors conjoin to f and have pairwise disjoint supports, and
    conjoin_factors of the split without some literal factors is exists
    over their variables, all read off truth tables with holds on every
    assignment.  Plain and primed levels interleave."""
    rng = random.Random("factor-tables")
    engine = Engine()
    plain = [engine.variable(s) for s in "pqr"]
    variables = [w for v in plain for w in (v, engine.primed(v))]
    env = {v.name: v for v in variables}
    rows = [
        frozenset(v for j, v in enumerate(variables) if k >> j & 1)
        for k in range(2 ** len(variables))
    ]

    def table_of(fn):
        return {row: fn.holds(row) for row in rows}

    def depends(table, v):
        return any(table[row] != table[row ^ {v}] for row in rows)

    for _ in range(150):
        fn = compile_formula(
            random_boolean_formula(rng, rng.sample(list(env), rng.randint(1, 6)), 4),
            env,
            engine,
        )
        for v in rng.sample(variables, rng.randint(0, 2)):
            fn &= engine.atom(v) if rng.random() < 0.5 else ~engine.atom(v)
        table = table_of(fn)
        parts = engine.factors(fn)
        tables = [table_of(g) for g in parts]
        assert all(table[row] == all(t[row] for t in tables) for row in rows)
        supports = [frozenset(v for v in variables if depends(t, v)) for t in tables]
        assert supports == [g.support() for g in parts]
        assert sum(len(s) for s in supports) == len(frozenset().union(*supports))
        assert fn.support() == frozenset().union(*supports)
        assert engine.conjoin_factors(parts) == fn
        # a factor over one variable is a literal, which fixes it
        fixed = [v for s in supports if len(s) == 1 for v in s]
        drop = set(rng.sample(fixed, rng.randint(0, len(fixed))))
        rest = [g for g, s in zip(parts, supports) if not s & drop]
        rest.reverse()  # any order will do
        dropped = engine.conjoin_factors(rest)
        want = table
        for v in drop:
            want = {row: want[row - {v}] or want[row | {v}] for row in rows}
        assert table_of(dropped) == want
        assert engine.factors(dropped) == rest[::-1]
