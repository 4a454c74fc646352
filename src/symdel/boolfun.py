"""Canonical boolean functions over a three-namespace variable universe.

Functions are stored as reduced ordered binary decision diagrams with a
shared node table per engine, so two functions built in the same engine
denote the same boolean function exactly when they are the same object.

Each variable is a stem plus two decorations: a copy generation (0 for
the live variable, n > 0 for the n-th frozen snapshot of it, printed
with a degree sign) and a prime flag (used for the target side of
relations).  The diagram order is allocation order: declaring a stem or
allocating a snapshot appends the plain variable at the end of the
order, with its primed copy directly after it.  A variable's integer
level is fixed when it is allocated and never changes, so allocating
never reorders variables that already exist and every diagram built
earlier stays valid.  Snapshots therefore sit below the event variables
that were declared before them, which keeps the law of a chain of
factual changes linear in the number of events.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SymdelError


class BoolFnError(SymdelError):
    """Misuse of the boolean-function engine."""


@dataclass(frozen=True)
class VarId:
    """One variable: a stem with copy and prime decorations."""

    stem: str
    copy: int = 0
    primed: bool = False

    @property
    def name(self) -> str:
        out = self.stem
        if self.copy == 1:
            out += "°"
        elif self.copy > 1:
            out += f"°{self.copy}"
        if self.primed:
            out += "'"
        return out

    def __repr__(self):
        return f"VarId({self.name})"


# Terminals sit below every variable, so "level > lvl" also stops at them.
_TERMINAL = sys.maxsize


class _Node:
    """Internal diagram node: the level and variable it tests, and its
    two children.  Terminals have var None and level _TERMINAL."""

    __slots__ = ("level", "var", "lo", "hi")

    def __init__(self, level, var, lo, hi):
        self.level = level
        self.var = var
        self.lo = lo
        self.hi = hi


class Engine:
    """Node store and operations for one family of boolean functions.

    Functions from different engines must not be mixed; every public
    operation checks this and raises BoolFnError on violation.
    """

    def __init__(self):
        # level of each stem's plain variable per copy generation; the
        # primed copy of a variable is always at the next level
        self._stems: dict[str, list[int]] = {}
        self._vars: list[VarId] = []
        self._unique: dict[tuple, _Node] = {}
        self._cache: dict[tuple, _Node] = {}
        self._true = _Node(_TERMINAL, None, None, None)
        self._false = _Node(_TERMINAL, None, None, None)

    # Built on demand: an engine holding a BoolFn would be in a cycle.
    @property
    def true(self) -> BoolFn:
        return BoolFn(self, self._true)

    @property
    def false(self) -> BoolFn:
        return BoolFn(self, self._false)

    # -- variables ----------------------------------------------------

    def variable(self, stem: str) -> VarId:
        """Declare (or look up) the plain variable with the given stem."""
        if not stem or any(c in "'°" or c.isspace() for c in stem):
            raise BoolFnError(f"bad variable stem: {stem!r}")
        generations = self._stems.get(stem)
        if generations is None:
            generations = self._stems[stem] = []
            self._allocate(stem, generations)
        return self._vars[generations[0]]

    def has_variable(self, stem: str) -> bool:
        return stem in self._stems

    def fresh_stem(self, prefix: str) -> VarId:
        """Declare a new variable named prefix1, prefix2, ... whichever is free."""
        i = 1
        while self.has_variable(f"{prefix}{i}"):
            i += 1
        return self.variable(f"{prefix}{i}")

    def fresh_copy(self, var: VarId) -> VarId:
        """Allocate the next snapshot generation for var's stem.

        Generations count up per stem and are never reused, so repeated
        updates of the same stem get distinct snapshots.
        """
        self._check_var(var)
        if var.primed or var.copy:
            raise BoolFnError(f"can only snapshot a plain variable, got {var.name}")
        generations = self._stems[var.stem]
        self._allocate(var.stem, generations)
        return self._vars[generations[-1]]

    def _allocate(self, stem, generations):
        # The next generation goes at the end of the order, primed copy
        # directly after; existing levels never change.
        copy = len(generations)
        generations.append(len(self._vars))
        self._vars.append(VarId(stem, copy))
        self._vars.append(VarId(stem, copy, True))

    def primed(self, var: VarId) -> VarId:
        lvl = self._check_var(var)
        if var.primed:
            raise BoolFnError(f"{var.name} is already primed")
        return self._vars[lvl + 1]

    def unprimed(self, var: VarId) -> VarId:
        return self._vars[self._check_var(var) - var.primed]

    def level(self, var: VarId) -> int:
        """Position of var in the diagram order, fixed at allocation."""
        return self._check_var(var)

    def _check_var(self, var) -> int:
        # Returns the level, so public operations validate and look up once.
        generations = self._stems.get(var.stem) if isinstance(var, VarId) else None
        if generations is None:
            raise BoolFnError(f"variable not declared in this engine: {var!r}")
        if not 0 <= var.copy < len(generations):
            raise BoolFnError(f"snapshot {var.name} was never allocated")
        return generations[var.copy] + var.primed

    # -- construction ---------------------------------------------------

    def constant(self, value: bool) -> BoolFn:
        return self.true if value else self.false

    def atom(self, var: VarId) -> BoolFn:
        """The function that is true exactly when var is true."""
        return BoolFn(self, self._mk(self._check_var(var), self._false, self._true))

    def _mk(self, level, lo, hi):
        if lo is hi:
            return lo
        key = (level, id(lo), id(hi))
        node = self._unique.get(key)
        if node is None:
            node = _Node(level, self._vars[level], lo, hi)
            self._unique[key] = node
        return node

    def _node_of(self, f) -> _Node:
        if not isinstance(f, BoolFn) or f.engine is not self:
            raise BoolFnError("boolean function belongs to a different engine")
        return f.node

    # -- core operations ------------------------------------------------

    def _neg(self, u):
        if u is self._true:
            return self._false
        if u is self._false:
            return self._true
        key = ("not", id(u))
        r = self._cache.get(key)
        if r is None:
            r = self._mk(u.level, self._neg(u.lo), self._neg(u.hi))
            self._cache[key] = r
        return r

    def _apply(self, op, u, v):
        t, f = self._true, self._false
        if op == "and":
            if u is f or v is f:
                return f
            if u is t:
                return v
            if v is t:
                return u
            if u is v:
                return u
        elif op == "or":
            if u is t or v is t:
                return t
            if u is f:
                return v
            if v is f:
                return u
            if u is v:
                return u
        else:  # xor
            if u is f:
                return v
            if v is f:
                return u
            if u is t:
                return self._neg(v)
            if v is t:
                return self._neg(u)
            if u is v:
                return f
        if id(u) > id(v):
            u, v = v, u  # the three ops are commutative
        key = (op, id(u), id(v))
        r = self._cache.get(key)
        if r is not None:
            return r
        lu, lv = u.level, v.level
        if lu == lv:
            r = self._mk(lu, self._apply(op, u.lo, v.lo), self._apply(op, u.hi, v.hi))
        elif lu < lv:
            r = self._mk(lu, self._apply(op, u.lo, v), self._apply(op, u.hi, v))
        else:
            r = self._mk(lv, self._apply(op, u, v.lo), self._apply(op, u, v.hi))
        self._cache[key] = r
        return r

    def _ite(self, c, u, v):
        return self._apply(
            "or", self._apply("and", c, u), self._apply("and", self._neg(c), v)
        )

    def _restrict(self, u, lvl, value):
        if u.level > lvl:
            return u  # lvl cannot occur below its own level
        if u.level == lvl:
            return u.hi if value else u.lo
        key = ("restrict", id(u), lvl, value)
        r = self._cache.get(key)
        if r is None:
            r = self._mk(
                u.level,
                self._restrict(u.lo, lvl, value),
                self._restrict(u.hi, lvl, value),
            )
            self._cache[key] = r
        return r

    def _quant(self, u, lvl, conj):
        if u.level > lvl:
            return u
        if u.level == lvl:
            return self._apply("and" if conj else "or", u.lo, u.hi)
        key = ("all" if conj else "any", id(u), lvl)
        r = self._cache.get(key)
        if r is None:
            r = self._mk(
                u.level, self._quant(u.lo, lvl, conj), self._quant(u.hi, lvl, conj)
            )
            self._cache[key] = r
        return r

    def _compose(self, u, subst, memo):
        # subst maps levels to nodes.
        if u.var is None:
            return u
        r = memo.get(id(u))
        if r is not None:
            return r
        lo = self._compose(u.lo, subst, memo)
        hi = self._compose(u.hi, subst, memo)
        g = subst.get(u.level)
        if g is None:
            g = self._mk(u.level, self._false, self._true)
        r = self._ite(g, hi, lo)
        memo[id(u)] = r
        return r

    # -- public operations ------------------------------------------------

    def combine(self, op: str, args: Sequence["BoolFn"]) -> BoolFn:
        """Pointwise connective: not, and, or, xor, implies, iff."""
        nodes = [self._node_of(a) for a in args]
        if op == "not":
            if len(nodes) != 1:
                raise BoolFnError("not takes exactly one argument")
            return BoolFn(self, self._neg(nodes[0]))
        if op in ("and", "or"):
            acc = self._true if op == "and" else self._false
            for n in nodes:
                acc = self._apply(op, acc, n)
            return BoolFn(self, acc)
        if op == "xor":
            if len(nodes) != 2:
                raise BoolFnError("xor takes exactly two arguments")
            return BoolFn(self, self._apply("xor", nodes[0], nodes[1]))
        if op == "implies":
            if len(nodes) != 2:
                raise BoolFnError("implies takes exactly two arguments")
            return BoolFn(self, self._apply("or", self._neg(nodes[0]), nodes[1]))
        if op == "iff":
            if len(nodes) != 2:
                raise BoolFnError("iff takes exactly two arguments")
            return BoolFn(self, self._neg(self._apply("xor", nodes[0], nodes[1])))
        raise BoolFnError(f"unknown connective: {op}")

    def conj(self, args: Iterable["BoolFn"]) -> BoolFn:
        return self.combine("and", list(args))

    def disj(self, args: Iterable["BoolFn"]) -> BoolFn:
        return self.combine("or", list(args))

    def restrict(self, f: "BoolFn", var: VarId, value: bool) -> BoolFn:
        lvl = self._check_var(var)
        return BoolFn(self, self._restrict(self._node_of(f), lvl, bool(value)))

    def forall(self, f: "BoolFn", variables: Iterable[VarId]) -> BoolFn:
        return self._quantify(f, variables, True)

    def exists(self, f: "BoolFn", variables: Iterable[VarId]) -> BoolFn:
        return self._quantify(f, variables, False)

    def _quantify(self, f, variables, conj):
        node = self._node_of(f)
        levels = {self._check_var(v) for v in variables}
        # innermost first keeps the intermediate diagrams at or below the root
        for lvl in sorted(levels, reverse=True):
            node = self._quant(node, lvl, conj)
        return BoolFn(self, node)

    def compose(self, f: "BoolFn", var: VarId, g: "BoolFn") -> BoolFn:
        """Substitute the function g for the variable var in f."""
        return self.compose_many(f, {var: g})

    def compose_many(self, f: "BoolFn", binding: Mapping[VarId, "BoolFn"]) -> BoolFn:
        """Simultaneous substitution of functions for variables."""
        subst = {}
        for var, g in binding.items():
            subst[self._check_var(var)] = self._node_of(g)
        return BoolFn(self, self._compose(self._node_of(f), subst, {}))

    def rename(self, f: "BoolFn", mapping: Mapping[VarId, VarId]) -> BoolFn:
        """Substitute variables for variables.

        The mapping must be injective on the support of f and must not
        map onto variables of the support that are kept fixed.
        """
        node = self._node_of(f)
        sup = self._support(node)
        live = {}
        for old, new in mapping.items():
            src, dst = self._check_var(old), self._check_var(new)
            if src in sup and src != dst:
                live[src] = dst
        targets = list(live.values())
        if len(set(targets)) != len(targets):
            raise BoolFnError("rename is not injective on the support")
        clash = (sup - live.keys()) & set(targets)
        if clash:
            names = ", ".join(sorted(self._vars[lvl].name for lvl in clash))
            raise BoolFnError(f"rename target collides with kept variable: {names}")
        subst = {src: self._mk(dst, self._false, self._true) for src, dst in live.items()}
        return BoolFn(self, self._compose(node, subst, {}))

    def support(self, f: "BoolFn") -> frozenset[VarId]:
        return frozenset(self._vars[lvl] for lvl in self._support(self._node_of(f)))

    def _support(self, node):
        return {u.level for u in self._nodes(node)}

    def _nodes(self, node):
        """The distinct non-terminal nodes reachable from node."""
        seen = {}
        stack = [node]
        while stack:
            u = stack.pop()
            if u.var is None or id(u) in seen:
                continue
            seen[id(u)] = u
            stack.append(u.lo)
            stack.append(u.hi)
        return seen.values()

    def node_count(self, f: "BoolFn") -> int:
        """Number of distinct non-terminal nodes in f's diagram."""
        return len(self._nodes(self._node_of(f)))

    # -- queries ----------------------------------------------------------

    def holds(self, f: "BoolFn", assignment: Iterable[VarId]) -> bool:
        """Evaluate under the assignment that makes exactly these variables true."""
        node = self._node_of(f)
        true_vars = frozenset(assignment)
        while node.var is not None:
            node = node.hi if node.var in true_vars else node.lo
        return node is self._true

    def is_tautology(self, f: "BoolFn") -> bool:
        return self._node_of(f) is self._true

    def is_unsatisfiable(self, f: "BoolFn") -> bool:
        return self._node_of(f) is self._false

    def entails(self, f: "BoolFn", g: "BoolFn") -> bool:
        return self._apply(
            "or", self._neg(self._node_of(f)), self._node_of(g)
        ) is self._true

    def equivalent(self, f: "BoolFn", g: "BoolFn") -> bool:
        return self._node_of(f) is self._node_of(g)

    def sat_assignments(
        self, f: "BoolFn", universe: Sequence[VarId]
    ) -> list[frozenset[VarId]]:
        """All satisfying subsets of universe, in binary counting order.

        The first universe variable is the most significant bit and False
        sorts before True.  The support of f must lie inside the universe.
        """
        node = self._node_of(f)
        uni = list(universe)
        levels = [self._check_var(v) for v in uni]
        if len(set(levels)) != len(levels):
            raise BoolFnError("universe contains a repeated variable")
        order = sorted(zip(levels, uni))
        missing = self._support(node) - set(levels)
        if missing:
            names = ", ".join(sorted(self._vars[lvl].name for lvl in missing))
            raise BoolFnError(f"support outside the universe: {names}")
        out = []

        def walk(u, i, chosen):
            if u is self._false:
                return
            if i == len(order):
                out.append(frozenset(chosen))
                return
            lvl, v = order[i]
            if u.level == lvl:
                walk(u.lo, i + 1, chosen)
                walk(u.hi, i + 1, chosen + [v])
            else:
                # v is unconstrained at this point
                walk(u, i + 1, chosen)
                walk(u, i + 1, chosen + [v])

        try:
            walk(node, 0, [])
        finally:
            # walk holds itself through its closure cell; emptying the
            # cell frees it by reference counting, not by the cyclic
            # collector (as in language.compile_with)
            del walk

        def key(s):
            # binary counting: the first caller variable is most significant
            return tuple(v in s for v in uni)

        return sorted(out, key=key)

    def count_sat(self, f: "BoolFn", universe: Sequence[VarId]) -> int:
        """Number of satisfying subsets of universe."""
        node = self._node_of(f)
        given = list(universe)
        levels = sorted({self._check_var(v) for v in given})
        if len(levels) != len(given):
            raise BoolFnError("universe contains a repeated variable")
        if self._support(node) - set(levels):
            raise BoolFnError("support outside the universe")
        rank = {lvl: i for i, lvl in enumerate(levels)}
        memo = {}

        def walk(u, i):
            if u is self._false:
                return 0
            if u.var is None:
                return 2 ** (len(levels) - i)
            key = (id(u), i)
            r = memo.get(key)
            if r is None:
                j = rank[u.level]
                r = 2 ** (j - i) * (walk(u.lo, j + 1) + walk(u.hi, j + 1))
                memo[key] = r
            return r

        try:
            return walk(node, 0)
        finally:
            del walk  # as in sat_assignments

    def cubes(self, f: "BoolFn") -> list[list[tuple[VarId, bool]]]:
        """Paths to true, as (variable, polarity) lists in diagram order."""
        node = self._node_of(f)
        out = []

        def walk(u, path):
            if u is self._false:
                return
            if u is self._true:
                out.append(list(path))
                return
            path.append((u.var, False))
            walk(u.lo, path)
            path[-1] = (u.var, True)
            walk(u.hi, path)
            path.pop()

        try:
            walk(node, [])
        finally:
            del walk  # as in sat_assignments
        return out


class BoolFn:
    """A boolean function tied to its engine.  Compare with ==, not is."""

    __slots__ = ("engine", "node")

    def __init__(self, engine: Engine, node: _Node):
        self.engine = engine
        self.node = node

    def __eq__(self, other):
        return (
            isinstance(other, BoolFn)
            and other.engine is self.engine
            and other.node is self.node
        )

    def __hash__(self):
        return hash((id(self.engine), id(self.node)))

    def __and__(self, other):
        return self.engine.combine("and", [self, other])

    def __or__(self, other):
        return self.engine.combine("or", [self, other])

    def __invert__(self):
        return self.engine.combine("not", [self])

    def implies(self, other) -> "BoolFn":
        return self.engine.combine("implies", [self, other])

    def iff(self, other) -> "BoolFn":
        return self.engine.combine("iff", [self, other])

    @property
    def is_true(self) -> bool:
        return self.node is self.engine._true

    @property
    def is_false(self) -> bool:
        return self.node is self.engine._false

    def support(self) -> frozenset[VarId]:
        return self.engine.support(self)

    def holds(self, assignment: Iterable[VarId]) -> bool:
        return self.engine.holds(self, assignment)

    def node_count(self) -> int:
        """Number of distinct non-terminal nodes in the diagram."""
        return self.engine.node_count(self)

    def __repr__(self):
        if self.is_true:
            return "<BoolFn true>"
        if self.is_false:
            return "<BoolFn false>"
        names = ",".join(sorted(v.name for v in self.support()))
        return f"<BoolFn over {{{names}}}>"
