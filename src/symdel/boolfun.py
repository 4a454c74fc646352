"""Canonical boolean functions over a three-namespace variable universe.

Functions are stored as reduced ordered binary decision diagrams with a
shared node table per engine, so two functions built in the same engine
denote the same boolean function exactly when they are the same object.
One memoised if-then-else recursion (`Engine._ite`) is the only
connective kernel: every connective and every substitution is one call
of it.  One more memoised recursion (`Engine._and_exists`, the
relational product) is the only quantifier: it quantifies a whole set
of variables out of a conjunction without building the conjunction, so
exists is the product with true, forall is its dual, and restricting a
variable to a value quantifies it out of the product with that literal.
`Engine._prime` moves a function to the primed copies of its variables
by relabelling each node one level down.

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

The unique table and the operation caches are keyed on the nodes
themselves, never on their addresses, so an entry cannot be mistaken
for a later node at a reused address.  No operation orders its
arguments by address either, so the work an input costs does not
depend on where the allocator put its nodes.  Besides the recursions'
entries, the operation cache holds three facts per root node that a
caller asked for: its support (key "support"), its factor split (key
"factors") and the formula that prints it (key "formula", stored by
`language.recover_formula`).  Only roots are cached, not the nodes
below them, so each costs at most one walk of the diagram per root and
one entry.  A split is also recorded, with no walk, for a function
built by conjoining a known split (`conjoin_factors`, which the state
update and `shrink` use); the support of such a function is the union
of its factors' supports.  Nothing frees nodes yet: both tables, and
so these entries, grow for the life of the engine.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import SymdelError


class BoolFnError(SymdelError):
    """Misuse of the boolean-function engine."""


class VarId(NamedTuple):
    """One variable: a stem with copy and prime decorations.

    A tuple, so hashing and comparing run in C; it equals the plain
    tuple of its fields, which no engine accepts as a variable."""

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
        # recursion results, and per-root supports and factor splits
        self._cache: dict[tuple, object] = {}
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

    def fresh_stem(self, prefix: str) -> VarId:
        """Declare a new variable named prefix1, prefix2, ... whichever is free."""
        i = 1
        while f"{prefix}{i}" in self._stems:
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

    def atom(self, var: VarId) -> BoolFn:
        """The function that is true exactly when var is true."""
        return BoolFn(self, self._mk(self._check_var(var), self._false, self._true))

    def _mk(self, level, lo, hi):
        if lo is hi:
            return lo
        key = (level, lo, hi)
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

    def _ite(self, f, g, h):
        """If f then g else h, memoised (Brace, Rudell and Bryant, 1990)."""
        t, e = self._true, self._false
        if f is t:
            return g
        if f is e or g is h:
            return h
        if f is g:
            g = t
        elif f is h:
            h = e
        if h is e and g is t:
            return f
        # three nodes: never equal to the other recursions' keys, which
        # start with a string
        key = (f, g, h)
        r = self._cache.get(key)
        if r is not None:
            return r
        lvl = min(f.level, g.level, h.level)
        f0, f1 = (f.lo, f.hi) if f.level == lvl else (f, f)
        g0, g1 = (g.lo, g.hi) if g.level == lvl else (g, g)
        h0, h1 = (h.lo, h.hi) if h.level == lvl else (h, h)
        r = self._mk(lvl, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._cache[key] = r
        return r

    def _and_exists(self, f, g, levels, last):
        """Exists levels (f and g) in one pass, never building f and g:
        the relational product (Burch, Clarke and Long, 1991), as in
        CUDD's Cudd_bddAndAbstract.  levels is a frozenset with largest
        element last; nothing below last is quantified."""
        t, e = self._true, self._false
        if f is e or g is e:
            return e
        if f is t or f is g:
            f, g = g, t  # one cache entry for f and f, true and f, f and true
        if f.level > last and g.level > last:
            return self._ite(f, g, e)
        key = ("and_exists", f, g, levels)
        r = self._cache.get(key)
        if r is not None:
            return r
        lvl = f.level if f.level < g.level else g.level
        f0, f1 = (f.lo, f.hi) if f.level == lvl else (f, f)
        g0, g1 = (g.lo, g.hi) if g.level == lvl else (g, g)
        # a false cofactor is common and needs no call
        lo = e if f0 is e or g0 is e else self._and_exists(f0, g0, levels, last)
        if lvl in levels and lo is t:
            r = t  # the high cofactor cannot add to a true disjunction
        else:
            hi = e if f1 is e or g1 is e else self._and_exists(f1, g1, levels, last)
            r = self._ite(lo, t, hi) if lvl in levels else self._mk(lvl, lo, hi)
        self._cache[key] = r
        return r

    def _prime(self, u):
        # A plain variable's primed copy sits at the next level and no
        # other variable sits between them, so relabelling keeps the order.
        if u.var is None:
            return u
        key = ("prime", u)
        r = self._cache.get(key)
        if r is None:
            if u.var.primed:
                raise BoolFnError(f"cannot prime {u.var.name}: it is already primed")
            r = self._mk(u.level + 1, self._prime(u.lo), self._prime(u.hi))
            self._cache[key] = r
        return r

    def _compose(self, u, subst, last, memo):
        # subst maps levels to nodes, the largest of them last; nothing
        # below last is substituted, so such a node (or a terminal)
        # comes back as it is.
        if u.level > last:
            return u
        r = memo.get(u)
        if r is not None:
            return r
        lo = self._compose(u.lo, subst, last, memo)
        hi = self._compose(u.hi, subst, last, memo)
        g = subst.get(u.level)
        if g is None:
            g = self._mk(u.level, self._false, self._true)
        r = self._ite(g, hi, lo)
        memo[u] = r
        return r

    # -- public operations ------------------------------------------------

    def combine(self, op: str, args: Sequence["BoolFn"]) -> BoolFn:
        """Pointwise connective: not, and, or, implies, iff."""
        nodes = [self._node_of(a) for a in args]
        t, e = self._true, self._false
        if op in ("and", "or"):
            acc = t if op == "and" else e
            for n in nodes:
                acc = self._ite(acc, n, e) if op == "and" else self._ite(acc, t, n)
            return BoolFn(self, acc)
        if op == "not":
            if len(nodes) != 1:
                raise BoolFnError("not takes exactly one argument")
            return BoolFn(self, self._ite(nodes[0], e, t))
        if op not in ("implies", "iff"):
            raise BoolFnError(f"unknown connective: {op}")
        if len(nodes) != 2:
            raise BoolFnError(f"{op} takes exactly two arguments")
        a, b = nodes
        if op == "implies":
            return BoolFn(self, self._ite(a, b, t))
        return BoolFn(self, self._ite(a, b, self._ite(b, e, t)))

    def conj(self, args: Iterable["BoolFn"]) -> BoolFn:
        return self.combine("and", list(args))

    def disj(self, args: Iterable["BoolFn"]) -> BoolFn:
        return self.combine("or", list(args))

    def restrict(self, f: "BoolFn", var: VarId, value: bool) -> BoolFn:
        """f with var fixed to value: exists var (f & the literal)."""
        lvl = self._check_var(var)
        t, e = self._true, self._false
        lit = self._mk(lvl, e, t) if value else self._mk(lvl, t, e)
        node = self._and_exists(self._node_of(f), lit, frozenset((lvl,)), lvl)
        return BoolFn(self, node)

    def forall(self, f: "BoolFn", variables: Iterable[VarId]) -> BoolFn:
        return ~self.exists(~f, variables)

    def exists(self, f: "BoolFn", variables: Iterable[VarId]) -> BoolFn:
        return self.and_exists(f, self.true, variables)

    def and_exists(
        self, f: "BoolFn", g: "BoolFn", variables: Iterable[VarId]
    ) -> BoolFn:
        """exists(f & g, variables), without building f & g."""
        a, b = self._node_of(f), self._node_of(g)
        levels = frozenset(self._check_var(v) for v in variables)
        return BoolFn(self, self._and_exists(a, b, levels, max(levels, default=-1)))

    def conjoin_factors(self, factors: Iterable["BoolFn"]) -> BoolFn:
        """The conjunction of factors that split it finely: their supports
        are pairwise disjoint and none of them splits further.

        The factors are recorded as the result's split, so `factors` and
        `support` of it cost no walk of the whole diagram.  The caller
        vouches for the split; any order will do.
        """
        split = sorted((self._node_of(g) for g in factors), key=attrgetter("level"))
        # Conjoined from the bottom factor up, so each step puts a factor
        # over the conjunction of the factors below it.
        r = self._true
        for g in reversed(split):
            r = self._ite(g, r, self._false)
        if r is not self._false:
            self._cache.setdefault(("factors", r), tuple(split))
        return BoolFn(self, r)

    def prime(self, f: "BoolFn") -> BoolFn:
        """f with every variable replaced by its primed copy.

        The same as rename to the primed copies, in one relabelling
        pass; raises BoolFnError when f mentions a primed variable.
        """
        return BoolFn(self, self._prime(self._node_of(f)))

    def compose_many(self, f: "BoolFn", binding: Mapping[VarId, "BoolFn"]) -> BoolFn:
        """Simultaneous substitution of functions for variables."""
        subst = {}
        for var, g in binding.items():
            subst[self._check_var(var)] = self._node_of(g)
        node = self._compose(self._node_of(f), subst, max(subst, default=-1), {})
        return BoolFn(self, node)

    def rename(self, f: "BoolFn", mapping: Mapping[VarId, VarId]) -> BoolFn:
        """Substitute variables for variables.

        The mapping must be injective on the support of f and must not
        map onto variables of the support that are kept fixed.  A
        mapping that moves no variable of the support returns f.
        """
        node = self._node_of(f)
        sup = self._support(node)
        live = {}
        for old, new in mapping.items():
            src, dst = self._check_var(old), self._check_var(new)
            if old in sup and src != dst:
                live[src] = dst
        if not live:
            return f
        targets = list(live.values())
        if len(set(targets)) != len(targets):
            raise BoolFnError("rename is not injective on the support")
        clash = [
            self._vars[dst].name
            for dst in targets
            if dst not in live and self._vars[dst] in sup
        ]
        if clash:
            names = ", ".join(sorted(clash))
            raise BoolFnError(f"rename target collides with kept variable: {names}")
        subst = {src: self._mk(dst, self._false, self._true) for src, dst in live.items()}
        return BoolFn(self, self._compose(node, subst, max(subst), {}))

    def support(self, f: "BoolFn") -> frozenset[VarId]:
        return self._support(self._node_of(f))

    def _support(self, node) -> frozenset[VarId]:
        """The variables node's diagram tests, cached per root.  A root
        whose split the engine holds unites its factors' supports."""
        key = ("support", node)
        r = self._cache.get(key)
        if r is None:
            split = self._cache.get(("factors", node))
            # a split of one factor is the node itself
            if split is not None and len(split) != 1:
                r = frozenset().union(*[self._support(g) for g in split])
            else:
                r = frozenset(u.var for u in self._nodes(node))
            self._cache[key] = r
        return r

    def _nodes(self, node):
        """The distinct non-terminal nodes reachable from node."""
        seen = set()
        stack = [node]
        while stack:
            u = stack.pop()
            if u.var is None or u in seen:
                continue
            seen.add(u)
            stack.append(u.lo)
            stack.append(u.hi)
        return seen

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

    def entails(self, f: "BoolFn", g: "BoolFn") -> bool:
        return self._ite(self._node_of(f), self._node_of(g), self._true) is self._true

    def sat_assignments(
        self, f: "BoolFn", universe: Sequence[VarId]
    ) -> list[frozenset[VarId]]:
        """All satisfying subsets of universe, in binary counting order.

        The first universe variable is the most significant bit and False
        sorts before True.  The support of f must lie inside the universe.
        """
        uni = list(universe)
        levels = [self._check_var(v) for v in uni]
        if len(set(levels)) != len(levels):
            raise BoolFnError("universe contains a repeated variable")
        missing = self._support(self._node_of(f)) - set(uni)
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise BoolFnError(f"support outside the universe: {names}")
        out = []
        for cube in self.cubes(f):
            fixed = {v for v, _ in cube}
            free = [v for v in uni if v not in fixed]
            base = [v for v, value in cube if value]
            # every assignment of the variables the path does not test
            for bits in range(2 ** len(free)):
                out.append(frozenset(base + [v for k, v in enumerate(free) if bits >> k & 1]))

        def key(s):
            # binary counting: the first caller variable is most significant
            return tuple(v in s for v in uni)

        return sorted(out, key=key)

    def cubes(self, f: "BoolFn") -> list[list[tuple[VarId, bool]]]:
        """Paths to true, as (variable, polarity) lists in diagram order.

        The low branch comes before the high branch at every node.
        """
        out = []
        stack = [(self._node_of(f), ())]
        while stack:
            u, path = stack.pop()
            if u is self._true:
                out.append(list(path))
            elif u is not self._false:
                stack.append((u.hi, path + ((u.var, True),)))
                stack.append((u.lo, path + ((u.var, False),)))
        return out

    def factors(self, f: "BoolFn") -> list[BoolFn]:
        """The finest split of f into conjuncts with pairwise disjoint supports.

        The factors conjoin to f, and none of them splits further; they
        come in the order of their top variables.  True has no factors,
        and false is its own single factor.

        One bottom-up pass over the diagram: below a node testing x, a
        factor shared by both cofactors is a factor of the node, and the
        cofactors' other factors rejoin under x as one more.  Nodes are
        canonical, so shared factors are found by identity.
        """
        return [BoolFn(self, g) for g in self._factors(self._node_of(f))]

    def _factors(self, root) -> tuple[_Node, ...]:
        # The split is cached for the root only: a memo entry per node
        # would keep nodes x factors tuples alive.
        if root is self._false:
            return (root,)
        key = ("factors", root)
        r = self._cache.get(key)
        if r is not None:
            return r
        # factors of each visited node, as a tuple ordered by level
        memo = {self._true: ()}
        stack = [root]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            todo = [c for c in (u.lo, u.hi) if c is not self._false and c not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if u.lo is self._false:
                out = (self._mk(u.level, self._false, self._true),) + memo[u.hi]
            elif u.hi is self._false:
                out = (self._mk(u.level, self._true, self._false),) + memo[u.lo]
            else:
                lo, hi = memo[u.lo], memo[u.hi]
                shared = set(lo) & set(hi)
                rest = []
                for side in (lo, hi):
                    acc = self._true
                    for g in side:
                        if g not in shared:
                            acc = self._ite(acc, g, self._false)
                    rest.append(acc)
                out = (self._mk(u.level, *rest),) + tuple(g for g in lo if g in shared)
            memo[u] = out
        r = self._cache[key] = memo[root]
        return r


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
        return hash((self.engine, self.node))

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
