"""Formula language: syntax tree, parser, printer, and boolean compilation.

The concrete syntax, tightest first:

    ~ phi        negation
    [i] phi      agent i believes phi
    phi & psi    conjunction (n-ary, left to right)
    phi | psi    disjunction (n-ary, left to right)
    phi -> psi   implication (right associative)
    phi <-> psi  equivalence (left associative)

Atoms are identifiers, optionally followed by a degree sign (with an
optional generation number) and by a prime.  `Top` and `Bot` are the
constants.  `@o` may be written for the degree sign on keyboards
without one, so `t@o` and `t°` parse the same.

The walkers (`subformulas`, `substitute`, the printer and the compiler)
dispatch on the exact class of a node; no node class is subclassed.
The compiler works on the engine's diagram nodes: each connective is a
direct call of its if-then-else kernel, and only the result is wrapped
as a `BoolFn`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

from .boolfun import BoolFn, Engine, VarId, _Node
from .errors import CompileError, ParseError


class Formula:
    """Base class for formula nodes; instances are immutable.

    A node computes its hash once, when it is built.  Its children are
    built first, so that costs one tuple of their stored hashes and
    never recurses.  Pickling and copying rebuild a node from its
    fields, so the hash is computed afresh in the process that receives
    it: string hashes differ between processes.
    """

    __slots__ = ("_hash",)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._hash_key(self)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self):
        return format_formula(self)


def _node(cls):
    # a frozen dataclass whose stored hash replaces the generated one;
    # hashing the class too keeps And and Or (Implies and Iff) apart
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = Formula.__hash__
    cls._hash_key = attrgetter("__class__", *cls.__match_args__)
    return cls


@_node
class Top(Formula):
    """The constant true."""


@_node
class Bot(Formula):
    """The constant false."""


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        Formula.__post_init__(self)


@_node
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        Formula.__post_init__(self)


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    agent: str
    body: Formula


TOP = Top()
BOT = Bot()


def conj(parts: Iterable[Formula]) -> Formula:
    """N-ary conjunction with unit and zero folded away."""
    kept = []
    for p in parts:
        if isinstance(p, Bot):
            return BOT
        if not isinstance(p, Top):
            kept.append(p)
    if not kept:
        return TOP
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


def disj(parts: Iterable[Formula]) -> Formula:
    kept = []
    for p in parts:
        if isinstance(p, Top):
            return TOP
        if not isinstance(p, Bot):
            kept.append(p)
    if not kept:
        return BOT
    if len(kept) == 1:
        return kept[0]
    return Or(tuple(kept))


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, outermost first, left to right.

    Iterative, so nesting depth is not bounded by the recursion limit.
    """
    stack = [formula]
    while stack:
        phi = stack.pop()
        yield phi
        kind = type(phi)
        if kind is Not or kind is Box:
            stack.append(phi.body)
        elif kind is And or kind is Or:
            stack.extend(reversed(phi.parts))
        elif kind is Implies or kind is Iff:
            stack.append(phi.right)
            stack.append(phi.left)


def atoms_of(formula: Formula) -> frozenset[str]:
    """All atom names occurring in the formula."""
    return frozenset(phi.name for phi in subformulas(formula) if isinstance(phi, Atom))


def agents_of(formula: Formula) -> frozenset[str]:
    """All agents mentioned by belief operators in the formula."""
    return frozenset(phi.agent for phi in subformulas(formula) if isinstance(phi, Box))


def is_boolean(formula: Formula) -> bool:
    """True when the formula contains no belief operator."""
    return not any(isinstance(phi, Box) for phi in subformulas(formula))


def substitute(formula: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms.

    A node none of whose children changes is returned itself, so only
    the part above a substituted atom is built anew.
    """
    kind = type(formula)
    if kind is Atom:
        return binding.get(formula.name, formula)
    if kind is Not or kind is Box:
        body = formula.body
        new = substitute(body, binding)
        if new is body:
            return formula
        return Not(new) if kind is Not else Box(formula.agent, new)
    if kind is And or kind is Or:
        parts = formula.parts
        new = tuple(substitute(p, binding) for p in parts)
        if all(a is b for a, b in zip(new, parts)):
            return formula
        return kind(new)
    if kind is Implies or kind is Iff:
        a, b = formula.left, formula.right
        new_a, new_b = substitute(a, binding), substitute(b, binding)
        if new_a is a and new_b is b:
            return formula
        return kind(new_a, new_b)
    return formula


def subset_formula(present, universe) -> Formula:
    """The formula true exactly at the subset `present` of `universe`.

    Positive atoms come first, then the negated absentees, both in
    universe order.  Sets are accepted and ordered alphabetically.
    """
    uni = sorted(universe) if isinstance(universe, (set, frozenset)) else list(universe)
    pres = set(present)
    stray = pres - set(uni)
    if stray:
        raise ValueError(f"subset members outside the universe: {sorted(stray)}")
    pos = [Atom(p) for p in uni if p in pres]
    neg = [Not(Atom(p)) for p in uni if p not in pres]
    return conj(pos + neg)


# -- parsing ---------------------------------------------------------------

# An identifier names an atom or an agent: a name, optionally a degree
# sign (or `@o`) with an optional generation number, optionally a prime.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:(?:°|@o)[0-9]*)?'?"

_TOKEN = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<ident>{IDENT})
      | (?P<op><->|->|[~&|()\[\]])
    """,
    re.VERBOSE,
)


def read_ident(text: str) -> str:
    """An identifier as formulas name it: `@o` is the degree sign."""
    return text.replace("@o", "°")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, op, end
    text: str
    line: int
    col: int


def _lex(text: str, line0: int = 1) -> list[_Token]:
    tokens = []
    line, col = line0, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, read_ident(lexeme), line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.col)
        return tok

    def formula(self) -> Formula:
        left = self.implication()
        while self.peek().text == "<->":
            self.take()
            left = Iff(left, self.implication())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek().text == "|":
            self.take()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek().text == "&":
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.take()
            return Not(self.unary())
        if tok.text == "[":
            self.take()
            agent = self.take()
            if agent.kind != "ident":
                raise ParseError("expected an agent name", agent.line, agent.col)
            self.expect("]")
            return Box(agent.text, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok.text == "(":
            phi = self.formula()
            self.expect(")")
            return phi
        if tok.kind == "ident":
            if tok.text == "Top":
                return TOP
            if tok.text == "Bot":
                return BOT
            return Atom(tok.text)
        got = tok.text or "end of input"
        raise ParseError(f"expected a formula, got {got!r}", tok.line, tok.col)


def parse(text: str, line: int = 1) -> Formula:
    """Parse one formula; `line` offsets error positions for embedded text."""
    parser = _Parser(_lex(text, line))
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after formula", tok.line, tok.col)
    return phi


# -- printing --------------------------------------------------------------

_IFF, _IMP, _OR, _AND, _UNARY = 1, 2, 3, 4, 5


def format_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parse(format_formula(f)) == f."""
    return _format(formula, _IFF)


def _format(phi: Formula, ctx: int) -> str:
    kind = type(phi)
    if kind is Atom:
        return phi.name
    if kind is Not:
        return _wrap("~" + _format(phi.body, _UNARY), _UNARY, ctx)
    if kind is Box:
        return _wrap(f"[{phi.agent}] " + _format(phi.body, _UNARY), _UNARY, ctx)
    if kind is And:
        return _wrap(" & ".join(_format(p, _UNARY) for p in phi.parts), _AND, ctx)
    if kind is Or:
        return _wrap(" | ".join(_format(p, _AND) for p in phi.parts), _OR, ctx)
    if kind is Implies:
        text = _format(phi.left, _OR) + " -> " + _format(phi.right, _IMP)
        return _wrap(text, _IMP, ctx)
    if kind is Iff:
        text = _format(phi.left, _IFF) + " <-> " + _format(phi.right, _IMP)
        return _wrap(text, _IFF, ctx)
    if kind is Top:
        return "Top"
    if kind is Bot:
        return "Bot"
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(text: str, level: int, ctx: int) -> str:
    return f"({text})" if level < ctx else text


# -- compilation -----------------------------------------------------------

def compile_formula(
    formula: Formula, env: Mapping[str, VarId], engine: Engine
) -> BoolFn:
    """Turn a boolean formula into a function, resolving atoms through env."""
    return compile_with(formula, env, engine, _no_box)


def _no_box(formula: Box) -> BoolFn:
    raise CompileError(
        f"belief operator [{formula.agent}] in a boolean-only context"
    )


def compile_with(
    formula: Formula,
    env: Mapping[str, VarId],
    engine: Engine,
    box: Callable[[Box], BoolFn],
    memo: dict[Formula, _Node] | None = None,
) -> BoolFn:
    """Compile a formula, handing each belief operator to box.

    Boolean connectives are calls of the engine's if-then-else kernel on
    diagram nodes, the ones `Engine.combine` makes, and atoms resolve
    through env; box gets the whole Box node, body uncompiled, and
    returns a function.  The memo maps each subformula compiled before
    to its diagram node, so a repeated one costs one lookup; without
    one, the call keeps its own.
    """
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    if memo is None:
        memo = {}
    return BoolFn(engine, _compile(formula, env, engine, box, memo))


def _compile(phi, env, engine, box, memo):
    # Dispatch on the exact node class, the kinds most frequent in
    # belief queries first.  Each connective makes the _ite calls that
    # Engine.combine makes for it, so both build the same nodes.
    node = memo.get(phi)
    if node is not None:
        return node
    kind = type(phi)
    if kind is Not:
        node = engine._ite(
            _compile(phi.body, env, engine, box, memo), engine._false, engine._true
        )
    elif kind is Box:
        node = engine._node_of(box(phi))
    elif kind is Atom:
        var = env.get(phi.name)
        if var is None:
            raise CompileError(f"unbound atom: {phi.name}")
        node = engine._mk(engine._check_var(var), engine._false, engine._true)
    elif kind is And:
        nodes = [_compile(p, env, engine, box, memo) for p in phi.parts]
        node, e = engine._true, engine._false
        for n in nodes:
            node = engine._ite(node, n, e)
    elif kind is Or:
        nodes = [_compile(p, env, engine, box, memo) for p in phi.parts]
        node, t = engine._false, engine._true
        for n in nodes:
            node = engine._ite(node, t, n)
    elif kind is Implies:
        a = _compile(phi.left, env, engine, box, memo)
        b = _compile(phi.right, env, engine, box, memo)
        node = engine._ite(a, b, engine._true)
    elif kind is Iff:
        a = _compile(phi.left, env, engine, box, memo)
        b = _compile(phi.right, env, engine, box, memo)
        node = engine._ite(a, b, engine._ite(b, engine._false, engine._true))
    elif kind is Top:
        node = engine._true
    elif kind is Bot:
        node = engine._false
    else:
        raise TypeError(f"not a formula: {phi!r}")
    memo[phi] = node
    return node


def recover_formula(fn: BoolFn, memo: dict[BoolFn, Formula] | None = None) -> Formula:
    """A readable formula denoting fn, for display purposes.

    fn is printed as the conjunction of its factors (`Engine.factors`),
    which have pairwise disjoint supports, so the text grows with the
    diagram rather than with its paths.  A factor over one variable is
    a literal, a two-variable equivalence prints as one, and any other
    factor as the disjunction of its diagram's paths to true.

    With a memo, fn and each of its factors are looked up there first
    and stored after, so a function or factor recovered before costs
    one lookup.  A factor is its own only factor, so both kinds of
    entry agree where they meet.
    """
    if memo is None:
        memo = {}
    out = memo.get(fn)
    if out is None:
        parts = []
        for g in fn.engine.factors(fn):
            part = memo.get(g)
            if part is None:
                part = memo[g] = _recover_factor(g)
            parts.append(part)
        out = memo[fn] = conj(parts)
    return out


def _recover_factor(fn: BoolFn) -> Formula:
    engine = fn.engine
    sup = sorted(fn.support(), key=engine.level)
    if len(sup) == 1:
        v = sup[0]
        return Atom(v.name) if fn == engine.atom(v) else Not(Atom(v.name))
    if len(sup) == 2:
        a, b = (engine.atom(v) for v in sup)
        if fn == a.iff(b):
            return Iff(Atom(sup[0].name), Atom(sup[1].name))
        if fn == a.iff(~b):
            return Iff(Atom(sup[0].name), Not(Atom(sup[1].name)))
    cubes = []
    for cube in engine.cubes(fn):
        lits = [Atom(v.name) if pos else Not(Atom(v.name)) for v, pos in cube]
        cubes.append(conj(lits))
    return disj(cubes)
