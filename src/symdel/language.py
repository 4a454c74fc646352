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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .boolfun import BoolFn, Engine, VarId
from .errors import CompileError, ParseError


class Formula:
    """Base class for formula nodes; instances are immutable."""

    __slots__ = ()

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    """The constant true."""


@dataclass(frozen=True)
class Bot(Formula):
    """The constant false."""


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
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
        match phi:
            case Not(body) | Box(_, body):
                stack.append(body)
            case And(parts) | Or(parts):
                stack.extend(reversed(parts))
            case Implies(a, b) | Iff(a, b):
                stack.extend((b, a))


def atoms_of(formula: Formula) -> frozenset[str]:
    """All atom names occurring in the formula."""
    return frozenset(phi.name for phi in subformulas(formula) if isinstance(phi, Atom))


def agents_of(formula: Formula) -> frozenset[str]:
    """All agents mentioned by belief operators in the formula."""
    return frozenset(phi.agent for phi in subformulas(formula) if isinstance(phi, Box))


def is_boolean(formula: Formula) -> bool:
    """True when the formula contains no belief operator."""
    return not any(isinstance(phi, Box) for phi in subformulas(formula))


def map_atoms(formula: Formula, fn: Callable[[str], Formula]) -> Formula:
    """Rebuild the formula with every atom replaced by fn(name)."""

    match formula:
        case Atom(name):
            return fn(name)
        case Not(body):
            return Not(map_atoms(body, fn))
        case And(parts):
            return And(tuple(map_atoms(p, fn) for p in parts))
        case Or(parts):
            return Or(tuple(map_atoms(p, fn) for p in parts))
        case Implies(a, b):
            return Implies(map_atoms(a, fn), map_atoms(b, fn))
        case Iff(a, b):
            return Iff(map_atoms(a, fn), map_atoms(b, fn))
        case Box(agent, body):
            return Box(agent, map_atoms(body, fn))
        case _:
            return formula


def substitute(formula: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms."""
    return map_atoms(formula, lambda n: binding.get(n, Atom(n)))


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

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:(?:°|@o)[0-9]*)?'?)
      | (?P<op><->|->|[~&|()\[\]])
    """,
    re.VERBOSE,
)


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
            tokens.append(_Token(m.lastgroup, lexeme.replace("@o", "°"), line, col))
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
    match phi:
        case Top():
            return "Top"
        case Bot():
            return "Bot"
        case Atom(name):
            return name
        case Not(body):
            return _wrap("~" + _format(body, _UNARY), _UNARY, ctx)
        case Box(agent, body):
            return _wrap(f"[{agent}] " + _format(body, _UNARY), _UNARY, ctx)
        case And(parts):
            return _wrap(" & ".join(_format(p, _UNARY) for p in parts), _AND, ctx)
        case Or(parts):
            return _wrap(" | ".join(_format(p, _AND) for p in parts), _OR, ctx)
        case Implies(a, b):
            return _wrap(_format(a, _OR) + " -> " + _format(b, _IMP), _IMP, ctx)
        case Iff(a, b):
            return _wrap(_format(a, _IFF) + " <-> " + _format(b, _IMP), _IFF, ctx)
        case _:
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
    memo: dict[Formula, BoolFn] | None = None,
) -> BoolFn:
    """Compile a formula, handing each belief operator to box.

    Boolean connectives map to function operations and atoms resolve
    through env; box gets the whole Box node, body uncompiled.  With a
    memo, every subformula is looked up there first and stored after.
    """

    def go(phi):
        if memo is not None:
            out = memo.get(phi)
            if out is not None:
                return out
        match phi:
            case Top():
                out = engine.true
            case Bot():
                out = engine.false
            case Atom(name):
                var = env.get(name)
                if var is None:
                    raise CompileError(f"unbound atom: {name}")
                out = engine.atom(var)
            case Not(body):
                out = ~go(body)
            case And(parts):
                out = engine.conj([go(p) for p in parts])
            case Or(parts):
                out = engine.disj([go(p) for p in parts])
            case Implies(a, b):
                out = go(a).implies(go(b))
            case Iff(a, b):
                out = go(a).iff(go(b))
            case Box():
                out = box(phi)
            case _:
                raise TypeError(f"not a formula: {phi!r}")
        if memo is not None:
            memo[phi] = out
        return out

    try:
        return go(formula)
    finally:
        # go holds itself through its closure cell; emptying the cell
        # frees it by reference counting, not by the cyclic collector
        del go


def recover_formula(fn: BoolFn) -> Formula:
    """A readable formula denoting fn, for display purposes.

    Small functions come back as literals or equivalences, everything
    else as a disjunction of the diagram's paths to true.
    """
    engine = fn.engine
    if fn.is_true:
        return TOP
    if fn.is_false:
        return BOT
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
