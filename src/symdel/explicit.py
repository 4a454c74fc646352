"""Explicit-state models: Kripke models, action models, product update.

World and event identifiers can be any hashable value.  Derived models
use frozensets of atom names (worlds named by their valuations) and
(world, event) pairs, and the formatting helpers know how to render
those deterministically.  GlobalEvaluator is the one explicit evaluator
of the Kripke semantics: product update, the equivalence harness and
the benchmark all ask it for truth at a world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .errors import EvalError, PointEliminated, VocabularyError
from .language import (
    TOP,
    And,
    Atom,
    Bot,
    Box,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    atoms_of,
    is_boolean,
)
from .symbolic import BeliefStructure

WorldId = Hashable
EventId = Hashable


def _freeze_relations(relations, points, what):
    out = {}
    for agent, pairs in relations.items():
        frozen = frozenset(pairs)
        for a, b in frozen:
            if a not in points or b not in points:
                raise VocabularyError(
                    f"relation for {agent} mentions an unknown {what}: {(a, b)!r}"
                )
        out[agent] = frozen
    return out


@dataclass
class KripkeModel:
    """Finite Kripke model with one relation per agent.

    The valuation must be total on the worlds and only use propositions
    from the vocabulary.
    """

    vocabulary: tuple[str, ...]
    worlds: tuple[WorldId, ...]
    relations: dict[str, frozenset[tuple[WorldId, WorldId]]]
    valuation: dict[WorldId, frozenset[str]]

    def __post_init__(self):
        self.vocabulary = tuple(self.vocabulary)
        self.worlds = tuple(self.worlds)
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise VocabularyError("repeated proposition in the vocabulary")
        if len(set(self.worlds)) != len(self.worlds):
            raise VocabularyError("repeated world identifier")
        world_set = set(self.worlds)
        self.relations = _freeze_relations(self.relations, world_set, "world")
        if set(self.valuation) != world_set:
            raise VocabularyError("valuation is not total on the worlds")
        vocab = set(self.vocabulary)
        self.valuation = {w: frozenset(v) for w, v in self.valuation.items()}
        for w, val in self.valuation.items():
            if not val <= vocab:
                raise VocabularyError(
                    f"valuation of {w!r} uses propositions outside the vocabulary"
                )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.relations)


@dataclass
class PointedModel:
    model: KripkeModel
    point: WorldId

    def __post_init__(self):
        if self.point not in self.model.valuation:
            raise VocabularyError(f"designated world {self.point!r} is not a world")


class GlobalEvaluator:
    """Extension sets for many formulas against one model, memoized."""

    def __init__(self, model: KripkeModel):
        self.model = model
        self._succ = {}
        for agent, rel in model.relations.items():
            succ = self._succ[agent] = {w: set() for w in model.worlds}
            for u, v in rel:
                succ[u].add(v)
        self._all = frozenset(model.worlds)
        self._memo: dict[Formula, frozenset] = {}

    def extension(self, formula: Formula) -> frozenset:
        ext = self._memo.get(formula)
        if ext is not None:
            return ext
        m = self.model
        match formula:
            case Top():
                ext = self._all
            case Bot():
                ext = frozenset()
            case Atom(name):
                if name not in m.vocabulary:
                    raise EvalError(f"unknown atom: {name}")
                ext = frozenset(w for w in m.worlds if name in m.valuation[w])
            case Not(body):
                ext = self._all - self.extension(body)
            case And(parts):
                ext = self._all
                for p in parts:
                    ext &= self.extension(p)
            case Or(parts):
                ext = frozenset()
                for p in parts:
                    ext |= self.extension(p)
            case Implies(a, b):
                ext = (self._all - self.extension(a)) | self.extension(b)
            case Iff(a, b):
                ea, eb = self.extension(a), self.extension(b)
                ext = self._all - (ea ^ eb)
            case Box(agent, body):
                succ = self._succ.get(agent)
                if succ is None:
                    raise EvalError(f"unknown agent: {agent}")
                body_ext = self.extension(body)
                ext = frozenset(w for w in m.worlds if succ[w] <= body_ext)
            case _:
                raise TypeError(f"not a formula: {formula!r}")
        self._memo[formula] = ext
        return ext

    def satisfies(self, world: WorldId, formula: Formula) -> bool:
        return world in self.extension(formula)


@dataclass
class ActionModel:
    """Finite action model with preconditions and boolean postconditions.

    Preconditions may be epistemic.  Postconditions are given per event
    as a partial map from proposition to formula; missing propositions
    keep their value, and the formulas must be belief-free.
    """

    events: tuple[EventId, ...]
    relations: dict[str, frozenset[tuple[EventId, EventId]]]
    pre: dict[EventId, Formula]
    post: dict[EventId, dict[str, Formula]] = field(default_factory=dict)

    def __post_init__(self):
        self.events = tuple(self.events)
        if len(set(self.events)) != len(self.events):
            raise VocabularyError("repeated event identifier")
        event_set = set(self.events)
        self.relations = _freeze_relations(self.relations, event_set, "event")
        self.pre = dict(self.pre)
        for a in self.events:
            self.pre.setdefault(a, TOP)
        if set(self.pre) != event_set:
            raise VocabularyError("precondition given for an unknown event")
        self.post = {a: dict(m) for a, m in self.post.items()}
        for a in self.post:
            if a not in event_set:
                raise VocabularyError(f"postcondition given for an unknown event: {a!r}")
        for a, mapping in self.post.items():
            for prop, phi in mapping.items():
                if not is_boolean(phi):
                    raise VocabularyError(
                        f"postcondition {prop} of {a!r} is not belief-free"
                    )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.relations)

    def post_formula(self, event: EventId, prop: str) -> Formula:
        return self.post.get(event, {}).get(prop, Atom(prop))

    def changed_props(self) -> tuple[str, ...]:
        """Propositions some event rewrites, syntactically, in first-seen order."""
        out = []
        for a in self.events:
            for prop, phi in self.post.get(a, {}).items():
                if phi != Atom(prop) and prop not in out:
                    out.append(prop)
        return tuple(out)


def product_update(model: KripkeModel, action: ActionModel) -> KripkeModel:
    """Execute the action model on the Kripke model.

    Surviving worlds are the (world, event) pairs whose precondition
    holds; an agent relates two pairs when it relates both components;
    the new valuation reads the postconditions at the old world.
    """
    if set(action.relations) != set(model.relations):
        raise VocabularyError("action model and Kripke model disagree on the agents")
    vocab = set(model.vocabulary)
    for a, mapping in action.post.items():
        for prop, phi in mapping.items():
            if prop not in vocab:
                raise VocabularyError(
                    f"postcondition rewrites unknown proposition: {prop}"
                )
            stray = atoms_of(phi) - vocab
            if stray:
                raise EvalError(f"unknown atom: {sorted(stray)[0]}")
    evaluator = GlobalEvaluator(model)
    pairs = [
        (w, a)
        for w in model.worlds
        for a in action.events
        if evaluator.satisfies(w, action.pre[a])
    ]
    pair_set = set(pairs)
    valuation = {}
    for w, a in pairs:
        valuation[(w, a)] = frozenset(
            p
            for p in model.vocabulary
            if evaluator.satisfies(w, action.post_formula(a, p))
        )
    relations = {}
    for agent in model.relations:
        rel_m = model.relations[agent]
        rel_a = action.relations[agent]
        relations[agent] = frozenset(
            ((w, a), (v, b))
            for (w, v) in rel_m
            for (a, b) in rel_a
            if (w, a) in pair_set and (v, b) in pair_set
        )
    return KripkeModel(model.vocabulary, tuple(pairs), relations, valuation)


def product_update_pointed(
    pointed: PointedModel, action: ActionModel, event: EventId
) -> PointedModel:
    """Pointed product update; fails when the designated pair is eliminated."""
    if event not in action.pre:
        raise VocabularyError(f"unknown event: {event!r}")
    product = product_update(pointed.model, action)
    point = (pointed.point, event)
    if point not in product.valuation:
        raise PointEliminated(
            f"precondition of event {format_point(event)} fails at the actual world"
        )
    return PointedModel(product, point)


# -- structures <-> models ---------------------------------------------------

def model_of_structure(structure) -> KripkeModel:
    """Expand a belief structure into the Kripke model of its states.

    Worlds are the states, named by their sets of variable names, so
    the world/state correspondence is the identity on names.  An agent
    relates two states when its observation function accepts the pair.
    """
    engine = structure.engine
    states = structure.states()
    names = {s: frozenset(v.name for v in s) for s in states}
    worlds = tuple(names[s] for s in states)
    primed = {
        s: frozenset(engine.primed(v) for v in s) for s in states
    }
    relations = {
        agent: frozenset(
            (names[s], names[t])
            for s in states
            for t in states
            if obs.holds(s | primed[t])
        )
        for agent, obs in structure.observations.items()
    }
    valuation = {names[s]: names[s] for s in states}
    vocabulary = tuple(v.name for v in structure.vocabulary)
    return KripkeModel(vocabulary, worlds, relations, valuation)


def structure_of_model(engine, model: KripkeModel):
    """Encode a Kripke model as a belief structure.

    Returns (structure, g) where g maps each world to a state.  When
    two worlds share a valuation, fresh distinguishing variables are
    added so that g stays injective; the state law is the disjunction
    of the exact descriptions of the g-states, and each observation
    function the disjunction over the agent's edges.
    """
    vocab = [engine.variable(p) for p in model.vocabulary]
    var_of = {p: v for p, v in zip(model.vocabulary, vocab)}
    values = [frozenset(model.valuation[w]) for w in model.worlds]
    if len(set(values)) == len(values):
        extra = []
        labels = {w: frozenset() for w in model.worlds}
    else:
        n = (len(model.worlds) - 1).bit_length()
        extra = [engine.fresh_stem("d") for _ in range(n)]
        labels = {
            w: frozenset(extra[j] for j in range(n) if (k >> j) & 1)
            for k, w in enumerate(model.worlds)
        }
    g = {
        w: frozenset(var_of[p] for p in model.valuation[w]) | labels[w]
        for w in model.worlds
    }
    universe = vocab + extra
    primed = {v: engine.primed(v) for v in universe}

    def cube(state, prime_side):
        literals = []
        for v in universe:
            atom = engine.atom(primed[v] if prime_side else v)
            literals.append(atom if v in state else ~atom)
        return engine.conj(literals)

    law = engine.disj([cube(g[w], False) for w in model.worlds])
    index = {w: k for k, w in enumerate(model.worlds)}
    observations = {}
    for agent, rel in model.relations.items():
        pairs = sorted(rel, key=lambda wv: (index[wv[0]], index[wv[1]]))
        observations[agent] = engine.disj(
            [cube(g[w], False) & cube(g[v], True) for (w, v) in pairs]
        )
    return BeliefStructure(engine, tuple(universe), law, observations), g


# -- formatting -------------------------------------------------------------

def format_point(point) -> str:
    """Deterministic rendering of world and event identifiers."""
    if isinstance(point, (frozenset, set)):
        return "{" + ",".join(sorted(point)) + "}"
    if isinstance(point, tuple):
        return "(" + ",".join(format_point(part) for part in point) + ")"
    return str(point)


def format_model(model: KripkeModel, point=None) -> str:
    lines = []
    lines.append("props: " + " ".join(model.vocabulary))
    for w in model.worlds:
        mark = "*" if point is not None and w == point else " "
        names = [p for p in model.vocabulary if p in model.valuation[w]]
        lines.append(f"{mark} {format_point(w)} |= {{{','.join(names)}}}")
    for agent in model.relations:
        pairs = sorted(
            (format_point(a), format_point(b)) for a, b in model.relations[agent]
        )
        body = " ".join(f"{a}->{b}" for a, b in pairs)
        lines.append(f"rel {agent}: {body}")
    return "\n".join(lines)
