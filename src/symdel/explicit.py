"""Explicit-state models: Kripke models, action models, product update.

World and event identifiers can be any hashable value.  Derived models
use frozensets of atom names (worlds named by their valuations) and
(world, event) pairs, and the formatting helpers know how to render
those deterministically.  GlobalEvaluator is the one explicit evaluator
of the Kripke semantics: product update reads one world mask of it
per precondition and postcondition, and the equivalence harness and
the benchmark ask it for truth at a world.  It indexes the worlds
once and holds each extension as an int bitmask over that index, so
connectives are bitwise operations and a belief operator tests one
successor mask per world.

binary_code, relation_of and observation_of are the one coding between
explicit points and symbolic states: which variables name a point, and
which observation function stands for a relation.  The translations of
structures and models here, and of events and actions in bridge.py, all
go through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from .boolfun import BoolFn, Engine
from .errors import EvalError, VocabularyError
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
    """Extension sets for many formulas against one model, memoized.

    World k is the k-th of `model.worlds`, and an extension is an int
    whose bit k is set when the formula holds at world k.  Each agent
    has one successor mask per world, so [i]phi holds at the worlds
    whose successor mask misses the complement of phi's mask.  Each
    distinct subformula's mask is computed once, by a recursion that
    dispatches on the exact class of the node.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._index = {w: k for k, w in enumerate(model.worlds)}
        self._all = (1 << len(model.worlds)) - 1
        self._succ = {}
        for agent, rel in model.relations.items():
            succ = self._succ[agent] = [0] * len(model.worlds)
            for u, v in rel:
                succ[self._index[u]] |= 1 << self._index[v]
        self._memo: dict[Formula, int] = {}

    def extension(self, formula: Formula) -> frozenset:
        mask = self._mask(formula)
        return frozenset(w for k, w in enumerate(self.model.worlds) if mask >> k & 1)

    def satisfies(self, world: WorldId, formula: Formula) -> bool:
        mask = self._mask(formula)
        k = self._index.get(world)
        return k is not None and mask >> k & 1 == 1

    def _mask(self, formula: Formula) -> int:
        mask = self._memo.get(formula)
        if mask is not None:
            return mask
        # dispatch on the exact node class; the formula batteries are
        # mostly Not and Box nodes, so they come first
        kind = type(formula)
        if kind is Not:
            mask = self._all ^ self._mask(formula.body)
        elif kind is Box:
            succ = self._succ.get(formula.agent)
            if succ is None:
                raise EvalError(f"unknown agent: {formula.agent}")
            outside = self._all ^ self._mask(formula.body)
            mask = 0
            for k, s in enumerate(succ):
                if not s & outside:
                    mask |= 1 << k
        elif kind is Atom:
            name = formula.name
            m = self.model
            if name not in m.vocabulary:
                raise EvalError(f"unknown atom: {name}")
            mask = 0
            for k, w in enumerate(m.worlds):
                if name in m.valuation[w]:
                    mask |= 1 << k
        elif kind is And:
            mask = self._all
            for p in formula.parts:
                mask &= self._mask(p)
        elif kind is Or:
            mask = 0
            for p in formula.parts:
                mask |= self._mask(p)
        elif kind is Implies:
            mask = (self._all ^ self._mask(formula.left)) | self._mask(formula.right)
        elif kind is Iff:
            mask = self._all ^ self._mask(formula.left) ^ self._mask(formula.right)
        elif kind is Top:
            mask = self._all
        elif kind is Bot:
            mask = 0
        else:
            raise TypeError(f"not a formula: {formula!r}")
        self._memo[formula] = mask
        return mask


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
    # one world mask per precondition and per postcondition of an event
    # that survives somewhere; a model without worlds evaluates none
    mask = GlobalEvaluator(model)._mask
    events = action.events if model.worlds else ()
    pre = [(a, mask(action.pre[a])) for a in events]
    atom_masks = [mask(Atom(p)) for p in model.vocabulary]
    post = {}
    for a, pre_mask in pre:
        if pre_mask:
            mapping = action.post.get(a, {})
            post[a] = [
                mask(mapping[p]) if p in mapping else atom_mask
                for p, atom_mask in zip(model.vocabulary, atom_masks)
            ]
    pairs = []
    valuation = {}
    for k, w in enumerate(model.worlds):
        for a, pre_mask in pre:
            if pre_mask >> k & 1:
                pairs.append((w, a))
                valuation[(w, a)] = frozenset(
                    p
                    for p, post_mask in zip(model.vocabulary, post[a])
                    if post_mask >> k & 1
                )
    pair_set = set(pairs)
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


# -- structures <-> models ---------------------------------------------------

def binary_code(items, variables) -> dict:
    """Code item k as the variables[j] whose bit j is set in k, the first
    variable being the least significant bit."""
    return {
        item: frozenset(v for j, v in enumerate(variables) if (k >> j) & 1)
        for k, item in enumerate(items)
    }


def relation_of(obs: BoolFn, points: Mapping) -> frozenset:
    """The pairs (a, b) of coded points that obs accepts: points[a] on
    the plain side and points[b] on the primed side."""
    engine = obs.engine
    primed = {b: frozenset(engine.primed(v) for v in t) for b, t in points.items()}
    return frozenset(
        (a, b)
        for a, s in points.items()
        for b, t in primed.items()
        if obs.holds(s | t)
    )


def observation_of(engine: Engine, relation, points: Mapping, universe) -> BoolFn:
    """The observation function of a relation over coded points: the
    disjunction, over its pairs (a, b), of the cube of points[a] over
    the universe and of points[b] over the primed universe.  The pairs
    are disjoined in the order of points, source first, so the work
    done does not depend on the relation's hash order."""
    primed = [engine.primed(v) for v in universe]
    source = {a: _cube(engine, s, universe) for a, s in points.items()}
    target = {
        b: _cube(engine, {engine.primed(v) for v in t}, primed)
        for b, t in points.items()
    }
    return engine.disj(
        [source[a] & target[b] for a in points for b in points if (a, b) in relation]
    )


def _cube(engine: Engine, state, universe) -> BoolFn:
    """The function true exactly at the subset state of universe."""
    return engine.conj(
        [engine.atom(v) if v in state else ~engine.atom(v) for v in universe]
    )


def model_of_structure(structure) -> KripkeModel:
    """Expand a belief structure into the Kripke model of its states.

    Worlds are the states, named by their sets of variable names, so
    the world/state correspondence is the identity on names.  An agent
    relates two states when its observation function accepts the pair.
    """
    points = {frozenset(v.name for v in s): s for s in structure.states()}
    relations = {
        agent: relation_of(obs, points)
        for agent, obs in structure.observations.items()
    }
    vocabulary = tuple(v.name for v in structure.vocabulary)
    return KripkeModel(vocabulary, tuple(points), relations, {w: w for w in points})


def structure_of_model(engine, model: KripkeModel):
    """Encode a Kripke model as a belief structure.

    Returns (structure, g) where g maps each world to a state.  When
    two worlds share a valuation, fresh distinguishing variables code
    the worlds in binary so that g stays injective; the state law is
    the disjunction of the cubes of the g-states, and each observation
    function the one of the agent's relation over them.
    """
    vocab = [engine.variable(p) for p in model.vocabulary]
    var_of = dict(zip(model.vocabulary, vocab))
    distinct = len(set(model.valuation.values())) == len(model.worlds)
    n = 0 if distinct else (len(model.worlds) - 1).bit_length()
    extra = [engine.fresh_stem("d") for _ in range(n)]
    labels = binary_code(model.worlds, extra)
    g = {
        w: frozenset(var_of[p] for p in model.valuation[w]) | labels[w]
        for w in model.worlds
    }
    universe = vocab + extra
    law = engine.disj([_cube(engine, s, universe) for s in g.values()])
    observations = {
        agent: observation_of(engine, rel, g, universe)
        for agent, rel in model.relations.items()
    }
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
