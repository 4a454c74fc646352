"""Symbolic epistemic structures and their update by event descriptions.

A belief structure packs a vocabulary V, a state law over V, and one
observation function per agent over V and its primed copy V'.  Its
states are the subsets of V satisfying the law; an agent considers t
possible at s when s together with primed t satisfies the agent's
observation function.

An event description (Transformer) issues fresh event variables with an
event law that may talk about beliefs, changes the truth value of some
variables, and tells each agent what it observes about the event.
Updating a structure snapshots the changed variables into fresh copy
generations, so the new law and observations can still refer to the
pre-event values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .boolfun import BoolFn, Engine, VarId, _Node
from .errors import (
    EvalError,
    NotDetermined,
    NotExecutable,
    VocabularyError,
)
from .language import Box, Formula, compile_formula, compile_with, is_boolean

State = frozenset[VarId]


def _name_list(variables) -> str:
    """The variables' names, sorted and comma-separated, for a message."""
    return ", ".join(sorted(v.name for v in variables))


def _check_plain_distinct(variables, what):
    seen = set()
    for v in variables:
        if v.primed:
            raise VocabularyError(f"{what} must be unprimed: {v.name}")
        if v in seen:
            raise VocabularyError(f"repeated variable in {what}: {v.name}")
        seen.add(v)


@dataclass(frozen=True, eq=False)
class BeliefStructure:
    """Vocabulary, state law, and per-agent observation functions."""

    engine: Engine
    vocabulary: tuple[VarId, ...]
    law: BoolFn
    observations: Mapping[str, BoolFn]

    def __post_init__(self):
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        object.__setattr__(self, "observations", dict(self.observations))
        _check_plain_distinct(self.vocabulary, "the vocabulary")
        vocab = set(self.vocabulary)
        if self.law.engine is not self.engine:
            raise VocabularyError("state law built in a different engine")
        stray = self.law.support() - vocab
        if stray:
            raise VocabularyError(
                f"state law mentions non-vocabulary variables: {_name_list(stray)}"
            )
        allowed = vocab | {self.engine.primed(v) for v in self.vocabulary}
        for agent, obs in self.observations.items():
            if obs.engine is not self.engine:
                raise VocabularyError(
                    f"observation function of {agent} built in a different engine"
                )
            stray = obs.support() - allowed
            if stray:
                raise VocabularyError(
                    f"observation function of {agent} mentions "
                    f"non-vocabulary variables: {_name_list(stray)}"
                )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.observations)

    def env(self) -> dict[str, VarId]:
        """Atom-name binding for compiling formulas over the vocabulary."""
        return {v.name: v for v in self.vocabulary}

    def states(self) -> list[State]:
        """All states, in binary counting order over the vocabulary."""
        return self.engine.sat_assignments(self.law, self.vocabulary)

    @cached_property
    def translator(self) -> "Translator":
        """The boolean translator for this structure, shared by every query
        against it so the primed law and each agent's relation are built once."""
        return Translator(self)


@dataclass(frozen=True, eq=False)
class Scene:
    """A belief structure together with its actual state."""

    structure: BeliefStructure
    state: State

    def __post_init__(self):
        object.__setattr__(self, "state", frozenset(self.state))
        stray = self.state - set(self.structure.vocabulary)
        if stray:
            raise VocabularyError(
                f"state uses non-vocabulary variables: {_name_list(stray)}"
            )
        if not self.structure.law.holds(self.state):
            raise VocabularyError("the designated state violates the state law")


@dataclass(frozen=True, eq=False)
class Transformer:
    """Event description: fresh event variables, an event law, and change laws.

    event_law may use belief operators, but only over the original
    vocabulary; event variables must stay outside their scope.  Change
    laws and event observations are belief-free; event observations may
    mention only event variables and their primes.
    """

    add_vocab: tuple[VarId, ...]
    event_law: Formula
    modified: tuple[VarId, ...] = ()
    change_laws: Mapping[VarId, Formula] = field(default_factory=dict)
    event_obs: Mapping[str, BoolFn] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "add_vocab", tuple(self.add_vocab))
        object.__setattr__(self, "modified", tuple(self.modified))
        object.__setattr__(self, "change_laws", dict(self.change_laws))
        object.__setattr__(self, "event_obs", dict(self.event_obs))
        _check_plain_distinct(self.add_vocab, "the event vocabulary")
        _check_plain_distinct(self.modified, "the modified set")
        mod = set(self.modified)
        if set(self.change_laws) != mod:
            raise VocabularyError(
                "change laws must cover exactly the modified variables"
            )
        for v, phi in self.change_laws.items():
            if not is_boolean(phi):
                raise VocabularyError(f"change law of {v.name} is not belief-free")
        engines = {obs.engine for obs in self.event_obs.values()}
        if len(engines) > 1:
            raise VocabularyError("event observations built in different engines")
        if self.event_obs:
            engine = next(iter(engines))
            allowed = set(self.add_vocab) | {
                engine.primed(v) for v in self.add_vocab
            }
            for agent, obs in self.event_obs.items():
                stray = obs.support() - allowed
                if stray:
                    raise VocabularyError(
                        f"event observation of {agent} mentions variables "
                        f"other than the event variables: {_name_list(stray)}"
                    )


@dataclass(frozen=True, eq=False)
class Event:
    """A transformer with the event variables that actually happened."""

    transformer: Transformer
    actual: frozenset[VarId]

    def __post_init__(self):
        object.__setattr__(self, "actual", frozenset(self.actual))
        stray = self.actual - set(self.transformer.add_vocab)
        if stray:
            raise VocabularyError(
                f"actual event sets non-event variables: {_name_list(stray)}"
            )


class Translator:
    """Boolean translation of formulas against one belief structure.

    `compile_with` compiles the boolean connectives and hands it each
    belief operator.  A belief operator for agent i translates as

        K_i phi = ~ exists V' (law' & obs_i & ~phi')

    no primed valuation satisfies the primed law and i's observation
    function while falsifying the primed translation of the body.  The
    relation law' & obs_i is built once per agent, on first use, and
    each operator is one relational product (`Engine._and_exists`) over
    the primed vocabulary.  The translation of each subformula is kept,
    as its diagram node, for the life of the translator.
    """

    def __init__(self, structure: BeliefStructure):
        # Not the structure itself, which caches its translator.
        self.observations = structure.observations
        self.engine = engine = structure.engine
        self.env = structure.env()
        # the primed vocabulary, which every belief operator quantifies
        self._levels = frozenset(
            engine.level(engine.primed(v)) for v in structure.vocabulary
        )
        self._last = max(self._levels, default=-1)
        self._law_primed = engine._prime(structure.law.node)
        self._relations = {}  # agent -> diagram node of law' & obs
        self._memo: dict[Formula, _Node] = {}

    def fn(self, formula: Formula) -> BoolFn:
        return compile_with(formula, self.env, self.engine, self._box, self._memo)

    def _relation(self, agent: str):
        rel = self._relations.get(agent)
        if rel is None:
            obs = self.observations.get(agent)
            if obs is None:
                raise EvalError(f"unknown agent: {agent}")
            engine = self.engine
            rel = engine._ite(self._law_primed, obs.node, engine._false)
            self._relations[agent] = rel
        return rel

    def _box(self, formula: Box) -> BoolFn:
        body = self.fn(formula.body)
        rel = self._relation(formula.agent)
        engine = self.engine
        t, e = engine._true, engine._false
        refuted = engine._ite(engine._prime(body.node), e, t)
        witness = engine._and_exists(rel, refuted, self._levels, self._last)
        return BoolFn(engine, engine._ite(witness, e, t))


def scene_eval(scene: Scene, formula: Formula) -> bool:
    """Truth at the scene: the boolean translation, evaluated at the state."""
    return scene.structure.translator.fn(formula).holds(scene.state)


class Update(NamedTuple):
    """A structure updated by a transformer, with the map to its states.

    copies sends each modified variable to its snapshot; change_fns are
    the compiled change laws, over the old vocabulary and the event
    variables.
    """

    structure: BeliefStructure
    copies: dict[VarId, VarId]
    change_fns: dict[VarId, BoolFn]

    def post_state(self, state: State, actual: frozenset[VarId]) -> State:
        """The new state for an old state and the event variables that
        happened: snapshots keep the old values of the modified
        variables, the event variables are set as they happened, and
        each modified variable takes its change law's old-state value."""
        old = state | actual
        out = {self.copies.get(v, v) for v in state}
        out.update(actual)
        out.update(v for v, fn in self.change_fns.items() if fn.holds(old))
        return frozenset(out)


def _event_env(structure: BeliefStructure, transformer: Transformer) -> dict:
    """Atom-name binding for the structure's vocabulary and the event variables."""
    env = structure.env()
    env.update({v.name: v for v in transformer.add_vocab})
    return env


def compile_event_law(structure: BeliefStructure, transformer: Transformer) -> BoolFn:
    """The transformer's event law as a function over the structure's
    vocabulary and the event variables.

    Where the structure's law holds at a state, the event with actual
    event variables x is executable exactly when this function holds at
    the state together with x.
    """
    # Belief operators go to the structure's translator, whose binding
    # leaves the event variables out, so one under a belief operator is
    # an unbound atom; the lambda primes the law only when one occurs.
    return compile_with(
        transformer.event_law,
        _event_env(structure, transformer),
        structure.engine,
        lambda box: structure.translator.fn(box),
    )


def transform_with_copies(
    structure: BeliefStructure, transformer: Transformer
) -> Update:
    """Update the structure, returning it with its snapshot map and
    compiled change laws.

    The modified variables are renamed to fresh copy generations in the
    law and in the observation functions (on both the plain and primed
    side); the new law adds the event law, translated against the old
    structure and with its talk about modified variables redirected to
    the snapshots, and one equivalence per modified variable tying its
    live value to the snapshot of its change law.  Each agent's
    observation function gains that agent's event observation.
    """
    engine = structure.engine
    vocab = set(structure.vocabulary)
    overlap = set(transformer.add_vocab) & vocab
    if overlap:
        raise VocabularyError(
            f"event variables already in the vocabulary: {_name_list(overlap)}"
        )
    stray = set(transformer.modified) - vocab
    if stray:
        raise VocabularyError(
            f"modified variables outside the vocabulary: {_name_list(stray)}"
        )
    if set(transformer.event_obs) != set(structure.observations):
        raise VocabularyError(
            "transformer and structure disagree on the agents"
        )
    for agent, obs in transformer.event_obs.items():
        if obs.engine is not engine:
            raise VocabularyError(
                f"event observation of {agent} built in a different engine"
            )

    law_event = compile_event_law(structure, transformer)
    env = _event_env(structure, transformer)
    change_fns = {
        v: compile_formula(phi, env, engine)
        for v, phi in transformer.change_laws.items()
    }

    copies = {v: engine.fresh_copy(v) for v in transformer.modified}
    copies_primed = {
        engine.primed(v): engine.primed(c) for v, c in copies.items()
    }

    law_new = engine.rename(structure.law & law_event, copies)
    for v in transformer.modified:
        law_new &= engine.atom(v).iff(engine.rename(change_fns[v], copies))

    # the snapshots are fresh and distinct, so one simultaneous rename
    # moves both sides
    both = {**copies, **copies_primed}
    observations_new = {
        agent: engine.rename(obs, both) & transformer.event_obs[agent]
        for agent, obs in structure.observations.items()
    }

    vocab_new = (
        structure.vocabulary
        + transformer.add_vocab
        + tuple(copies[v] for v in transformer.modified)
    )
    return Update(
        BeliefStructure(engine, vocab_new, law_new, observations_new),
        copies,
        change_fns,
    )


def apply_event(scene: Scene, event: Event) -> Scene:
    """Update the scene by the event; fails if the event law rules it out."""
    update = transform_with_copies(scene.structure, event.transformer)
    state_new = update.post_state(scene.state, event.actual)
    if not update.structure.law.holds(state_new):
        actual = ",".join(sorted(v.name for v in event.actual))
        raise NotExecutable(
            f"event {{{actual}}} is not executable at the actual state"
        )
    return Scene(update.structure, state_new)


def shrink(structure: BeliefStructure, keep: Iterable[VarId] = ()) -> BeliefStructure:
    """Best effort: drop the determined variables outside keep, keep the rest.

    The law fixes a variable exactly when that variable, or its
    negation, is one of the law's factors (`Engine.factors`), so one
    pass over the law finds them all; a false law fixes every variable.
    The law leaves the dropped literals out (`Engine.drop_fixed`, which
    hands the engine the new law's factors as well).  The literals
    conjoin to a cube, and each observation function is restricted to
    it and its primed copy, with one relational product per function.
    """
    engine = structure.engine
    law = structure.law
    if law.is_false:
        # false entails both literals of every variable; take true
        literals = {v: engine.atom(v) for v in structure.vocabulary}
    else:
        literals = {}
        for g in engine.factors(law):
            support = g.support()
            if len(support) == 1:
                (v,) = support
                literals[v] = g
    keep = set(keep)
    dropped = [v for v in structure.vocabulary if v in literals and v not in keep]
    law = engine.drop_fixed(law, dropped)
    cube = engine.conj(literals[v] for v in dropped)
    both = dropped + [engine.primed(v) for v in dropped]
    cube &= engine.prime(cube)
    observations = {
        agent: engine.and_exists(obs, cube, both)
        for agent, obs in structure.observations.items()
    }
    vocab = tuple(v for v in structure.vocabulary if v not in literals or v in keep)
    return BeliefStructure(engine, vocab, law, observations)


def minimize(
    structure: BeliefStructure, keep: Iterable[VarId] = ()
) -> BeliefStructure:
    """Drop every vocabulary variable not in keep.

    Only variables whose value is fixed by the state law can go;
    anything else raises NotDetermined.
    """
    keep_set = frozenset(keep)
    reduced = shrink(structure, keep_set)
    for v in reduced.vocabulary:
        if v not in keep_set:
            raise NotDetermined(
                f"variable {v.name} is not determined by the state law"
            )
    return reduced


def shrink_scene(scene: Scene, keep: Iterable[VarId] = ()) -> Scene:
    reduced = shrink(scene.structure, keep)
    return Scene(reduced, scene.state & frozenset(reduced.vocabulary))
