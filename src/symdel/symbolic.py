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

from .boolfun import BoolFn, Engine, VarId
from .errors import (
    EvalError,
    NotDetermined,
    NotExecutable,
    VocabularyError,
)
from .language import Box, Formula, compile_formula, compile_with, is_boolean

State = frozenset[VarId]


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
            names = ", ".join(sorted(v.name for v in stray))
            raise VocabularyError(f"state law mentions non-vocabulary variables: {names}")
        allowed = vocab | {self.engine.primed(v) for v in self.vocabulary}
        for agent, obs in self.observations.items():
            if obs.engine is not self.engine:
                raise VocabularyError(
                    f"observation function of {agent} built in a different engine"
                )
            stray = obs.support() - allowed
            if stray:
                names = ", ".join(sorted(v.name for v in stray))
                raise VocabularyError(
                    f"observation function of {agent} mentions "
                    f"non-vocabulary variables: {names}"
                )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.observations)

    def env(self) -> dict[str, VarId]:
        """Atom-name binding for compiling formulas over the vocabulary."""
        return {v.name: v for v in self.vocabulary}

    def is_state(self, state: Iterable[VarId]) -> bool:
        s = frozenset(state)
        return s <= set(self.vocabulary) and self.law.holds(s)

    def states(self) -> list[State]:
        """All states, in binary counting order over the vocabulary."""
        return self.engine.sat_assignments(self.law, self.vocabulary)

    @cached_property
    def translator(self) -> "Translator":
        """The boolean translator for this structure, shared by every query
        against it so the primed law is built once."""
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
            names = ", ".join(sorted(v.name for v in stray))
            raise VocabularyError(f"state uses non-vocabulary variables: {names}")
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
                    names = ", ".join(sorted(v.name for v in stray))
                    raise VocabularyError(
                        f"event observation of {agent} mentions variables "
                        f"other than the event variables: {names}"
                    )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.event_obs)


@dataclass(frozen=True, eq=False)
class Event:
    """A transformer with the event variables that actually happened."""

    transformer: Transformer
    actual: frozenset[VarId]

    def __post_init__(self):
        object.__setattr__(self, "actual", frozenset(self.actual))
        stray = self.actual - set(self.transformer.add_vocab)
        if stray:
            names = ", ".join(sorted(v.name for v in stray))
            raise VocabularyError(f"actual event sets non-event variables: {names}")


class Translator:
    """Boolean translation of formulas against one belief structure.

    Boolean connectives map to function operations; a belief operator
    for agent i translates as: for every primed valuation, the primed
    law and i's observation function together force the primed
    translation of the body.  Translations are cached per subformula.
    """

    def __init__(self, structure: BeliefStructure):
        # Not the structure itself, which caches its translator.
        self.observations = structure.observations
        self.engine = structure.engine
        self.env = structure.env()
        engine = self.engine
        self._prime_map = {v: engine.primed(v) for v in structure.vocabulary}
        self._primed_vars = list(self._prime_map.values())
        self._law_primed = engine.rename(structure.law, self._prime_map)
        self._memo: dict[Formula, BoolFn] = {}

    def fn(self, formula: Formula) -> BoolFn:
        return compile_with(formula, self.env, self.engine, self._box, self._memo)

    def _box(self, formula: Box) -> BoolFn:
        body_fn = self.fn(formula.body)
        obs = self.observations.get(formula.agent)
        if obs is None:
            raise EvalError(f"unknown agent: {formula.agent}")
        engine = self.engine
        body_primed = engine.rename(body_fn, self._prime_map)
        return engine.forall(
            self._law_primed.implies(obs.implies(body_primed)),
            self._primed_vars,
        )


def bool_translate(structure: BeliefStructure, formula: Formula) -> BoolFn:
    """Local boolean translation of a formula over the structure's vocabulary."""
    return structure.translator.fn(formula)


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


def compile_event_law(structure: BeliefStructure, transformer: Transformer) -> BoolFn:
    """The transformer's event law as a function over the structure's
    vocabulary and the event variables.

    Where the structure's law holds at a state, the event with actual
    event variables x is executable exactly when this function holds at
    the state together with x.
    """
    env = structure.env()
    env.update({v.name: v for v in transformer.add_vocab})
    # Belief operators go to the structure's translator, whose binding
    # leaves the event variables out, so one under a belief operator is
    # an unbound atom; the lambda primes the law only when one occurs.
    return compile_with(
        transformer.event_law,
        env,
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
        names = ", ".join(sorted(v.name for v in overlap))
        raise VocabularyError(f"event variables already in the vocabulary: {names}")
    stray = set(transformer.modified) - vocab
    if stray:
        names = ", ".join(sorted(v.name for v in stray))
        raise VocabularyError(f"modified variables outside the vocabulary: {names}")
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
    env = structure.env()
    env.update({v.name: v for v in transformer.add_vocab})
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

    observations_new = {}
    for agent, obs in structure.observations.items():
        moved = engine.rename(engine.rename(obs, copies), copies_primed)
        observations_new[agent] = moved & transformer.event_obs[agent]

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


def determined_value(structure: BeliefStructure, var: VarId) -> bool | None:
    """True/False if the law fixes var on all states, else None."""
    engine = structure.engine
    fn = engine.atom(var)
    if engine.entails(structure.law, fn):
        return True
    if engine.entails(structure.law, ~fn):
        return False
    return None


def minimize(
    structure: BeliefStructure, keep: Iterable[VarId] = ()
) -> BeliefStructure:
    """Drop every vocabulary variable not in keep.

    Only variables whose value is fixed by the state law can go;
    anything else raises NotDetermined.  The law and the observation
    functions are restricted to the fixed values (observations on both
    the plain and the primed side).
    """
    engine = structure.engine
    keep_set = frozenset(keep)
    law = structure.law
    observations = dict(structure.observations)
    for v in structure.vocabulary:
        if v in keep_set:
            continue
        value = determined_value(structure, v)
        if value is None:
            raise NotDetermined(
                f"variable {v.name} is not determined by the state law"
            )
        law = engine.restrict(law, v, value)
        vp = engine.primed(v)
        observations = {
            agent: engine.restrict(engine.restrict(obs, v, value), vp, value)
            for agent, obs in observations.items()
        }
    vocab = tuple(v for v in structure.vocabulary if v in keep_set)
    return BeliefStructure(engine, vocab, law, observations)


def minimize_scene(scene: Scene, keep: Iterable[VarId] = ()) -> Scene:
    reduced = minimize(scene.structure, keep)
    return Scene(reduced, scene.state & frozenset(reduced.vocabulary))


def shrink(structure: BeliefStructure, keep: Iterable[VarId] = ()) -> BeliefStructure:
    """Best effort: drop the determined variables outside keep, keep the rest."""
    keep_set = set(keep)
    for v in structure.vocabulary:
        if v not in keep_set and determined_value(structure, v) is None:
            keep_set.add(v)
    return minimize(structure, keep_set)


def shrink_scene(scene: Scene, keep: Iterable[VarId] = ()) -> Scene:
    reduced = shrink(scene.structure, keep)
    return Scene(reduced, scene.state & frozenset(reduced.vocabulary))
