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
    CompileError,
    EvalError,
    NotDetermined,
    NotExecutable,
    VocabularyError,
)
from .language import (
    Box,
    Formula,
    atoms_of,
    compile_formula,
    compile_with,
    is_boolean,
    subformulas,
)

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


def _outside(plain: set[VarId], support: Iterable[VarId]) -> set[VarId]:
    """The variables of support that are neither in plain nor the primed
    copy of a variable in it."""
    return {v for v in support if VarId(v.stem, v.copy) not in plain}


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
        for agent, obs in self.observations.items():
            if obs.engine is not self.engine:
                raise VocabularyError(
                    f"observation function of {agent} built in a different engine"
                )
            stray = _outside(vocab, obs.support())
            if stray:
                raise VocabularyError(
                    f"observation function of {agent} mentions "
                    f"non-vocabulary variables: {_name_list(stray)}"
                )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.observations)

    @cached_property
    def env(self) -> dict[str, VarId]:
        """Atom-name binding for compiling formulas over the vocabulary.

        Built once per structure and shared by every caller, so it must
        not be changed."""
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
    vocabulary: its beliefs are about the structure before the event,
    which has no event variables, so an event variable under a belief
    operator is a CompileError naming the outermost operator at fault.
    Change laws and event observations are belief-free; event
    observations may mention only event variables and their primes.  The
    modified variables are the keys of `change_laws`, in its order; they
    are live ones, not snapshots, which keep old values.
    """

    add_vocab: tuple[VarId, ...]
    event_law: Formula
    change_laws: Mapping[VarId, Formula] = field(default_factory=dict)
    event_obs: Mapping[str, BoolFn] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "add_vocab", tuple(self.add_vocab))
        object.__setattr__(self, "change_laws", dict(self.change_laws))
        object.__setattr__(self, "event_obs", dict(self.event_obs))
        _check_plain_distinct(self.add_vocab, "the event vocabulary")
        _check_plain_distinct(self.change_laws, "the modified set")
        for v, phi in self.change_laws.items():
            if v.copy:
                raise VocabularyError(
                    f"the modified set must not hold a snapshot: {v.name}"
                )
            if not is_boolean(phi):
                raise VocabularyError(f"change law of {v.name} is not belief-free")
        engines = {obs.engine for obs in self.event_obs.values()}
        if len(engines) > 1:
            raise VocabularyError("event observations built in different engines")
        add = set(self.add_vocab)
        for agent, obs in self.event_obs.items():
            stray = _outside(add, obs.support())
            if stray:
                raise VocabularyError(
                    f"event observation of {agent} mentions variables "
                    f"other than the event variables: {_name_list(stray)}"
                )
        added = {v.name for v in self.add_vocab}
        if added:
            # preorder, so the first box found is the outermost at fault
            for phi in subformulas(self.event_law):
                if type(phi) is Box:
                    believed = atoms_of(phi.body) & added
                    if believed:
                        raise CompileError(
                            f"event variable under belief operator [{phi.agent}]: "
                            f"{', '.join(sorted(believed))}"
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


class _View(NamedTuple):
    """What one agent's belief operators conjoin and quantify."""

    relation: _Node  # the law (S5), or the relation law' & obs_i
    levels: frozenset[int]  # V \ O_i (S5), or the primed vocabulary V'
    last: int  # the largest of levels
    primed: bool  # the general case primes each operator's body


class Translator:
    r"""Boolean translation of formulas against one belief structure.

    `compile_with` compiles the boolean connectives and hands it each
    belief operator.  A belief operator for agent i translates in one
    of two ways, each one relational product (`Engine._and_exists`):

    - The S5 case, when obs_i is exactly AND_{p in O_i} (p <-> p'):
      agent i observes the variables O_i, the structure is a knowledge
      structure for i, and

          K_i phi = ~ exists (V \ O_i) (law & ~phi)

      every state that agrees with this one on O_i satisfies phi.
      Nothing is primed and no relation is built.
    - The general case, for any other obs_i:

          K_i phi = ~ exists V' (law' & obs_i & ~phi')

      no primed valuation satisfies the primed law and i's observation
      function while falsifying the primed translation of the body.
      The relation law' & obs_i is built once per agent.

    Where the S5 case applies, both give the same function, and so the
    same diagram node.  The case is decided once per agent, on first
    use, by comparing functions: O_i is the plain part of obs_i's
    support, and obs_i is S5 exactly when it equals the conjunction of
    p <-> p' over O_i (`Engine.conjoin_factors`).  Nodes are canonical,
    so the test is exact.  Conjoined from the bottom up, the links
    rebuild an S5 obs_i's own nodes, so deciding it adds no node to the
    engine.  The law is primed only if some agent needs the general
    relation.  The translation of each subformula is kept, as its
    diagram node, for the life of the translator.
    """

    def __init__(self, structure: BeliefStructure):
        # Not the structure itself, which caches its translator.
        self.observations = structure.observations
        self.engine = structure.engine
        self.env = structure.env
        self.vocabulary = structure.vocabulary
        self._law = structure.law.node
        self._general = None  # law' and V', shared by the general views
        self._views: dict[str, _View] = {}
        self._memo: dict[Formula, _Node] = {}

    def fn(self, formula: Formula) -> BoolFn:
        return compile_with(formula, self.env, self.engine, self._box, self._memo)

    def _view(self, agent: str) -> _View:
        view = self._views.get(agent)
        if view is None:
            obs = self.observations.get(agent)
            if obs is None:
                raise EvalError(f"unknown agent: {agent}")
            engine = self.engine
            support = obs.support()
            observed = [engine.atom(v) for v in support if not v.primed]
            s5 = engine.conjoin_factors(p.iff(engine.prime(p)) for p in observed)
            if s5 == obs:
                hidden = frozenset(
                    engine.level(v) for v in self.vocabulary if v not in support
                )
                view = _View(self._law, hidden, max(hidden, default=-1), False)
            else:
                if self._general is None:
                    primed = frozenset(
                        engine.level(engine.primed(v)) for v in self.vocabulary
                    )
                    self._general = (
                        engine._prime(self._law), primed, max(primed, default=-1)
                    )
                law_primed, primed, last = self._general
                relation = engine._ite(law_primed, obs.node, engine._false)
                view = _View(relation, primed, last, True)
            self._views[agent] = view
        return view

    def _box(self, formula: Box) -> BoolFn:
        body = self.fn(formula.body).node
        relation, levels, last, primed = self._view(formula.agent)
        engine = self.engine
        t, e = engine._true, engine._false
        if primed:
            body = engine._prime(body)
        refuted = engine._ite(body, e, t)
        witness = engine._and_exists(relation, refuted, levels, last)
        return BoolFn(engine, engine._ite(witness, e, t))


def scene_eval(scene: Scene, formula: Formula) -> bool:
    """Truth at the scene: the boolean translation, evaluated at the state."""
    return scene.structure.translator.fn(formula).holds(scene.state)


class Update(NamedTuple):
    """A structure updated by a transformer, with the map to its states.

    copies sends each modified variable that keeps a snapshot to it;
    change_fns are the compiled change laws, over the old vocabulary
    and the event variables.
    """

    structure: BeliefStructure
    copies: dict[VarId, VarId]
    change_fns: dict[VarId, BoolFn]

    def post_state(self, state: State, actual: frozenset[VarId]) -> State:
        """The new state for an old state and the event variables that
        happened: snapshots keep the old values of the modified
        variables, the event variables are set as they happened, and
        each modified variable takes its change law's old-state value.
        A modified variable without a snapshot leaves its old value
        nowhere."""
        old = state | actual
        out = {self.copies.get(v, v) for v in state}
        out.difference_update(self.change_fns)
        out.update(actual)
        out.update(v for v, fn in self.change_fns.items() if fn.holds(old))
        return frozenset(out)


def _event_env(structure: BeliefStructure, transformer: Transformer) -> dict:
    """Atom-name binding for the structure's vocabulary and the event variables."""
    env = dict(structure.env)
    env.update({v.name: v for v in transformer.add_vocab})
    return env


def compile_event_law(structure: BeliefStructure, transformer: Transformer) -> BoolFn:
    """The transformer's event law as a function over the structure's
    vocabulary and the event variables.

    Where the structure's law holds at a state, the event with actual
    event variables x is executable exactly when this function holds at
    the state together with x.  Belief operators go to the structure's
    translator, built only when one occurs; `Transformer` has kept the
    event variables out of their scope.
    """
    return compile_with(
        transformer.event_law,
        _event_env(structure, transformer),
        structure.engine,
        lambda box: structure.translator.fn(box),
    )


def transform_with_copies(
    structure: BeliefStructure, transformer: Transformer, minimize: bool = False
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

    Only the old law's factors (`Engine.factors`) whose support meets
    the modified variables, the event law's support or a change law's
    are conjoined with the event law, renamed and tied to the change
    laws.  The other factors carry over unchanged, and with the factors
    of that group they are the new law's finest split.  When any carried
    over, the split is recorded with the law (`Engine.conjoin_factors`),
    so the next update reads it rather than walking the law.

    With minimize, the update makes no snapshot that `shrink` to the
    plain variables would drop at once: a modified variable whose old
    value the law fixes (its literal is one of the law's factors, and
    the only one that mentions it) has its literal left out of the
    split, that value put in for it in the event law, the change laws
    and, on both sides, the observations, and no snapshot in the new
    vocabulary or in copies.  Its snapshot generation is still
    allocated, so later names and levels are as without minimize.  The
    result is what that shrink leaves of those snapshots; other fixed
    variables stay.
    """
    engine = structure.engine
    vocab = set(structure.vocabulary)
    overlap = set(transformer.add_vocab) & vocab
    if overlap:
        raise VocabularyError(
            f"event variables already in the vocabulary: {_name_list(overlap)}"
        )
    stray = transformer.change_laws.keys() - vocab
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

    env = _event_env(structure, transformer)
    law_event = compile_event_law(structure, transformer)
    change_fns = {
        v: compile_formula(phi, env, engine)
        for v, phi in transformer.change_laws.items()
    }

    copies = {v: engine.fresh_copy(v) for v in change_fns}
    split = engine.factors(structure.law)
    changes, observations = change_fns, structure.observations
    if minimize:
        fixed = _literals(split, change_fns)
        if fixed:
            cube = engine.conj(fixed.values())
            law_event = engine.and_exists(law_event, cube, fixed)
            changes = {
                v: engine.and_exists(fn, cube, fixed) for v, fn in changes.items()
            }
            observations = _fix(engine, observations, fixed)
            gone = set(fixed.values())
            split = [g for g in split if g not in gone]
            # allocated all the same, so later snapshots keep their names
            for v in fixed:
                del copies[v]
    copies_primed = {
        engine.primed(v): engine.primed(c) for v, c in copies.items()
    }

    reach = set(changes).union(
        law_event.support(), *[fn.support() for fn in changes.values()]
    )
    touched, kept = [], []
    for g in split:
        (kept if reach.isdisjoint(g.support()) else touched).append(g)
    law_new = engine.rename(engine.conj(touched) & law_event, copies)
    for v, fn in changes.items():
        law_new &= engine.atom(v).iff(engine.rename(fn, copies))
    if kept:
        # the kept factors and the new group's share no variable, so
        # together they are the new law's finest split
        law_new = engine.conjoin_factors(kept + engine.factors(law_new))

    # the snapshots are fresh and distinct, so one simultaneous rename
    # moves both sides
    both = {**copies, **copies_primed}
    observations_new = {
        agent: engine.rename(obs, both) & transformer.event_obs[agent]
        for agent, obs in observations.items()
    }

    vocab_new = structure.vocabulary + transformer.add_vocab + tuple(copies.values())
    return Update(
        BeliefStructure(engine, vocab_new, law_new, observations_new),
        copies,
        change_fns,
    )


def apply_event(scene: Scene, event: Event, minimize: bool = False) -> Scene:
    """Update the scene by the event; fails if the event law rules it out.

    With minimize, the new scene keeps only the plain variables of its
    vocabulary, those that are not snapshots: the result is what
    `shrink_scene` to them makes of `apply_event(scene, event)`, but
    the update makes no snapshot of a modified variable whose old value
    the law fixes (`transform_with_copies`), so only the other fixed
    snapshots are left for `shrink_scene` to drop.
    """
    update = transform_with_copies(scene.structure, event.transformer, minimize)
    state_new = update.post_state(scene.state, event.actual)
    if not update.structure.law.holds(state_new):
        actual = ",".join(sorted(v.name for v in event.actual))
        raise NotExecutable(
            f"event {{{actual}}} is not executable at the actual state"
        )
    after = Scene(update.structure, state_new)
    if not minimize:
        return after
    return shrink_scene(after, [v for v in update.structure.vocabulary if not v.copy])


def _literals(
    split: list[BoolFn], variables: Iterable[VarId]
) -> dict[VarId, BoolFn]:
    """Those of the variables whose literal is a factor in a law's split,
    each with that literal: unless the law is false, the ones it fixes,
    and their values.  A factor is v's literal when v is its top
    variable and its whole support."""
    top = {g.node.var: g for g in split}
    fixed = {}
    for v in variables:
        g = top.get(v)
        if g is not None and len(g.support()) == 1:
            fixed[v] = g
    return fixed


def _fix(
    engine: Engine, observations: Mapping[str, BoolFn], literals: dict[VarId, BoolFn]
) -> dict[str, BoolFn]:
    """Each observation function with the variables of literals fixed to
    the literals' values, on both the plain and the primed side: one
    relational product per function against the cube of the literals
    and its primed copy."""
    cube = engine.conj(literals.values())
    cube &= engine.prime(cube)
    both = [*literals, *map(engine.primed, literals)]
    return {
        agent: engine.and_exists(obs, cube, both)
        for agent, obs in observations.items()
    }


def shrink(structure: BeliefStructure, keep: Iterable[VarId] = ()) -> BeliefStructure:
    """Best effort: drop the determined variables outside keep, keep the rest.

    The law fixes a variable exactly when that variable, or its
    negation, is one of the law's factors (`Engine.factors`): a factor
    whose support is that one variable.  A false law fixes every
    variable.  The new law conjoins the other factors, which are its
    split (`Engine.conjoin_factors`), and each observation function is
    restricted to the dropped variables' values (`_fix`).  A structure
    that drops nothing comes back as it is.
    """
    engine = structure.engine
    law = structure.law
    split = engine.factors(law)
    keep = set(keep)
    outside = [v for v in structure.vocabulary if v not in keep]
    if law.is_false:
        # false entails both literals of every variable; take true
        dropped = {v: engine.atom(v) for v in outside}
    else:
        dropped = _literals(split, outside)
    if not dropped:
        return structure
    # false stays false: its one factor is no literal
    gone = set(dropped.values())
    law = engine.conjoin_factors([g for g in split if g not in gone])
    vocab = tuple(v for v in structure.vocabulary if v not in dropped)
    observations = _fix(engine, structure.observations, dropped)
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
    """The scene with its structure shrunk (`shrink`), or the scene
    itself when that drops nothing."""
    reduced = shrink(scene.structure, keep)
    if reduced is scene.structure:
        return scene
    return Scene(reduced, scene.state & frozenset(reduced.vocabulary))
