"""Translations between events and actions, and the equivalence harness.

An event over event variables V+ expands into an action model whose
atomic events are the subsets of V+; an action model compresses into an
event over fresh label variables encoding event identity in binary.
Both directions, and the morphism check, use the coding functions of
explicit.py (binary_code, relation_of, observation_of).
The harness generates random instances of both kinds and checks that
the symbolic and the explicit pipeline agree formula by formula, along
with the world-to-state morphism conditions that drive the agreement.
SUITE_PARTS is the one table of its parts, each generating, checking
and sizing the instance of a seed; run_suite, `symdel prove` and the
sweep script all read it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .boolfun import Engine, VarId
from .errors import VocabularyError
from .explicit import (
    ActionModel,
    GlobalEvaluator,
    KripkeModel,
    PointedModel,
    binary_code,
    format_point,
    model_of_structure,
    observation_of,
    product_update,
    relation_of,
    structure_of_model,
)
from .language import (
    BOT,
    TOP,
    And,
    Atom,
    Box,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    compile_formula,
    conj,
    disj,
    format_formula,
    subset_formula,
    substitute,
)
from .symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    Update,
    bool_translate,
    compile_event_law,
    minimize,
    transform_with_copies,
)


# -- event -> action ---------------------------------------------------------

def act(event: Event) -> tuple[ActionModel, frozenset]:
    """Expand the event into an action model over the subsets of V+.

    Event identifiers are the subsets themselves (as sets of variable
    names), in binary counting order; the returned designated event is
    the one for the actual x.
    """
    transformer = event.transformer
    add = transformer.add_vocab
    points = {
        frozenset(v.name for v in sub): sub
        for sub in binary_code(range(2 ** len(add)), add).values()
    }
    pre = {}
    post = {}
    for eid, sub in points.items():
        binding = {v.name: (TOP if v in sub else BOT) for v in add}
        pre[eid] = substitute(transformer.event_law, binding)
        post[eid] = {
            v.name: substitute(transformer.change_laws[v], binding)
            for v in transformer.modified
        }
    relations = {
        agent: relation_of(obs, points)
        for agent, obs in transformer.event_obs.items()
    }
    action = ActionModel(tuple(points), relations, pre, post)
    return action, frozenset(v.name for v in event.actual)


# -- action -> event ---------------------------------------------------------

def trf_with_labels(
    engine: Engine, action: ActionModel, designated
) -> tuple[Transformer, frozenset[VarId], dict]:
    """Compress the action model into a transformer over fresh labels.

    Events are numbered in declaration order and labeled by the binary
    code of their index over ceil(log2 |A|) fresh variables.  Also
    returns the full event-to-label map (used by the morphism checks).
    """
    if designated not in action.pre:
        raise VocabularyError(f"unknown event: {designated!r}")
    n = (len(action.events) - 1).bit_length()
    labels = [engine.fresh_stem("q") for _ in range(n)]
    label_names = [v.name for v in labels]
    label = binary_code(action.events, labels)

    def cube(a) -> Formula:
        return subset_formula({v.name for v in label[a]}, label_names)

    event_law = disj([conj([action.pre[a], cube(a)]) for a in action.events])
    changed = action.changed_props()
    modified = tuple(engine.variable(p) for p in changed)
    change_laws = {
        v: disj(
            [conj([cube(a), action.post_formula(a, v.stem)]) for a in action.events]
        )
        for v in modified
    }
    event_obs = {
        agent: observation_of(engine, rel, label, labels)
        for agent, rel in action.relations.items()
    }
    transformer = Transformer(
        tuple(labels), event_law, modified, change_laws, event_obs
    )
    return transformer, frozenset(label[designated]), label


def trf(engine: Engine, action: ActionModel, designated) -> tuple[Transformer, frozenset[VarId]]:
    transformer, actual, _ = trf_with_labels(engine, action, designated)
    return transformer, actual


# -- morphism ----------------------------------------------------------------

@dataclass
class MorphismReport:
    ok: bool
    detail: str = ""


def check_morphism(
    structure: BeliefStructure,
    model: KripkeModel,
    shared: Sequence[str],
    g: Mapping,
) -> MorphismReport:
    """Check the three world-to-state conditions.

    C1: g respects edges through the observation functions.
    C2: g agrees with the valuation on the shared vocabulary.
    C3: the states of the structure are exactly the image of g.
    Returns the first violation found, in that order.
    """
    vocab = set(structure.vocabulary)
    for w in model.worlds:
        if w not in g:
            return MorphismReport(False, f"g undefined on world {format_point(w)}")
        if not frozenset(g[w]) <= vocab:
            return MorphismReport(
                False, f"g({format_point(w)}) leaves the vocabulary"
            )
    for agent, obs in structure.observations.items():
        rel = model.relations.get(agent)
        if rel is None:
            return MorphismReport(False, f"model lacks agent {agent}")
        accepted_pairs = relation_of(obs, g)
        for w1 in model.worlds:
            for w2 in model.worlds:
                accepted = (w1, w2) in accepted_pairs
                if accepted != ((w1, w2) in rel):
                    return MorphismReport(
                        False,
                        f"C1 fails for {agent} at "
                        f"({format_point(w1)},{format_point(w2)}): "
                        f"observation says {accepted}, edge says {not accepted}",
                    )
    shared_set = set(shared)
    for w in model.worlds:
        names = {v.name for v in g[w]}
        for p in sorted(shared_set):
            if (p in names) != (p in model.valuation[w]):
                return MorphismReport(
                    False, f"C2 fails at {format_point(w)} on atom {p}"
                )
    states = set(structure.states())
    image = {frozenset(g[w]) for w in model.worlds}
    for s in sorted(states - image, key=lambda s: sorted(v.name for v in s)):
        label = ",".join(sorted(v.name for v in s))
        return MorphismReport(False, f"C3 fails: state {{{label}}} has no g-preimage")
    for s in sorted(image - states, key=lambda s: sorted(v.name for v in s)):
        label = ",".join(sorted(v.name for v in s))
        return MorphismReport(False, f"C3 fails: g-image {{{label}}} is not a state")
    return MorphismReport(True)


# -- instance generation -------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Size limits for generated instances."""

    max_vocab: int = 4
    max_agents: int = 2


# Upper bounds on the sizes of generated events and action models.
_EVENT_VARS = 2
_CHANGED = 2
_WORLDS = 6
_EVENTS = 3
# How often generate_scene_event redraws an event that is not executable.
_REDRAWS = 10


def _names(first: tuple[str, ...], count: int) -> list[str]:
    """count distinct names: first, then first again suffixed _1, _2, ...

    A suffixed name never has the letter-then-digits form that
    Engine.fresh_stem gives the q and d variables of the translations.
    """
    n = len(first)
    return [first[i % n] + (f"_{i // n}" if i >= n else "") for i in range(count)]


_STEMS = ("p", "q", "r", "u")
_AGENTS = ("a", "b")


def _random_bool(rng, atoms, depth) -> Formula:
    if depth == 0 or not atoms:
        if atoms and rng.random() < 0.85:
            atom = Atom(rng.choice(atoms))
            return atom if rng.random() < 0.5 else Not(atom)
        return TOP if rng.random() < 0.5 else BOT
    k = rng.randrange(5)
    if k == 0:
        return Not(_random_bool(rng, atoms, depth - 1))
    a = _random_bool(rng, atoms, depth - 1)
    b = _random_bool(rng, atoms, depth - 1)
    if k == 1:
        return And((a, b))
    if k == 2:
        return Or((a, b))
    if k == 3:
        return Implies(a, b)
    return Iff(a, b)


def _random_formula(rng, atoms, agents, depth, box_atoms=None) -> Formula:
    """Random epistemic formula; atoms under a belief operator are drawn
    from box_atoms (defaulting to atoms)."""
    if box_atoms is None:
        box_atoms = atoms
    if depth == 0 or rng.random() < 0.25:
        return _random_bool(rng, list(atoms), 1)
    k = rng.randrange(6)
    if k == 0 and agents:
        return Box(
            rng.choice(list(agents)),
            _random_formula(rng, box_atoms, agents, depth - 1, box_atoms),
        )
    if k <= 1:
        return Not(_random_formula(rng, atoms, agents, depth - 1, box_atoms))
    a = _random_formula(rng, atoms, agents, depth - 1, box_atoms)
    b = _random_formula(rng, atoms, agents, depth - 1, box_atoms)
    if k == 2:
        return And((a, b))
    if k == 3:
        return Or((a, b))
    if k == 4:
        return Implies(a, b)
    return Iff(a, b)


def generate_scene(seed: int, bounds: Bounds = Bounds()) -> Scene:
    """Deterministic random scene: satisfiable law, valid actual state."""
    rng = random.Random(f"scene-{seed}")
    engine = Engine()
    vocab = [engine.variable(s) for s in _names(_STEMS, rng.randint(1, bounds.max_vocab))]
    agents = _names(_AGENTS, rng.randint(1, bounds.max_agents))
    names = [v.name for v in vocab]
    env = {v.name: v for v in vocab}
    law = engine.false
    for _ in range(50):
        law = compile_formula(_random_bool(rng, names, 2), env, engine)
        if not law.is_false:
            break
    if law.is_false:
        law = engine.true
    double_env = dict(env)
    double_env.update({engine.primed(v).name: engine.primed(v) for v in vocab})
    double_names = list(double_env)
    observations = {
        agent: compile_formula(_random_bool(rng, double_names, 2), double_env, engine)
        for agent in agents
    }
    structure = BeliefStructure(engine, tuple(vocab), law, observations)
    state = rng.choice(structure.states())
    return Scene(structure, state)


def _random_event(rng, scene: Scene) -> Event:
    structure = scene.structure
    engine = structure.engine
    vocab = list(structure.vocabulary)
    vocab_names = [v.name for v in vocab]
    agents = list(structure.agents)
    add = tuple(
        engine.variable(f"x{j + 1}")
        for j in range(rng.randint(0, _EVENT_VARS))
    )
    add_names = [v.name for v in add]
    event_law = _random_formula(
        rng, vocab_names + add_names, agents, 2, box_atoms=vocab_names
    )
    modified = tuple(rng.sample(vocab, rng.randint(0, min(_CHANGED, len(vocab)))))
    change_laws = {
        v: _random_bool(rng, vocab_names + add_names, 2) for v in modified
    }
    obs_env = {v.name: v for v in add}
    obs_env.update({engine.primed(v).name: engine.primed(v) for v in add})
    obs_names = list(obs_env)
    event_obs = {
        agent: compile_formula(_random_bool(rng, obs_names, 2), obs_env, engine)
        for agent in agents
    }
    actual = frozenset(v for v in add if rng.random() < 0.5)
    return Event(
        Transformer(add, event_law, modified, change_laws, event_obs), actual
    )


def generate_scene_event(seed: int, bounds: Bounds = Bounds()) -> tuple[Scene, Event]:
    """Deterministic random (scene, event) pair, redrawing the event a few
    times when it is not executable at the scene's state."""
    scene = generate_scene(seed, bounds)
    rng = random.Random(f"event-{seed}")
    event = _random_event(rng, scene)
    for _ in range(_REDRAWS):
        event_law = compile_event_law(scene.structure, event.transformer)
        if event_law.holds(scene.state | event.actual):
            break
        event = _random_event(rng, scene)
    return scene, event


def generate_model_action(
    seed: int, bounds: Bounds = Bounds()
) -> tuple[PointedModel, ActionModel, object]:
    """Deterministic random pointed model plus action with a designated
    event, steered toward a surviving designated pair."""
    rng = random.Random(f"model-{seed}")
    props = _names(_STEMS, rng.randint(1, bounds.max_vocab))
    agents = _names(_AGENTS, rng.randint(1, bounds.max_agents))
    worlds = tuple(f"w{k}" for k in range(rng.randint(1, _WORLDS)))
    valuation = {
        w: frozenset(p for p in props if rng.random() < 0.5) for w in worlds
    }
    relations = {
        agent: frozenset(
            (u, v) for u in worlds for v in worlds if rng.random() < 0.4
        )
        for agent in agents
    }
    model = KripkeModel(tuple(props), worlds, relations, valuation)
    events = tuple(f"e{k}" for k in range(rng.randint(1, _EVENTS)))
    pre = {}
    post = {}
    for a in events:
        pre[a] = _random_formula(rng, props, agents, rng.choice((0, 1, 1)))
        targets = rng.sample(props, rng.randint(0, min(_CHANGED, len(props))))
        post[a] = {
            p: (_random_bool(rng, props, 1) if rng.random() < 0.8 else Atom(p))
            for p in targets
        }
    action_relations = {
        agent: frozenset(
            (x, y) for x in events for y in events if rng.random() < 0.5
        )
        for agent in agents
    }
    action = ActionModel(events, action_relations, pre, post)
    pairs = [(w, a) for w in worlds for a in events]
    rng.shuffle(pairs)
    point, designated = pairs[0]
    evaluator = GlobalEvaluator(model)
    for w, a in pairs:
        if evaluator.satisfies(w, action.pre[a]):
            point, designated = w, a
            break
    return PointedModel(model, point), action, designated


# -- formula family ------------------------------------------------------------

def formula_family(
    atoms: Sequence[str], agents: Sequence[str], depth: int = 2
) -> list[Formula]:
    """Deterministic formula battery: small boolean leaves (at most two
    atoms each) under all nestings of belief operators and their
    negations up to the given modal depth."""
    leaves: list[Formula] = [TOP]
    for p in atoms:
        leaves.append(Atom(p))
        leaves.append(Not(Atom(p)))
    for p, q in zip(atoms, atoms[1:]):
        leaves.append(And((Atom(p), Atom(q))))
        leaves.append(Or((Atom(p), Not(Atom(q)))))
        leaves.append(Iff(Atom(p), Atom(q)))
    family = list(leaves)
    frontier: list[Formula] = list(leaves)
    for _ in range(depth):
        layer: list[Formula] = []
        for agent in agents:
            for f in frontier:
                boxed = Box(agent, f)
                layer.append(boxed)
                layer.append(Not(boxed))
        family.extend(layer)
        frontier = layer
    return list(dict.fromkeys(family))


# -- instance checks -------------------------------------------------------------

def check_part_i(scene: Scene, event: Event, depth: int = 2) -> str | None:
    """Symbolic update vs. explicit pipeline on one (scene, event).

    The explicit side is the Kripke model of the structure updated by
    the action the event expands into.  Returns None on agreement, else
    a description of the first failure (see _compare_update).
    """
    structure = scene.structure
    model = model_of_structure(structure)
    action, designated = act(event)
    update = transform_with_copies(structure, event.transformer)
    var_of = structure.env()
    xvar_of = {v.name: v for v in event.transformer.add_vocab}

    def g(w, a):
        return update.post_state(
            frozenset(var_of[p] for p in w), frozenset(xvar_of[n] for n in a)
        )

    point = (frozenset(v.name for v in scene.state), designated)
    return _compare_update(update, model, action, point, g, depth)


def check_part_ii(
    pointed: PointedModel, action: ActionModel, designated, depth: int = 2
) -> str | None:
    """Explicit product update vs. encode-then-transform on one instance."""
    model = pointed.model
    engine = Engine()
    structure, g_m = structure_of_model(engine, model)
    transformer, _, label = trf_with_labels(engine, action, designated)
    update = transform_with_copies(structure, transformer)

    def g(w, a):
        return update.post_state(g_m[w], label[a])

    point = (pointed.point, designated)
    return _compare_update(update, model, action, point, g, depth)


def _compare_update(
    update: Update, model: KripkeModel, action: ActionModel, point, g, depth: int
) -> str | None:
    """Compare a symbolic update with the product update of model by action.

    point is the designated (world, event) pair, and g(w, a) the state
    of update.structure that stands for the product world (w, a).
    Compares executability at the point, the morphism conditions for g,
    and truth of the formula family at the point.  Returns None on
    agreement, else a description of the first failure.
    """
    product = product_update(model, action)
    survives = point in product.valuation
    state_new = g(*point)
    executable = update.structure.law.holds(state_new)
    if executable != survives:
        return (
            f"executability disagrees: explicit precondition is {survives}, "
            f"symbolic law check is {executable}"
        )

    states = {(w, a): g(w, a) for (w, a) in product.worlds}
    report = check_morphism(update.structure, product, model.vocabulary, states)
    if not report.ok:
        return report.detail
    if not executable:
        return None

    evaluator = GlobalEvaluator(product)
    translator = update.structure.translator
    family = formula_family(list(model.vocabulary), list(model.agents), depth)
    for phi in family:
        symbolic = translator.fn(phi).holds(state_new)
        explicit = evaluator.satisfies(point, phi)
        if symbolic != explicit:
            return (
                f"formula {format_formula(phi)}: "
                f"symbolic {symbolic}, explicit {explicit}"
            )
    return None


def check_roundtrip(
    pointed: PointedModel, action: ActionModel, designated, depth: int = 2
) -> str | None:
    """Action -> transformer -> action: product updates must agree."""
    model = pointed.model
    engine = Engine()
    for p in model.vocabulary:
        engine.variable(p)
    transformer, actual, _ = trf_with_labels(engine, action, designated)
    action2, designated2 = act(Event(transformer, actual))
    product1 = product_update(model, action)
    product2 = product_update(model, action2)
    point1 = (pointed.point, designated)
    point2 = (pointed.point, designated2)
    before = point1 in product1.valuation
    after = point2 in product2.valuation
    if before != after:
        return (
            f"designated precondition disagrees after round trip: "
            f"{before} vs {after}"
        )
    if not before:
        return None
    eval1 = GlobalEvaluator(product1)
    eval2 = GlobalEvaluator(product2)
    family = formula_family(list(model.vocabulary), list(model.agents), depth)
    for phi in family:
        v1 = eval1.satisfies(point1, phi)
        v2 = eval2.satisfies(point2, phi)
        if v1 != v2:
            return (
                f"round trip differs on {format_formula(phi)}: {v1} vs {v2}"
            )
    return None


def check_translation(scene: Scene, formulas) -> str | None:
    """Boolean translation vs. the Kripke model of the structure, on
    every state."""
    structure = scene.structure
    evaluator = GlobalEvaluator(model_of_structure(structure))
    states = structure.states()
    for phi in formulas:
        fn = bool_translate(structure, phi)
        for state in states:
            names = frozenset(v.name for v in state)
            if fn.holds(state) != evaluator.satisfies(names, phi):
                return (
                    f"translation of {format_formula(phi)} disagrees at "
                    f"state {{{','.join(sorted(names))}}}"
                )
    return None


def generate_formulas(seed: int, structure: BeliefStructure, count: int = 6, depth: int = 3):
    """Deterministic random formulas over the structure's vocabulary."""
    rng = random.Random(f"formula-{seed}")
    names = [v.name for v in structure.vocabulary]
    agents = sorted(structure.agents)
    return [_random_formula(rng, names, agents, depth) for _ in range(count)]


def check_minimization(seed: int, bounds: Bounds = Bounds(), depth: int = 2) -> str | None:
    """Pin one variable by the law, remove it, and compare all formulas
    over the remaining vocabulary on every state."""
    scene = generate_scene(seed, bounds)
    structure = scene.structure
    engine = structure.engine
    rng = random.Random(f"mini-{seed}")
    target = rng.choice(list(structure.vocabulary))
    pinned_law = structure.law & engine.atom(target)
    if pinned_law.is_false:
        pinned_law = structure.law & ~engine.atom(target)
    pinned = BeliefStructure(
        engine, structure.vocabulary, pinned_law, structure.observations
    )
    kept = [v for v in pinned.vocabulary if v != target]
    reduced = minimize(pinned, kept)
    before = pinned.translator
    after = reduced.translator
    family = formula_family([v.name for v in kept], sorted(structure.agents), depth)
    for phi in family:
        fn_before = before.fn(phi)
        fn_after = after.fn(phi)
        for state in pinned.states():
            if fn_before.holds(state) != fn_after.holds(state - {target}):
                names = ",".join(sorted(v.name for v in state))
                return (
                    f"minimization changes {format_formula(phi)} at "
                    f"state {{{names}}}"
                )
    return None


# -- suite runner ----------------------------------------------------------------

# Each part generates and checks the instance of one seed, and returns
# the check's result with the instance's size.  The parts call the
# generators and checks by module name, so that a module function
# replaced at run time (bench/tracer.py wraps them) is the one that runs.

def _event_part(seed: int, bounds: Bounds, depth: int) -> tuple[str | None, int]:
    scene, event = generate_scene_event(seed, bounds)
    size = len(scene.structure.vocabulary) + len(event.transformer.add_vocab)
    return check_part_i(scene, event, depth), size


def _action_part(seed: int, bounds: Bounds, depth: int) -> tuple[str | None, int]:
    pointed, action, designated = generate_model_action(seed, bounds)
    size = len(pointed.model.worlds) + len(action.events)
    return check_part_ii(pointed, action, designated, depth), size


def _roundtrip_part(seed: int, bounds: Bounds, depth: int) -> tuple[str | None, int]:
    pointed, action, designated = generate_model_action(seed, bounds)
    size = len(pointed.model.worlds) + len(action.events)
    return check_roundtrip(pointed, action, designated, depth), size


# The parts of the equivalence suite, in the order run_suite runs them.
SUITE_PARTS = {"event": _event_part, "action": _action_part, "roundtrip": _roundtrip_part}


@dataclass
class Counterexample:
    part: str
    seed: int
    detail: str
    size: int = 0


@dataclass
class SuiteReport:
    checked: dict[str, int] = field(default_factory=dict)
    failures: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def minimal_failure(self) -> Counterexample | None:
        if not self.failures:
            return None
        return min(self.failures, key=lambda c: (c.size, c.seed))


def run_suite(
    seed: int = 0,
    count: int = 500,
    depth: int = 2,
    bounds: Bounds = Bounds(),
    parts: Sequence[str] = tuple(SUITE_PARTS),
) -> SuiteReport:
    """Run the equivalence checks over `count` seeded instances per part,
    the parts of each seed in SUITE_PARTS order."""
    report = SuiteReport()
    for part in parts:
        report.checked[part] = 0
    selected = [(name, run) for name, run in SUITE_PARTS.items() if name in parts]
    for instance_seed in range(seed, seed + count):
        for name, run in selected:
            detail, size = run(instance_seed, bounds, depth)
            report.checked[name] += 1
            if detail is not None:
                report.failures.append(
                    Counterexample(name, instance_seed, detail, size)
                )
    return report
