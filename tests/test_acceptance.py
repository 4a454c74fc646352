"""Acceptance gate: the end-to-end criteria with their time budgets.

Each test prints one summary line (visible with pytest -s); the
assertions carry the same facts, so a plain run still enforces them.
Seeds and budgets are fixed here on purpose: a regression that slows
the pipeline down or changes any produced structure must show up red.
"""

import time
from pathlib import Path

from conftest import minimize_scene
from symdel.boolfun import Engine
from symdel.bridge import (
    act,
    check_morphism,
    check_translation,
    generate_formulas,
    generate_scene,
    generate_scene_event,
    run_suite,
)
from symdel.explicit import model_of_structure, product_update
from symdel.language import TOP, Atom, parse
from symdel.scenario import build_scene, load_scenario, run_events
from symdel.symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    apply_event,
    scene_eval,
    transform_with_copies,
)

ROOT = Path(__file__).resolve().parent.parent


def _report(name: str, elapsed: float, budget: float) -> None:
    print(f"{name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_false_belief_scenario_end_to_end():
    budget = 1.0
    start = time.perf_counter()

    scenario = load_scenario(str(ROOT / "scenarios" / "sally_anne.scn"))
    engine = Engine()
    scenes = [build_scene(scenario, engine)]
    scenes += [scene for _, scene in run_events(scenario, scenes[0], minimize=True)]

    p, t, q = (engine.variable(s) for s in ("p", "t", "q"))
    fp, ft, fq = engine.atom(p), engine.atom(t), engine.atom(q)
    fq_primed = engine.atom(engine.primed(q))

    assert scenes[1].state == frozenset({p, t})
    assert scenes[1].structure.law == fp & ft

    assert scenes[2].state == frozenset({t})
    assert scenes[2].structure.law == ft & ~fp
    for step in scenes[1:3]:
        assert all(obs.is_true for obs in step.structure.observations.values())

    assert scenes[3].state == frozenset({q})
    assert scenes[3].structure.law == ~fp & ft.iff(~fq)

    assert scenes[4].state == frozenset({p, q})
    assert scenes[4].structure.law == ft.iff(~fq) & fp
    for step in scenes[3:5]:
        assert step.structure.observations["Sally"] == ~fq_primed
        assert step.structure.observations["Anne"] == fq.iff(fq_primed)

    final = scenes[4]
    assert scene_eval(final, parse("[Sally] t")) is True
    assert scene_eval(final, parse("t")) is False
    assert scene_eval(final, parse("[Sally] [Anne] [Sally] t")) is True

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report("criterion 1 (false-belief scenario)", elapsed, budget)


def test_criterion_2_coin_flip_transform_and_minimize():
    budget = 1.0
    start = time.perf_counter()

    engine = Engine()
    p, q = engine.variable("p"), engine.variable("q")
    fp, fq = engine.atom(p), engine.atom(q)
    watch = fp.iff(engine.atom(engine.primed(p)))
    structure = BeliefStructure(
        engine, (p,), fp, {"a": watch, "b": watch}
    )
    flip = Event(
        Transformer(
            (q,),
            TOP,
            {p: Atom("q")},
            {
                "a": engine.true,
                "b": fq.iff(engine.atom(engine.primed(q))),
            },
        ),
        frozenset({q}),
    )
    after = apply_event(Scene(structure, frozenset({p})), flip)

    pc = next(v for v in after.structure.vocabulary if v.name == "p°")
    fpc = engine.atom(pc)
    fpc_primed = engine.atom(engine.primed(pc))
    fq_primed = engine.atom(engine.primed(q))
    assert after.structure.vocabulary == (p, q, pc)
    assert after.structure.law == fpc & fp.iff(fq)
    assert after.structure.observations["a"] == fpc.iff(fpc_primed)
    assert after.structure.observations["b"] == fpc.iff(fpc_primed) & fq.iff(
        fq_primed
    )

    small = minimize_scene(after, keep=(p, q))
    assert small.structure.law == fp.iff(fq)
    assert small.structure.observations["a"].is_true
    assert small.structure.observations["b"] == fq.iff(fq_primed)

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report("criterion 2 (coin flip transform)", elapsed, budget)


def test_criterion_3_translation_preserves_and_reflects_truth():
    budget = 60.0
    start = time.perf_counter()
    for seed in range(1000):
        scene = generate_scene(seed)
        formulas = generate_formulas(seed, scene.structure, count=6, depth=3)
        detail = check_translation(scene, formulas)
        assert detail is None, f"seed {seed}: {detail}"
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    _report("criterion 3 (boolean translation, 1000 structures)", elapsed, budget)


def test_criterion_4_symbolic_update_matches_explicit_update():
    budget = 120.0
    start = time.perf_counter()
    report = run_suite(seed=0, count=500, depth=2, parts=("event",))
    elapsed = time.perf_counter() - start
    worst = report.minimal_failure()
    assert not report.failures, f"seed {worst.seed}: {worst.detail}"
    assert report.checked["event"] == 500
    assert elapsed < budget
    _report("criterion 4 (event vs action, 500 instances)", elapsed, budget)


def test_criterion_5_explicit_update_matches_encoded_transform():
    budget = 120.0
    start = time.perf_counter()
    report = run_suite(seed=0, count=500, depth=2, parts=("action",))
    elapsed = time.perf_counter() - start
    worst = report.minimal_failure()
    assert not report.failures, f"seed {worst.seed}: {worst.detail}"
    assert report.checked["action"] == 500
    assert elapsed < budget
    _report("criterion 5 (action vs transformer, 500 instances)", elapsed, budget)


def test_criterion_6_minimization_preserves_all_small_formulas():
    budget = 60.0
    start = time.perf_counter()
    report = run_suite(seed=0, count=500, depth=2, parts=("minimization",))
    elapsed = time.perf_counter() - start
    worst = report.minimal_failure()
    assert not report.failures, f"seed {worst.seed}: {worst.detail}"
    assert report.checked["minimization"] == 500
    assert elapsed < budget
    _report("criterion 6 (minimization, 500 structures)", elapsed, budget)


def test_criterion_7_updated_state_map_is_a_morphism():
    start = time.perf_counter()
    for seed in range(500):
        scene, event = generate_scene_event(seed)
        structure = scene.structure
        transformer = event.transformer

        model = model_of_structure(structure)
        action, _ = act(event)
        update = transform_with_copies(structure, transformer)
        product = product_update(model, action)
        var_of = structure.env
        xvar_of = {v.name: v for v in transformer.add_vocab}
        g = {
            (w, a): update.post_state(
                frozenset(var_of[n] for n in w),
                frozenset(xvar_of[n] for n in a),
            )
            for (w, a) in product.worlds
        }
        failure = check_morphism(update.structure, product, model.vocabulary, g)
        assert failure is None, f"seed {seed}: {failure}"
    elapsed = time.perf_counter() - start
    _report("criterion 7 (morphism on 500 instances)", elapsed, 120.0)
