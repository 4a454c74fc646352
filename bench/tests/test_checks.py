"""The benchmark's own checks catch wrong answers.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads as W
from symdel import Bounds, format_formula, recover_formula, run_suite
from symdel.bridge import Counterexample


def _run_one_round(workload):
    tally = run.Tally()
    run.run_round(workload, tally)
    return tally


def test_chain_files_pass_every_check(tmp_path):
    chain = W.FactualChain(3, tmp_path, rounds=2, flips=4)
    tally = _run_one_round(chain)
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    assert chain.final_checks() == []
    assert chain.structure_nodes() > 0


def test_structure_nodes_replica_matches_what_check_prints(tmp_path):
    """structure_nodes counts scenes from a copy of run_check's event loop;
    they must be the scenes `symdel check --minimize --json` prints."""
    chain = W.FactualChain(6, tmp_path, rounds=2, flips=3)
    for label, op in chain.operations():
        code, output = op()
        assert code == 0
        trace = json.loads(output)["trace"]
        text = next(c.text for c in chain.inputs if c.name == label)
        scenes = W._pipeline_scenes(W.parse_scenario(text), True)
        assert len(scenes) == len(trace)
        for scene, printed in zip(scenes, trace):
            structure = scene.structure
            assert [v.name for v in structure.vocabulary] == printed["vars"]
            assert [v.name for v in structure.vocabulary if v in scene.state] == printed["state"]
            assert format_formula(recover_formula(structure.law)) == printed["law"]


def _flip_first(chain: W.ChainInput, in_text: bool) -> W.ChainInput:
    """Negate the first expected answer, in the file's EXPECT or only in ours."""
    first = chain.checks[0]
    if in_text:
        line = f"CHECK after {first.after} {first.formula} EXPECT "
        right, wrong = (line + str(v).lower() for v in (first.expect, not first.expect))
        return dataclasses.replace(chain, text=chain.text.replace(right, wrong, 1))
    flipped = dataclasses.replace(first, expect=not first.expect)
    return dataclasses.replace(chain, checks=(flipped,) + chain.checks[1:])


@pytest.mark.parametrize("in_text", [True, False])
def test_wrong_expected_answer_is_a_failed_operation(tmp_path, in_text):
    chain = W.FactualChain(5, tmp_path, rounds=1, flips=3)
    chain.inputs[1] = _flip_first(chain.inputs[1], in_text)
    (tmp_path / "coin_flips.scn").write_text(chain.inputs[1].text, encoding="utf-8")
    tally = _run_one_round(chain)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "coin_flips" in tally.problems[0]


def test_check_output_rejects_bad_exit_and_bad_json():
    chain = W.coin_flips(2, 0)
    assert "exit code 1" in W.verify_check_output(chain, 1, "{}")
    assert "not JSON" in W.verify_check_output(chain, 0, "oops")


def test_battery_answers_pass_and_any_flip_is_caught(tmp_path):
    queries = W.BeliefQueries(2, tmp_path, variables=6, agents=3)
    (label, op), = queries.operations()
    values = op()
    assert queries.verify(label, values) is None
    for index in range(0, len(values), 37):
        flipped = list(values)
        flipped[index] = not flipped[index]
        assert queries.verify(label, flipped) is not None, queries.family[index]


def test_explicit_replay_agrees_and_catches_a_wrong_method(monkeypatch):
    instance = W.belief_instance(6, 3, 4)
    family = W.formula_family(instance.atoms, instance.agents, 2)
    assert W.explicit_battery_problems(instance, family) == []
    real = W.scene_eval
    monkeypatch.setattr(W, "scene_eval", lambda scene, phi: not real(scene, phi))
    assert W.explicit_battery_problems(instance, family)


def test_s5_check_holds_and_flags_a_non_reflexive_observation():
    instance = W.belief_instance(6, 3, 1)
    family = W.formula_family(instance.atoms, instance.agents, 1)
    assert W.s5_problems(instance, family) == []
    text = instance.text.replace("OBS a1: ", "OBS a1: ~v1' & ", 1)
    broken = dataclasses.replace(instance, text=text)
    assert any("a1" in p for p in W.s5_problems(broken, family))


def test_suite_check_needs_full_count_and_no_counterexample():
    report = run_suite(seed=0, count=2, bounds=Bounds(), parts=("event",))
    assert W.verify_suite(report, "event", 2) is None
    assert "checked" in W.verify_suite(report, "event", 3)
    report.failures.append(Counterexample("event", 1, "made up", 2))
    assert "counterexample" in W.verify_suite(report, "event", 2)


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prove_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_figures_are_per_round(tmp_path):
    """Two traced rounds report the same calls per round as one."""
    suite = W.ProveSuite(2, tmp_path, counts={"event": 3, "action": 3, "roundtrip": 3})
    per_round = []
    for rounds in (1, 2):
        tracing = tracer.Tracer(lambda law: W.diagram_nodes([law]))
        tracing.install(extra_modules=[W, run])
        try:
            tally = run.Tally()
            for _ in range(rounds):
                run.run_round(suite, tally)
        finally:
            tracing.uninstall()
        layers = tracing.layer_metrics(rounds)
        per_round.append({k: v for k, v in layers.items() if not k.endswith(".self_s")})
    assert per_round[0] == per_round[1]
    assert per_round[0]["boolfun.engines"] > 0


class _Sleeper:
    """A workload whose one operation sleeps for `seconds`."""

    def __init__(self, seconds):
        self.seconds = seconds

    def operations(self):
        return [("nap", lambda: time.sleep(self.seconds))]

    def verify(self, label, result):
        return None


@pytest.mark.parametrize("seconds, rounds", [(0.01, 1), (0.62, 3), (0.98, 5)])
def test_run_ends_at_the_round_nearest_its_seconds(seconds, rounds):
    tally = run.run_for(_Sleeper(0.2), seconds)
    assert len(tally.round_wall) == rounds
