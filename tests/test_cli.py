"""Command-line tests: golden outputs, exit codes, JSON shape."""

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from symdel import bridge, cli, language
from symdel.cli import main
from symdel.errors import SymdelError
from symdel.language import compile_formula, parse
from test_node_counts import coin_flips, sally_anne

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SALLY_GOLDEN = """\
initial
  vars: p t
  law: p & ~t
  obs Sally: Top
  obs Anne: Top
  state: {p}

after event 1
  vars: p t
  law: p & t
  obs Sally: Top
  obs Anne: Top
  state: {p,t}

after event 2
  vars: p t
  law: ~p & t
  obs Sally: Top
  obs Anne: Top
  state: {t}

after event 3
  vars: p t q
  law: ~p & (t <-> ~q)
  obs Sally: ~q'
  obs Anne: q <-> q'
  state: {q}

after event 4
  vars: p t q
  law: p & (t <-> ~q)
  obs Sally: ~q'
  obs Anne: q <-> q'
  state: {p,q}

check [Sally] t = true [ok]
check t = false [ok]
check [Anne] ~t = true [ok]
check [Anne] [Sally] t = true [ok]
"""

COIN_TRACE_GOLDEN = """\
initial
  vars: p
  law: p
  obs a: p <-> p'
  obs b: p <-> p'
  state: {p}

EVENT
  ADDVARS q
  CHANGE p := q
  OBS+ b: q <-> q'
  ASSIGN q

after event 1
  vars: p q
  law: p <-> q
  obs a: Top
  obs b: q <-> q'
  state: {p,q}

check p = true [ok]
check [b] p = true [ok]
check [a] p = false [ok]
check [a] ~p = false [ok]
check [a] ([b] p | [b] ~p) = true [ok]
"""

TO_ACTION_GOLDEN = """\
AGENTS a b
VARS p

ACTION
  EVENTS {} {q}
  POST {}: p := Bot
  POST {q}: p := Top
  REL a: {}->{} {}->{q} {q}->{} {q}->{q}
  REL b: {}->{} {q}->{q}
  DESIGNATED {q}
"""

TO_TRANSFORMER_GOLDEN = """\
AGENTS a b
VARS p

EVENT
  ADDVARS q1
  PRE ~q1 | q1
  CHANGE p := q1
  OBS+ b: q1 <-> q1'
  ASSIGN q1
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ----------------------------------------------------------------------

def test_check_sally_anne_golden(capsys):
    code, out, err = run(
        capsys, "check", str(SCENARIOS / "sally_anne.scn"), "--minimize"
    )
    assert code == 0
    assert err == ""
    assert out == SALLY_GOLDEN


def test_check_coin_trace_golden(capsys):
    code, out, err = run(
        capsys, "check", str(SCENARIOS / "coin_flip.scn"), "--trace", "--minimize"
    )
    assert code == 0
    assert out == COIN_TRACE_GOLDEN


def test_check_without_minimize_keeps_snapshots(capsys):
    code, out, _ = run(capsys, "check", str(SCENARIOS / "coin_flip.scn"))
    assert code == 0
    assert "vars: p q p°" in out
    assert "check [a] p = false [ok]" in out


def test_check_public_change(capsys):
    code, out, _ = run(capsys, "check", str(SCENARIOS / "public_change.scn"))
    assert code == 0
    assert out.count("[ok]") == 4


def test_check_json_shape(capsys):
    code, out, _ = run(
        capsys, "check", str(SCENARIOS / "coin_flip.scn"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"trace", "checks", "ok"}
    assert payload["ok"] is True
    assert len(payload["trace"]) == 2
    first = payload["trace"][0]
    assert set(first) == {"vars", "law", "obs", "state"}
    assert first == {
        "vars": ["p"],
        "law": "p",
        "obs": {"a": "p <-> p'", "b": "p <-> p'"},
        "state": ["p"],
    }
    assert payload["trace"][1]["vars"] == ["p", "q", "p°"]
    assert payload["checks"][0] == {
        "formula": "p",
        "after": 1,
        "value": True,
        "expect": True,
        "ok": True,
    }


def test_check_failed_expectation(tmp_path, capsys):
    path = tmp_path / "wrong.scn"
    path.write_text(
        "AGENTS a\nVARS p\nLAW p\nSTATE p\nCHECK ~p EXPECT true\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "check ~p = false [FAIL expected true]" in out

    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["checks"][0]["ok"] is False


def test_check_missing_file(capsys):
    code, out, err = run(capsys, "check", "no_such_file.scn")
    assert code == 2
    assert out == ""
    assert "no_such_file.scn" in err


@pytest.mark.parametrize(
    "argv", [["check"], ["translate", "--to", "action"]], ids=["check", "translate"]
)
def test_file_not_utf8(tmp_path, capsys, argv):
    path = tmp_path / "utf16.scn"
    path.write_bytes(b"\xff\xfe" + "AGENTS a\n".encode("utf-16-le"))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"{path}: not UTF-8: invalid start byte at byte 0\n"
    assert "Traceback" not in err


def test_check_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("VARS p\nLAW p &\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2" in err


def test_check_blocked_event(tmp_path, capsys):
    path = tmp_path / "blocked.scn"
    for events, step in (
        ("EVENT\nPRE ~p\n", 1),
        ("EVENT\nCHANGE p := Bot\nEVENT\nPRE p\n", 2),
    ):
        path.write_text("AGENTS a\nVARS p\nLAW p\nSTATE p\n" + events, encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert f"step {step}:" in err
        assert "not executable" in err


def test_check_change_of_a_snapshot_names_its_line(tmp_path, capsys):
    path = tmp_path / "snapshot.scn"
    path.write_text(
        "AGENTS a\nVARS p\nSTATE p\nEVENT\nCHANGE p := ~p\nEVENT\nCHANGE p° := Top\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(path))
    error = "step 2: line 7: CHANGE of a snapshot, which keeps an old value: p°"
    assert (code, out, err) == (2, "", f"{path}: {error}\n")


def test_check_index_out_of_range(tmp_path, capsys):
    path = tmp_path / "range.scn"
    path.write_text(
        "AGENTS a\nVARS p\nLAW p\nSTATE p\nCHECK after 3 p\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "after 3" in err
    # the index is checked when the file is read, before a blocked step 1
    path.write_text(
        "AGENTS a\nVARS p\nLAW p\nSTATE p\nEVENT\nPRE ~p\nCHECK after 3 p\n",
        encoding="utf-8",
    )
    for argv in (["check"], ["translate", "--to", "action"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert err == f"{path}: line 7: check after 3 outside 0..1\n"


def test_check_unknown_atom_in_query(tmp_path, capsys):
    # the state makes the first disjunct true and the first conjunct
    # false, so the unknown agent and atom must be caught anyway
    path = tmp_path / "atom.scn"
    for query in ("z", "p | [c] p", "~p & z"):
        path.write_text(
            f"AGENTS a\nVARS p\nLAW p\nSTATE p\nCHECK {query}\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 2, query
        assert "line 5" in err, query


def _mutants(count: int, seed: int):
    """Scenario files with one line deleted or duplicated, or one token replaced
    by another token of the shipped scenarios."""
    rng = random.Random(seed)
    sources = [
        path.read_text(encoding="utf-8").splitlines()
        for path in sorted(SCENARIOS.glob("*.scn"))
    ]
    tokens = sorted({token for lines in sources for line in lines for token in line.split()})
    for _ in range(count):
        lines = list(rng.choice(sources))
        k = rng.choice([i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "#")])
        kind = rng.randrange(3)
        if kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        else:
            words = lines[k].split()
            words[rng.randrange(len(words))] = rng.choice(tokens)
            lines[k] = " ".join(words)
        yield "\n".join(lines) + "\n"


def test_mutated_scenarios_exit_0_1_or_2(tmp_path, capsys):
    path = tmp_path / "mutant.scn"
    commands = (
        ["check"],
        ["check", "--minimize", "--json"],
        ["translate", "--to", "action"],
        ["translate", "--to", "transformer"],
    )
    codes = Counter()
    for number, text in enumerate(_mutants(200, seed=12)):
        path.write_text(text, encoding="utf-8")
        for command in commands:
            try:
                code, _, _ = run(capsys, command[0], str(path), *command[1:])
            except Exception as error:
                pytest.fail(f"mutant {number}, {command}: {error!r}\n{text}")
            assert code in (0, 1, 2), (number, command, text)
            codes[code] += 1
    # both accepted and rejected files, so the contract was exercised
    assert codes[0] and codes[2], codes


DEEP_CHECK = "AGENTS a\nVARS p\nLAW p\nSTATE p\nCHECK " + "~" * 1200 + "p\n"
WIDE_NAMES = " ".join(f"v{i}" for i in range(1500))
WIDE_LAW = (
    f"AGENTS a\nVARS {WIDE_NAMES}\nLAW {WIDE_NAMES.replace(' ', ' & ')}\n"
    f"STATE {WIDE_NAMES}\n"
)


@pytest.mark.parametrize("text", [DEEP_CHECK, WIDE_LAW], ids=["deep_check", "wide_law"])
def test_check_input_past_the_recursion_limit(tmp_path, capsys, text):
    path = tmp_path / "deep.scn"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# -- printed laws and observations --------------------------------------------------

def _assert_prints(fn, text, vocabulary):
    """text, compiled over the vocabulary and its primed copies, is fn."""
    engine = fn.engine
    env = {}
    for v in vocabulary:
        env[v.name] = v
        env[engine.primed(v).name] = engine.primed(v)
    assert compile_formula(parse(text), env, engine) == fn, text


ROUND_TRIP_INPUTS = {
    **{path.stem: path.read_text(encoding="utf-8") for path in sorted(SCENARIOS.glob("*.scn"))},
    "flips_8": coin_flips(8),
    "sally_anne_4": sally_anne(4),
}


@pytest.mark.parametrize("minimize", [False, True], ids=["full", "minimize"])
@pytest.mark.parametrize("name", sorted(ROUND_TRIP_INPUTS))
def test_printed_laws_and_observations_compile_back(tmp_path, capsys, monkeypatch, name, minimize):
    scenes = []
    real = cli._scene_json

    def spy(scene):
        scenes.append(scene)
        return real(scene)

    monkeypatch.setattr(cli, "_scene_json", spy)
    path = tmp_path / f"{name}.scn"
    path.write_text(ROUND_TRIP_INPUTS[name], encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--json", *(["--minimize"] if minimize else []))
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == len(scenes) > 0
    for scene, printed in zip(scenes, trace):
        structure = scene.structure
        _assert_prints(structure.law, printed["law"], structure.vocabulary)
        assert list(printed["obs"]) == list(structure.observations)
        for agent, obs in structure.observations.items():
            _assert_prints(obs, printed["obs"][agent], structure.vocabulary)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("minimize", [[], ["--minimize"]], ids=["full", "minimize"])
def test_check_recovers_each_factor_once(tmp_path, capsys, monkeypatch, minimize, json_flag):
    """The engine keeps each recovered formula for the whole run: each
    distinct factor of the printed laws and observations is recovered
    once, though most recur unchanged from one scene to the next."""
    scenes, recovered = [], []
    real_scene, real_factor = cli._scene_json, language._recover_factor

    def scene_spy(scene):
        scenes.append(scene)
        return real_scene(scene)

    def factor_spy(fn):
        recovered.append(fn)
        return real_factor(fn)

    monkeypatch.setattr(cli, "_scene_json", scene_spy)
    monkeypatch.setattr(language, "_recover_factor", factor_spy)
    path = tmp_path / "sally_anne_10.scn"
    path.write_text(sally_anne(10), encoding="utf-8")
    code, _, _ = run(capsys, "check", str(path), *minimize, *json_flag)
    assert code == 0
    assert len(scenes) == 41
    structures = [scene.structure for scene in scenes]
    engine = structures[0].engine
    factors = [
        g
        for s in structures
        for fn in (s.law, *s.observations.values())
        for g in engine.factors(fn)
    ]
    assert len(recovered) == len(set(recovered))
    assert set(recovered) == set(factors)
    assert len(factors) > 3 * len(recovered)


def test_printed_event_observations_compile_back(capsys, monkeypatch):
    events = []
    real = cli.format_event_block

    def spy(transformer, actual):
        events.append(transformer)
        return real(transformer, actual)

    monkeypatch.setattr(cli, "format_event_block", spy)
    code, out, _ = run(
        capsys, "translate", str(SCENARIOS / "flip_action.scn"), "--to", "transformer"
    )
    assert code == 0
    (transformer,) = events
    engine = next(iter(transformer.event_obs.values())).engine
    lines = [line.strip() for line in out.splitlines()]
    (declared,) = [line.split()[1:] for line in lines if line.startswith("VARS ")]
    vocabulary = [engine.variable(name) for name in declared] + list(transformer.add_vocab)
    printed = [line.removeprefix("OBS+ ") for line in lines if line.startswith("OBS+ ")]
    assert printed
    for line in printed:
        agent, text = line.split(": ", 1)
        _assert_prints(transformer.event_obs[agent], text, vocabulary)


# -- translate --------------------------------------------------------------------

def test_translate_event_to_action_golden(capsys):
    code, out, err = run(
        capsys, "translate", str(SCENARIOS / "coin_flip.scn"), "--to", "action"
    )
    assert code == 0
    assert err == ""
    assert out == TO_ACTION_GOLDEN


def test_translate_action_to_transformer_golden(capsys):
    code, out, err = run(
        capsys,
        "translate",
        str(SCENARIOS / "flip_action.scn"),
        "--to",
        "transformer",
    )
    assert code == 0
    assert err == ""
    assert out == TO_TRANSFORMER_GOLDEN


def test_translate_checks_event_blocks_for_both_targets(tmp_path, capsys):
    # the EVENT block is malformed and no CHECK line is present
    path = tmp_path / "bad_event.scn"
    path.write_text(
        "AGENTS a\nVARS p\nEVENT\nCHANGE z := p\nACTION\nEVENTS e\nDESIGNATED e\n",
        encoding="utf-8",
    )
    error = "line 4: CHANGE of a variable outside the vocabulary: z\n"
    for argv in (["translate", "--to", "transformer"], ["translate", "--to", "action"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"{path}: {error}"), argv
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"{path}: step 1: {error}")


def test_translate_requires_matching_block(tmp_path, capsys):
    path = tmp_path / "plain.scn"
    path.write_text("AGENTS a\nVARS p\nLAW p\nSTATE p\n", encoding="utf-8")
    code, _, err = run(capsys, "translate", str(path), "--to", "action")
    assert code == 2
    assert "exactly one EVENT block" in err
    code, _, err = run(capsys, "translate", str(path), "--to", "transformer")
    assert code == 2
    assert "needs an ACTION block" in err


@pytest.mark.parametrize(
    "target, block, name",
    [
        ("transformer", "ACTION\nEVENTS e0\nPOST e0: zz := p\nDESIGNATED e0\n", "zz"),
        ("transformer", "ACTION\nEVENTS e0\nPOST e0: p := yy\nDESIGNATED e0\n", "yy"),
        ("transformer", "ACTION\nEVENTS e0\nPRE e0: [b] p\nDESIGNATED e0\n", "b"),
        ("action", "EVENT\nPRE zz | [b] p\nCHANGE p := yy\n", "zz"),
        ("action", "EVENT\nCHANGE p := yy\n", "yy"),
        ("action", "EVENT\nPRE [b] p\n", "b"),
    ],
    ids=["post_target", "post_atom", "pre_agent", "event_pre", "event_change", "event_agent"],
)
def test_translate_rejects_undeclared_names(tmp_path, capsys, target, block, name):
    # check rejects these at step 1, so translate must not print a block
    path = tmp_path / "undeclared.scn"
    path.write_text(f"AGENTS a\nVARS p\nLAW Top\nSTATE p\n{block}", encoding="utf-8")
    code, out, err = run(capsys, "translate", str(path), "--to", target)
    assert code == 2
    assert out == ""
    assert err.rstrip().endswith(f": {name}")


@pytest.mark.parametrize(
    "body, step, error",
    [
        ("LAW q\nEVENT\n", "", "line 3: unbound atom: q"),
        ("OBS a: q\nEVENT\n", "", "line 3: unbound atom: q"),
        ("EVENT\nCHANGE p := z\n", "step 1: ", "line 4: unbound atom: z"),
        ("EVENT\nPRE [b] p\n", "step 1: ", "line 4: unknown agent: b"),
        (
            "OBS a: [a] p\nEVENT\n",
            "",
            "line 3: belief operator [a] in a boolean-only context",
        ),
        (
            "EVENT\nCHANGE p := [a] x\n",
            "step 1: ",
            "line 4: change law of p is not belief-free",
        ),
        ("EVENT\nOBS+ a: q\n", "step 1: ", "line 4: unbound atom: q"),
        (
            "EVENT\nADDVARS x\nPRE [a] x\n",
            "step 1: ",
            "line 5: event variable under belief operator [a]: x",
        ),
        (
            "EVENT\nADDVARS x y\nCHANGE p := x\nPRE x & ~[a] (p | [a] y)\n",
            "step 1: ",
            "line 6: event variable under belief operator [a]: y",
        ),
        # a state that violates the law: at STATE, or at LAW without STATE
        ("LAW ~p\nSTATE p\nEVENT\n", "", "line 4: the designated state violates the state law"),
        ("STATE p\nLAW ~p\nEVENT\n", "", "line 3: the designated state violates the state law"),
        ("LAW p\nEVENT\n", "", "line 3: the designated state violates the state law"),
        (
            "EVENT\nADDVARS x p\n",
            "step 1: ",
            "line 4: event variables already in the vocabulary: p",
        ),
    ],
    ids=[
        "law", "obs", "change_atom", "pre_agent", "obs_belief", "change_belief",
        "obs_plus", "pre_event_variable_believed", "pre_event_variable_nested",
        "state_violates_law", "state_before_law_violates_it", "no_state_violates_law",
        "addvars_reuses_a_vocabulary_variable",
    ],
)
def test_formula_errors_name_their_line(tmp_path, capsys, body, step, error):
    path = tmp_path / "formula.scn"
    path.write_text(f"AGENTS a\nVARS p\n{body}", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"{path}: {step}{error}\n")
    code, out, err = run(capsys, "translate", str(path), "--to", "action")
    assert (code, out, err) == (2, "", f"{path}: {error}\n")


def test_event_variable_of_an_earlier_event_names_its_line(tmp_path, capsys):
    path = tmp_path / "reused.scn"
    events = "AGENTS a\nVARS p\nEVENT\nADDVARS x\nEVENT\nADDVARS y x\n"
    error = "line 6: event variables already in the vocabulary: x"
    path.write_text(events, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"{path}: step 2: {error}\n")
    path.write_text(events + "ACTION\nEVENTS e0\nDESIGNATED e0\n", encoding="utf-8")
    code, out, err = run(capsys, "translate", str(path), "--to", "transformer")
    assert (code, out, err) == (2, "", f"{path}: {error}\n")


def test_translate_postcondition_with_a_belief_names_its_line(tmp_path, capsys):
    path = tmp_path / "post.scn"
    path.write_text(
        "AGENTS a\nVARS p\nACTION\nEVENTS e\nPOST e: p := [a] p\nDESIGNATED e\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "translate", str(path), "--to", "transformer")
    error = "line 5: postcondition p of 'e' is not belief-free"
    assert (code, out, err) == (2, "", f"{path}: {error}\n")


@pytest.mark.parametrize(
    "action, error",
    [
        (
            "EVENTS e\nPOST e: p := [a] p\nDESIGNATED e\n",
            "line 7: postcondition p of 'e' is not belief-free",
        ),
        ("EVENTS e\n", "line 5: ACTION block without DESIGNATED"),
    ],
    ids=["postcondition_with_a_belief", "no_designated"],
)
def test_every_command_rejects_a_malformed_action_block(tmp_path, capsys, action, error):
    # the parser checks the block, so the commands that never build it
    # reject it too, with the same message
    path = tmp_path / "action.scn"
    path.write_text(
        f"AGENTS a\nVARS p\nEVENT\nCHANGE p := ~p\nACTION\n{action}", encoding="utf-8"
    )
    for argv in (
        ["check"],
        ["check", "--minimize", "--json"],
        ["translate", "--to", "action"],
        ["translate", "--to", "transformer"],
    ):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"{path}: {error}\n"), argv


def test_change_of_a_snapshot_spelled_with_at_o(tmp_path, capsys):
    # `p@o` is `p°` in a CHANGE key, as it is in formulas
    path = tmp_path / "snapshot.scn"
    events = "AGENTS a\nVARS p\nSTATE p\nEVENT\nCHANGE p := ~p\nEVENT\nCHANGE p@o := Top\n"
    error = "line 7: CHANGE of a snapshot, which keeps an old value: p°"
    path.write_text(events, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"{path}: step 2: {error}\n")
    path.write_text(events + "ACTION\nEVENTS e0\nDESIGNATED e0\n", encoding="utf-8")
    code, out, err = run(capsys, "translate", str(path), "--to", "transformer")
    assert (code, out, err) == (2, "", f"{path}: {error}\n")


def test_agent_names_read_at_o_as_the_degree_sign(tmp_path, capsys):
    path = tmp_path / "agents.scn"
    path.write_text(
        "AGENTS a@o b\nVARS p\nOBS a°: p <-> p'\nSTATE p\n"
        "CHECK [a@o] p EXPECT true\nCHECK [a°] p EXPECT true\nCHECK [b] p EXPECT false\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, ""), err
    assert "  obs a°: p <-> p'\n" in out
    # the two spellings name one agent
    path.write_text("AGENTS a°\nVARS p\nOBS a@o: Top\nOBS a°: Top\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"{path}: line 4: OBS given twice for a°\n")
    path.write_text(
        "AGENTS a°\nVARS p\nACTION\nEVENTS e0 e1\nREL a@o: e0->e0 e1->e1\nDESIGNATED e0\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "translate", str(path), "--to", "transformer")
    assert (code, err) == (0, ""), err
    assert out.startswith("AGENTS a°\n")


CHECK_HEAD = "AGENTS a\nVARS p\nLAW p\nSTATE p\nEVENT\nADDVARS x\nCHANGE p := x\nASSIGN x\n"


@pytest.mark.parametrize(
    "query, error",
    [
        ("z & [c] p", "unbound atom: z"),
        ("[c] p", "unknown agent: c"),
        ("after 0 x", "unbound atom: x"),
    ],
    ids=["atom", "agent", "event_variable_before_its_event"],
)
def test_translate_compiles_checks_as_check_does(tmp_path, capsys, query, error):
    path = tmp_path / "checks.scn"
    path.write_text(f"{CHECK_HEAD}CHECK {query}\n", encoding="utf-8")
    for argv in (["check"], ["translate", "--to", "action"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"{path}: line 9: {error}\n"), argv
    # the ACTION direction compiles the same CHECK against the same structure
    action = "ACTION\nEVENTS e0\nDESIGNATED e0\n"
    path.write_text(f"{CHECK_HEAD}{action}CHECK {query}\n", encoding="utf-8")
    code, out, err = run(capsys, "translate", str(path), "--to", "transformer")
    assert (code, out, err) == (2, "", f"{path}: line 12: {error}\n")


def test_translate_accepts_checks_on_the_structure_they_name(tmp_path, capsys):
    path = tmp_path / "checks.scn"
    path.write_text(
        f"{CHECK_HEAD}CHECK x & p° & [a] p\nCHECK after 0 [a] p\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "check", str(path))
    assert code == 0, err
    code, out, err = run(capsys, "translate", str(path), "--to", "action")
    assert code == 0, err
    assert out.startswith("AGENTS a\nVARS p\n\nACTION\n")


def _wide_event(tmp_path, count):
    names = " ".join(f"x{i}" for i in range(count))
    path = tmp_path / f"wide{count}.scn"
    path.write_text(
        f"AGENTS a\nVARS p\nLAW p\nSTATE p\nEVENT\nADDVARS {names}\n", encoding="utf-8"
    )
    return path


def test_translate_to_action_rejects_too_many_event_variables(tmp_path, capsys):
    # 2^40 events would exhaust memory; the count is refused before any is built
    path = _wide_event(tmp_path, 40)
    code, out, err = run(capsys, "translate", str(path), "--to", "action")
    assert (code, out) == (2, "")
    # the ADDVARS line that lists them, not the EVENT line above it
    assert err.startswith(f"{path}: line 6: ")
    assert "40 event variables" in err
    assert f"at most {cli.MAX_ACTION_EVENT_VARS}" in err


def test_translate_to_action_accepts_the_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ACTION_EVENT_VARS", 2)
    code, out, err = run(capsys, "translate", str(_wide_event(tmp_path, 2)), "--to", "action")
    assert code == 0, err
    assert "EVENTS {} {x0} {x1} {x0,x1}" in out
    code, out, err = run(capsys, "translate", str(_wide_event(tmp_path, 3)), "--to", "action")
    assert (code, out) == (2, "")
    assert "3 event variables" in err


# -- prove ---------------------------------------------------------------------------

def test_prove_vacuous(capsys):
    code, out, _ = run(capsys, "prove", "--count", "0")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("0 instances, 0 failures") == 5


def test_prove_small(capsys):
    code, out, _ = run(capsys, "prove", "--count", "10", "--seed", "3")
    assert code == 0
    for part in ("event", "action", "roundtrip"):
        assert f"part {part}: 10 instances, 0 failures" in out
    assert out.strip().endswith("all checks passed")


@pytest.mark.parametrize(
    "part, first, block",
    [
        ("event", "scene\n", "\nEVENT"),
        ("action", "props: ", "\nACTION"),
        ("roundtrip", "props: ", "\nACTION"),
        ("translation", "scene\n", None),
        ("minimization", "scene\n", None),
    ],
)
def test_prove_prints_the_minimal_failing_instance(capsys, monkeypatch, part, first, block):
    monkeypatch.setitem(bridge.SUITE_PARTS, part, lambda seed, bounds, depth: ("broken", 1))
    code, out, _ = run(capsys, "prove", "--count", "2", "--seed", "5")
    assert code == 1
    assert f"part {part}: 2 instances, 2 failures" in out
    instance = out.split(f"minimal failing instance: part {part}, seed 5\n  broken\n")[1]
    assert instance.startswith(first)
    if block is None:
        assert "\n  state: {" in instance
        assert "EVENT" not in instance and "ACTION" not in instance
    else:
        assert block in instance


def test_prove_bounds_flags_reach_the_suite_and_the_printed_instance(capsys, monkeypatch):
    seen = []

    def broken(seed, bounds, depth):
        seen.append(bounds)
        return "broken", 1

    monkeypatch.setitem(bridge.SUITE_PARTS, "minimization", broken)
    code, out, _ = run(capsys, "prove", "--count", "1", "--max-vars", "6", "--agents", "3")
    assert code == 1
    assert seen == [bridge.Bounds(6, 3)]
    # seed 0 at these bounds draws 6 variables and 3 agents, more than Bounds() allows
    scene = bridge.generate_scene(0, bridge.Bounds(6, 3))
    assert (len(scene.structure.vocabulary), len(scene.structure.agents)) == (6, 3)
    instance = out.split("minimal failing instance: part minimization, seed 0\n  broken\n")[1]
    assert instance == cli.format_scene(scene, "scene") + "\n"


def test_prove_defaults_are_the_default_bounds(capsys, monkeypatch):
    seen = []

    def record(**kwargs):
        seen.append(kwargs["bounds"])
        return bridge.SuiteReport(checked={kwargs["parts"][0]: 0})

    monkeypatch.setattr(cli, "run_suite", record)
    assert run(capsys, "prove", "--count", "1")[0] == 0
    assert seen == [bridge.Bounds()] * len(bridge.SUITE_PARTS)


@pytest.mark.parametrize(
    "flag, value, cap",
    [
        ("--max-vars", "0", 8),
        ("--max-vars", "9", 8),
        ("--agents", "0", 4),
        ("--agents", "5", 4),
        ("--depth", "0", 4),
        ("--depth", "-1", 4),
        ("--depth", "5", 4),
    ],
)
def test_prove_rejects_out_of_range_bounds(capsys, monkeypatch, flag, value, cap):
    monkeypatch.setattr(cli, "run_suite", None)  # nothing may run
    code, out, err = run(capsys, "prove", flag, value)
    assert (code, out) == (2, "")
    assert err == f"prove: {flag} must be between 1 and {cap}, got {value}\n"


def test_prove_rejects_a_negative_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", None)  # nothing may run
    assert run(capsys, "prove", "--count", "-5") == (
        2, "", "prove: --count must be at least 0, got -5\n"
    )


def test_prove_error_names_the_command(capsys, monkeypatch):
    # prove reads no file, so its errors cannot be prefixed with one
    def fail(**_):
        raise SymdelError("broken suite")

    monkeypatch.setattr(cli, "run_suite", fail)
    assert run(capsys, "prove", "--count", "1") == (2, "", "prove: broken suite\n")


# -- entry point ----------------------------------------------------------------------

def test_module_entry_point():
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "symdel.cli",
            "check",
            str(SCENARIOS / "coin_flip.scn"),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0
    assert "check [a] p = false [ok]" in result.stdout
