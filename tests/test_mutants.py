"""Seeded mutants of the scenario files, run through every command that
reads a file: each call ends in exit code 0, 1 or 2 and raises nothing.

A mutant is a scenario file with one to three lines deleted, duplicated
or swapped, tokens deleted or inserted, or lines inserted that are
likely to meet a check: an ADDVARS, a PRE with an event variable under
a belief operator, a CHANGE of a decorated name.
"""

import random
from collections import Counter
from pathlib import Path

from symdel.cli import main

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

COMMANDS = [
    ["check"],
    ["check", "--minimize", "--json"],
    ["translate", "--to", "action"],
    ["translate", "--to", "transformer"],
]

MUTANTS = 500

EXTRA_TOKENS = ["x", "p'", "~", "&", "->", "(", ")", "[a]", "Top", "Bot", ":", ":="]


def mutant(text: str, rng: random.Random) -> str:
    """The scenario text with one to three random edits."""
    lines = text.splitlines()
    agents = next((line.split()[1:] for line in lines if line.startswith("AGENTS")), [])
    agent = rng.choice(agents or ["a"])
    inserted = [
        ["ADDVARS x"],
        [f"PRE [{agent}] x"],
        ["ADDVARS x", f"PRE [{agent}] x"],
        ["CHANGE p@o := Top"],
        ["EVENT"],
        ["ASSIGN x"],
        [f"OBS+ {agent}: x <-> x'"],
        [f"CHECK [{agent}] x"],
    ]
    tokens = text.split() + EXTRA_TOKENS
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines) + 1)
        op = rng.randrange(6)
        if op == 0 and at < len(lines):
            del lines[at]
        elif op == 1 and at < len(lines):
            lines.insert(at, lines[at])
        elif op == 2 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        elif op in (3, 4) and at < len(lines) and lines[at].split():
            words = lines[at].split()
            if op == 3:
                del words[rng.randrange(len(words))]
            else:
                words.insert(rng.randrange(len(words) + 1), rng.choice(tokens))
            lines[at] = " ".join(words)
        else:
            # most inserted lines belong in an EVENT block
            events = [i for i, line in enumerate(lines) if line.split()[:1] == ["EVENT"]]
            if events and rng.random() < 0.75:
                at = rng.choice(events) + 1
            lines[at:at] = rng.choice(inserted)
    return "\n".join(lines) + "\n"


def test_mutated_scenarios_exit_0_1_or_2(tmp_path, capsys):
    codes = Counter()
    under_belief = 0
    for k in range(MUTANTS):
        source = SCENARIOS[k % len(SCENARIOS)]
        text = mutant(source.read_text(encoding="utf-8"), random.Random(f"mutant-{k}"))
        path = tmp_path / f"mutant{k}.scn"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, text)
            # an exit 2 says what was wrong
            assert code != 2 or err, (command, text)
            codes[code] += 1
            under_belief += "event variable under belief operator" in err
    # the edits reach both the working and the failing paths
    assert codes[0] >= MUTANTS // 4 and codes[2] >= MUTANTS, codes
    assert under_belief > 0
