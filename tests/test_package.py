"""The package namespace: what `from symdel import *` exports, and the
README's library example that uses it."""

import re
import types
from pathlib import Path

import symdel

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(symdel.__all__)) == len(symdel.__all__)
    for name in symdel.__all__:
        value = getattr(symdel, name)
        assert not isinstance(value, types.ModuleType), name


def test_readme_library_example_gives_its_commented_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    setup, checks = [], []
    for line in block.splitlines():
        m = re.fullmatch(r"(scene_eval\(.*\))\s+# (True|False)\b.*", line)
        if m:
            checks.append(m.groups())
        else:
            setup.append(line)
    namespace = {}
    exec("\n".join(setup), namespace)
    assert [value for _, value in checks] == ["True", "False", "True"]
    for expr, value in checks:
        assert eval(expr, namespace) is (value == "True"), expr
