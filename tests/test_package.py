"""The package namespace: what `from symdel import *` exports."""

import types

import symdel


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(symdel.__all__)) == len(symdel.__all__)
    for name in symdel.__all__:
        value = getattr(symdel, name)
        assert not isinstance(value, types.ModuleType), name
