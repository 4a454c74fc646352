"""Layer tracing from outside the program: wrap public functions, record spans.

Each wrapped call records a span (name, start, end, parent) in flat
arrays that stay in memory until the run ends.  A function that is
already active is called through without a new span, so a recursive
function such as `Translator.fn` counts its outermost calls only.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (layer, module, attribute); "Class.method" patches the class.
TRACED = [
    ("boolfun", "symdel.boolfun", "Engine.combine"),
    ("boolfun", "symdel.boolfun", "Engine.rename"),
    ("boolfun", "symdel.boolfun", "Engine.compose_many"),
    ("boolfun", "symdel.boolfun", "Engine.forall"),
    ("boolfun", "symdel.boolfun", "Engine.exists"),
    ("boolfun", "symdel.boolfun", "Engine.restrict"),
    ("boolfun", "symdel.boolfun", "Engine.entails"),
    ("boolfun", "symdel.boolfun", "Engine.support"),
    ("boolfun", "symdel.boolfun", "Engine.holds"),
    ("boolfun", "symdel.boolfun", "Engine.sat_assignments"),
    ("boolfun", "symdel.boolfun", "Engine.cubes"),
    ("language", "symdel.language", "parse"),
    ("language", "symdel.language", "compile_formula"),
    ("language", "symdel.language", "recover_formula"),
    ("language", "symdel.language", "format_formula"),
    ("language", "symdel.language", "substitute"),
    ("symbolic", "symdel.symbolic", "Translator.fn"),
    ("symbolic", "symdel.symbolic", "transform_with_copies"),
    ("symbolic", "symdel.symbolic", "apply_event"),
    ("symbolic", "symdel.symbolic", "shrink"),
    ("symbolic", "symdel.symbolic", "minimize"),
    ("symbolic", "symdel.symbolic", "scene_eval"),
    ("explicit", "symdel.explicit", "product_update"),
    ("explicit", "symdel.explicit", "model_of_structure"),
    ("explicit", "symdel.explicit", "structure_of_model"),
    ("explicit", "symdel.explicit", "GlobalEvaluator.satisfies"),
    ("bridge", "symdel.bridge", "act"),
    ("bridge", "symdel.bridge", "trf_with_labels"),
    ("bridge", "symdel.bridge", "check_morphism"),
    ("bridge", "symdel.bridge", "check_part_i"),
    ("bridge", "symdel.bridge", "check_part_ii"),
    ("bridge", "symdel.bridge", "check_roundtrip"),
    ("bridge", "symdel.bridge", "generate_scene_event"),
    ("bridge", "symdel.bridge", "generate_model_action"),
    ("scenario", "symdel.scenario", "load_scenario"),
    ("scenario", "symdel.scenario", "build_scene"),
    ("scenario", "symdel.scenario", "build_event"),
    ("cli", "symdel.cli", "run_check"),
]

# (name, unit, summed): summed counters are reported per round like the
# spans; the others are maxima over the whole traced stretch.
COUNTERS = [
    ("boolfun.engines", "count/round", True),
    ("symbolic.law_nodes_max", "nodes", False),
    ("explicit.product_worlds", "worlds/round", True),
]


def _span_name(layer, attr):
    # Engine methods are named by the operation alone: boolfun.rename.
    return f"{layer}.{attr.removeprefix('Engine.')}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for layer, _, attr in TRACED:
        names.append((f"{_span_name(layer, attr)}.calls", "count/round"))
        names.append((f"{_span_name(layer, attr)}.self_s", "s/round"))
    return names + [(name, unit) for name, unit, _ in COUNTERS]


class Tracer:
    def __init__(self, law_nodes):
        self._law_nodes = law_nodes
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # time spent in the tracer's own node counting, taken out of the parent
        self.excluded = array("d")
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        active = self._active
        active[nid] = 0
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.excluded.append(0.0)
            stack.append(index)
            active[nid] = 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                active[nid] = 0
                stack.pop()
            if after is not None:
                after(result)
                if stack:
                    self.excluded[stack[-1]] += clock() - self.end[index]
            return result

        return traced

    def _law_seen(self, law):
        nodes = self._law_nodes(law)
        if nodes > self.counters["symbolic.law_nodes_max"]:
            self.counters["symbolic.law_nodes_max"] = nodes

    def _after(self, attr):
        if attr == "apply_event":
            return lambda scene: self._law_seen(scene.structure.law)
        if attr == "transform_with_copies":
            return lambda pair: self._law_seen(pair[0].law)
        if attr == "product_update":
            return lambda model: self._count("explicit.product_worlds", len(model.worlds))
        return None

    def _count(self, name, amount):
        self.counters[name] += amount

    # -- patching --------------------------------------------------------------

    def install(self, extra_modules=()):
        """Patch every traced function wherever a symdel module or one of
        `extra_modules` holds a reference to it."""
        holders = [m for n, m in sys.modules.items() if n == "symdel" or n.startswith("symdel.")]
        holders += list(extra_modules)
        for layer, module_name, attr in TRACED:
            module = sys.modules[module_name]
            name = _span_name(layer, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, self._after(attr))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)
        engine_cls = sys.modules["symdel.boolfun"].Engine
        original_init = engine_cls.__init__

        def counted_init(engine, *args, **kwargs):
            self.counters["boolfun.engines"] += 1
            original_init(engine, *args, **kwargs)

        self._set(engine_cls, "__init__", counted_init)

    def _set(self, holder, key, value):
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Calls and self seconds per traced function, plus the counters.

        Sums are divided by the `rounds` the tracer saw, so that they are
        the program's work per round, not the number of rounds that fit.
        """
        count = len(self.start)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = self.name_of[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - child[i] - self.excluded[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / rounds
            out[f"{name}.self_s"] = self_s[nid] / rounds
        for name, _, summed in COUNTERS:
            out[name] = self.counters[name] / rounds if summed else self.counters[name]
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV: name, start, end, parent row (-1 for none)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )
