"""Symbolic model checking for multi-agent belief change with factual updates.

Belief structures represent epistemic models as boolean functions over
a vocabulary and its primed copy; events update them symbolically, and
an explicit Kripke pipeline provides the same semantics for
cross-checking.
"""

from .boolfun import BoolFn, Engine, VarId
from .bridge import (
    Bounds,
    act,
    check_morphism,
    check_part_i,
    check_part_ii,
    check_roundtrip,
    formula_family,
    generate_model_action,
    generate_scene,
    generate_scene_event,
    run_suite,
    trf_with_labels,
)
from .errors import (
    CompileError,
    EvalError,
    NotDetermined,
    NotExecutable,
    ParseError,
    SymdelError,
    VocabularyError,
)
from .explicit import (
    ActionModel,
    GlobalEvaluator,
    KripkeModel,
    PointedModel,
    format_model,
    model_of_structure,
    product_update,
    structure_of_model,
)
from .language import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Box,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    atoms_of,
    compile_formula,
    format_formula,
    parse,
    recover_formula,
    subset_formula,
    substitute,
)
from .scenario import (
    Scenario,
    build_action,
    build_event,
    build_scene,
    format_action_block,
    format_event_block,
    load_scenario,
    parse_scenario,
    run_events,
)
from .symbolic import (
    BeliefStructure,
    Event,
    Scene,
    Transformer,
    Update,
    apply_event,
    compile_event_law,
    minimize,
    scene_eval,
    shrink,
    shrink_scene,
    transform_with_copies,
)

__all__ = [
    # boolfun
    "BoolFn", "Engine", "VarId",
    # bridge
    "Bounds", "act", "check_morphism", "check_part_i",
    "check_part_ii", "check_roundtrip", "formula_family",
    "generate_model_action", "generate_scene", "generate_scene_event",
    "run_suite", "trf_with_labels",
    # errors
    "CompileError", "EvalError", "NotDetermined", "NotExecutable",
    "ParseError", "SymdelError", "VocabularyError",
    # explicit
    "ActionModel", "GlobalEvaluator", "KripkeModel", "PointedModel",
    "format_model", "model_of_structure", "product_update",
    "structure_of_model",
    # language
    "BOT", "TOP", "And", "Atom", "Bot", "Box", "Formula", "Iff", "Implies",
    "Not", "Or", "Top", "atoms_of", "compile_formula", "format_formula",
    "parse", "recover_formula", "subset_formula", "substitute",
    # scenario
    "Scenario", "build_action", "build_event", "build_scene",
    "format_action_block", "format_event_block", "load_scenario",
    "parse_scenario", "run_events",
    # symbolic
    "BeliefStructure", "Event", "Scene", "Transformer", "Update",
    "apply_event", "compile_event_law",
    "minimize", "scene_eval", "shrink", "shrink_scene",
    "transform_with_copies",
]
