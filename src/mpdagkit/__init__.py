"""Causal reasoning on maximally oriented partially directed acyclic graphs."""

from .adjustment import (
    AdjustmentVerdict,
    ConditionCheck,
    ForbiddenSet,
    adjust_set,
    check_b_blocking,
    d_separated,
    forbidden_set,
    is_amenable,
    list_adjustment_sets,
    satisfies_b_adjustment,
)
from .causal_paths import ReachSet, b_possible_ancestors, b_possible_descendants
from .extension import DagList, consistent_extension, enumerate_dags, represents
from .ida import (
    EffectMultiset,
    ParentSetFamily,
    ida_effects,
    joint_ida_effects,
    possible_parent_sets,
)
from .meek import (
    BackgroundKnowledge,
    OrientationConflictError,
    OrientationOutcome,
    ValidationReport,
    close_orientations,
    construct_max_pdag,
    cpdag_of,
    parse_background,
    validate_maximal_pdag,
)
from .pdag_core import (
    GraphParseError,
    PdagGraph,
    QueryError,
    has_directed_cycle,
    parse_graph,
    serialize_graph,
)
from .reference import (
    B_NON_CAUSAL,
    B_POSSIBLY_CAUSAL,
    PathClassification,
    b_blocking_by_enumeration,
    classify_definite_status,
    classify_path,
    oracle_reach,
)
from .sem_sim import (
    SemModel,
    SimConfig,
    SimRow,
    add_background_fraction,
    choose_xy,
    random_dag,
    run_simulation,
    sample_data,
    true_total_effect,
)

__version__ = "0.1.0"
