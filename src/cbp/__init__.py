"""Bin packing with conflict graphs: solvers, oracles, benchmark harness."""

from .bis import BisProblem, bis_fptas_split, bis_ptas, knapsack_fptas
from .bpc import (
    AssignConfig,
    abs_bpb,
    approx_bpc,
    assign,
    color_sets,
    matching_pack,
    max_solve,
    multipartite_pack,
    round_assignment,
    split_approx,
)
from .errors import CapabilityError, ParameterError, SolverError
from .graphs import (
    GraphClassInfo,
    Matching,
    maximum_matching_general,
    minimum_coloring,
    recognize,
    restrict_class_info,
)
from .harness import GeneratorSpec, RunReport, RunRow, generate, generate_b3dm, run_suite
from .maxsize import MaxSizeConfig, MaxSizeResult, max_size, round_config_lp, solve_config_lp
from .model import (
    ConflictInstance,
    ItemClasses,
    Packing,
    ValidationReport,
    classify_items,
    restrict_instance,
    validate_packing,
)
from .oracle import opt_bpc_exact
from .packing_classic import asymptotic_bp, ffd

__all__ = [
    "AssignConfig",
    "BisProblem",
    "CapabilityError",
    "ConflictInstance",
    "GeneratorSpec",
    "GraphClassInfo",
    "ItemClasses",
    "Matching",
    "MaxSizeConfig",
    "MaxSizeResult",
    "Packing",
    "ParameterError",
    "RunReport",
    "RunRow",
    "SolverError",
    "ValidationReport",
    "abs_bpb",
    "approx_bpc",
    "assign",
    "asymptotic_bp",
    "bis_fptas_split",
    "bis_ptas",
    "classify_items",
    "color_sets",
    "ffd",
    "generate",
    "generate_b3dm",
    "knapsack_fptas",
    "matching_pack",
    "max_size",
    "max_solve",
    "maximum_matching_general",
    "minimum_coloring",
    "multipartite_pack",
    "opt_bpc_exact",
    "recognize",
    "restrict_class_info",
    "restrict_instance",
    "round_assignment",
    "round_config_lp",
    "run_suite",
    "solve_config_lp",
    "split_approx",
    "validate_packing",
]
__version__ = "0.1.0"
