"""Numerical toolkit for the forbidden-outcome incompatibility construction.

Given two single-device preparations with overlap cos(omega), the package
builds the joint four-outcome measurement whose outcome j has probability
zero under joint preparation j, solves the phase pair that makes that
possible, maps overlaps beyond the feasibility boundary onto an effective
two-group problem, and samples the resulting statistics.
"""

from .errors import (
    AngleOutOfRange,
    BadEpsilon,
    BadPreparation,
    CopiesOutOfRange,
    DegeneratePair,
    DimMismatch,
    GridOutOfRange,
    InconsistentPhases,
    KindMismatch,
    ToolkitError,
)
from .experiment import (
    MAX_TRIALS,
    PROB_FLOOR,
    ZERO_DIAGONAL_TOL,
    ContradictionReport,
    OutcomeCounts,
    contradiction_report,
    render_report,
    report_as_dict,
    sample_outcomes,
)
from .linalg import TOL_NORM, elementwise, kron
from .measurement import (
    BOUNDARY_TOL,
    FEASIBILITY_BOUNDARY,
    MeasurementSolution,
    OutcomeMatrix,
    build_C,
    build_M,
    cos_beta_closed_form,
    cos_beta_raw,
    cos_beta_tan_form,
    diagonal_residual,
    outcome_matrix,
    solve_alpha,
    solve_beta,
    solve_measurement,
    within_boundary,
)
from .reduction import (
    GroupingPlan,
    alt_log_bound_raw,
    group_sizes,
    grouping_plan,
    min_n_pbr,
    pbr_counts,
)
from .states import (
    DEGENERACY_THRESHOLD,
    MAX_COPIES,
    OverlapAngle,
    SymmetricPair,
    make_pair,
    product_state,
    reduce_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AngleOutOfRange",
    "BadEpsilon",
    "BadPreparation",
    "BOUNDARY_TOL",
    "ContradictionReport",
    "CopiesOutOfRange",
    "DegeneratePair",
    "DEGENERACY_THRESHOLD",
    "DimMismatch",
    "FEASIBILITY_BOUNDARY",
    "GridOutOfRange",
    "GroupingPlan",
    "InconsistentPhases",
    "KindMismatch",
    "MAX_COPIES",
    "MAX_TRIALS",
    "MeasurementSolution",
    "OutcomeCounts",
    "OutcomeMatrix",
    "OverlapAngle",
    "PROB_FLOOR",
    "SymmetricPair",
    "ToolkitError",
    "TOL_NORM",
    "ZERO_DIAGONAL_TOL",
    "alt_log_bound_raw",
    "build_C",
    "build_M",
    "contradiction_report",
    "cos_beta_closed_form",
    "cos_beta_raw",
    "cos_beta_tan_form",
    "diagonal_residual",
    "elementwise",
    "group_sizes",
    "grouping_plan",
    "kron",
    "make_pair",
    "min_n_pbr",
    "outcome_matrix",
    "pbr_counts",
    "product_state",
    "reduce_pair",
    "render_report",
    "report_as_dict",
    "sample_outcomes",
    "solve_alpha",
    "solve_beta",
    "solve_measurement",
    "within_boundary",
    "__version__",
]
