"""Numerical toolkit for the forbidden-outcome incompatibility construction.

Given two single-device preparations with overlap cos(omega), the package
builds the joint four-outcome measurement whose outcome j has probability
zero under joint preparation j, solves the phase pair that makes that
possible, maps overlaps beyond the feasibility boundary onto an effective
two-group problem, and samples the resulting statistics.
"""

from .errors import DegeneratePair, ToolkitError
from .experiment import (
    MAX_TRIALS,
    PROB_FLOOR,
    contradiction_report,
    render_report,
    sample_outcomes,
)
from .linalg import TOL_NORM
from .measurement import (
    BOUNDARY_TOL,
    FEASIBILITY_BOUNDARY,
    build_C,
    build_M,
    cos_beta_raw,
    diagonal_residual,
    outcome_matrix,
    solve_measurement,
    within_boundary,
)
from .reduction import GroupingPlan, alt_log_bound_raw, grouping_plan, min_n_pbr
from .states import (
    DEGENERACY_THRESHOLD,
    OverlapAngle,
    SymmetricPair,
    reduce_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "DegeneratePair",
    "DEGENERACY_THRESHOLD",
    "FEASIBILITY_BOUNDARY",
    "GroupingPlan",
    "MAX_TRIALS",
    "OverlapAngle",
    "PROB_FLOOR",
    "SymmetricPair",
    "ToolkitError",
    "TOL_NORM",
    "alt_log_bound_raw",
    "build_C",
    "build_M",
    "contradiction_report",
    "cos_beta_raw",
    "diagonal_residual",
    "grouping_plan",
    "min_n_pbr",
    "outcome_matrix",
    "reduce_pair",
    "render_report",
    "sample_outcomes",
    "solve_measurement",
    "within_boundary",
    "__version__",
]
