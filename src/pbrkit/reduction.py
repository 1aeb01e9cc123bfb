"""Group reduction of many devices to an effective two-qubit problem.

Splitting n devices into two groups of n/2 turns the joint preparations
into products whose mutual overlap is cos^{n/2}(omega).  Since cos(omega)
is strictly below 1, some even n always pushes that effective overlap under
the sqrt(2)/2 feasibility boundary, at which point the two-qubit forbidden
outcome construction applies verbatim to the group states.  This module
computes that minimal even n and, for comparison, the minimal n demanded by
the original multipartite-basis route (tan(w/2) >= 2^{1/n} - 1).
"""

import math
from dataclasses import dataclass

from .errors import GridOutOfRange
from .measurement import BOUNDARY_TOL, FEASIBILITY_BOUNDARY
from .states import OverlapAngle, _as_angle


@dataclass(frozen=True)
class GroupingPlan:
    """Smallest even split of n devices with a feasible effective overlap."""

    omega: OverlapAngle
    n: int
    group_size: int
    effective_omega: OverlapAngle


def _group_condition(cos_omega: float, group_size: int) -> bool:
    return cos_omega**group_size <= FEASIBILITY_BOUNDARY + BOUNDARY_TOL


def grouping_plan(omega) -> GroupingPlan:
    """Smallest even device count n with cos^{n/2}(omega) <= sqrt(2)/2.

    The group size is seeded from the logarithmic bound and then settled by
    direct powering; boundary ties resolve inclusively within 1e-12.
    """
    omega = _as_angle(omega)
    c = omega.cos
    m = 1
    if not _group_condition(c, 1):
        m = max(1, math.ceil(math.log(FEASIBILITY_BOUNDARY) / math.log(c) - 1e-9))
        while not _group_condition(c, m):
            m += 1
        while m > 1 and _group_condition(c, m - 1):
            m -= 1
    effective = OverlapAngle(math.acos(c**m))
    return GroupingPlan(omega=omega, n=2 * m, group_size=m, effective_omega=effective)


def _pbr_condition(tan_half: float, n: int) -> bool:
    return tan_half >= 2.0 ** (1.0 / n) - 1.0 - BOUNDARY_TOL


def min_n_pbr(omega) -> int:
    """Smallest n >= 2 with tan(omega/2) >= 2^{1/n} - 1.

    Seeded from n >= ln 2 / ln(1 + tan(omega/2)), then settled by direct
    substitution so that boundary roundoff cannot shift the answer; floors
    at 2 because the setup needs at least two devices.
    """
    omega = _as_angle(omega)
    t = math.tan(omega.half)
    n = max(2, math.ceil(math.log(2.0) / math.log1p(t) - 1e-9))
    while not _pbr_condition(t, n):
        n += 1
    while n > 2 and _pbr_condition(t, n - 1):
        n -= 1
    return n


def alt_log_bound_raw(cos_omega: float) -> float:
    """Halved logarithmic form of the alternative-route device bound.

    Returns -ln(2) / (2 ln cos(omega)) with no evenness or minimality
    enforcement.  The operative condition cos^{n/2}(omega) <= sqrt(2)/2
    needs roughly twice this value (at cos(omega) = sqrt(2)/2 this raw form
    gives 1 while the true minimal even count is 2), so the number is
    exposed only for curve comparison in the figure data.
    """
    if not (0.0 < cos_omega < 1.0):
        raise GridOutOfRange(f"cos(omega) must lie in (0, 1), got {cos_omega!r}")
    return -0.5 * math.log(2.0) / math.log(cos_omega)
