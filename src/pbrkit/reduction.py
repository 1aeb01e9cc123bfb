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

import numpy as np

from .errors import GridOutOfRange
from .measurement import BOUNDARY_TOL, FEASIBILITY_BOUNDARY, within_boundary
from .states import OverlapAngle

# The counts are seeded from logarithmic bounds with the boundary tolerance
# folded in, so the settle moves a seed by one step at most in practice,
# even for overlaps a few doubles below 1.
_LOG_GROUP_BOUND = math.log(FEASIBILITY_BOUNDARY + BOUNDARY_TOL)
_LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class GroupingPlan:
    """Smallest even split of n devices with a feasible effective overlap."""

    n: int
    group_size: int
    effective_omega: OverlapAngle


def _settle(holds, seed: int, floor: int) -> int:
    """Smallest count with ``holds(count)``, settled from a seed by direct substitution.

    A seed where the condition fails gallops up (strides 1, 2, 4, ...) until
    it holds; a seed where it still holds one lower gallops down the same way,
    no lower than ``floor``.  Bisection then narrows the bracket until the
    count holds and the count below it fails (or is under ``floor``), so
    roundoff in the seed cannot shift the answer, and a flat stretch of the
    computed condition costs a logarithmic number of tests, not one per
    count.  A seed that holds above a count that fails costs two tests.
    """
    stride = 1
    if holds(seed):
        lo, hi = floor - 1, seed  # lo fails or is under the floor; hi holds
        while hi > floor:
            probe = max(hi - stride, floor)
            if not holds(probe):
                lo = probe
                break
            hi, stride = probe, 2 * stride
    else:
        lo = seed
        while not holds(lo + stride):
            lo, stride = lo + stride, 2 * stride
        hi = lo + stride
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def grouping_plan(omega: OverlapAngle) -> GroupingPlan:
    """Smallest even device count n = 2m with cos^m(omega) <= sqrt(2)/2.

    Within the boundary m is 1; past it m is seeded from the logarithmic
    bound and then settled by direct powering.  Boundary ties resolve
    inclusively within 1e-12.
    """
    c = omega.cos
    m = 1
    if not within_boundary(c):
        seed = math.ceil(_LOG_GROUP_BOUND / math.log(c) - 1e-9)
        m = _settle(lambda k: within_boundary(math.pow(c, k)), seed, floor=1)
    return GroupingPlan(n=2 * m, group_size=m, effective_omega=OverlapAngle(cos=c**m))


def min_n_pbr(omega: OverlapAngle) -> int:
    """Smallest n >= 2 with tan(omega/2) >= 2^{1/n} - 1.

    Seeded from n >= ln 2 / ln(1 + tan(omega/2) + 1e-12), then settled by
    direct substitution so that boundary roundoff cannot shift the answer;
    floors at 2 because the setup needs at least two devices.
    """
    t = omega.tan_half
    seed = max(2, math.ceil(_LOG_2 / math.log1p(t + BOUNDARY_TOL) - 1e-9))
    return _settle(lambda n: t >= math.pow(2.0, 1.0 / n) - 1.0 - BOUNDARY_TOL, seed, floor=2)


def alt_log_bound_raw(cos_omega):
    """Halved logarithmic form of the alternative-route device bound.

    Returns -ln(2) / (2 ln cos(omega)) with no evenness or minimality
    enforcement, as a float for a float and as an array for an array.  The
    operative condition cos^{n/2}(omega) <= sqrt(2)/2 needs roughly twice
    this value (at cos(omega) = sqrt(2)/2 this raw form gives 1 while the
    true minimal even count is 2), so the number is exposed only for curve
    comparison in the figure data.
    """
    c = np.asarray(cos_omega, dtype=float)
    ok = (0.0 < c) & (c < 1.0)
    if not ok.all():
        raise GridOutOfRange(f"cos(omega) must lie in (0, 1), got {float(c[~ok].flat[0])!r}")
    # libm's log, element by element, not np.log: on an AVX-512 x86-64 host
    # with numpy 2.4.6, np.log differed from math.log in the last bit at
    # 15,390 of the 5,020,100 points of the fig2 grids at R = 200, 10^6 and
    # 20000..20199, and the CSV prints all 17 digits.
    log_c = np.fromiter(map(math.log, c.ravel().tolist()), float, c.size).reshape(c.shape)
    raw = -0.5 * _LOG_2 / log_c
    return raw if c.ndim else float(raw)
