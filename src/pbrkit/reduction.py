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
from functools import partial

import numpy as np

from .errors import AngleOutOfRange, GridOutOfRange
from .linalg import elementwise
from .measurement import BOUNDARY_TOL, FEASIBILITY_BOUNDARY, within_boundary
from .states import OverlapAngle, _as_angle

# The counts are seeded from logarithmic bounds with the boundary tolerance
# folded in, so the settle moves a seed by one step at most in practice,
# even for overlaps a few doubles below 1.
_LOG_GROUP_BOUND = math.log(FEASIBILITY_BOUNDARY + BOUNDARY_TOL)
_LOG_2 = math.log(2.0)
_pow2 = partial(math.pow, 2.0)


@dataclass(frozen=True)
class GroupingPlan:
    """Smallest even split of n devices with a feasible effective overlap."""

    n: int
    group_size: int
    effective_omega: OverlapAngle


def _require_range(values: np.ndarray, ok: np.ndarray, message: str, error) -> None:
    if not ok.all():
        raise error(f"{message}, got {float(values[~ok].flat[0])!r}")


def _probe(holds, x: np.ndarray, i: np.ndarray, probe: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Test ``probe`` at the counts ``i``: it becomes ``hi`` where the condition holds, ``lo`` where not."""
    ok = holds(x[i], probe)
    hi[i[ok]] = probe[ok]
    lo[i[~ok]] = probe[~ok]
    return ok


def _settle(holds, x: np.ndarray, counts: np.ndarray, floor: int) -> np.ndarray:
    """Smallest counts with ``holds(x, counts)``, settled from a seed by direct substitution.

    A seed where the condition fails gallops up (strides 1, 2, 4, ...) until
    it holds; a seed where it still holds one lower gallops down the same way,
    no lower than ``floor``.  Bisection then narrows each bracket until the
    count holds and the count below it fails (or is under ``floor``), so
    roundoff in the seed cannot shift the answer, and a flat stretch of the
    computed condition costs a logarithmic number of tests, not one per
    count.  A seed that holds above a count that fails costs two tests.  Only
    the counts still moving are tested again; they gallop in step, so one
    stride serves them all.
    """
    held = holds(x, counts)
    hi = counts.copy()  # holds, once found
    lo = np.where(held, floor - 1, counts)  # fails, or is under the floor
    i, stride = (~held).nonzero()[0], 1
    while i.size:
        ok = _probe(holds, x, i, lo[i] + stride, lo, hi)
        i, stride = i[~ok], 2 * stride
    i, stride = (held & (counts > floor)).nonzero()[0], 1
    while i.size:
        probe = np.maximum(hi[i] - stride, floor)
        ok = _probe(holds, x, i, probe, lo, hi)
        i, stride = i[ok & (probe > floor)], 2 * stride
    i = (hi - lo > 1).nonzero()[0]
    while i.size:
        _probe(holds, x, i, lo[i] + (hi[i] - lo[i]) // 2, lo, hi)
        i = i[hi[i] - lo[i] > 1]
    return hi


def _group_condition(cos_omega: np.ndarray, group_size: np.ndarray) -> np.ndarray:
    return within_boundary(elementwise(math.pow, cos_omega, group_size))


def group_sizes(cos_omega) -> np.ndarray:
    """Smallest group size m >= 1 with cos^m(omega) <= sqrt(2)/2, per element.

    ``cos_omega`` is a 1-d array of overlaps in [0, 1).  Within the boundary
    m is 1; past it m is seeded from the logarithmic bound and then settled
    by direct powering.  Boundary ties resolve inclusively within 1e-12.
    """
    c = np.asarray(cos_omega, dtype=float)
    _require_range(c, (0.0 <= c) & (c < 1.0), "cos(omega) must lie in [0, 1)", AngleOutOfRange)
    m = np.ones(c.shape, dtype=np.int64)
    far = ~within_boundary(c)
    if not far.any():
        return m
    seed = np.ceil(_LOG_GROUP_BOUND / elementwise(math.log, c[far]) - 1e-9).astype(np.int64)
    m[far] = _settle(_group_condition, c[far], seed, floor=1)
    return m


def grouping_plan(omega) -> GroupingPlan:
    """Smallest even device count n = 2m with cos^m(omega) <= sqrt(2)/2.

    :func:`group_sizes` at one overlap.
    """
    c = _as_angle(omega).cos
    m = int(group_sizes([c])[0])
    return GroupingPlan(n=2 * m, group_size=m, effective_omega=OverlapAngle(math.acos(c**m)))


def _pbr_condition(tan_half: np.ndarray, n: np.ndarray) -> np.ndarray:
    return tan_half >= elementwise(_pow2, 1.0 / n) - 1.0 - BOUNDARY_TOL


def pbr_counts(tan_half) -> np.ndarray:
    """Smallest n >= 2 with tan(omega/2) >= 2^{1/n} - 1, per element.

    ``tan_half`` is a 1-d array of tan(omega/2) values in (0, 1].  Seeded
    from n >= ln 2 / ln(1 + tan(omega/2) + 1e-12), then settled by direct
    substitution so that boundary roundoff cannot shift the answer; floors
    at 2 because the setup needs at least two devices.
    """
    t = np.asarray(tan_half, dtype=float)
    _require_range(t, (0.0 < t) & (t <= 1.0), "tan(omega/2) must lie in (0, 1]", AngleOutOfRange)
    seed = np.ceil(_LOG_2 / elementwise(math.log1p, t + BOUNDARY_TOL) - 1e-9)
    return _settle(_pbr_condition, t, np.maximum(2, seed).astype(np.int64), floor=2)


def min_n_pbr(omega) -> int:
    """Smallest n >= 2 with tan(omega/2) >= 2^{1/n} - 1: :func:`pbr_counts` at one overlap."""
    return int(pbr_counts([math.tan(_as_angle(omega).half)])[0])


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
    _require_range(c, (0.0 < c) & (c < 1.0), "cos(omega) must lie in (0, 1)", GridOutOfRange)
    raw = -0.5 * _LOG_2 / elementwise(math.log, c)
    return raw if c.ndim else float(raw)
