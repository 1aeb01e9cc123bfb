"""Group reduction of many devices to an effective two-qubit problem.

Splitting n devices into two groups of n/2 turns the joint preparations
into products whose mutual overlap is cos^{n/2}(omega).  Since cos(omega)
is strictly below 1, some even n always pushes that effective overlap under
the sqrt(2)/2 feasibility boundary, at which point the two-qubit forbidden
outcome construction applies verbatim to the group states.  This module
computes that minimal even n and, for comparison, the minimal n demanded by
the original multipartite-basis route (tan(w/2) >= 2^{1/n} - 1).

Both counts are ceilings of closed forms, exact for the double c = cos(omega):

    m = n/2 = ceil(ln 2 / (-2 ln c)),    n_pbr = ceil(ln 2 / ln(1 + tan(omega/2))).

Within the boundary, by the inclusive ``within_boundary`` that the solve
uses, m = 1 and n_pbr = 2.  Past it, where c - 1 is exact, a quotient in
floats lies a few ulps from the real one; where it comes within 1e-13 x of
an integer, its ceiling is taken again in ``decimal`` at 50 digits from the
exact Decimal(c).
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import ToolkitError
from .measurement import within_boundary
from .states import OverlapAngle

_LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class GroupingPlan:
    """Smallest even split of n devices with a feasible effective overlap."""

    n: int
    group_size: int
    effective_omega: OverlapAngle


def _near_integer(x):
    """Whether a float quotient x, or each of an array's, is within 1e-13 x of an integer."""
    return abs((x + 0.5) % 1.0 - 0.5) <= 1e-13 * x


def _ceiling(x: float, c: float, pbr: bool) -> int:
    """ceil(x) of a count's float quotient x at cosine c; near an integer,
    the count from ``decimal`` at 50 digits (n_pbr if ``pbr``, else m)."""
    if not _near_integer(x):
        return math.ceil(x)
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(c)
        log = (1 + ((1 - d) / (1 + d)).sqrt()).ln() if pbr else -2 * d.ln()
        return math.ceil(Decimal(2).ln() / log)


def grouping_plan(omega: OverlapAngle) -> GroupingPlan:
    """Smallest even device count n = 2m with cos^m(omega) <= sqrt(2)/2.

    m is 1 within the boundary and ceil(ln 2 / (-2 ln cos(omega))) past it.
    """
    c = omega.cos
    m = 1 if within_boundary(c) else _ceiling(-0.5 * _LOG_2 / math.log(c), c, pbr=False)
    return GroupingPlan(n=2 * m, group_size=m, effective_omega=OverlapAngle(cos=c**m))


def min_n_pbr(omega: OverlapAngle) -> int:
    """Smallest n >= 2 with tan(omega/2) >= 2^{1/n} - 1.

    n is 2 within the boundary and ceil(ln 2 / ln(1 + tan(omega/2))) past it.
    """
    c = omega.cos
    return 2 if within_boundary(c) else _ceiling(_LOG_2 / math.log1p(omega.tan_half), c, pbr=True)


def device_counts(cos_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``min_n_pbr``, ``grouping_plan(...).n`` and ``alt_log_bound_raw`` at each cosine of an array.

    The closed forms are array expressions here, and the group size's quotient
    is the raw bound itself.  A row where either quotient is too near an
    integer takes both counts from ``_ceiling``, as the one-overlap functions
    do, so each element equals the one-overlap count.
    """
    c = np.asarray(cos_omega, dtype=float)
    raw = alt_log_bound_raw(c)
    outside = ~within_boundary(c)
    x_pbr = _LOG_2 / np.log1p(np.sqrt((1.0 - c) / (1.0 + c)))
    n_pbr = np.where(outside, np.ceil(x_pbr), 2).astype(np.int64)
    n = np.where(outside, 2 * np.ceil(raw), 2).astype(np.int64)
    for i in np.flatnonzero(outside & (_near_integer(x_pbr) | _near_integer(raw))).tolist():
        n_pbr[i] = _ceiling(x_pbr[i], c[i], pbr=True)
        n[i] = 2 * _ceiling(raw[i], c[i], pbr=False)
    return n_pbr, n, raw


def alt_log_bound_raw(cos_omega):
    """Halved logarithmic form of the alternative-route device bound.

    Returns -ln(2) / (2 ln cos(omega)) with no evenness or minimality
    enforcement, as a float for a float and as an array for an array.  It is
    the group size's quotient: past the boundary the minimal even count is
    2 ceil of this value, taken in ``decimal`` where it is near an integer.
    """
    c = np.asarray(cos_omega, dtype=float)
    ok = (0.0 < c) & (c < 1.0)
    if not ok.all():
        raise ToolkitError(f"cos(omega) must lie in (0, 1), got {float(c[~ok].flat[0])!r}")
    # libm's log, element by element, not np.log: on an AVX-512 x86-64 host
    # with numpy 2.4.6, np.log differed from math.log in the last bit at
    # 15,390 of the 5,020,100 points of the fig2 grids at R = 200, 10^6 and
    # 20000..20199, and the CSV prints all 17 digits.
    log_c = np.fromiter(map(math.log, c.ravel().tolist()), float, c.size).reshape(c.shape)
    raw = -0.5 * _LOG_2 / log_c
    return raw if c.ndim else float(raw)
