"""Tests for the grouping plan and the two minimal-device-count bounds."""

import math
import time

import numpy as np
import pytest

from _reference import group_size_minimal, make_pair, near_integer_cos, pbr_count_minimal, product_state
from pbrkit import (
    FEASIBILITY_BOUNDARY,
    OverlapAngle,
    ToolkitError,
    alt_log_bound_raw,
    grouping_plan,
    min_n_pbr,
    reduce_pair,
    solve_measurement,
    within_boundary,
)
from pbrkit.reduction import _LOG_2, _near_integer, device_counts

ROOT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "cos_omega,n",
    [(0.3, 2), (0.5, 2), (ROOT2 / 2, 2), (0.72, 4), (0.75, 4), (0.8, 4), (0.9, 8), (0.95, 14), (0.99, 70)],
)
def test_grouping_plan_values(cos_omega, n):
    plan = grouping_plan(OverlapAngle(cos=cos_omega))
    assert plan.n == n
    assert plan.group_size == n // 2


def test_grouping_plan_invariants():
    for c in np.linspace(0.01, 0.995, 150):
        plan = grouping_plan(OverlapAngle(cos=float(c)))
        m = plan.group_size
        assert plan.n == 2 * m and plan.n >= 2
        # feasible at the chosen size, infeasible one group member earlier
        assert c**m <= FEASIBILITY_BOUNDARY + 1e-12
        if m > 1:
            assert c ** (m - 1) > FEASIBILITY_BOUNDARY
        assert plan.effective_omega.cos == pytest.approx(c**m, abs=1e-12)


@pytest.mark.parametrize(
    "cos_omega,n",
    [(0.3, 2), (0.5, 2), (ROOT2 / 2, 2), (0.72, 3), (0.75, 3), (0.8, 3), (0.9, 4), (0.95, 5), (0.99, 11)],
)
def test_min_n_pbr_values(cos_omega, n):
    assert min_n_pbr(OverlapAngle(cos=cos_omega)) == n


def test_min_n_pbr_boundary_exact():
    # tan(omega/2) = sqrt(2) - 1 meets the n = 2 condition with equality
    assert min_n_pbr(OverlapAngle(cos=ROOT2 / 2)) == 2


def test_min_n_pbr_minimality():
    for c in np.linspace(0.01, 0.995, 150).tolist():
        n = min_n_pbr(OverlapAngle(cos=c))
        assert (n == 2) if within_boundary(c) else pbr_count_minimal(c, n)


def test_min_n_pbr_tiny_angle_returns_quickly():
    # the least tan(omega/2) an overlap holds: 2^-27, at cos(omega) = 1 - 2^-53
    c = math.nextafter(1.0, 0.0)
    start = time.perf_counter()
    n = min_n_pbr(OverlapAngle(cos=c))
    assert time.perf_counter() - start < 1.0
    assert pbr_count_minimal(c, n)


def test_effective_pair_two_devices_is_identity():
    # one device per group leaves the overlap as it is
    plan = grouping_plan(OverlapAngle(cos=math.cos(0.9272952180016122)))
    assert plan.n == 2
    assert plan.effective_omega.omega == pytest.approx(0.9272952180016122, abs=1e-12)


def test_effective_pair_sixteen_dim_case():
    # two groups of four: the 16-dim group states reduce to overlap 0.9^4
    base = make_pair(OverlapAngle(cos=0.9))
    pair = reduce_pair(product_state(base.psi, 4), product_state(base.phi, 4))
    assert pair.omega.cos == pytest.approx(0.6561, abs=1e-12)


def test_effective_pair_explicit_overlap_matches():
    omega = OverlapAngle(cos=0.9)
    plan = grouping_plan(omega)
    assert plan.n == 8
    base = make_pair(omega)
    explicit = np.vdot(product_state(base.psi, 4), product_state(base.phi, 4))
    assert abs(explicit - plan.effective_omega.cos) <= 1e-10


def test_effective_pair_feasible_at_plan_n():
    for c in (0.75, 0.9, 0.97):
        assert solve_measurement(grouping_plan(OverlapAngle(cos=c)).effective_omega) is not None


def test_comparison_table_values():
    # the fig2 device counts (n_pbr, n_alt) at two overlaps
    for c, counts in ((0.3, (2, 2)), (0.9, (4, 8))):
        omega = OverlapAngle(cos=c)
        assert (min_n_pbr(omega), grouping_plan(omega).n) == counts


def test_comparison_table_dominance():
    for c in np.linspace(0.01, 0.99, 200):
        omega = OverlapAngle(cos=float(c))
        n_pbr, n_alt = min_n_pbr(omega), grouping_plan(omega).n
        assert n_alt >= n_pbr
        if c <= FEASIBILITY_BOUNDARY:
            assert n_pbr == 2 and n_alt == 2


def test_alt_log_bound_raw_is_half_the_operative_count():
    # the halved logarithmic form reads 1 at the boundary where the true
    # minimal even count is 2
    assert alt_log_bound_raw(ROOT2 / 2) == pytest.approx(1.0, abs=1e-12)
    assert grouping_plan(OverlapAngle(cos=ROOT2 / 2)).n == 2


def test_alt_log_bound_raw_validates_range():
    with pytest.raises(ToolkitError, match=r"cos\(omega\) must lie in \(0, 1\), got 1.0"):
        alt_log_bound_raw(1.0)
    with pytest.raises(ToolkitError, match=r"cos\(omega\) must lie in \(0, 1\), got 0.0"):
        alt_log_bound_raw(0.0)


def test_scalar_counts_are_python_ints():
    # report --json hands n to json.dumps, which rejects numpy integers
    omega = OverlapAngle(cos=0.9)
    plan = grouping_plan(omega)
    assert type(plan.n) is int and type(plan.group_size) is int
    assert type(min_n_pbr(omega)) is int
    assert type(alt_log_bound_raw(0.5)) is float


def test_array_counts_match_one_overlap_calls():
    c = np.linspace(0.01, 0.99, 97)
    assert alt_log_bound_raw(c).tolist() == [alt_log_bound_raw(float(x)) for x in c]


def test_device_counts_equal_one_overlap_counts_where_guarded():
    # at each of these cosines a count's float quotient is too near an
    # integer to trust its ceiling, so the row goes through the decimal count
    cosines = near_integer_cos()
    for c in cosines:
        x_group = -0.5 * _LOG_2 / math.log(c)
        x_pbr = _LOG_2 / math.log1p(OverlapAngle(cos=c).tan_half)
        assert _near_integer(x_group) or _near_integer(x_pbr)
    n_pbr, n, raw = device_counts(np.array(cosines))
    assert n_pbr.tolist() == [min_n_pbr(OverlapAngle(cos=c)) for c in cosines]
    assert n.tolist() == [grouping_plan(OverlapAngle(cos=c)).n for c in cosines]
    assert raw.tolist() == [alt_log_bound_raw(c) for c in cosines]


def test_alt_log_bound_raw_is_libm_log_per_element():
    # the figure CSV prints all 17 digits, and np.log can differ from libm's
    # log in the last bit; the array keeps the grid's shape
    grid = np.linspace(0.01, 0.99, 20000)
    expected = [-0.5 * math.log(2.0) / math.log(x) for x in grid.tolist()]
    assert alt_log_bound_raw(grid).tolist() == expected
    assert alt_log_bound_raw(grid.reshape(100, 200)).ravel().tolist() == expected


def test_grouping_plan_rejects_angle_with_unit_cosine():
    # no group size exists at cos(omega) = 1, where ln cos(omega) = 0; the
    # overlap refuses it, and one ulp below 1 the group size is exact
    with pytest.raises(ToolkitError, match=r"cos\(omega\) must lie in \[0, 1\), got 1.0"):
        grouping_plan(OverlapAngle(cos=1.0))
    c = math.nextafter(1.0, 0.0)
    assert group_size_minimal(c, grouping_plan(OverlapAngle(cos=c)).group_size)


def test_min_n_pbr_rejects_angle_with_zero_half():
    # tan(omega/2) = 0 needs cos(omega) = 1, which the overlap refuses; one
    # ulp below 1 it is 2^-27, not 0
    with pytest.raises(ToolkitError, match=r"cos\(omega\) must lie in \[0, 1\), got 1.0"):
        min_n_pbr(OverlapAngle(cos=1.0))
    assert OverlapAngle(cos=math.nextafter(1.0, 0.0)).tan_half == 2.0**-27


def test_alt_log_bound_raw_validates_arrays():
    with pytest.raises(ToolkitError, match=r"cos\(omega\) must lie in \(0, 1\), got nan"):
        alt_log_bound_raw(np.array([0.5, math.nan]))
