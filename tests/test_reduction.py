"""Tests for the grouping plan and the two minimal-device-count bounds."""

import math

import numpy as np
import pytest

from pbrkit import (
    FEASIBILITY_BOUNDARY,
    AngleOutOfRange,
    GridOutOfRange,
    OverlapAngle,
    alt_log_bound_raw,
    group_sizes,
    grouping_plan,
    make_pair,
    min_n_pbr,
    pbr_counts,
    product_state,
    reduce_pair,
    solve_beta,
)

ROOT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "cos_omega,n",
    [(0.3, 2), (0.5, 2), (ROOT2 / 2, 2), (0.72, 4), (0.75, 4), (0.8, 4), (0.9, 8), (0.95, 14), (0.99, 70)],
)
def test_grouping_plan_values(cos_omega, n):
    plan = grouping_plan(OverlapAngle.from_cos(cos_omega))
    assert plan.n == n
    assert plan.group_size == n // 2


def test_grouping_plan_invariants():
    for c in np.linspace(0.01, 0.995, 150):
        plan = grouping_plan(OverlapAngle.from_cos(float(c)))
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
    assert min_n_pbr(OverlapAngle.from_cos(cos_omega)) == n


def test_min_n_pbr_boundary_exact():
    # tan(omega/2) = sqrt(2) - 1 meets the n = 2 condition with equality
    assert min_n_pbr(OverlapAngle.from_cos(ROOT2 / 2)) == 2


def test_min_n_pbr_minimality():
    for c in np.linspace(0.01, 0.995, 150):
        n = min_n_pbr(OverlapAngle.from_cos(float(c)))
        t = math.tan(OverlapAngle.from_cos(float(c)).half)
        assert t >= 2.0 ** (1.0 / n) - 1.0 - 1e-12
        if n > 2:
            assert t < 2.0 ** (1.0 / (n - 1)) - 1.0


def test_effective_pair_two_devices_is_identity():
    # one device per group leaves the overlap as it is
    plan = grouping_plan(0.9272952180016122)
    assert plan.n == 2
    assert plan.effective_omega.omega == pytest.approx(0.9272952180016122, abs=1e-12)


def test_effective_pair_sixteen_dim_case():
    # two groups of four: the 16-dim group states reduce to overlap 0.9^4
    base = make_pair(OverlapAngle.from_cos(0.9))
    pair = reduce_pair(product_state(base.psi, 4), product_state(base.phi, 4))
    assert pair.omega.cos == pytest.approx(0.6561, abs=1e-12)


def test_effective_pair_explicit_overlap_matches():
    omega = OverlapAngle.from_cos(0.9)
    plan = grouping_plan(omega)
    assert plan.n == 8
    base = make_pair(omega)
    explicit = np.vdot(product_state(base.psi, 4), product_state(base.phi, 4))
    assert abs(explicit - plan.effective_omega.cos) <= 1e-10


def test_effective_pair_feasible_at_plan_n():
    for c in (0.75, 0.9, 0.97):
        assert solve_beta(grouping_plan(OverlapAngle.from_cos(c)).effective_omega).feasible


def test_comparison_table_values():
    # the fig2 device counts (n_pbr, n_alt) at two overlaps
    for c, counts in ((0.3, (2, 2)), (0.9, (4, 8))):
        omega = OverlapAngle.from_cos(c)
        assert (min_n_pbr(omega), grouping_plan(omega).n) == counts


def test_comparison_table_dominance():
    for c in np.linspace(0.01, 0.99, 200):
        omega = OverlapAngle.from_cos(float(c))
        n_pbr, n_alt = min_n_pbr(omega), grouping_plan(omega).n
        assert n_alt >= n_pbr
        if c <= FEASIBILITY_BOUNDARY:
            assert n_pbr == 2 and n_alt == 2


def test_alt_log_bound_raw_is_half_the_operative_count():
    # the halved logarithmic form reads 1 at the boundary where the true
    # minimal even count is 2
    assert alt_log_bound_raw(ROOT2 / 2) == pytest.approx(1.0, abs=1e-12)
    assert grouping_plan(OverlapAngle.from_cos(ROOT2 / 2)).n == 2


def test_alt_log_bound_raw_validates_range():
    with pytest.raises(GridOutOfRange):
        alt_log_bound_raw(1.0)
    with pytest.raises(GridOutOfRange):
        alt_log_bound_raw(0.0)


def test_scalar_counts_are_python_ints():
    # report --json hands n to json.dumps, which rejects numpy integers
    omega = OverlapAngle.from_cos(0.9)
    plan = grouping_plan(omega)
    assert type(plan.n) is int and type(plan.group_size) is int
    assert type(min_n_pbr(omega)) is int
    assert type(alt_log_bound_raw(0.5)) is float


def test_array_counts_match_one_overlap_calls():
    c = np.linspace(0.01, 0.99, 97)
    omegas = [OverlapAngle.from_cos(float(x)) for x in c]
    cosines = np.array([omega.cos for omega in omegas])
    halves = np.array([math.tan(omega.half) for omega in omegas])
    assert (2 * group_sizes(cosines)).tolist() == [grouping_plan(omega).n for omega in omegas]
    assert pbr_counts(halves).tolist() == [min_n_pbr(omega) for omega in omegas]
    assert alt_log_bound_raw(c).tolist() == [alt_log_bound_raw(float(x)) for x in c]


@pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, math.nan, math.inf])
def test_group_sizes_reject_out_of_range(bad):
    # no group size exists at cos(omega) >= 1; the settle would never end
    with pytest.raises(AngleOutOfRange):
        group_sizes([0.5, bad])


def test_grouping_plan_rejects_angle_with_unit_cosine():
    # omega = 1e-9 is a valid angle, but cos(omega) rounds to 1
    with pytest.raises(AngleOutOfRange):
        grouping_plan(1e-9)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_pbr_counts_reject_out_of_range(bad):
    with pytest.raises(AngleOutOfRange):
        pbr_counts([0.5, bad])


def test_alt_log_bound_raw_validates_arrays():
    with pytest.raises(GridOutOfRange, match="got nan"):
        alt_log_bound_raw(np.array([0.5, math.nan]))
