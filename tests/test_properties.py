"""Property tests over the whole input domain.

These carry the correctness checks the library does not repeat at run time:
the closed half-angle forms, the zero diagonal of M C, the closed form of
that diagonal, unitarity of M, stochastic outcome columns, agreement of the
two cos(beta) forms, the tensor-square form of C, the device counts against
mpmath's ceilings of their closed forms, minimality of the device counts by
direct substitution, the tensor-power overlap law and the reduce_pair round
trip.
Every test is derandomized, so a run always draws the same examples.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import (
    ambient,
    cos_beta_tan_form,
    exact_counts,
    group_size_minimal,
    make_pair,
    near_integer_cos,
    pbr_count_minimal,
    product_state,
)
from pbrkit import (
    BOUNDARY_TOL,
    FEASIBILITY_BOUNDARY,
    PROB_FLOOR,
    OverlapAngle,
    build_C,
    build_M,
    cos_beta_raw,
    diagonal_residual,
    grouping_plan,
    min_n_pbr,
    outcome_matrix,
    reduce_pair,
    solve_measurement,
    within_boundary,
)

seeded = settings(derandomize=True, deadline=None)

feasible_cos = st.floats(0.0, FEASIBILITY_BOUNDARY)
any_cos = st.floats(0.0, 0.999999)
overlaps = st.floats(0.0, math.cos(1e-3)).map(lambda c: OverlapAngle(cos=c))
phases = st.floats(-1e3, 1e3)


def _ulps_around(x: float, k: int) -> list[float]:
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[::-1] + above[1:]


# where counts change or the figure grid ends: sqrt(2)/2 and the inclusive
# boundary sqrt(2)/2 + 1e-12 to a few ulps, 1 - 10^-k, the cosines where a
# count's quotient lies within rounding of an integer, and the grid's end rows
edge_cos = st.sampled_from(
    _ulps_around(FEASIBILITY_BOUNDARY, 4)
    + _ulps_around(FEASIBILITY_BOUNDARY + BOUNDARY_TOL, 4)
    + [1.0 - 10.0**-k for k in range(6, 16)]
    + [math.nextafter(1.0, 0.0)]
    + near_integer_cos()
    + np.linspace(0.01, 0.99, 20000)[[0, 1, -2, -1]].tolist()
)

# 1 - c log-uniform in [2^-52, 1e-6], where m runs from 3.5e5 to 1.6e15
near_one_cos = st.floats(math.log(2.0**-52), math.log(1e-6)).map(lambda u: 1.0 - math.exp(u))
fig_grid_cos = st.sampled_from(np.linspace(0.01, 0.99, 200).tolist() + np.linspace(0.01, 0.99, 20000).tolist())

# every cosine the solve accepts: [0, sqrt(2)/2], the band up to 1e-12 above
# it where cos(beta) is clamped, and the effective overlap of grouping_plan
solvable_cos = st.one_of(
    feasible_cos,
    st.floats(FEASIBILITY_BOUNDARY, FEASIBILITY_BOUNDARY + BOUNDARY_TOL, exclude_min=True),
    st.one_of(edge_cos, any_cos).map(lambda c: grouping_plan(OverlapAngle(cos=c)).effective_omega.cos),
)


def _within_one_ulp(got: float, exact: Decimal) -> bool:
    """``got`` is the correctly rounded ``exact`` or one of its two neighbours."""
    nearest = float(exact)
    return abs(got - nearest) <= math.ulp(nearest)


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([1.0 - 2.0**-k for k in range(1, 54)] + [1.0 - 10.0**-k for k in range(1, 17)]),
))
def test_half_angles_within_one_ulp(c):
    omega = OverlapAngle(cos=c)
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(c)
        assert _within_one_ulp(omega.cos_half, ((1 + x) / 2).sqrt())
        assert _within_one_ulp(omega.sin_half, ((1 - x) / 2).sqrt())
        assert _within_one_ulp(omega.tan_half, ((1 - x) / (1 + x)).sqrt())


@seeded
@given(solvable_cos)
def test_zero_diagonal_at_solved_phases(c):
    angle = OverlapAngle(cos=c)
    assert within_boundary(c)
    amplitudes = build_M(*solve_measurement(angle)) @ build_C(angle)
    assert np.abs(np.diag(amplitudes)).max() <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    # densely within 1e-11 of sqrt(2)/2, across both ends of the inclusive band
    st.floats(FEASIBILITY_BOUNDARY - 1e-11, FEASIBILITY_BOUNDARY + 1e-11),
    edge_cos,
))
@example(1e-08)  # cos_beta_raw is -1.0000000000000002: acos needs the clamp
def test_solve_answers_exactly_within_boundary(c):
    angle = OverlapAngle(cos=c)
    phases = solve_measurement(angle)
    assert (phases is None) == (not within_boundary(c))
    if phases is not None:
        assert np.diag(outcome_matrix(angle, *phases)).max() < PROB_FLOOR


@seeded
@given(overlaps, phases, phases)
def test_diagonal_residual_is_every_diagonal_entry(omega, alpha, beta):
    diag = np.diag(build_M(alpha, beta) @ build_C(omega))
    assert np.abs(diag - diagonal_residual(omega, alpha, beta)).max() <= 1e-12


@seeded
@given(phases, phases)
def test_measurement_is_unitary(alpha, beta):
    m = build_M(alpha, beta)
    assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-12


@seeded
@given(overlaps, phases, phases)
def test_outcome_columns_sum_to_one(omega, alpha, beta):
    p = outcome_matrix(omega, alpha, beta)
    assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-12


@seeded
@given(feasible_cos)
def test_cos_beta_forms_agree(c):
    omega = OverlapAngle(cos=c)
    assert abs(cos_beta_raw(omega.cos) - cos_beta_tan_form(omega)) <= 1e-10


@seeded
@given(overlaps)
def test_build_C_is_the_joint_preparations(omega):
    # bit for bit, signed zeros included: solve prints C
    pair = make_pair(omega)
    reference = np.column_stack(
        [np.kron(a, b) for a in (pair.psi, pair.phi) for b in (pair.psi, pair.phi)]
    )
    assert build_C(omega).tobytes() == reference.tobytes()


@seeded
@given(any_cos)
def test_device_counts_even_minimal_and_ordered(c):
    omega = OverlapAngle(cos=c)
    plan = grouping_plan(omega)
    m = plan.group_size
    assert plan.n == 2 * m
    assert (m == 1) if within_boundary(c) else group_size_minimal(c, m)
    # the solve accepts the effective overlap
    assert within_boundary(plan.effective_omega.cos)
    assert plan.n >= min_n_pbr(omega) >= 2


@seeded
@given(st.lists(st.one_of(edge_cos, any_cos), min_size=1, max_size=30))
def test_counts_minimal_by_direct_substitution(cosines):
    for c in cosines:
        omega = OverlapAngle(cos=c)
        m, n = grouping_plan(omega).group_size, min_n_pbr(omega)
        if within_boundary(c):
            assert (m, n) == (1, 2)
        else:
            assert group_size_minimal(c, m) and pbr_count_minimal(c, n)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(st.one_of(near_one_cos, edge_cos, fig_grid_cos))
@example(FEASIBILITY_BOUNDARY)  # above the real sqrt(2)/2, yet n = n_pbr = 2
def test_device_counts_are_mpmath_ceilings(c):
    omega = OverlapAngle(cos=c)
    counts = grouping_plan(omega).group_size, min_n_pbr(omega)
    assert counts == ((1, 2) if within_boundary(c) else exact_counts(c))


@seeded
@given(overlaps, st.integers(1, 10))
def test_tensor_power_overlap_law(omega, m):
    pair = make_pair(omega)
    overlap = np.vdot(product_state(pair.psi, m), product_state(pair.phi, m))
    assert abs(overlap - omega.cos**m) <= 1e-10


@seeded
@given(
    st.integers(2, 64),
    st.floats(0.0, 0.99),
    st.floats(-math.pi, math.pi),
    st.integers(0, 2**32 - 1),
)
def test_reduce_pair_round_trip(dim, modulus, phase, seed):
    # Gram-Schmidt: psi random, phi = overlap psi + sqrt(1 - |overlap|^2) w, w _|_ psi
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    w -= np.vdot(psi, w) * psi
    w /= np.linalg.norm(w)
    phi = modulus * np.exp(1j * phase) * psi + math.sqrt(1.0 - modulus**2) * w
    phi /= np.linalg.norm(phi)
    pair = reduce_pair(psi, phi)
    assert abs(pair.omega.cos - modulus) <= 1e-10
    psi_ambient, phi_ambient = ambient(pair)
    assert np.abs(psi_ambient - psi).max() <= 1e-10
    assert np.abs(phi_ambient - phi * np.exp(-1j * pair.phase_applied)).max() <= 1e-10
