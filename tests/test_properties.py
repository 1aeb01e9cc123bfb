"""Property tests over the whole input domain.

These carry the correctness checks the library does not repeat at run time:
the closed half-angle forms, the zero diagonal of M C, the closed form of
that diagonal, unitarity of M, stochastic outcome columns, agreement of the
two cos(beta) forms, the tensor-square form of C, the device-count bounds,
minimality of the device counts, the tensor-power overlap law and the
reduce_pair round trip.
Every test is derandomized, so a run always draws the same examples.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import ambient, cos_beta_tan_form, make_pair, product_state
from pbrkit import (
    BOUNDARY_TOL,
    FEASIBILITY_BOUNDARY,
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
)
from pbrkit.reduction import _settle

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
# boundary sqrt(2)/2 + 1e-12 to a few ulps, 1 - 10^-k, and the grid's end rows
edge_cos = st.sampled_from(
    _ulps_around(FEASIBILITY_BOUNDARY, 4)
    + _ulps_around(FEASIBILITY_BOUNDARY + BOUNDARY_TOL, 4)
    + [1.0 - 10.0**-k for k in range(6, 16)]
    + [math.nextafter(1.0, 0.0)]
    + np.linspace(0.01, 0.99, 20000)[[0, 1, -2, -1]].tolist()
)

# every cosine the solve accepts: [0, sqrt(2)/2], the band up to 1e-12 above
# it where cos(beta) is clamped, and the effective overlap of grouping_plan
solvable_cos = st.one_of(
    feasible_cos,
    st.floats(FEASIBILITY_BOUNDARY, FEASIBILITY_BOUNDARY + BOUNDARY_TOL, exclude_min=True),
    st.one_of(edge_cos, any_cos).map(lambda c: grouping_plan(OverlapAngle(cos=c)).effective_omega.cos),
)

# tan(omega/2) below what an overlap reaches (2^-27 = 7.45e-9), where the
# computed 2^(1/n) - 1 stays flat over long runs of consecutive counts
tiny_tan = st.one_of(st.sampled_from([10.0**-k for k in range(9, 301)]), st.floats(1e-300, 1e-9))


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
    sol = solve_measurement(angle)
    assert sol.feasible
    amplitudes = build_M(sol.alpha, sol.beta) @ build_C(angle)
    assert np.abs(np.diag(amplitudes)).max() <= 1e-10


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
    assert c**m <= FEASIBILITY_BOUNDARY + BOUNDARY_TOL
    assert m == 1 or c ** (m - 1) > FEASIBILITY_BOUNDARY + BOUNDARY_TOL
    assert plan.n >= min_n_pbr(omega) >= 2


def _minimal_by_substitution(holds, count: int, floor: int) -> bool:
    """``count`` holds and no smaller count down to ``floor`` does (scanned up to 1000 below)."""
    return holds(count) and not any(holds(k) for k in range(max(floor, count - 1000), count))


@seeded
@given(
    st.lists(st.one_of(edge_cos, any_cos), min_size=1, max_size=30),
    st.lists(tiny_tan, max_size=5),
)
def test_counts_minimal_by_direct_substitution(cosines, tiny_halves):
    for c in cosines:
        omega = OverlapAngle(cos=c)
        m = grouping_plan(omega).group_size
        assert _minimal_by_substitution(lambda k: c**k <= FEASIBILITY_BOUNDARY + BOUNDARY_TOL, m, 1)
        t, n = omega.tan_half, min_n_pbr(omega)
        assert _minimal_by_substitution(lambda k: t >= 2.0 ** (1.0 / k) - 1.0 - BOUNDARY_TOL, n, 2)
    # no overlap reaches these; min_n_pbr's condition and seed drive the settle directly
    for t in tiny_halves:
        def holds(k, t=t):
            return t >= 2.0 ** (1.0 / k) - 1.0 - BOUNDARY_TOL

        seed = max(2, math.ceil(math.log(2.0) / math.log1p(t + BOUNDARY_TOL) - 1e-9))
        assert _minimal_by_substitution(holds, _settle(holds, seed, floor=2), 2)


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
