"""Tests for the operator builders and the phase solve."""

import cmath
import math

import numpy as np
import pytest

from _reference import cos_beta_tan_form, make_pair
from pbrkit import (
    BOUNDARY_TOL,
    FEASIBILITY_BOUNDARY,
    OverlapAngle,
    build_C,
    build_M,
    cos_beta_raw,
    diagonal_residual,
    grouping_plan,
    outcome_matrix,
    solve_measurement,
    within_boundary,
)

ROOT2 = math.sqrt(2.0)


def test_build_C_first_column_is_psi_psi():
    omega = OverlapAngle(cos=math.cos(0.6))
    pair = make_pair(omega)
    np.testing.assert_allclose(build_C(omega)[:, 0], np.kron(pair.psi, pair.psi), atol=1e-15)


def test_build_C_columns_unit_norm():
    c = build_C(OverlapAngle(cos=math.cos(0.9)))
    np.testing.assert_allclose(np.linalg.norm(c, axis=0), np.ones(4), atol=1e-12)


def test_build_C_orthogonal_angle_columns():
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(build_C(OverlapAngle(cos=0.0)), expected, atol=1e-15)


def test_build_C_entrywise_pattern():
    # entries are the sign pattern above with c^2, cs, s^2 magnitudes
    omega = OverlapAngle(cos=math.cos(0.9))
    c, s = omega.cos_half, omega.sin_half
    expected = np.array(
        [
            [c * c, c * c, c * c, c * c],
            [c * s, -c * s, c * s, -c * s],
            [c * s, c * s, -c * s, -c * s],
            [s * s, -s * s, -s * s, s * s],
        ]
    )
    np.testing.assert_allclose(build_C(omega), expected, atol=1e-14)


def test_build_M_zero_phases():
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(build_M(0.0, 0.0), expected, atol=1e-15)


def test_build_M_top_right_entry():
    beta = 0.77
    assert build_M(0.3, beta)[0, 3] == pytest.approx(0.5 * cmath.exp(2j * beta), abs=1e-15)


def test_build_M_always_unitary():
    rng = np.random.default_rng(5)
    for _ in range(100):
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        m = build_M(alpha, beta)
        assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-12


def test_solve_beta_at_boundary():
    assert within_boundary(ROOT2 / 2)
    assert cos_beta_raw(ROOT2 / 2) == pytest.approx(1.0, abs=1e-12)
    _, beta = solve_measurement(OverlapAngle(cos=ROOT2 / 2))
    assert beta == pytest.approx(0.0, abs=1e-6)


def test_solve_beta_orthogonal():
    assert within_boundary(0.0)
    assert cos_beta_raw(0.0) == pytest.approx(-1.0, abs=1e-12)
    _, beta = solve_measurement(OverlapAngle(cos=0.0))
    assert beta == pytest.approx(math.pi, abs=1e-12)


def test_solve_beta_infeasible():
    assert not within_boundary(0.8)
    assert solve_measurement(OverlapAngle(cos=0.8)) is None
    assert cos_beta_raw(0.8) > 1.0


def test_solve_beta_frozen_values():
    # frozen from independent evaluation of both closed forms
    assert cos_beta_raw(0.01) == pytest.approx(-0.9999489885984185, abs=1e-12)
    assert cos_beta_raw(0.99) == pytest.approx(687.6856569785856, rel=1e-12)


def test_cos_beta_forms_agree():
    for c in np.linspace(0.005, 0.995, 200):
        omega = OverlapAngle(cos=float(c))
        assert abs(cos_beta_raw(omega.cos) - cos_beta_tan_form(omega)) <= 1e-10


def test_cos_beta_monotone_in_cos_omega():
    grid = [cos_beta_raw(float(c)) for c in np.linspace(0.01, 0.99, 99)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_feasibility_matches_raw_magnitude():
    # feasible exactly when the raw cosine is attainable
    for c in np.linspace(0.005, 0.995, 199):
        assert within_boundary(c) == (abs(cos_beta_raw(c)) <= 1.0 + 1e-12)
        assert within_boundary(c) == (c <= FEASIBILITY_BOUNDARY + 1e-12)


def test_solve_alpha_orthogonal_case():
    # t = 1, beta = pi: rhs = -1 + 2 = 1, so alpha = 0
    alpha, beta = solve_measurement(OverlapAngle(cos=0.0))
    assert beta == math.pi
    assert alpha == pytest.approx(0.0, abs=1e-12)


def test_solve_alpha_boundary_case():
    # t = sqrt(2) - 1, beta = 0 (the raw cos(beta) clamps to 1): t^2 + 2t = 1
    # exactly, so rhs = -1 and alpha = pi
    alpha, beta = solve_measurement(OverlapAngle(cos=ROOT2 / 2))
    assert beta == 0.0
    assert alpha == pytest.approx(math.pi, abs=1e-12)


def test_solve_measurement_unit_phase_modulus():
    # The solve takes alpha as the argument of rhs without re-checking |rhs|,
    # so this covers every cosine it accepts: [0, sqrt(2)/2], the band up to
    # 1e-12 above it where cos(beta) is clamped, and grouping_plan's
    # effective overlaps, which land anywhere up to the band's top.
    top = FEASIBILITY_BOUNDARY + BOUNDARY_TOL
    below_top = [top]
    for _ in range(20):
        below_top.append(math.nextafter(below_top[-1], 0.0))
    grouped = (
        np.linspace(0.0, 0.999999, 500).tolist()
        + [1.0 - 10.0**-k for k in range(6, 16)]
        + [math.nextafter(1.0, 0.0)]
    )
    cosines = (
        np.linspace(0.0, ROOT2 / 2, 50).tolist()
        + np.linspace(FEASIBILITY_BOUNDARY, top, 50).tolist()
        + below_top
        + [grouping_plan(OverlapAngle(cos=c)).effective_omega.cos for c in grouped]
    )
    for c in cosines:
        angle = OverlapAngle(cos=c)
        assert within_boundary(c)
        alpha, beta = solve_measurement(angle)
        t = angle.tan_half
        rhs = -(t * t) * cmath.exp(2j * beta) - 2.0 * t * cmath.exp(1j * beta)
        assert abs(abs(rhs) - 1.0) <= 1e-10
        assert alpha == cmath.phase(rhs)


def test_diagonal_residual_solved_phases_vanish():
    angle = OverlapAngle(cos=0.5)
    assert abs(diagonal_residual(angle, *solve_measurement(angle))) <= 1e-10


def test_diagonal_residual_unit_phases():
    # all phases 1: 1/4 + 1/2 + 1/4 = 1
    assert diagonal_residual(OverlapAngle(cos=0.0), 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_entries_all_equal_off_solution():
    rng = np.random.default_rng(29)
    for _ in range(25):
        omega = OverlapAngle(cos=math.cos(rng.uniform(0.05, math.pi / 2)))
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        diag = np.diag(build_M(alpha, beta) @ build_C(omega))
        assert np.abs(diag - diag[0]).max() <= 1e-12
        # and the closed form reproduces that common value
        assert abs(diagonal_residual(omega, alpha, beta) - diag[0]) <= 1e-12


def test_outcome_matrix_columns_stochastic():
    rng = np.random.default_rng(31)
    for _ in range(20):
        omega = OverlapAngle(cos=math.cos(rng.uniform(0.05, math.pi / 2)))
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        p = outcome_matrix(omega, alpha, beta)
        assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(p.sum(axis=0), np.ones(4), atol=1e-12)


def test_outcome_matrix_zero_diagonal_at_solution():
    for c in (0.0, 0.2, 0.5, ROOT2 / 2):
        angle = OverlapAngle(cos=c)
        p = outcome_matrix(angle, *solve_measurement(angle))
        assert np.diag(p).max() <= 1e-10


def test_outcome_matrix_anti_diagonal_at_orthogonal():
    p = outcome_matrix(OverlapAngle(cos=0.0), 0.0, math.pi)
    np.testing.assert_allclose(p, np.fliplr(np.eye(4)), atol=1e-12)


def test_outcome_matrix_phase_periodicity():
    omega = OverlapAngle(cos=0.4)
    base = outcome_matrix(omega, 0.3, -0.9)
    shifted = outcome_matrix(omega, 0.3 + 2 * math.pi, -0.9 + 2 * math.pi)
    np.testing.assert_allclose(shifted, base, atol=1e-12)
