"""Tests for the canonical pair, reduction, and tensor powers."""

import math

import numpy as np
import pytest

from pbrkit import (
    AngleOutOfRange,
    CopiesOutOfRange,
    DegeneratePair,
    DimMismatch,
    OverlapAngle,
    make_pair,
    product_state,
    reduce_pair,
)

ROOT2 = math.sqrt(2.0)


def _gram_schmidt_pair(rng, dim, overlap):
    """Build a normalized pair with <psi|phi> equal to a prescribed complex overlap.

    Oracle construction: psi random, phi = overlap * psi + sqrt(1 - |overlap|^2) * w
    with w a unit vector orthogonal to psi.
    """
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    w -= np.vdot(psi, w) * psi
    w /= np.linalg.norm(w)
    phi = overlap * psi + math.sqrt(1.0 - abs(overlap) ** 2) * w
    return psi, phi / np.linalg.norm(phi)


def test_overlap_angle_bounds():
    OverlapAngle(math.pi / 2)
    OverlapAngle(1e-6)
    with pytest.raises(AngleOutOfRange):
        OverlapAngle(0.0)
    with pytest.raises(AngleOutOfRange):
        OverlapAngle(math.pi / 2 + 1e-9)


def test_overlap_angle_from_cos():
    assert OverlapAngle.from_cos(0.0).omega == pytest.approx(math.pi / 2)
    assert OverlapAngle.from_cos(0.5).cos == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(AngleOutOfRange):
        OverlapAngle.from_cos(1.0)
    with pytest.raises(AngleOutOfRange):
        OverlapAngle.from_cos(-0.1)


def test_make_pair_orthogonal_case():
    pair = make_pair(math.pi / 2)
    np.testing.assert_allclose(pair.psi, [ROOT2 / 2, ROOT2 / 2], atol=1e-15)
    np.testing.assert_allclose(pair.phi, [ROOT2 / 2, -ROOT2 / 2], atol=1e-15)


def test_make_pair_overlap_matches_cos():
    pair = make_pair(math.pi / 3)
    assert np.vdot(pair.psi, pair.phi) == pytest.approx(0.5, abs=1e-15)


def test_make_pair_rejects_zero_angle():
    with pytest.raises(AngleOutOfRange):
        make_pair(0.0)


def test_reduce_pair_fixed_point():
    # inputs already in canonical 2-dim form come back unchanged
    pair = make_pair(0.8)
    out = reduce_pair(pair.psi, pair.phi)
    assert out.phase_applied == 0.0
    assert out.omega.omega == pytest.approx(0.8, abs=1e-12)
    np.testing.assert_allclose(out.basis0, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.basis1, [0.0, 1.0], atol=1e-12)


def test_reduce_pair_complex_overlap_dim5():
    rng = np.random.default_rng(42)
    psi, phi = _gram_schmidt_pair(rng, 5, 0.6 * np.exp(0.7j))
    out = reduce_pair(psi, phi)
    assert out.omega.cos == pytest.approx(0.6, abs=1e-12)
    assert out.phase_applied == pytest.approx(0.7, abs=1e-12)
    # re-expansion reproduces the inputs up to the recorded phase
    np.testing.assert_allclose(out.psi_ambient, psi, atol=1e-10)
    np.testing.assert_allclose(
        out.phi_ambient, phi * np.exp(-1j * out.phase_applied), atol=1e-10
    )


def test_reduce_pair_degenerate_rejected():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    with pytest.raises(DegeneratePair):
        reduce_pair(psi, psi * np.exp(1.2j))


def test_reduce_pair_dim_mismatch():
    with pytest.raises(DimMismatch):
        reduce_pair(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_reduce_pair_unnormalized_rejected():
    with pytest.raises(ValueError):
        reduce_pair(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reduce_pair_non_finite_rejected(bad):
    # a NaN norm deviation compares false against any limit
    with pytest.raises(ValueError, match="psi is not normalized"):
        reduce_pair(np.array([bad, 0.0]), np.array([0.6, 0.8]))


def test_reduce_pair_round_trip_property():
    for omega in np.linspace(0.05, math.pi / 2, 25):
        pair = make_pair(omega)
        out = reduce_pair(pair.psi, pair.phi)
        assert abs(out.omega.omega - omega) <= 1e-12


def test_reduce_pair_invariants_random_pairs():
    """Output satisfies every canonical-pair invariant for random inputs."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        modulus = rng.uniform(0.05, 0.95)
        phase = rng.uniform(-math.pi, math.pi)
        psi, phi = _gram_schmidt_pair(rng, dim, modulus * np.exp(1j * phase))
        out = reduce_pair(psi, phi)
        c, s = math.cos(out.omega.half), math.sin(out.omega.half)
        np.testing.assert_allclose(out.psi, [c, s], atol=1e-12)
        np.testing.assert_allclose(out.phi, [c, -s], atol=1e-12)
        assert abs(np.vdot(out.basis0, out.basis1)) <= 1e-10
        assert abs(np.linalg.norm(out.basis0) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(out.basis1) - 1.0) <= 1e-10
        assert abs(out.omega.cos - modulus) <= 1e-10


def test_product_state_single_copy_identity():
    pair = make_pair(0.7)
    np.testing.assert_array_equal(product_state(pair.psi, 1), pair.psi)


def test_product_state_overlap_law():
    # <s^m | t^m> = <s|t>^m, checked against the explicit full-dim inner product
    omega = OverlapAngle.from_cos(0.9)
    pair = make_pair(omega)
    for m in (2, 3, 4):
        big_psi = product_state(pair.psi, m)
        big_phi = product_state(pair.phi, m)
        assert big_psi.size == 2**m
        assert abs(np.vdot(big_psi, big_phi) - 0.9**m) <= 1e-12


def test_product_state_sixteen_dim_value():
    omega = OverlapAngle.from_cos(0.9)
    pair = make_pair(omega)
    overlap = np.vdot(product_state(pair.psi, 4), product_state(pair.phi, 4))
    assert overlap == pytest.approx(0.6561, abs=1e-12)


def test_product_state_copies_out_of_range():
    pair = make_pair(0.5)
    with pytest.raises(CopiesOutOfRange):
        product_state(pair.psi, 0)
    with pytest.raises(CopiesOutOfRange):
        product_state(pair.psi, 11)


def test_product_state_requires_qubit():
    with pytest.raises(DimMismatch):
        product_state(np.array([1.0, 0.0, 0.0]), 2)
