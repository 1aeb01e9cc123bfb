"""Tests for the Kronecker product and the inner products and unitarity it feeds."""

import math

import numpy as np
import pytest

from pbrkit import DimMismatch, KindMismatch, elementwise, kron
from pbrkit.measurement import build_C, build_M
from pbrkit.states import make_pair, reduce_pair

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_kron_basis_ordering():
    # first factor is the high-order index: e0 (x) e1 fills slot 2 of 4
    np.testing.assert_array_equal(kron(E0, E1), [0.0, 1.0, 0.0, 0.0])


def test_kron_identity_matrices():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_orthogonal_pair_expansion():
    pair = make_pair(math.pi / 2)
    np.testing.assert_allclose(kron(pair.psi, pair.phi), [0.5, -0.5, 0.5, -0.5], atol=1e-15)


def test_kron_mixed_kinds_rejected():
    with pytest.raises(KindMismatch):
        kron(E0, np.eye(2))
    with pytest.raises(KindMismatch):
        kron(np.eye(2), E0)


def test_kron_nonsquare_rejected():
    with pytest.raises(DimMismatch):
        kron(np.ones((2, 3)), np.eye(2))


def test_kron_associative_on_vectors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-13)


def _unitarity_residual(op):
    return np.abs(op.conj().T @ op - np.eye(op.shape[0])).max()


def test_inner_product_orthonormal_basis():
    # the four products of the basis states form an orthonormal basis
    basis = [kron(a, b) for a in (E0, E1) for b in (E0, E1)]
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    np.testing.assert_array_equal(gram, np.eye(4))


@pytest.mark.parametrize("omega", np.linspace(0.05, math.pi / 2, 9))
def test_inner_product_pair_overlap(omega):
    pair = make_pair(omega)
    assert abs(np.vdot(pair.psi, pair.phi) - math.cos(omega)) <= 1e-12


def test_inner_product_self_is_norm_squared():
    # a product of unit states is a unit state
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8):
        u, v = _random_state(rng, dim), _random_state(rng, dim)
        assert abs(np.vdot(kron(u, v), kron(u, v)) - 1.0) <= 1e-12


def test_inner_product_conjugate_linear_first_argument():
    # <a psi|phi> = conj(a) <psi|phi>: a unit phase on psi is stripped from phi
    # with the opposite sign
    rng = np.random.default_rng(13)
    psi, phi = _random_state(rng, 4), _random_state(rng, 4)
    a = np.exp(0.7j)
    base = reduce_pair(psi, phi).phase_applied
    shifted = reduce_pair(a * psi, phi).phase_applied
    assert abs(np.exp(1j * shifted) - np.exp(1j * (base - 0.7))) <= 1e-12


def test_inner_product_factorizes_over_kron():
    # underpins the group overlap law: <u1 (x) u2 | v1 (x) v2> = <u1|v1><u2|v2>
    rng = np.random.default_rng(17)
    for _ in range(30):
        u1, v1 = _random_state(rng, 3), _random_state(rng, 3)
        u2, v2 = _random_state(rng, 4), _random_state(rng, 4)
        lhs = np.vdot(kron(u1, u2), kron(v1, v2))
        rhs = np.vdot(u1, v1) * np.vdot(u2, v2)
        assert abs(lhs - rhs) <= 1e-12


def test_is_unitary_identity():
    # at zero phases M is the real Hadamard pattern, unitary to the last bit
    assert _unitarity_residual(build_M(0.0, 0.0)) == 0.0


def test_is_unitary_random_measurement_operators():
    rng = np.random.default_rng(19)
    for _ in range(100):
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        assert _unitarity_residual(build_M(alpha, beta)) <= 1e-12


def test_is_unitary_rejects_preparation_operator():
    # columns of C are non-orthogonal product states
    assert _unitarity_residual(build_C(math.pi / 4)) > 0.1


def test_is_unitary_implies_orthonormal_columns():
    m = build_M(0.4, -1.3)
    np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


def test_elementwise_is_libm_per_element():
    x = np.linspace(0.01, 0.99, 101).reshape(101, 1)
    got = elementwise(math.acos, x)
    assert got.shape == x.shape
    assert got.ravel().tolist() == [math.acos(v) for v in x.ravel().tolist()]
    assert elementwise(math.pow, x, np.arange(101).reshape(101, 1)).ravel().tolist() == [
        v**k for k, v in enumerate(x.ravel().tolist())
    ]
    assert elementwise(math.log, np.float64(0.5)).shape == ()
