"""Preparation operator, entangled measurement basis, and the phase solve.

The two-device preparation operator C maps the four computational product
basis states to the four joint preparations (psi psi, psi phi, phi psi,
phi phi).  The measurement unitary M(alpha, beta) carries a Hadamard sign
pattern with columnwise phases (e^{i a}, e^{i b}, e^{i b}, e^{2 i b}), so it
is unitary for any real alpha and beta.  The sign patterns of M and C make
all four diagonal entries of M C equal to

    e^{i a} cos^2(w/2) / 2 + e^{i b} cos(w/2) sin(w/2) + e^{2 i b} sin^2(w/2) / 2 ,

and choosing phases that null this value makes outcome j impossible under
joint preparation j.  A real beta doing so exists iff cos(w) <= sqrt(2)/2:
past that boundary the closed form for cos(beta) exceeds 1.
"""

import cmath
import math

import numpy as np

from .states import OverlapAngle

# cos(omega) above sqrt(2)/2 admits no real beta.  The boundary is inclusive
# within 1e-12, where cos(beta) is clamped onto [-1, 1].
FEASIBILITY_BOUNDARY = math.sqrt(0.5)
BOUNDARY_TOL = 1e-12

_H = np.array([[1.0, 1.0], [1.0, -1.0]])
_SIGNS = np.kron(_H, _H)  # the Hadamard sign pattern H (x) H


def build_C(omega: OverlapAngle) -> np.ndarray:
    """4x4 preparation operator; column j is joint preparation j.

    C is the tensor square B (x) B of the 2x2 matrix B whose columns are the
    canonical pair (psi, phi), so its columns are the Kronecker products
    (psi psi, psi phi, phi psi, phi phi): unit vectors but mutually
    non-orthogonal, so C itself is not unitary.  The broadcast product
    C[2i + k, 2j + l] = B[i, j] B[k, l] makes the same complex products as
    ``np.kron``, signed zeros included.
    """
    c, s = omega.cos_half, omega.sin_half
    b = np.array([[c, c], [s, -s]], dtype=complex)
    return (b[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def build_M(alpha: float, beta: float) -> np.ndarray:
    """4x4 measurement unitary for arbitrary real phases.

    Column k of the Hadamard sign pattern is scaled by the phase
    (e^{i alpha}, e^{i beta}, e^{i beta}, e^{2 i beta})[k] and everything by
    1/2, which keeps the columns orthonormal for any (alpha, beta).
    """
    phases = np.array(
        [cmath.exp(1j * alpha), cmath.exp(1j * beta), cmath.exp(1j * beta), cmath.exp(2j * beta)]
    )
    return 0.5 * _SIGNS * phases


def within_boundary(cos_omega):
    """The feasibility test cos(omega) <= sqrt(2)/2, inclusive within BOUNDARY_TOL.

    Takes a float or an array of cosines.  The device counts use it as their
    boundary, so every overlap the solve accepts needs only n = 2.
    """
    return cos_omega <= FEASIBILITY_BOUNDARY + BOUNDARY_TOL


def cos_beta_raw(cos_omega):
    """Unclamped cos(beta) = (c^2 + c - 1) / ((1 - c) sqrt(1 - c^2)) at c = cos(omega).

    Takes a float or an array of cosines.  Only arithmetic and the correctly
    rounded square root are involved, so each element of an array result
    equals the value for that element alone.
    """
    c = cos_omega
    return (c * c + c - 1.0) / ((1.0 - c) * np.sqrt(1.0 - c * c))


def solve_measurement(omega: OverlapAngle) -> tuple[float, float] | None:
    """Solve the zero-diagonal condition for both phases: (alpha, beta), or
    None where ``within_boundary`` rejects cos(omega) and no real beta exists.

    Feasibility is decided from cos(omega) before any formula is evaluated.
    On the feasible range beta is the principal arccos of ``cos_beta_raw``
    clamped onto [-1, 1], and the condition rearranges to

        e^{i alpha} = -(tan^2(w/2) e^{2 i beta} + 2 tan(w/2) e^{i beta}) ,

    whose right side has unit modulus at that beta; alpha is its principal
    argument in (-pi, pi].
    """
    if not within_boundary(omega.cos):
        return None
    beta = math.acos(min(1.0, max(-1.0, float(cos_beta_raw(omega.cos)))))
    t = omega.tan_half
    alpha = cmath.phase(-(t * t) * cmath.exp(2j * beta) - 2.0 * t * cmath.exp(1j * beta))
    return alpha, beta


def diagonal_residual(omega: OverlapAngle, alpha: float, beta: float) -> complex:
    """Common value of the four diagonal entries of M C, in closed form.

    The sign patterns of M and C make all four diagonal entries equal; the
    residual is zero at solved phases, its square far under PROB_FLOOR.
    """
    c, s = omega.cos_half, omega.sin_half
    return (
        0.5 * cmath.exp(1j * alpha) * c * c
        + cmath.exp(1j * beta) * c * s
        + 0.5 * cmath.exp(2j * beta) * s * s
    )


def outcome_matrix(omega: OverlapAngle, alpha: float, beta: float) -> np.ndarray:
    """4x4 outcome probabilities p[k, j] = |(M C)[k, j]|^2.

    Entry (k, j) is P(outcome k+1 | joint preparation j+1), so every column
    sums to 1.
    """
    amplitudes = build_M(alpha, beta) @ build_C(omega)
    return np.abs(amplitudes) ** 2
