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
from dataclasses import dataclass, replace

import numpy as np

from .errors import InconsistentPhases
from .linalg import kron
from .states import OverlapAngle, _as_angle

# cos(omega) above sqrt(2)/2 admits no real beta.  The boundary is inclusive
# within 1e-12, where cos(beta) is clamped onto [-1, 1].
FEASIBILITY_BOUNDARY = math.sqrt(0.5)
BOUNDARY_TOL = 1e-12

_SIGNS = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class MeasurementSolution:
    """Phases nulling the diagonal of M C, plus the feasibility verdict.

    ``cos_beta_raw`` is the unclamped closed-form value; when it leaves
    [-1, 1] the solve is infeasible and ``beta``/``alpha`` stay None.
    """

    omega: OverlapAngle
    beta: float | None
    alpha: float | None
    feasible: bool
    cos_beta_raw: float


@dataclass(frozen=True)
class OutcomeMatrix:
    """Column-stochastic p[k][j] = P(outcome k+1 | joint preparation j+1)."""

    p: np.ndarray
    omega: OverlapAngle
    alpha: float
    beta: float


def build_C(omega) -> np.ndarray:
    """4x4 preparation operator; column j is joint preparation j.

    C is the tensor square B (x) B of the 2x2 matrix B whose columns are the
    canonical pair (psi, phi), so its columns are the Kronecker products
    (psi psi, psi phi, phi psi, phi phi): unit vectors but mutually
    non-orthogonal, so C itself is not unitary.
    """
    omega = _as_angle(omega)
    c, s = math.cos(omega.half), math.sin(omega.half)
    b = np.array([[c, c], [s, -s]], dtype=complex)
    return kron(b, b)


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

    Takes a float or an array of cosines; grouping applies it to the
    effective overlap cos^m(omega).
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


def cos_beta_closed_form(omega) -> float:
    """Production formula: :func:`cos_beta_raw` at cos(omega)."""
    return float(cos_beta_raw(_as_angle(omega).cos))


def cos_beta_tan_form(omega) -> float:
    """Equivalent tan-power form (t^-3 - 4 t^-1 - t) / 4 with t = tan(w/2).

    Kept as the reference the tests compare the closed form against;
    diverges like t^-3 as w -> 0, so the production path uses
    :func:`cos_beta_closed_form`.
    """
    t = math.tan(_as_angle(omega).half)
    return 0.25 * (t**-3 - 4.0 / t - t)


def solve_beta(omega) -> MeasurementSolution:
    """Solve the zero-diagonal condition for beta; alpha is left unset.

    Feasibility is decided from cos(omega) against the boundary before any
    formula is evaluated; the raw closed-form cos(beta) is reported either
    way so callers can trace the curve past its +1 crossing.  On the
    feasible range beta is the principal arccos of the clamped value.
    """
    omega = _as_angle(omega)
    feasible = within_boundary(omega.cos)
    raw = cos_beta_closed_form(omega)
    beta = None
    if feasible:
        beta = math.acos(min(1.0, max(-1.0, raw)))
    return MeasurementSolution(omega=omega, beta=beta, alpha=None, feasible=feasible, cos_beta_raw=raw)


def solve_alpha(omega, beta: float) -> float:
    """Recover alpha from the zero-diagonal condition at a solved beta.

    The condition rearranges to

        e^{i alpha} = -(tan^2(w/2) e^{2 i beta} + 2 tan(w/2) e^{i beta}) ,

    whose right side has unit modulus exactly when beta solves the
    cos(beta) equation.  Returns the principal argument in (-pi, pi].
    """
    omega = _as_angle(omega)
    t = math.tan(omega.half)
    rhs = -(t * t) * cmath.exp(2j * beta) - 2.0 * t * cmath.exp(1j * beta)
    if abs(abs(rhs) - 1.0) > 1e-10:
        raise InconsistentPhases(
            f"|rhs| = {abs(rhs)!r}: beta = {beta!r} does not solve the zero-diagonal condition"
        )
    return cmath.phase(rhs)


def solve_measurement(omega) -> MeasurementSolution:
    """solve_beta plus, when feasible, the matching alpha."""
    sol = solve_beta(omega)
    if not sol.feasible:
        return sol
    return replace(sol, alpha=solve_alpha(sol.omega, sol.beta))


def diagonal_residual(omega, alpha: float, beta: float) -> complex:
    """Common value of the four diagonal entries of M C, in closed form.

    The sign patterns of M and C make all four diagonal entries equal; the
    residual is zero (to 1e-10) exactly at solved phases.
    """
    omega = _as_angle(omega)
    c, s = math.cos(omega.half), math.sin(omega.half)
    return (
        0.5 * cmath.exp(1j * alpha) * c * c
        + cmath.exp(1j * beta) * c * s
        + 0.5 * cmath.exp(2j * beta) * s * s
    )


def outcome_matrix(omega, alpha: float, beta: float) -> OutcomeMatrix:
    """Outcome probabilities |(M C)[k][j]|^2; every column sums to 1."""
    omega = _as_angle(omega)
    amplitudes = build_M(alpha, beta) @ build_C(omega)
    return OutcomeMatrix(p=np.abs(amplitudes) ** 2, omega=omega, alpha=alpha, beta=beta)
