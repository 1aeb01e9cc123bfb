"""Reference constructions the tests check pbrkit against.

pbrkit builds none of these.  The pair in the standard basis and its tensor
powers (from ``np.kron``) check the columns of ``build_C`` and the group
overlap cos^m(omega); the tan form checks the closed form of cos(beta); the
ambient re-expansion checks the ``reduce_pair`` round trip.
"""

import math
from functools import reduce

import numpy as np

from pbrkit import DimMismatch, OverlapAngle, SymmetricPair

# Tensor powers are capped at dim 2^10 = 1024.
MAX_COPIES = 10


class CopiesOutOfRange(ValueError):
    """Tensor-power copy count outside [1, MAX_COPIES]."""


def _angle(omega) -> OverlapAngle:
    return omega if isinstance(omega, OverlapAngle) else OverlapAngle(float(omega))


def make_pair(omega) -> SymmetricPair:
    """The canonical pair in the standard 2-dim basis.

    The overlap is cos^2(omega/2) - sin^2(omega/2) = cos(omega).
    """
    omega = _angle(omega)
    c, s = math.cos(omega.half), math.sin(omega.half)
    return SymmetricPair(
        omega=omega,
        psi=np.array([c, s], dtype=complex),
        phi=np.array([c, -s], dtype=complex),
        basis0=np.array([1.0, 0.0], dtype=complex),
        basis1=np.array([0.0, 1.0], dtype=complex),
        phase_applied=0.0,
    )


def ambient(pair: SymmetricPair) -> tuple[np.ndarray, np.ndarray]:
    """psi and the phase-aligned phi, expanded in the ambient space."""
    return (
        pair.psi[0] * pair.basis0 + pair.psi[1] * pair.basis1,
        pair.phi[0] * pair.basis0 + pair.phi[1] * pair.basis1,
    )


def product_state(s, copies: int) -> np.ndarray:
    """m-fold Kronecker power of a qubit state, dim 2^m."""
    if not (1 <= copies <= MAX_COPIES):
        raise CopiesOutOfRange(f"copies must lie in [1, {MAX_COPIES}], got {copies}")
    s = np.asarray(s, dtype=complex)
    if s.ndim != 1 or s.size != 2:
        raise DimMismatch(f"expected a dim-2 state, got shape {s.shape}")
    return reduce(np.kron, [s] * copies)


def cos_beta_tan_form(omega) -> float:
    """cos(beta) in the tan-power form (t^-3 - 4 t^-1 - t) / 4 with t = tan(omega/2).

    It equals ``cos_beta_raw`` at cos(omega), but diverges like t^-3 as
    omega -> 0, so pbrkit uses the closed form.
    """
    t = math.tan(_angle(omega).half)
    return 0.25 * (t**-3 - 4.0 / t - t)
