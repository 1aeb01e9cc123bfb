"""Reference constructions the tests check pbrkit against.

pbrkit builds none of these.  The pair in the standard basis and its tensor
powers (from ``np.kron``) check the columns of ``build_C`` and the group
overlap cos^m(omega); the tan form checks the closed form of cos(beta); the
ambient re-expansion checks the ``reduce_pair`` round trip.
"""

from functools import reduce
from typing import NamedTuple

import numpy as np

from pbrkit import DimMismatch, OverlapAngle, SymmetricPair

# Tensor powers are capped at dim 2^10 = 1024.
MAX_COPIES = 10


class CopiesOutOfRange(ValueError):
    """Tensor-power copy count outside [1, MAX_COPIES]."""


class Pair(NamedTuple):
    omega: OverlapAngle
    psi: np.ndarray
    phi: np.ndarray


def make_pair(omega: OverlapAngle) -> Pair:
    """The canonical pair (cos(omega/2), +/- sin(omega/2)) in the standard 2-dim basis.

    The overlap is cos^2(omega/2) - sin^2(omega/2) = cos(omega).
    """
    c, s = omega.cos_half, omega.sin_half
    return Pair(omega, np.array([c, s], dtype=complex), np.array([c, -s], dtype=complex))


def ambient(pair: SymmetricPair) -> tuple[np.ndarray, np.ndarray]:
    """psi and the phase-aligned phi, the canonical pair expanded in the ambient space."""
    c, s = pair.omega.cos_half, pair.omega.sin_half
    return c * pair.basis0 + s * pair.basis1, c * pair.basis0 - s * pair.basis1


def product_state(s, copies: int) -> np.ndarray:
    """m-fold Kronecker power of a qubit state, dim 2^m."""
    if not (1 <= copies <= MAX_COPIES):
        raise CopiesOutOfRange(f"copies must lie in [1, {MAX_COPIES}], got {copies}")
    s = np.asarray(s, dtype=complex)
    if s.ndim != 1 or s.size != 2:
        raise DimMismatch(f"expected a dim-2 state, got shape {s.shape}")
    return reduce(np.kron, [s] * copies)


def cos_beta_tan_form(omega: OverlapAngle) -> float:
    """cos(beta) in the tan-power form (t^-3 - 4 t^-1 - t) / 4 with t = tan(omega/2).

    It equals ``cos_beta_raw`` at cos(omega), but diverges like t^-3 as
    omega -> 0, so pbrkit uses the closed form.
    """
    t = omega.tan_half
    return 0.25 * (t**-3 - 4.0 / t - t)
