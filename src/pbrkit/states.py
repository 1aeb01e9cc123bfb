"""The overlap of a state pair, and canonical symmetric state pairs.

Any two distinct pure states span a plane in which they can be written as

    psi = cos(omega/2) * basis0 + sin(omega/2) * basis1
    phi = cos(omega/2) * basis0 - sin(omega/2) * basis1

after stripping a global phase from one of them, with cos(omega) equal to
the overlap modulus |<psi|phi>|.  This module recovers that form from an
arbitrary-dimension pair.  Tensor powers are never built: the group overlap
cos^m(omega) is all the reduction needs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, ToolkitError
from .linalg import TOL_NORM

# Overlap moduli this close to 1 are below the double-precision resolution of
# the angle between the states.
DEGENERACY_THRESHOLD = 1.0 - 1e-12


@dataclass(frozen=True, kw_only=True)
class OverlapAngle:
    """The overlap c = cos(omega) = |<psi|phi>| of two states, in [0, 1).

    c = 0 means orthogonal states; c = 1 (identical states) is excluded.  The
    half-angle values are closed forms in c, built from arithmetic and the
    correctly rounded square root with no angle formed on the way: 1 - c is
    exact for c >= 1/2, and tan(omega/2) >= 2^-27 for every double c < 1.
    """

    cos: float

    def __post_init__(self):
        if not (0.0 <= self.cos < 1.0):  # a string fails here with a TypeError
            raise ToolkitError(f"cos(omega) must lie in [0, 1), got {float(self.cos)!r}")
        # A numpy scalar is kept as a float, whose repr does not depend on the
        # numpy version; -0.0 passes the check, and + 0.0 makes it +0.0.
        object.__setattr__(self, "cos", float(self.cos) + 0.0)

    @property
    def omega(self) -> float:
        return math.acos(self.cos)

    @property
    def cos_half(self) -> float:
        return math.sqrt((1.0 + self.cos) / 2.0)

    @property
    def sin_half(self) -> float:
        return math.sqrt((1.0 - self.cos) / 2.0)

    @property
    def tan_half(self) -> float:
        return math.sqrt((1.0 - self.cos) / (1.0 + self.cos))


@dataclass(frozen=True)
class SymmetricPair:
    """A state pair in canonical symmetric form.

    ``basis0`` and ``basis1`` are the orthonormal plane vectors in the
    ambient space; in them the pair has the coordinates
    (cos(omega/2), +/- sin(omega/2)).  ``phase_applied`` is the global
    phase stripped from the second state to make the overlap real and
    nonnegative: the stored pair represents the inputs
    (psi, phi * exp(-1j * phase_applied)).
    """

    omega: OverlapAngle
    basis0: np.ndarray
    basis1: np.ndarray
    phase_applied: float


def state_norm(vec: np.ndarray) -> float:
    """The 2-norm of ``vec``; entries past ~1.3e154 give inf, not a warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(vec))


def reduce_pair(psi, phi) -> SymmetricPair:
    """Reduce an arbitrary-dimension normalized pair to canonical form.

    The phase arg(<psi|phi>) is stripped from phi (recorded as
    ``phase_applied``), after which basis0 is the normalized sum and basis1
    the normalized difference of the two states.  That choice makes the
    pair symmetric about basis0 and fixes the basis1 sign: the psi
    coefficient along basis1 is sin(omega/2) > 0.  Re-expanding the
    coordinates (cos(omega/2), +/- sin(omega/2)) in (basis0, basis1)
    reproduces the inputs up to the recorded phase.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.ndim != 1 or phi.ndim != 1 or psi.shape != phi.shape:
        raise ToolkitError(f"states must have equal length, got {psi.shape} and {phi.shape}")
    if psi.size < 2:
        raise ToolkitError(f"states must have dim >= 2, got dim {psi.size}")
    for name, norm in (("psi", state_norm(psi)), ("phi", state_norm(phi))):
        if not abs(norm - 1.0) <= TOL_NORM:  # NaN fails this too
            raise ToolkitError(f"{name} is not normalized (norm {norm!r})")

    overlap = complex(np.vdot(psi, phi))
    if abs(overlap) >= DEGENERACY_THRESHOLD:
        raise DegeneratePair("states identical up to phase")

    phase = float(np.angle(overlap)) if abs(overlap) > 0.0 else 0.0
    phi_aligned = phi * np.exp(-1j * phase)
    omega = OverlapAngle(cos=abs(overlap))
    return SymmetricPair(
        omega=omega,
        basis0=(psi + phi_aligned) / (2.0 * omega.cos_half),
        basis1=(psi - phi_aligned) / (2.0 * omega.sin_half),
        phase_applied=phase,
    )

