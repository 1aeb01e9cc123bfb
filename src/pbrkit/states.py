"""Canonical symmetric state pairs and tensor-power product states.

Any two distinct pure states span a plane in which they can be written as

    psi = cos(omega/2) * basis0 + sin(omega/2) * basis1
    phi = cos(omega/2) * basis0 - sin(omega/2) * basis1

after stripping a global phase from one of them, with cos(omega) equal to
the overlap modulus |<psi|phi>|.  This module constructs that form from a
given angle, recovers it from an arbitrary-dimension pair, and builds the
m-fold tensor powers whose overlap obeys <s^m|t^m> = <s|t>^m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleOutOfRange, CopiesOutOfRange, DegeneratePair, DimMismatch
from .linalg import TOL_NORM, kron

# Overlap moduli this close to 1 are below the double-precision resolution of
# the angle between the states.
DEGENERACY_THRESHOLD = 1.0 - 1e-12

# Tensor powers are capped at dim 2^10 = 1024; larger device counts are
# handled analytically without building vectors.
MAX_COPIES = 10


@dataclass(frozen=True)
class OverlapAngle:
    """Angle omega with cos(omega) = |<psi|phi>|, restricted to (0, pi/2].

    omega = pi/2 means orthogonal states; omega = 0 (identical states) is
    excluded.
    """

    omega: float

    def __post_init__(self):
        if not (0.0 < self.omega <= math.pi / 2):
            raise AngleOutOfRange(f"omega must lie in (0, pi/2], got {self.omega!r}")

    @classmethod
    def from_cos(cls, cos_omega: float) -> "OverlapAngle":
        if not (0.0 <= cos_omega < 1.0):
            raise AngleOutOfRange(f"cos(omega) must lie in [0, 1), got {cos_omega!r}")
        return cls(math.acos(cos_omega))

    @property
    def cos(self) -> float:
        return math.cos(self.omega)

    @property
    def half(self) -> float:
        return self.omega / 2.0


def _as_angle(omega) -> OverlapAngle:
    return omega if isinstance(omega, OverlapAngle) else OverlapAngle(float(omega))


@dataclass(frozen=True)
class SymmetricPair:
    """A state pair in canonical symmetric form.

    ``psi`` and ``phi`` hold the exact 2-dim coordinates
    (cos(omega/2), +/- sin(omega/2)); ``basis0`` and ``basis1`` are the
    orthonormal plane vectors in the ambient space.  ``phase_applied`` is
    the global phase stripped from the second state to make the overlap
    real and nonnegative: the stored pair represents the inputs
    (psi, phi * exp(-1j * phase_applied)).
    """

    omega: OverlapAngle
    psi: np.ndarray
    phi: np.ndarray
    basis0: np.ndarray
    basis1: np.ndarray
    phase_applied: float

    @property
    def psi_ambient(self) -> np.ndarray:
        """psi expanded in the ambient space."""
        return self.psi[0] * self.basis0 + self.psi[1] * self.basis1

    @property
    def phi_ambient(self) -> np.ndarray:
        """Phase-aligned phi expanded in the ambient space."""
        return self.phi[0] * self.basis0 + self.phi[1] * self.basis1


def make_pair(omega) -> SymmetricPair:
    """Build the canonical pair in the standard 2-dim basis.

    The overlap is cos^2(omega/2) - sin^2(omega/2) = cos(omega).
    """
    omega = _as_angle(omega)
    c, s = math.cos(omega.half), math.sin(omega.half)
    return SymmetricPair(
        omega=omega,
        psi=np.array([c, s], dtype=complex),
        phi=np.array([c, -s], dtype=complex),
        basis0=np.array([1.0, 0.0], dtype=complex),
        basis1=np.array([0.0, 1.0], dtype=complex),
        phase_applied=0.0,
    )


def reduce_pair(psi, phi) -> SymmetricPair:
    """Reduce an arbitrary-dimension normalized pair to canonical form.

    The phase arg(<psi|phi>) is stripped from phi (recorded as
    ``phase_applied``), after which basis0 is the normalized sum and basis1
    the normalized difference of the two states.  That choice makes the
    pair symmetric about basis0 and fixes the basis1 sign: the psi
    coefficient along basis1 is sin(omega/2) > 0.  Re-expanding the stored
    coordinates in (basis0, basis1) reproduces the inputs up to the
    recorded phase.
    """
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    if psi.ndim != 1 or phi.ndim != 1 or psi.shape != phi.shape:
        raise DimMismatch(f"states must have equal length, got {psi.shape} and {phi.shape}")
    if psi.size < 2:
        raise DimMismatch(f"states must have dim >= 2, got dim {psi.size}")
    for name, vec in (("psi", psi), ("phi", phi)):
        if not abs(np.linalg.norm(vec) - 1.0) <= TOL_NORM:  # NaN fails this too
            raise ValueError(f"{name} is not normalized (norm {np.linalg.norm(vec)!r})")

    overlap = complex(np.vdot(psi, phi))
    if abs(overlap) >= DEGENERACY_THRESHOLD:
        raise DegeneratePair("states are identical up to a global phase")

    phase = float(np.angle(overlap)) if abs(overlap) > 0.0 else 0.0
    phi_aligned = phi * np.exp(-1j * phase)
    omega = OverlapAngle(math.acos(abs(overlap)))
    c, s = math.cos(omega.half), math.sin(omega.half)
    return SymmetricPair(
        omega=omega,
        psi=np.array([c, s], dtype=complex),
        phi=np.array([c, -s], dtype=complex),
        basis0=(psi + phi_aligned) / (2.0 * c),
        basis1=(psi - phi_aligned) / (2.0 * s),
        phase_applied=phase,
    )


def product_state(s, copies: int) -> np.ndarray:
    """m-fold Kronecker power of a qubit state, dim 2^m.

    The overlap law <s^m|t^m> = <s|t>^m holds to roundoff.
    """
    if not (1 <= copies <= MAX_COPIES):
        raise CopiesOutOfRange(f"copies must lie in [1, {MAX_COPIES}], got {copies}")
    s = np.asarray(s, dtype=complex)
    if s.ndim != 1 or s.size != 2:
        raise DimMismatch(f"expected a dim-2 state, got shape {s.shape}")
    out = s
    for _ in range(copies - 1):
        out = kron(out, s)
    return out
