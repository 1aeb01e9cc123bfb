"""Reference constructions the tests check pbrkit against.

pbrkit builds none of these.  The pair in the standard basis and its tensor
powers (from ``np.kron``) check the columns of ``build_C`` and the group
overlap cos^m(omega); the tan form checks the closed form of cos(beta); the
ambient re-expansion checks the ``reduce_pair`` round trip; mpmath at 60
digits checks the device counts.
"""

from functools import reduce
from typing import NamedTuple

import mpmath
import numpy as np

from pbrkit import OverlapAngle, SymmetricPair

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
        raise ValueError(f"expected a dim-2 state, got shape {s.shape}")
    return reduce(np.kron, [s] * copies)


def cos_beta_tan_form(omega: OverlapAngle) -> float:
    """cos(beta) in the tan-power form (t^-3 - 4 t^-1 - t) / 4 with t = tan(omega/2).

    It equals ``cos_beta_raw`` at cos(omega), but diverges like t^-3 as
    omega -> 0, so pbrkit uses the closed form.
    """
    t = omega.tan_half
    return 0.25 * (t**-3 - 4.0 / t - t)


def exact_counts(c: float) -> tuple[int, int]:
    """(m, n_pbr) past the boundary: mpmath's ceilings of ln 2 / (-2 ln c) and
    ln 2 / ln(1 + tan(omega/2)) at the double c, at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(c)
        t = mpmath.sqrt((1 - x) / (1 + x))
        return int(mpmath.ceil(mpmath.log(2) / (-2 * mpmath.log(x)))), int(mpmath.ceil(mpmath.log(2) / mpmath.log1p(t)))


def group_size_minimal(c: float, m: int) -> bool:
    """c^m <= sqrt(2)/2 < c^(m-1) at the double c, by direct powering at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(c)
        return x**m <= mpmath.sqrt(mpmath.mpf(1) / 2) < x ** (m - 1)


def pbr_count_minimal(c: float, n: int) -> bool:
    """2^(1/n) - 1 <= tan(omega/2) < 2^(1/(n-1)) - 1 at the double c, at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(c)
        t = mpmath.sqrt((1 - x) / (1 + x))
        return 2 ** (mpmath.mpf(1) / n) - 1 <= t < 2 ** (mpmath.mpf(1) / (n - 1)) - 1


def near_integer_cos() -> list[float]:
    """Doubles at which a count's float quotient lies within rounding of an integer.

    2^(-1/(2m)) rounded puts ln 2 / (-2 ln c) at m, and the c with
    tan(omega/2) = 2^(1/n) - 1 rounded puts ln 2 / ln(1 + tan(omega/2)) at n,
    each within 1e-13 of it (relative); from n = 41 on, rounding c moves the
    second quotient further.  At 1 - k 2^-53 for k < 100, ln 2 / (-2 ln c)
    passes 3e13, where every double is within 1e-13 (relative) of an
    integer and the ceiling of the float quotient is one low at a few k.
    """
    halves = [2.0 ** (1.0 / n) - 1.0 for n in range(3, 41)]
    return (
        [2.0 ** (-1.0 / (2 * m)) for m in range(2, 100)]
        + [(1.0 - t * t) / (1.0 + t * t) for t in halves]
        + [1.0 - k * 2.0**-53 for k in range(1, 100)]
    )
