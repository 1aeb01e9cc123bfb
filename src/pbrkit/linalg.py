"""Dense complex linear algebra at small fixed dimensions, and libm over arrays.

State vectors are 1-d complex ndarrays, operators are square 2-d complex
ndarrays.  Everything in scope is closed-form at dimension <= 1024, so plain
dense numpy in double precision is all that is needed.
"""

import numpy as np

from .errors import DimMismatch, KindMismatch

# Default tolerance for normalization checks.  All values here are
# closed-form at dim <= 1024; double precision leaves >= 5 orders of margin.
TOL_NORM = 1e-10


def kron(a, b) -> np.ndarray:
    """Kronecker product of two vectors or of two square matrices.

    Index (i * dim(b) + k) of the result holds a[i] * b[k]: the first factor
    is the high-order index, so kron((1,0), (0,1)) is the second of the four
    product basis states.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise KindMismatch(
            f"operands must both be vectors or both square matrices, got ndim {a.ndim} and {b.ndim}"
        )
    if a.ndim == 2 and (a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]):
        raise DimMismatch(f"matrices must be square, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def elementwise(fn, *arrays) -> np.ndarray:
    """``fn`` (a ``math`` function) applied element by element, as floats.

    The result has the shape of the first array.  numpy's own arccos, cos,
    tan, log and power can differ from the C library's in the last bit, so
    array code that must give what the scalar ``math`` call gives, bit for
    bit, takes its transcendentals from here.
    """
    shape = np.shape(arrays[0])
    values = (np.asarray(a).ravel().tolist() for a in arrays)
    return np.fromiter(map(fn, *values), float, np.size(arrays[0])).reshape(shape)
