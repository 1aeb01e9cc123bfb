"""The normalization tolerance, and libm functions applied over arrays."""

import numpy as np

# Default tolerance for normalization checks.  A norm computed in double
# precision is off by about dim * 1e-16, so this leaves orders of margin.
TOL_NORM = 1e-10


def elementwise(fn, *arrays) -> np.ndarray:
    """``fn`` (a ``math`` function) applied element by element, as floats.

    The result has the shape of the first array.  numpy's own log can differ
    from the C library's in the last bit, so ``alt_log_bound_raw``, whose
    array result must give what the scalar ``math.log`` call gives, bit for
    bit, takes its log from here.
    """
    shape = np.shape(arrays[0])
    values = (np.asarray(a).ravel().tolist() for a in arrays)
    return np.fromiter(map(fn, *values), float, np.size(arrays[0])).reshape(shape)
