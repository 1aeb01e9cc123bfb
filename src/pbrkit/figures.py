"""The fig1 and fig2 CSVs: each figure's columns over the grid of overlaps, and
the array encoder that writes them.  Only ``cli.cmd_fig1`` and ``cli.cmd_fig2``
import this module, so no other command loads it or builds its tables."""

import numpy as np

from .errors import ToolkitError
from .measurement import cos_beta_raw, within_boundary
from .reduction import device_counts

# Figure rows are computed and encoded this many at a time: the encoder's
# arrays for one block are the largest allocations of fig1/fig2, and memory
# does not grow with the resolution.
ENCODE_ROWS = 2048

# 10**k for k = 0..20, each an exact double, and Veltkamp's split of each into
# two halves of at most 26 significant bits.
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# The least double >= 10**k for k = -4..15: the doubles nearest 1e-4..1e-1
# lie above those powers.  A double a in [1e-4, 1e16) has decimal exponent
# X = (entries <= a) - 5.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1] + [float(10**k) for k in range(16)])


def _significand(values: np.ndarray):
    """Which of ``values`` have modulus in [1e-4, 1e16), and there the decimal
    exponent X of each (int8) and its 17 significant digits: the integer
    rint(|x| * 10**(16 - X)) in [1e16, 1e17), ties to even.

    Dekker's product gives a * 10**(16 - X) exactly as p + e, p the rounded
    product.  There p is an even integer >= 2**53, so rint(e) rounds a tie to
    even, as %.17g does.  The product never rounds up to 10**17: the largest
    double below each power of ten in this range scales to under 10**17 - 8.
    """
    a = np.abs(values)
    exact = (a >= 1e-4) & (a < 1e16)
    a[~exact] = 1.0
    scale = np.searchsorted(_DECADES, a, side="right")
    np.subtract(21, scale, out=scale)  # 16 - X
    p = _POW10.take(scale)
    p *= a
    a_hi = a * 134217729.0  # Veltkamp's split, 2**27 + 1
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    b_hi, b_lo = _POW10_HI.take(scale), _POW10_LO.take(scale)
    # e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo, in place
    e = np.multiply(a_hi, b_hi, out=a)
    e -= p
    for x, y in ((a_hi, b_lo), (b_hi, a_lo), (a_lo, b_lo)):
        e += np.multiply(x, y, out=x)
    del a_hi, a_lo, b_hi, b_lo, x, y  # freed before the integer arrays are made
    digits = p.astype(np.int64)
    digits += np.rint(e, out=e).astype(np.int64)
    return exact, np.subtract(16, scale, out=scale).astype(np.int8), digits


_SEVENTEEN = np.arange(17, dtype=np.uint8)[:, None]


def _digit_chars(digits: np.ndarray) -> np.ndarray:
    """Row k: the character of digit k of the 17 digits of each of ``digits``,
    which is overwritten."""
    chars = np.empty((18, len(digits)), np.uint8)
    q = np.empty((6, len(digits)), np.float32)
    # Three 6-digit groups, low to high, each exact in float32, where floor and
    # subtraction give its digits; the first of the 18 characters is always '0'.
    for row in (12, 6, 0):
        high = digits // 10**6
        digits -= high * 10**6
        q[5] = digits
        for k in range(5):  # row by row: a broadcast division allocates ufunc buffers
            np.divide(q[5], 10.0 ** (5 - k), out=q[k])
        digits = high
        np.floor(q, out=q)
        q[3:] -= 10 * q[2:5]
        q[1:3] -= 10 * q[:2]
        chars[row:row + 6] = q
    chars += ord("0")
    return chars[1:]


def _place(region: np.ndarray, rows, chars: np.ndarray, exponent: int, negative: int) -> None:
    """Write into ``region[rows]`` the fixed-notation %.17g of values with decimal
    exponent ``exponent`` (-4..15) and 17 digits ``chars``, NUL past the last kept."""
    prefix = b"-"[:negative] + (b"0." + b"0" * (-exponent - 1) if exponent < 0 else b"")
    for k, char in enumerate(prefix):  # a column at a time is the fastest constant fill
        region[rows, k] = char
    at = len(prefix)
    if exponent < 0:
        region[rows, at:at + 17] = chars.T
    else:
        dot = at + exponent + 1
        region[rows, at:dot] = (chars[:exponent + 1] | ord("0")).T  # integer digits are never trimmed
        region[rows, dot] = np.minimum(chars[exponent + 1], ord("."))  # '.' only before a kept digit
        region[rows, dot + 1:dot + 17 - exponent] = chars[exponent + 1:].T


def _float_field(values: np.ndarray):
    """``"%.17g" % v`` of each float of ``values`` as a field of _csv_rows: the
    width of the longest, and a function that writes the texts into a region
    that wide.  Values with modulus in [1e-4, 1e16) are laid out from their
    significand in fixed notation; others (zero, exponent form, inf, nan) take
    Python's ``%``."""
    exact, exponent, digits = _significand(values)
    texts = [(r, ("%.17g" % values[r]).encode("ascii")) for r in np.flatnonzero(~exact).tolist()]
    # Class 2 (X + 4) + negative has one layout; class 40 is the rows that take %.
    cls = np.where(exact, 2 * (exponent + 4) + (values < 0), 40)
    chars = _digit_chars(digits)
    last = (_SEVENTEEN * (chars != ord("0"))).max(axis=0)
    chars *= (_SEVENTEEN <= last).view(np.uint8)  # NUL after the last nonzero digit
    counts = np.bincount(cls, minlength=41)[:40]
    classes = sorted(np.flatnonzero(counts).tolist(), key=counts.__getitem__, reverse=True)
    widths = [c % 2 + 18 - min(c // 2 - 4, 0) for c in classes] + [len(t) for _, t in texts]

    def fill(region):
        # The commonest class fills every row; the other rows are cleared and rewritten.
        for c in classes:
            rows = slice(None)
            if c != classes[0]:
                rows = np.flatnonzero(cls == c)
                region[rows] = 0
            _place(region, rows, chars[:, rows], c // 2 - 4, c % 2)
        for r, text in texts:
            region[r] = np.frombuffer(text.ljust(region.shape[1], b"\0"), np.uint8)

    return max(widths), fill


def _table_field(values: np.ndarray):
    """``"%d" % v`` of each integer of ``values``, or ``true``/``false`` of each
    boolean, as _float_field gives a field: each run of equal adjacent values is
    formatted once, and the rows repeat that table."""
    ends = np.flatnonzero(values[1:] != values[:-1]).tolist() + [len(values) - 1]
    if values.dtype == bool:
        texts = [b"true" if v else b"false" for v in values[ends].tolist()]
    else:
        texts = [b"%d" % v for v in values[ends].tolist()]
    width = max(len(t) for t in texts)
    table = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint8).reshape(-1, width)
    runs = [end - before for before, end in zip([-1] + ends, ends)]
    return width, lambda region: np.copyto(region, table.repeat(runs, axis=0))


def _csv_rows(columns: list) -> np.ndarray:
    """The CSV lines of ``columns`` as the rows of a uint8 matrix, NUL after
    each: a float column as ``%.17g``, an integer column as ``%d``, a boolean
    one as ``true``/``false``.  The text is the nonzero bytes; each field is as
    wide as its longest entry.  ``columns`` is emptied as the fields are built,
    so a column held nowhere else is freed once its field no longer needs it."""
    n = len(columns[0])
    fields = []
    while columns:
        col = columns.pop(0)
        fields.append(_float_field(col) if col.dtype.kind == "f" else _table_field(col))
    rows = np.zeros((n, sum(width + 1 for width, _ in fields)), np.uint8)
    start = 0
    for width, fill in fields:
        fill(rows[:, start:start + width])
        rows[:, start + width] = ord(",")
        start += width + 1
    rows[:, -1] = ord("\n")
    return rows


def _write_csv(path: str, header: str, resolution: int, columns) -> None:
    """Write the header, then the rows of ``columns(grid)`` over the grid
    ``np.linspace(0.01, 0.99, resolution)``, ENCODE_ROWS points at a time.

    Each point is computed as linspace computes it (0.01 + i * step, the last
    one set to 0.99), so the blocks hold the same bits and the whole grid is
    never allocated.  The resolution is checked before the file is opened.
    """
    if resolution < 2:
        raise ToolkitError(f"resolution must be >= 2, got {resolution}")
    step = (0.99 - 0.01) / (resolution - 1)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, resolution, ENCODE_ROWS):
            grid = np.arange(start, min(start + ENCODE_ROWS, resolution)) * step + 0.01
            if start + ENCODE_ROWS >= resolution:
                grid[-1] = 0.99
            # One expression, so each block's matrix is freed once its bytes are made.
            fh.write(_csv_rows(list(columns(grid))).tobytes().replace(b"\0", b""))


def _fig1_columns(grid: np.ndarray):
    return grid, cos_beta_raw(grid), within_boundary(grid)


def _fig2_columns(grid: np.ndarray):
    return grid, *device_counts(grid)


def write_fig1(path: str, resolution: int) -> None:
    _write_csv(path, "cos_omega,cos_beta,feasible", resolution, _fig1_columns)


def write_fig2(path: str, resolution: int) -> None:
    _write_csv(path, "cos_omega,n_pbr,n_alt,n_alt_log_raw", resolution, _fig2_columns)
