"""Command-line interface for the toolkit.

Subcommands:

* ``solve``     solve the measurement phases at one overlap value
* ``fig1``      CSV of cos(beta) against cos(omega) over a grid
* ``fig2``      CSV comparing minimal device counts of both proof routes
* ``reduce``    reduce a JSON-encoded state pair to its two-dim core
* ``simulate``  sample outcome counts for all four joint preparations
* ``report``    render the epsilon^n incompatibility report

Exit codes: 0 success, 1 usage or IO error, 2 infeasible overlap,
3 degenerate state pair, 4 statistical contradiction (a forbidden
outcome fired in simulation).
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import DegeneratePair, ToolkitError
from .experiment import contradiction_report, render_report, sample_outcomes
from .linalg import TOL_NORM
from .measurement import build_C, build_M, cos_beta_raw, outcome_matrix, solve_measurement, within_boundary
from .reduction import device_counts, grouping_plan
from .states import OverlapAngle, reduce_pair, state_norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DEGENERATE = 3
EXIT_CONTRADICTION = 4

# Norm deviations up to this are repaired by renormalizing (with a warning
# on stderr); anything larger is rejected as a usage error.
RENORM_LIMIT = 1e-8


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, where argparse's own is 2
        raise ToolkitError(message)


def _g17(x) -> str:
    """17 significant digits, the round-trip-exact form for doubles."""
    return format(float(x), ".17g")


def _fill(values, fmt: str) -> list:
    """numpy's maxprec fill: each ``fmt % v`` less its trailing zeros, padded at the
    '.' to the widest in ``values``; (text, right padding) pairs, so a 'j' fits between."""
    parts = [(fmt % v).rstrip("0").split(".") for v in values]
    left, right = max(len(i) for i, _ in parts), max(len(f) for _, f in parts)
    return [(i.rjust(left) + "." + f, " " * (right - len(f))) for i, f in parts]


def _layout(words: list, shape: tuple, indent: str, width: int) -> str:
    """numpy's _formatArray: brackets, rows wrapped at ``width`` under a hanging
    ``indent``.  No word comes near a line's width, so numpy's rule against
    wrapping a line that holds only the indent never applies."""
    if len(shape) > 1:
        step = len(words) // shape[0]
        rows = [_layout(words[k:k + step], shape[1:], indent + " ", width - 1)
                for k in range(0, len(words), step)]
        return "[" + ("\n" * (len(shape) - 1) + indent).join(rows) + "]"
    text, line = "", indent
    for word in words:
        if len(line) + len(word) > width - 1:
            text += line.rstrip() + "\n"
            line = indent
        line += word + " "
    return "[" + (text + line)[len(indent):-1] + "]"


def _format_matrix(name: str, m: np.ndarray) -> str:
    """``name =`` over the bytes of ``np.array2string(m, precision=6, suppress_small=True,
    max_line_width=140)``, in plain Python: ``"%.6f"`` less its trailing zeros is numpy's
    Dragon4 at precision 6, trim '.'.  Domain: finite entries of modulus < 1e8 (no exponent
    format), at most 1000 of them unless ``m`` is 1-d; pbrkit prints entries of modulus <= 1.
    """
    values = m.ravel().tolist()
    if m.size > 1000:  # numpy summarises to three entries at each end
        values = values[:3] + values[-3:]
    if m.dtype.kind == "c":
        parts = zip(_fill([v.real for v in values], "%.6f"), _fill([v.imag for v in values], "%+.6f"))
        words = [r + r_pad + i + "j" + i_pad for (r, r_pad), (i, i_pad) in parts]
    else:
        words = [s + pad for s, pad in _fill(values, "%.6f")]
    if m.size > 1000:
        words[3:3] = ["..."]
    return f"{name} =\n{_layout(words, m.shape, ' ', 140)}"


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


def cmd_solve(args) -> int:
    angle = OverlapAngle(cos=args.cos_omega)
    phases = solve_measurement(angle)
    print(f"cos_omega = {_g17(angle.cos)}")
    print(f"cos_beta_raw = {_g17(cos_beta_raw(angle.cos))}")
    if phases is None:
        print("INFEASIBLE: no real beta nulls the diagonal at this overlap; group devices first")
        return EXIT_INFEASIBLE
    alpha, beta = phases
    print(f"beta = {_g17(beta)}")
    print(f"alpha = {_g17(alpha)}")
    probs = outcome_matrix(angle, alpha, beta)
    print(_format_matrix("M", build_M(alpha, beta)))
    print(_format_matrix("C", build_C(angle)))
    print(_format_matrix("P", probs))
    print(f"max diagonal probability = {_g17(probs.diagonal().max())}")
    return EXIT_OK


def _fig1_columns(grid: np.ndarray):
    return grid, cos_beta_raw(grid), within_boundary(grid)


def _fig2_columns(grid: np.ndarray):
    return grid, *device_counts(grid)


def cmd_fig1(args) -> int:
    _write_csv(args.out, "cos_omega,cos_beta,feasible", args.resolution, _fig1_columns)
    return EXIT_OK


def cmd_fig2(args) -> int:
    _write_csv(args.out, "cos_omega,n_pbr,n_alt,n_alt_log_raw", args.resolution, _fig2_columns)
    return EXIT_OK


def _parse_state(obj: dict, name: str, dim: int) -> np.ndarray:
    entries = obj.get(name)
    if not isinstance(entries, list) or len(entries) != dim:
        raise ToolkitError(f"'{name}' must be a list of {dim} [re, im] pairs")
    vec = np.empty(dim, dtype=complex)
    for k, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ToolkitError(f"'{name}[{k}]' must be a [re, im] pair")
        # float() would take JSON true as 1.0 and "0.6" as 0.6
        if not all(type(x) in (int, float) for x in entry):
            raise ToolkitError(f"'{name}[{k}]' holds non-numeric values")
        try:
            vec[k] = complex(float(entry[0]), float(entry[1]))
        except OverflowError:
            raise ToolkitError(f"'{name}[{k}]' holds an integer beyond float range") from None
    return vec


def _load_pair(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, non-UTF-8, too deep
        raise ToolkitError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or type(obj.get("dim")) is not int:  # a bool is an int too
        raise ToolkitError("input must be an object with integer 'dim' and lists 'psi', 'phi'")
    dim = obj["dim"]
    if dim < 2:
        raise ToolkitError(f"'dim' must be >= 2, got {dim}")
    return _parse_state(obj, "psi", dim), _parse_state(obj, "phi", dim)


def _checked_norm(name: str, vec: np.ndarray) -> np.ndarray:
    norm = state_norm(vec)
    dev = abs(norm - 1.0)
    if not dev <= RENORM_LIMIT:  # NaN fails this too
        raise ToolkitError(f"{name} norm deviates by {dev:.3e}, beyond {RENORM_LIMIT:g}")
    if dev > TOL_NORM:
        print(f"warning: renormalizing {name} (norm deviation {dev:.3e})", file=sys.stderr)
        return vec / norm
    return vec


def cmd_reduce(args) -> int:
    psi, phi = _load_pair(args.in_path)
    psi = _checked_norm("psi", psi)
    phi = _checked_norm("phi", phi)
    pair = reduce_pair(psi, phi)
    plan = grouping_plan(pair.omega)
    print(f"cos_omega = {_g17(pair.omega.cos)}")
    print(f"omega = {_g17(pair.omega.omega)}")
    print(f"phase_applied = {_g17(pair.phase_applied)}")
    print(_format_matrix("basis0", pair.basis0))
    print(_format_matrix("basis1", pair.basis1))
    print(f"grouping: n = {plan.n} devices in two groups of {plan.group_size}")
    print(f"effective cos = {_g17(plan.effective_omega.cos)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    omega = OverlapAngle(cos=args.cos_omega)
    plan = grouping_plan(omega)
    effective = plan.effective_omega
    alpha, beta = solve_measurement(effective)
    probs = outcome_matrix(effective, alpha, beta)
    # All four draws come first, so a rejected trials or seed prints nothing.
    drawn = [sample_outcomes(probs, j, args.trials, args.seed + (j - 1)) for j in (1, 2, 3, 4)]
    if plan.n > 2:
        print(f"reduced: n={plan.n}, effective cos = {_g17(effective.cos)}")
    print(f"cos_omega = {_g17(omega.cos)}, beta = {_g17(beta)}, alpha = {_g17(alpha)}")
    print(f"trials = {args.trials} per preparation, base seed = {args.seed}")
    fired = 0
    for j, counts in enumerate(drawn, start=1):
        fired += counts[j - 1]
        joined = ", ".join(str(k) for k in counts)
        print(f"preparation {j}: counts = [{joined}], forbidden outcome {j} count = {counts[j - 1]}")
    if fired:
        print(f"statistical contradiction: forbidden outcomes fired {fired} times")
        return EXIT_CONTRADICTION
    print("forbidden outcomes fired 0 times")
    return EXIT_OK


def cmd_report(args) -> int:
    record = contradiction_report(OverlapAngle(cos=args.cos_omega), args.epsilon)
    print(json.dumps(record, indent=2, sort_keys=True) if args.as_json else render_report(record))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; subcommand ``name`` is carried out by ``cmd_<name>``, and
    the parser's ``commands`` maps each name to its subcommand's parser."""
    parser = _Parser(
        prog="pbrkit",
        description="Forbidden-outcome construction for pairwise-overlapping preparations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    parser.commands = sub.choices
    overlap = argparse.ArgumentParser(add_help=False)
    overlap.add_argument("--cos-omega", dest="cos_omega", type=float, required=True,
                         help="overlap cos(omega) in [0, 1)")

    sub.add_parser("solve", parents=[overlap], help="solve the measurement phases at one overlap value")

    for name, help_text in (
        ("fig1", "emit cos(beta) curve data as CSV"),
        ("fig2", "emit minimal-device-count comparison data as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--resolution", type=int, default=200,
                       help="grid points over cos(omega) in [0.01, 0.99] (default 200)")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("reduce", help="reduce a JSON state pair to its two-dim core")
    p.add_argument("--in", dest="in_path", required=True,
                   help="JSON file: {dim, psi: [[re, im], ...], phi: [...]}")

    p = sub.add_parser("simulate", parents=[overlap], help="sample outcome counts for all four joint preparations")
    p.add_argument("--trials", type=int, default=10000,
                   help="samples per preparation (default 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; preparation j samples with seed + j - 1 (default 0)")

    p = sub.add_parser("report", parents=[overlap], help="render the epsilon^n incompatibility report")
    p.add_argument("--epsilon", type=float, required=True,
                   help="assumed per-device compatibility probability in [0, 1]")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit a JSON record instead of text")

    return parser


# Every main() call parses with this one parser, which keeps no state between calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # An argv that opens with a command name goes straight to that command's
    # parser, as the full parser would pass it on; anything else (help, no or
    # an unknown command) takes the full parser and its messages.
    subparser = _PARSER.commands.get(argv[0]) if argv else None
    try:
        try:
            if subparser is None:
                args = _PARSER.parse_args(argv)
            else:
                args = subparser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        except SystemExit as exc:  # argparse's exit after --help
            return exc.code
        # Looked up by name at each call, so a rebound cmd_* is the one that runs.
        return globals()["cmd_" + args.command](args)
    except BrokenPipeError:
        # the reader of the output went away; there is nobody left to tell
        return EXIT_USAGE
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegeneratePair) else EXIT_USAGE


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer cannot raise again on the way out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
