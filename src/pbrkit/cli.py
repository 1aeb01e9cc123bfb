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
import math
import os
import sys

import numpy as np

from .errors import DegeneratePair, ToolkitError
from .experiment import MAX_TRIALS, contradiction_report, render_report, report_as_dict, sample_outcomes
from .linalg import TOL_NORM, elementwise
from .measurement import build_C, build_M, cos_beta_raw, outcome_matrix, solve_measurement, within_boundary
from .reduction import alt_log_bound_raw, group_sizes, grouping_plan, pbr_counts
from .states import OverlapAngle, reduce_pair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DEGENERATE = 3
EXIT_CONTRADICTION = 4

# Norm deviations up to this are repaired by renormalizing (with a warning
# on stderr); anything larger is rejected as a usage error.
RENORM_LIMIT = 1e-8

# Figure rows are computed and written this many at a time, so memory does
# not grow with the resolution.
CSV_BLOCK = 2048


class _UsageError(Exception):
    """Flag or input problem; mapped to exit code 1 instead of argparse's 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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


def _figure_blocks(resolution: int):
    """The grid ``np.linspace(0.01, 0.99, resolution)``, CSV_BLOCK points at a time.

    Each point is computed as linspace computes it (0.01 + i * step, the last
    one set to 0.99), so the blocks hold the same bits and the whole grid is
    never allocated.  The resolution is checked at the call, not at the
    first block.
    """
    if resolution < 2:
        raise _UsageError(f"resolution must be >= 2, got {resolution}")
    step = (0.99 - 0.01) / (resolution - 1)

    def blocks():
        for start in range(0, resolution, CSV_BLOCK):
            grid = np.arange(start, min(start + CSV_BLOCK, resolution)) * step + 0.01
            if start + CSV_BLOCK >= resolution:
                grid[-1] = 0.99
            yield grid

    return blocks()


def _write_csv(path: str, header: str, row_format: str, blocks, columns) -> None:
    """Write the header, then ``row_format`` over ``columns(block)`` for each grid block."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header + "\n")
        for grid in blocks:
            rows = zip(*(col.tolist() for col in columns(grid)))
            fh.write("".join([row_format % row for row in rows]))


def cmd_solve(args) -> int:
    angle = OverlapAngle.from_cos(args.cos_omega)
    sol = solve_measurement(angle)
    print(f"cos_omega = {_g17(args.cos_omega)}")
    print(f"cos_beta_raw = {_g17(sol.cos_beta_raw)}")
    if not sol.feasible:
        print("INFEASIBLE: no real beta nulls the diagonal at this overlap; group devices first")
        return EXIT_INFEASIBLE
    print(f"beta = {_g17(sol.beta)}")
    print(f"alpha = {_g17(sol.alpha)}")
    probs = outcome_matrix(angle, sol.alpha, sol.beta)
    print(_format_matrix("M", build_M(sol.alpha, sol.beta)))
    print(_format_matrix("C", build_C(angle)))
    print(_format_matrix("P", probs.p))
    print(f"max diagonal probability = {_g17(probs.p.diagonal().max())}")
    return EXIT_OK


# The figure columns take omega = acos(c) and its cosine from libm, element by
# element, as OverlapAngle.from_cos(c) does: cos(acos(c)) can differ from c in
# the last bit, and the printed values follow it.


def _fig1_columns(grid: np.ndarray):
    cos_omega = elementwise(math.cos, elementwise(math.acos, grid))
    return grid, cos_beta_raw(cos_omega), np.where(within_boundary(cos_omega), "true", "false")


def _fig2_columns(grid: np.ndarray):
    omega = elementwise(math.acos, grid)
    n_pbr = pbr_counts(elementwise(math.tan, omega / 2.0))
    n_alt = 2 * group_sizes(elementwise(math.cos, omega))
    return grid, n_pbr, n_alt, alt_log_bound_raw(grid)


def cmd_fig1(args) -> int:
    _write_csv(args.out, "cos_omega,cos_beta,feasible", "%.17g,%.17g,%s\n",
               _figure_blocks(args.resolution), _fig1_columns)
    return EXIT_OK


def cmd_fig2(args) -> int:
    _write_csv(args.out, "cos_omega,n_pbr,n_alt,n_alt_log_raw", "%.17g,%d,%d,%.17g\n",
               _figure_blocks(args.resolution), _fig2_columns)
    return EXIT_OK


def _parse_state(obj: dict, name: str, dim: int) -> np.ndarray:
    entries = obj.get(name)
    if not isinstance(entries, list) or len(entries) != dim:
        raise _UsageError(f"'{name}' must be a list of {dim} [re, im] pairs")
    vec = np.empty(dim, dtype=complex)
    for k, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise _UsageError(f"'{name}[{k}]' must be a [re, im] pair")
        try:
            vec[k] = complex(float(entry[0]), float(entry[1]))
        except (TypeError, ValueError):
            raise _UsageError(f"'{name}[{k}]' holds non-numeric values") from None
    return vec


def _load_pair(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("dim"), int):
        raise _UsageError("input must be an object with integer 'dim' and lists 'psi', 'phi'")
    dim = obj["dim"]
    if dim < 2:
        raise _UsageError(f"'dim' must be >= 2, got {dim}")
    return _parse_state(obj, "psi", dim), _parse_state(obj, "phi", dim)


def _checked_norm(name: str, vec: np.ndarray) -> np.ndarray:
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= RENORM_LIMIT:  # NaN fails this too
        raise _UsageError(f"{name} norm deviates by {dev:.3e}, beyond {RENORM_LIMIT:g}")
    if dev > TOL_NORM:
        print(f"warning: renormalizing {name} (norm deviation {dev:.3e})", file=sys.stderr)
        return vec / np.linalg.norm(vec)
    return vec


def cmd_reduce(args) -> int:
    psi, phi = _load_pair(args.in_path)
    psi = _checked_norm("psi", psi)
    phi = _checked_norm("phi", phi)
    try:
        pair = reduce_pair(psi, phi)
    except DegeneratePair:
        print("error: states identical up to phase", file=sys.stderr)
        return EXIT_DEGENERATE
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
    if args.trials < 1:
        raise _UsageError(f"trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise _UsageError(f"trials must be <= 2**63 - 1, got {args.trials}")
    if args.seed < 0:
        raise _UsageError(f"seed must be >= 0, got {args.seed}")
    angle = OverlapAngle.from_cos(args.cos_omega)
    sol = solve_measurement(angle)
    effective = angle
    if not sol.feasible:
        plan = grouping_plan(angle)
        effective = plan.effective_omega
        sol = solve_measurement(effective)
        print(f"reduced: n={plan.n}, effective cos = {_g17(effective.cos)}")
    probs = outcome_matrix(effective, sol.alpha, sol.beta)
    print(f"cos_omega = {_g17(args.cos_omega)}, beta = {_g17(sol.beta)}, alpha = {_g17(sol.alpha)}")
    print(f"trials = {args.trials} per preparation, base seed = {args.seed}")
    fired = 0
    for j in (1, 2, 3, 4):
        tally = sample_outcomes(probs, j, args.trials, args.seed + (j - 1))
        fired += tally.counts[j - 1]
        joined = ", ".join(str(k) for k in tally.counts)
        print(
            f"preparation {j}: counts = [{joined}],"
            f" forbidden outcome {j} count = {tally.counts[j - 1]}"
        )
    if fired:
        print(f"statistical contradiction: forbidden outcomes fired {fired} times")
        return EXIT_CONTRADICTION
    print("forbidden outcomes fired 0 times")
    return EXIT_OK


def cmd_report(args) -> int:
    rep = contradiction_report(OverlapAngle.from_cos(args.cos_omega), args.epsilon)
    if args.as_json:
        print(json.dumps(report_as_dict(rep), indent=2, sort_keys=True))
    else:
        print(render_report(rep))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; subcommand ``name`` is carried out by ``cmd_<name>``."""
    parser = _Parser(
        prog="pbrkit",
        description="Forbidden-outcome construction for pairwise-overlapping preparations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("solve", help="solve the measurement phases at one overlap value")
    p.add_argument("--cos-omega", dest="cos_omega", type=float, required=True,
                   help="overlap cos(omega) in [0, 1)")

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

    p = sub.add_parser("simulate", help="sample outcome counts for all four joint preparations")
    p.add_argument("--cos-omega", dest="cos_omega", type=float, required=True,
                   help="overlap cos(omega) in [0, 1)")
    p.add_argument("--trials", type=int, default=10000,
                   help="samples per preparation (default 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; preparation j samples with seed + j - 1 (default 0)")

    p = sub.add_parser("report", help="render the epsilon^n incompatibility report")
    p.add_argument("--cos-omega", dest="cos_omega", type=float, required=True,
                   help="overlap cos(omega) in [0, 1)")
    p.add_argument("--epsilon", type=float, required=True,
                   help="assumed per-device compatibility probability in [0, 1]")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit a JSON record instead of text")

    return parser


# Built by the first main() call and reused by every later one; parsing
# keeps no state in the parser between calls.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        # Looked up by name at each call, so a rebound cmd_* is the one that runs.
        return globals()["cmd_" + args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneratePair as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader of the output went away; there is nobody left to tell
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


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
