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
from .measurement import build_C, build_M, cos_beta_raw, outcome_matrix, solve_measurement
from .reduction import grouping_plan
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


def cmd_fig1(args) -> int:
    from . import figures  # only the figure commands load the encoder

    figures.write_fig1(args.out, args.resolution)
    return EXIT_OK


def cmd_fig2(args) -> int:
    from . import figures

    figures.write_fig2(args.out, args.resolution)
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
