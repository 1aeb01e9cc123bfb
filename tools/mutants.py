"""Mutation check: each deliberately broken copy of ``src/`` must fail the tests named for it.

    python tools/mutants.py

Each mutant is a file under ``src/``, an exact old text that must occur there
exactly once, its replacement, and the tests that must kill it.  For each
mutant the script copies ``src/`` to a temporary directory, applies the
mutant, and runs those tests against the copy.  A no-op mutant runs first and
must survive: if it were killed, the tests would fail on the code as it is,
and no other verdict would mean anything.

Exits 0 when the no-op survives and every other mutant is killed; 1 when a
mutant survives, the no-op is killed, an old text is not found exactly once,
or pytest ends other than by passing or failing (a missing test, say).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


NO_OP = Mutant(
    "no-op", "pbrkit/cli.py", "ENCODE_ROWS = 2048\n", "ENCODE_ROWS = 2048\n",
    ("tests/test_cli.py::test_figure_rows_independent_of_block_size",),
)

MUTANTS = [
    Mutant(
        "BOUNDARY_TOL (1e-12) back in the group size's closed form", "pbrkit/reduction.py",
        "_ceiling(-0.5 * _LOG_2 / math.log(c), c, pbr=False)",
        "_ceiling(math.log(math.sqrt(0.5) + 1e-12) / math.log(c), c, pbr=False)",
        ("tests/test_properties.py::test_device_counts_are_mpmath_ceilings",),
    ),
    Mutant(
        "the near-integer guard never fires", "pbrkit/reduction.py",
        "    return abs((x + 0.5) % 1.0 - 0.5) <= 1e-13 * x\n",
        "    return False\n",
        ("tests/test_properties.py::test_device_counts_are_mpmath_ceilings",),
    ),
    Mutant(
        "device_counts keeps the float ceiling at guarded rows", "pbrkit/reduction.py",
        "    for i in np.flatnonzero(outside & (_near_integer(x_pbr) | _near_integer(raw))).tolist():\n",
        "    for i in []:\n",
        ("tests/test_reduction.py::test_device_counts_equal_one_overlap_counts_where_guarded",),
    ),
    Mutant(
        "matrix rows wrapped at 140 columns, not 139", "pbrkit/cli.py",
        "        if len(line) + len(word) > width - 1:\n",
        "        if len(line) + len(word) > width:\n",
        ("tests/test_cli.py::test_format_matrix_is_array2string",),
    ),
    Mutant(
        "table field one column short", "pbrkit/cli.py",
        "np.copyto(region, table.repeat(runs, axis=0))",
        "np.copyto(region[:, :-1], table[:, :-1].repeat(runs, axis=0))",
        ("tests/test_cli.py::test_csv_rows_match_percent_formatting",),
    ),
    Mutant(
        "float field one column short", "pbrkit/cli.py",
        "[c % 2 + 18 - min(c // 2 - 4, 0) for c in classes]",
        "[c % 2 + 17 - min(c // 2 - 4, 0) for c in classes]",
        ("tests/test_cli.py::test_csv_rows_match_percent_formatting",),
    ),
    Mutant(
        "floor for rint in _significand", "pbrkit/cli.py",
        "np.rint(e, out=e)", "np.floor(e, out=e)",
        ("tests/test_cli.py::test_csv_rows_match_percent_formatting",),
    ),
    Mutant(
        "one trailing zero left in place", "pbrkit/cli.py",
        "(_SEVENTEEN <= last)", "(_SEVENTEEN <= last + 1)",
        ("tests/test_cli.py::test_csv_rows_match_percent_formatting",),
    ),
    Mutant(
        "tan(omega/2) without its square root", "pbrkit/states.py",
        "        return math.sqrt((1.0 - self.cos) / (1.0 + self.cos))\n",
        "        return (1.0 - self.cos) / (1.0 + self.cos)\n",
        ("tests/test_properties.py::test_half_angles_within_one_ulp",),
    ),
    Mutant(
        "_table_field drops its last run", "pbrkit/cli.py",
        "np.flatnonzero(values[1:] != values[:-1]).tolist() + [len(values) - 1]",
        "np.flatnonzero(values[1:] != values[:-1]).tolist()",
        ("tests/test_cli.py::test_csv_rows_match_percent_formatting",),
    ),
    Mutant(
        "the grid's last point not set to 0.99", "pbrkit/cli.py",
        "                grid[-1] = 0.99\n", "                pass\n",
        ("tests/test_cli.py::test_figure_blocks_are_linspace",),
    ),
    Mutant(
        "the report's verdict back at <= 1e-10", "pbrkit/experiment.py",
        "max_diagonal < PROB_FLOOR", "max_diagonal <= 1e-10",
        ("tests/test_experiment.py::test_report_and_sampler_agree_at_the_floor",),
    ),
    Mutant(
        "main returns EXIT_USAGE after --help", "pbrkit/cli.py",
        "            return exc.code\n", "            return EXIT_USAGE\n",
        ("tests/test_cli.py::test_help_returns_zero",),
    ),
    Mutant(
        "_load_pair lets a RecursionError from json.load through", "pbrkit/cli.py",
        "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
        ("tests/test_cli.py::test_reduce_malformed_json[too_deep]",),
    ),
    Mutant(
        "sample_outcomes without its seed check", "pbrkit/experiment.py",
        '    if seed < 0:\n        raise ToolkitError(f"seed must be >= 0, got {seed}")\n', "",
        ("tests/test_experiment.py::test_sample_rejects_bad_trials",
         "tests/test_cli.py::test_simulate_negative_seed"),
    ),
    Mutant(
        "main returns EXIT_USAGE for a DegeneratePair", "pbrkit/cli.py",
        "        return EXIT_DEGENERATE if isinstance(exc, DegeneratePair) else EXIT_USAGE\n",
        "        return EXIT_USAGE\n",
        ("tests/test_cli.py::test_reduce_degenerate_pair",),
    ),
    Mutant(
        "main sends an unknown command to solve's parser, not the full parser", "pbrkit/cli.py",
        "    subparser = _PARSER.commands.get(argv[0]) if argv else None\n",
        '    subparser = _PARSER.commands.get(argv[0], _PARSER.commands["solve"]) if argv else None\n',
        ("tests/test_cli.py::test_dispatch_matches_full_parser",
         "tests/test_cli.py::test_command_call_skips_the_full_parser"),
    ),
    Mutant(
        "sample_outcomes normalises over the whole column", "pbrkit/experiment.py",
        "    for k in support:\n        total += column[k]\n",
        "    for k in range(4):\n        total += column[k]\n",
        ("tests/test_experiment.py::test_sample_is_the_numpy_multinomial_over_the_support",
         "tests/test_cli.py::test_report_simulate_bytes_pinned"),
    ),
    Mutant(
        "solve_measurement solves past the boundary", "pbrkit/measurement.py",
        "    if not within_boundary(omega.cos):\n        return None\n", "",
        ("tests/test_cli.py::test_solve_infeasible",
         "tests/test_properties.py::test_solve_answers_exactly_within_boundary"),
    ),
    Mutant(
        "solve_measurement drops the lower clamp", "pbrkit/measurement.py",
        "min(1.0, max(-1.0, float(cos_beta_raw(omega.cos))))", "min(1.0, float(cos_beta_raw(omega.cos)))",
        ("tests/test_properties.py::test_solve_answers_exactly_within_boundary",
         "tests/test_cli.py::test_solve_bytes_pinned[1e-08-57d8cd03068d25b4b8e30a217ca90d8bf73b4b51aaed30c93a46998714fd771f]"),
    ),
    Mutant(
        "state_norm drops np.errstate", "pbrkit/states.py",
        '    with np.errstate(over="ignore"):\n        return float(np.linalg.norm(vec))\n',
        "    return float(np.linalg.norm(vec))\n",
        ("tests/test_cli.py::test_reduce_rejects_overflowing_norm",
         "tests/test_states.py::test_reduce_pair_overflowing_norm_rejected"),
    ),
    Mutant(
        "main builds a parser per call", "pbrkit/cli.py",
        "_PARSER.commands.get(argv[0]) if argv", "build_parser().commands.get(argv[0]) if argv",
        ("tests/test_cli.py::test_main_never_builds_a_parser",),
    ),
]


def verdict(mutant: Mutant) -> str:
    """'killed', 'survived', or what kept the mutant from being judged."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"old text found {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        # Run from the temporary directory, so pytest's and hypothesis's caches
        # of a broken copy stay out of the repository.
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *(str(ROOT / test) for test in mutant.tests)],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True,
        )
    if result.returncode in (0, 1):
        return "survived" if result.returncode == 0 else "killed"
    return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}{result.stderr[-2000:]}"


def main() -> int:
    failed = 0
    for mutant, wanted in [(NO_OP, "survived")] + [(m, "killed") for m in MUTANTS]:
        got = verdict(mutant)
        failed += got != wanted
        print(f"{'ok' if got == wanted else 'FAIL'}: {mutant.name}: {got}", flush=True)
    print(f"{failed} of {1 + len(MUTANTS)} verdicts wrong")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
