"""Byte-identity check: the CLI of a git ref and of the working tree, call for call.

    python tools/same_bytes.py REF

Extracts ``src/`` of REF with ``git archive REF src`` to a temporary directory.
Then one corpus of in-process ``pbrkit.cli.main`` calls runs twice, each time in
a subprocess of its own: once importing pbrkit from that tree, once from the
working tree's ``src/``.  For each call the exit code, stdout, stderr, the
warnings raised and, for ``fig1``/``fig2``, the SHA-256 of the CSV are kept; an
exception that escapes ``main`` is kept as its type and message.

Prints every call on which the two differ.  Exits 0 when none does, 1 when a
call differs or a subprocess fails.  A change that alters output on purpose
re-takes the digests pinned in ``tests/test_cli.py`` instead; CI does not run
this script, because a checkout of one commit has no parent to compare against.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_EDGE = math.sqrt(0.5) + 1e-12  # the last overlap within the feasibility boundary
OVERLAPS = [
    "0", "-0.0", "1e-08", "8.5e-09", "1e-300", "0.3", "0.5", "0.7", repr(math.sqrt(0.5)),
    repr(math.sqrt(0.5) - 1e-12), repr(_EDGE), repr(math.nextafter(_EDGE, 1.0)),
    "0.7072", "0.9", "0.99", "0.999999",
    "1", "1.5", "-0.1", "nan", "inf", "abc",
]
EPSILONS = ["0", "-0.0", "0.2", "0.999", "1", "1.5", "-0.1", "nan", "1e-300"]
TRIALS = ["1", "2", "0", "-1", str(2**63 - 1), str(2**63), "abc"]
SEEDS = ["0", "-1", str(2**32), str(2**70)]
RESOLUTIONS = ["-1", "0", "1", "2", "3", "200", "2049"]

_ROOT2 = math.sqrt(0.5)
# Each pair file's text, written as is, so that malformed JSON can be given too.
PAIRS = {
    "good": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]},
    "complex-dim3": {"dim": 3, "psi": [[1, 0], [0, 0], [0, 0]], "phi": [[0.8, 0], [0, 0.36], [0.48, 0]]},
    "renormalized": {"dim": 3, "psi": [[0.48 * (1 + 5e-10), 0], [0, 0.6 * (1 + 5e-10)], [0.64 * (1 + 5e-10), 0]],
                     "phi": [[0.6, 0], [0.8, 0], [0, 0]]},
    "over-limit": {"dim": 2, "psi": [[1 + 1e-7, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]},
    "overflowing-psi": {"dim": 2, "psi": [[1e200, 0], [0, 0]], "phi": [[1, 0], [0, 0]]},
    "overflowing-phi": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0, 0], [0, 1e200]]},
    "nan": {"dim": 2, "psi": [[math.nan, 0], [0, 0]], "phi": [[1, 0], [0, 0]]},
    "infinite": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[math.inf, 0], [0, 0]]},
    "degenerate": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0, 1], [0, 0]]},
    "orthogonal": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0, 0], [1, 0]]},
    "boundary": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[_ROOT2, 0], [_ROOT2, 0]]},
    "near-identical": {"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[math.cos(1e-4), 0], [math.sin(1e-4), 0]]},
    "dim1": {"dim": 1, "psi": [[1, 0]], "phi": [[1, 0]]},
    "dim-bool": {"dim": True, "psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0]]},
    "short": {"dim": 3, "psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0], [0, 0]]},
    "bool-entry": {"dim": 2, "psi": [[True, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]},
    "string-entry": {"dim": 2, "psi": [["0.6", 0], [0.8, 0]], "phi": [[1, 0], [0, 0]]},
    "triple-entry": {"dim": 2, "psi": [[1, 0, 0], [0, 0]], "phi": [[1, 0], [0, 0]]},
    "huge-int": {"dim": 2, "psi": [[10**400, 0], [0, 0]], "phi": [[1, 0], [0, 0]]},
}
PAIR_TEXTS = {
    **{name: json.dumps(obj) for name, obj in PAIRS.items()},
    "not-json": "{dim: 2",
    "not-object": "[1, 2]",
    "too-deep": "[" * 100000 + "]" * 100000,
}


def corpus() -> list:
    """The argv of every call, in order."""
    calls = []
    for c in OVERLAPS:
        calls += [
            ["solve", "--cos-omega", c],
            ["report", "--cos-omega", c, "--epsilon", "0.2"],
            ["report", "--cos-omega", c, "--epsilon", "0.2", "--json"],
            ["simulate", "--cos-omega", c, "--trials", "1000", "--seed", "3"],
        ]
    for e in EPSILONS:
        for c in ("0.5", "0.999999"):
            calls += [["report", "--cos-omega", c, "--epsilon", e], ["report", "--cos-omega", c, "--epsilon", e, "--json"]]
    for t in TRIALS:
        calls.append(["simulate", "--cos-omega", "0.9", "--trials", t, "--seed", "5"])
    for s in SEEDS:
        calls.append(["simulate", "--cos-omega", "0.3", "--trials", "100", "--seed", s])
    for fig in ("fig1", "fig2"):
        for r in RESOLUTIONS:
            calls.append([fig, "--resolution", r, "--out", "out.csv"])
        calls.append([fig, "--out", "out.csv"])
        calls.append([fig, "--out", "no-such-dir/out.csv"])
    for name in PAIR_TEXTS:
        calls.append(["reduce", "--in", f"{name}.json"])
    calls.append(["reduce", "--in", "missing.json"])
    for command in ([], ["solve"], ["fig1"], ["fig2"], ["reduce"], ["simulate"], ["report"]):
        calls.append([*command, "--help"])
    calls += [
        [], ["-h", "solve"], ["sol", "--cos-omega", "0.5"], ["solve"], ["solve", "--cos=0.5"],
        ["solve", "--cos-omega=0.5"], ["solve", "--", "--cos-omega", "0.5"], ["--", "solve", "--cos-omega", "0.5"],
        ["simulate", "--cos-omega", "0.5", "--trials", "3", "--"],
        ["simulate", "--cos-omega", "0.5", "--trials", "3", "--trials", "5"],
        ["report", "--cos-omega", "0.5", "--epsilon", "0.2", "extra"], ["report", "--cos-omega", "0.5"],
    ]
    return calls


def run_corpus() -> list:
    """Each call's outcome, run in-process in the current directory."""
    from pbrkit import cli

    for name, text in PAIR_TEXTS.items():
        Path(f"{name}.json").write_text(text)
    outcomes = []
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except BaseException as exc:  # a traceback, where main should have given an exit code
                code = f"raised {type(exc).__name__}: {exc}"
        csv = Path("out.csv")
        digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
        csv.unlink(missing_ok=True)
        outcomes.append({
            "argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught], "csv_sha256": digest,
        })
    return outcomes


def outcomes_of(src: Path) -> list:
    """run_corpus() in a subprocess that imports pbrkit from ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}
        result = subprocess.run([sys.executable, __file__, "--run"], cwd=tmp, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"corpus run under {src} exited {result.returncode}:\n{result.stderr[-4000:]}")
    return json.loads(result.stdout)


def main(argv: list) -> int:
    if argv == ["--run"]:
        json.dump(run_corpus(), sys.stdout)
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", argv[0], "src"], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        try:
            ref, work = outcomes_of(Path(tmp) / "src"), outcomes_of(ROOT / "src")
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    differing = 0
    for before, after in zip(ref, work):
        fields = [key for key in before if before[key] != after[key]]
        if fields:
            differing += 1
            print(f"differs: pbrkit {' '.join(before['argv'])}")
            for key in fields:
                print(f"  {key}: {argv[0]}: {before[key]!r}\n  {key}: working tree: {after[key]!r}")
    print(f"{differing} of {len(ref)} calls differ between {argv[0]} and the working tree")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
