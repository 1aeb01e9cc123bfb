"""Each benchmark check accepts pbrkit's real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py -q

The real outputs come from pbrkit itself (imported from ``src``); the checks
under test never import it.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, KnownFault  # noqa: E402
from pbrkit import cli  # noqa: E402


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def sub_line(text: str, pattern: str, repl) -> str:
    out, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    assert n == 1, pattern
    return out


# ---------------------------------------------------------------- figures

RES = 400


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "fig1.csv"
    assert run("fig1", "--resolution", RES, "--out", path)[0] == 0
    return path.read_text()


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "fig2.csv"
    assert run("fig2", "--resolution", RES, "--out", path)[0] == 0
    return path.read_text()


def edit_row(text: str, row: int, column: int, fn) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = fn(fields[column])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def test_fig1_accepts_real_output(fig1):
    checks.check_fig1(fig1, RES)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: edit_row(t, 50, 1, lambda v: repr(float(v) * (1 + 1e-7))),
        lambda t: edit_row(t, 10, 2, lambda v: "false"),
        lambda t: edit_row(t, RES - 1, 2, lambda v: "true"),
        lambda t: edit_row(t, 7, 0, lambda v: repr(float(v) + 1e-9)),
        lambda t: edit_row(t, 7, 2, lambda v: "True"),
        lambda t: t.replace("cos_omega,cos_beta", "cos_omega,cosbeta"),
        lambda t: t[: t.rindex("\n", 0, -1) + 1],
        lambda t: t.replace("\n", "\r\n"),
    ],
    ids=["cos_beta", "feasible-flip-low", "feasible-flip-high", "grid", "flag-case", "header", "row-dropped", "crlf"],
)
def test_fig1_rejects(fig1, corrupt):
    with pytest.raises(CheckError):
        checks.check_fig1(corrupt(fig1), RES)


def test_fig2_accepts_real_output(fig2):
    checks.check_fig2(fig2, RES)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: edit_row(t, RES - 1, 2, lambda v: str(int(v) + 2)),
        lambda t: edit_row(t, RES - 1, 2, lambda v: str(int(v) - 2)),
        lambda t: edit_row(t, RES - 1, 2, lambda v: str(int(v) + 1)),
        lambda t: edit_row(t, RES // 2, 1, lambda v: str(int(v) + 1)),
        lambda t: edit_row(t, RES // 2, 1, lambda v: str(int(v) - 1)),
        lambda t: edit_row(t, 30, 3, lambda v: repr(float(v) * (1 + 1e-9))),
        lambda t: edit_row(t, 3, 1, lambda v: "1"),
    ],
    ids=["n_alt-not-minimal", "n_alt-too-small", "n_alt-odd", "n_pbr-not-minimal", "n_pbr-too-small",
         "log-raw", "n_pbr-below-2"],
)
def test_fig2_rejects(fig2, corrupt):
    with pytest.raises(CheckError):
        checks.check_fig2(corrupt(fig2), RES)


def test_fig2_rejects_n_alt_below_n_pbr(fig2):
    n_alt = fig2.split("\n")[1].split(",")[2]
    bad = edit_row(fig2, 0, 1, lambda v: str(int(n_alt) + 2))
    with pytest.raises(CheckError, match="n_alt < n_pbr"):
        checks.check_fig2(bad, RES)


# ---------------------------------------------------------------- sampling

SIM = [(0.5, 20000, 11), (0.9, 20000, 12), (0.999, 5000, 13), (0.0, 1000, 14)]


@pytest.mark.parametrize("c,trials,seed", SIM)
def test_simulate_accepts_real_output(c, trials, seed):
    rc, out = run("simulate", "--cos-omega", c, "--trials", trials, "--seed", seed)
    checks.check_simulate(out, rc, c, trials, seed)


def _counts(out: str, prep: int) -> list[int]:
    m = re.search(rf"preparation {prep}: counts = \[(\d+), (\d+), (\d+), (\d+)\]", out)
    return [int(x) for x in m.groups()]


def _set_counts(out: str, prep: int, counts) -> str:
    joined = ", ".join(str(k) for k in counts)
    return sub_line(out, rf"^preparation {prep}: counts = \[[^\]]*\], forbidden outcome {prep} count = \d+",
                    f"preparation {prep}: counts = [{joined}], forbidden outcome {prep} count = {counts[prep - 1]}")


def test_simulate_accepts_other_counts_of_the_same_law():
    c, trials = 0.5, 20000
    rc, out = run("simulate", "--cos-omega", c, "--trials", trials, "--seed", 11)
    beta, alpha = (float(x) for x in re.search(r"beta = (\S+), alpha = (\S+)\n", out).groups())
    _, _, P = checks.phases_matrices(c, alpha, beta)
    rng = np.random.default_rng(2024)
    for prep in (1, 2, 3, 4):
        # A sampler with another stream but the same probabilities.
        column = np.where(P[:, prep - 1] < checks.PROB_FLOOR, 0.0, P[:, prep - 1])
        redrawn = rng.multinomial(trials, column / column.sum())
        assert list(redrawn) != _counts(out, prep)
        out = _set_counts(out, prep, redrawn)
    checks.check_simulate(out, rc, c, trials, 11)


def _shift(out, prep, frac):
    counts = _counts(out, prep)
    src = max((k for k in range(4) if k != prep - 1), key=lambda k: counts[k])
    dst = min((k for k in range(4) if k != prep - 1), key=lambda k: counts[k])
    moved = int(frac * counts[src])
    counts[src] -= moved
    counts[dst] += moved
    return _set_counts(out, prep, counts)


def _fire_forbidden(out, prep):
    counts = _counts(out, prep)
    k = max(range(4), key=lambda i: counts[i])
    counts[k] -= 1
    counts[prep - 1] += 1
    return _set_counts(out, prep, counts)


def _lose_trial(out, prep):
    counts = _counts(out, prep)
    k = max(range(4), key=lambda i: counts[i])
    counts[k] -= 1
    return _set_counts(out, prep, counts)


@pytest.mark.parametrize(
    "c,corrupt",
    [
        (0.5, lambda o: _shift(o, 2, 0.05)),
        (0.5, lambda o: _fire_forbidden(o, 3)),
        (0.5, lambda o: _lose_trial(o, 1)),
        (0.5, lambda o: re.sub(r"alpha = (\S+)\n", lambda m: f"alpha = {float(m.group(1)) + 1e-6!r}\n", o, count=1)),
        (0.5, lambda o: re.sub(r"beta = (\S+),", lambda m: f"beta = {float(m.group(1)) + 1e-6!r},", o, count=1)),
        (0.9, lambda o: sub_line(o, r"^reduced: n=(\d+)", lambda m: f"reduced: n={int(m.group(1)) + 2}")),
        (0.9, lambda o: sub_line(o, r"effective cos = (\S+)$", lambda m: f"effective cos = {float(m.group(1)) * (1 - 1e-9)!r}")),
        (0.9, lambda o: o[o.index("\n") + 1:]),
        (0.5, lambda o: "reduced: n=2, effective cos = 0.5\n" + o),
        (0.5, lambda o: o.replace("fired 0 times", "fired 1 times")),
    ],
    ids=["fit", "forbidden-fired", "sum", "alpha", "beta", "n-not-minimal", "effective-cos", "missed-reduction",
         "needless-reduction", "summary"],
)
def test_simulate_rejects(c, corrupt):
    trials, seed = 20000, 11
    rc, out = run("simulate", "--cos-omega", c, "--trials", trials, "--seed", seed)
    with pytest.raises(CheckError):
        checks.check_simulate(corrupt(out), rc, c, trials, seed)


def test_goodness_of_fit_pools_sparse_cells():
    # One cell expecting far fewer than 5 counts, observed once: pooled, not flagged.
    assert checks.goodness_of_fit([0, 1, 4999, 5000], [0.0, 1e-5, 0.49999, 0.5], 10000) > 1e-3
    assert checks.goodness_of_fit([0, 0, 5600, 4400], [0.0, 0.0, 0.5, 0.5], 10000) < checks.GOF_ALPHA


# ---------------------------------------------------------------- queries


@pytest.mark.parametrize("c", [0.0, 0.3, 0.7071, 0.7072, 0.95, 1 - 1e-7])
def test_solve_accepts_real_output(c):
    rc, out = run("solve", "--cos-omega", c)
    checks.check_solve(out, rc, c)


@pytest.mark.parametrize(
    "c,corrupt",
    [
        (0.3, lambda o, rc: (sub_line(o, r"^beta = (\S+)$", lambda m: f"beta = {float(m.group(1)) + 1e-7!r}"), rc)),
        (0.3, lambda o, rc: (sub_line(o, r"^alpha = (\S+)$", lambda m: f"alpha = {float(m.group(1)) + 1e-7!r}"), rc)),
        (0.3, lambda o, rc: (sub_line(o, r"^cos_beta_raw = (\S+)$", lambda m: f"cos_beta_raw = {float(m.group(1)) * 1.001!r}"), rc)),
        (0.3, lambda o, rc: (o, 2)),
        (0.95, lambda o, rc: (o, 0)),
        (0.3, lambda o, rc: (re.sub(r"(M =\n\[\[ ?)(-?)0\.", lambda m: m.group(1) + m.group(2) + "1.", o, count=1), rc)),
        (0.3, lambda o, rc: (sub_line(o, r"^max diagonal probability = \S+$", "max diagonal probability = 0.001"), rc)),
    ],
    ids=["beta", "alpha", "cos-beta-raw", "exit-2-when-feasible", "exit-0-when-infeasible", "printed-M", "max-diag"],
)
def test_solve_rejects(c, corrupt):
    rc, out = run("solve", "--cos-omega", c)
    out, rc = corrupt(out, rc)
    with pytest.raises(CheckError):
        checks.check_solve(out, rc, c)


REPORTS = [(0.3, 0.5), (0.9, 0.2), (1 - 1e-7, 0.9999999), (0.95, 0.0)]


@pytest.mark.parametrize("c,eps", REPORTS)
def test_reports_accept_real_output(c, eps):
    rc, out = run("report", "--cos-omega", c, "--epsilon", eps)
    checks.check_report_text(out, rc, c, eps)
    rc, out = run("report", "--cos-omega", c, "--epsilon", eps, "--json")
    checks.check_report_json(out, rc, c, eps)


@pytest.mark.parametrize("json_mode", [False, True])
def test_underflowing_report_is_the_known_fault(json_mode):
    argv = workloads.UNDERFLOW_REPORTS[int(json_mode)]
    rc, out = run(*argv)
    check = checks.check_report_json if json_mode else checks.check_report_text
    with pytest.raises(KnownFault):
        check(out, rc, 0.999999, 0.2)


@pytest.mark.parametrize("step", [-1, 1, 3])
def test_group_checks_are_exact_next_to_one(step):
    """At 1 - cos = 1e-9 the group size is about 3.5e8, and one step of the
    input cosine moves it by about 40, so a group a few steps off is caught."""
    c = 1.0 - 1e-9
    rc, out = run("report", "--cos-omega", c, "--epsilon", 0.9999999, "--json")
    checks.check_report_json(out, rc, c, 0.9999999)
    rec = json.loads(out)
    m = rec["group_size"] + step
    edited = _json_edit(_json_edit(out, "group_size", lambda v: m), "n", lambda v: 2 * m)
    with pytest.raises(CheckError, match="not minimal"):
        checks.check_report_json(edited, rc, c, 0.9999999)
    with pytest.raises(CheckError, match="effective cos"):
        checks.check_effective_cos(c, rec["group_size"], rec["cos_effective_omega"] * (1 + 1e-10), 1e-12, "report")


def _json_edit(out: str, key: str, fn) -> str:
    rec = json.loads(out)
    rec[key] = fn(rec[key])
    return json.dumps(rec)


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: _json_edit(o, "n", lambda v: v + 2),
        lambda o: _json_edit(_json_edit(o, "n", lambda v: v + 2), "group_size", lambda v: v + 1),
        lambda o: _json_edit(o, "compat_bound", lambda v: v * (1 + 1e-9)),
        lambda o: _json_edit(o, "cos_effective_omega", lambda v: v * (1 - 1e-9)),
        lambda o: _json_edit(o, "alpha", lambda v: v + 1e-7),
        lambda o: _json_edit(o, "contradiction", lambda v: False),
        lambda o: _json_edit(o, "forbidden_probabilities", lambda v: [1e-3] + v[1:]),
    ],
    ids=["n", "n-and-group", "bound", "effective-cos", "alpha", "verdict", "forbidden"],
)
def test_report_json_rejects(edit):
    c, eps = 0.9, 0.2
    rc, out = run("report", "--cos-omega", c, "--epsilon", eps, "--json")
    with pytest.raises(CheckError):
        checks.check_report_json(edit(out), rc, c, eps)


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: sub_line(o, r"n = (\d+), two groups of (\d+)",
                           lambda m: f"n = {int(m.group(1)) + 2}, two groups of {int(m.group(2)) + 1}"),
        lambda o: sub_line(o, r"= (\S+)\nmax forbidden", lambda m: f"= {float(m.group(1)) * 1.01:.6e}\nmax forbidden"),
        lambda o: sub_line(o, r"effective cos = (\S+)$", lambda m: f"effective cos = {float(m.group(1)) * (1 - 1e-9):.12g}"),
        lambda o: sub_line(o, r"^CONTRADICTION: .*$", "no contradiction claimed (epsilon = 0 bounds nothing)."),
        lambda o: re.sub(r"\(p = \S+\)", "(p = 1.000e-03)", o, count=1),
        lambda o: o.replace("outcome 2 forbidden", "outcome 3 forbidden"),
    ],
    ids=["n", "bound", "effective-cos", "verdict", "forbidden-p", "outcome-label"],
)
def test_report_text_rejects(edit):
    c, eps = 0.9, 0.2
    rc, out = run("report", "--cos-omega", c, "--epsilon", eps)
    with pytest.raises(CheckError):
        checks.check_report_text(edit(out), rc, c, eps)


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    rng = np.random.default_rng(5)
    base = tmp_path_factory.mktemp("pairs")
    out = []
    for k, (dim, c) in enumerate([(2, 0.2), (17, 0.9), (64, 1 - 1e-8)]):
        text = json.dumps(workloads.random_pair(rng, dim, c))
        path = base / f"pair-{k}.json"
        path.write_text(text)
        out.append((path, text))
    return out


def test_reduce_accepts_real_output(pairs):
    for path, text in pairs:
        rc, out = run("reduce", "--in", path)
        checks.check_reduce(out, rc, text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda o: sub_line(o, r"^cos_omega = (\S+)$", lambda m: f"cos_omega = {float(m.group(1)) + 1e-10!r}"),
        lambda o: sub_line(o, r"^phase_applied = (\S+)$", lambda m: f"phase_applied = {float(m.group(1)) + 1e-6!r}"),
        lambda o: sub_line(o, r"^grouping: n = (\d+) devices in two groups of (\d+)$",
                           lambda m: f"grouping: n = {int(m.group(1)) + 2} devices in two groups of {int(m.group(2)) + 1}"),
        lambda o: re.sub(r"(basis1 =\n\[ ?)(-?)0\.", lambda m: m.group(1) + m.group(2) + "1.", o, count=1),
        lambda o: sub_line(o, r"^effective cos = (\S+)$", lambda m: f"effective cos = {float(m.group(1)) * 0.999!r}"),
    ],
    ids=["cos", "phase", "grouping", "basis", "effective-cos"],
)
def test_reduce_rejects(pairs, edit):
    path, text = pairs[1]
    rc, out = run("reduce", "--in", path)
    with pytest.raises(CheckError):
        checks.check_reduce(edit(out), rc, text)


def test_stderr_output_is_rejected():
    op = workloads.Op("solve", ("solve", "--cos-omega", "0.3"), 1, cos_omega=0.3)
    rc, out = run(*op.argv)
    checks.check_op(op, rc, out, "", b"")
    with pytest.raises(CheckError):
        checks.check_op(op, rc, out, "warning: something\n", b"")


def test_repeated_call_must_give_identical_bytes(tmp_path):
    import run as bench_run

    op = workloads.Op("solve", ("solve", "--cos-omega", "0.3"), 1, cos_omega=0.3)
    rc, out = run(*op.argv)
    verifier = bench_run.Verifier(checks)
    verifier.attempt(0, op, rc, out, "")
    verifier.attempt(0, op, rc, out, "")
    assert verifier.errors == []
    verifier.attempt(0, op, rc, out.replace("alpha", "alpha "), "")
    assert len(verifier.errors) == 1
