"""Output checks for the benchmark, computed apart from pbrkit.

Nothing here imports pbrkit.  Every expected value is derived again from the
construction itself (numpy and math only): the tan-power form of cos(beta),
the zero-diagonal condition on a product M.C built here, the minimal group
and device counts by direct substitution, and a goodness-of-fit test of the
sampled counts against the probabilities |M.C|^2.

An input cosine is only known to a few units of double rounding once the
program has turned it into an angle and back (cos(acos(c)) moves c by up to
~2e-16 absolute), and counts such as n = 2m with cos^m(omega) <= sqrt(2)/2
can then legitimately differ by one step when cos^m(omega) sits on the
boundary.  So each value is checked against the doubles within COS_TOL of
the input: an answer is rejected only when no one of those doubles gives it.
Near 1 a count such as m is steep in the cosine (one double step moves m by
about m * 1e-16 / (1 - c)), so the group checks list those doubles one by one
rather than take the band as a continuous interval.

Each check returns None for a right output, raises ``KnownFault`` for the one
fault the benchmark keeps on purpose (an epsilon^n bound that underflows to 0
while the report still claims it is positive), and raises ``CheckError`` for
anything else.
"""

import json
import math
import re

import numpy as np

BOUNDARY = math.sqrt(0.5)
# pbrkit resolves boundary ties inclusively within this absolute margin.
BOUNDARY_TOL = 1e-12
# Cosines this close to the input (absolute) are treated as the same input.
COS_TOL = 4 * float(np.finfo(float).eps)
# Column entries below this are exact zeros in the sampler's contract.
PROB_FLOOR = 1e-12
ZERO_DIAGONAL_TOL = 1e-10
# False-alarm rate of one goodness-of-fit test.
GOF_ALPHA = 1e-6
# Cells are pooled until each expects at least this many counts.
GOF_MIN_EXPECTED = 5.0

_SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


class CheckError(AssertionError):
    """An output that the independent computation does not reproduce."""


class KnownFault(Exception):
    """The epsilon^n underflow: a positive bound printed as 0."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- closed forms


def cos_band(c):
    """The cosines within COS_TOL of c, clipped to [0, 1)."""
    return np.maximum(c - COS_TOL, 0.0), np.minimum(c + COS_TOL, np.nextafter(1.0, 0.0))


def tan_half(c):
    """tan(omega/2) from cos(omega), by the half-angle identity."""
    return np.sqrt((1.0 - c) / (1.0 + c))


def cos_beta_tan_form(c):
    """cos(beta) = (t^-3 - 4/t - t) / 4 with t = tan(omega/2)."""
    t = tan_half(c)
    return 0.25 * (t**-3 - 4.0 / t - t)


def group_ok(c, m):
    """cos^m(omega) <= sqrt(2)/2, the condition a group of m must meet."""
    return np.power(c, m) <= BOUNDARY + BOUNDARY_TOL


def pbr_ok(t, n):
    """tan(omega/2) >= 2^(1/n) - 1, the condition of the multipartite route."""
    return t >= np.power(2.0, 1.0 / n) - 1.0 - BOUNDARY_TOL


def min_group(c: float) -> int:
    """Smallest m >= 1 with cos^m <= sqrt(2)/2, seeded by logs, settled by powers."""
    if group_ok(c, 1):
        return 1
    m = max(1, math.ceil(math.log(BOUNDARY + BOUNDARY_TOL) / math.log1p(c - 1.0)))
    while not group_ok(c, m):
        m += 1
    while m > 1 and group_ok(c, m - 1):
        m -= 1
    return m


def band_values(c: float) -> list[float]:
    """Every double within COS_TOL of c in [0, 1), ascending.

    Where the band reaches past the boundary it lies above 1/2, where doubles
    are 2^-53 apart, so there are at most 17 of them.  Below the boundary
    every cosine gives a group of one, so c alone stands for the band.
    """
    lo, hi = cos_band(c)
    if hi <= BOUNDARY:
        return [float(c)]
    values, x = [], float(lo)
    while x <= hi:
        values.append(x)
        x = float(np.nextafter(x, 1.0))
    return values


def check_group(c: float, m: int, what: str) -> None:
    """m is exactly the minimal group size of one of the doubles around c."""
    sizes = sorted({min_group(x) for x in band_values(c)})
    _require(m in sizes, f"{what}: group size {m} is not minimal at cos {c!r} (minimal: {sizes})")


def check_effective_cos(c: float, m: int, value: float, rel: float, what: str) -> None:
    """value equals x^m, to rel, for a double x around c whose minimal group is m."""
    powers = [x**m for x in band_values(c) if min_group(x) == m]
    _require(
        any(abs(value - p) <= rel * p + 1e-300 for p in powers),
        f"{what}: effective cos {value!r} is not cos^{m} for cos {c!r}",
    )


def phases_matrices(cos_omega: float, alpha: float, beta: float):
    """M(alpha, beta), C(omega) and P = |M C|^2, built here from their definitions."""
    half = math.acos(cos_omega) / 2.0
    psi = np.array([math.cos(half), math.sin(half)])
    phi = np.array([math.cos(half), -math.sin(half)])
    cols = [np.outer(a, b).ravel() for a, b in ((psi, psi), (psi, phi), (phi, psi), (phi, phi))]
    C = np.array(cols, dtype=complex).T
    phases = np.exp(1j * np.array([alpha, beta, beta, 2.0 * beta]))
    M = 0.5 * _SIGNS * phases
    return M, C, np.abs(M @ C) ** 2


def check_phases(cos_omega: float, alpha: float, beta: float, what: str, diag_tol=ZERO_DIAGONAL_TOL):
    """The phases null the diagonal of M.C, M is unitary, P's columns sum to 1."""
    M, C, P = phases_matrices(cos_omega, alpha, beta)
    diag = np.abs(np.diag(M @ C)).max()
    _require(diag <= diag_tol, f"{what}: |diag(M C)| = {diag:.3e} at alpha {alpha!r}, beta {beta!r}")
    unitarity = np.abs(M.conj().T @ M - np.eye(4)).max()
    _require(unitarity <= 1e-12, f"{what}: M is not unitary ({unitarity:.3e})")
    colsum = np.abs(P.sum(axis=0) - 1.0).max()
    _require(colsum <= 1e-12, f"{what}: columns of P sum off 1 by {colsum:.3e}")
    return M, C, P


def check_cos_beta(c: float, beta: float, what: str) -> None:
    """cos(beta) agrees with the tan-power form at the input overlap."""
    lo, hi = cos_band(c)
    ends = sorted(float(cos_beta_tan_form(x)) for x in (lo, hi))
    got = math.cos(beta)
    _require(
        ends[0] - 1e-9 <= got <= ends[1] + 1e-9,
        f"{what}: cos(beta) = {got!r}, tan form gives {ends}",
    )


# ---------------------------------------------------------------- figures


def _csv_rows(text: str, header: str, resolution: int) -> list[list[str]]:
    _require(text.endswith("\n") and "\r" not in text, "CSV must end in LF with no CR")
    lines = text[:-1].split("\n")
    _require(lines[0] == header, f"CSV header {lines[0]!r}, expected {header!r}")
    _require(len(lines) == resolution + 1, f"CSV has {len(lines) - 1} rows, expected {resolution}")
    return [line.split(",") for line in lines[1:]]


def _check_grid(column: np.ndarray, resolution: int) -> np.ndarray:
    grid = np.linspace(0.01, 0.99, resolution)
    off = np.abs(column - grid) > np.spacing(grid)
    _require(not off.any(), f"cos_omega column leaves the linspace grid at row {np.argmax(off)}")
    return grid


def check_fig1(text: str, resolution: int) -> None:
    rows = _csv_rows(text, "cos_omega,cos_beta,feasible", resolution)
    _require(all(len(r) == 3 for r in rows), "fig1 rows must have 3 fields")
    c = _check_grid(np.array([float(r[0]) for r in rows]), resolution)
    cos_beta = np.array([float(r[1]) for r in rows])
    flags = [r[2] for r in rows]
    _require(set(flags) <= {"true", "false"}, "feasible must be lowercase true/false")
    feasible = np.array([f == "true" for f in flags])

    lo, hi = cos_band(c)
    ends = np.stack([cos_beta_tan_form(lo), cos_beta_tan_form(hi)])
    tol = 1e-9 * np.maximum(1.0, np.abs(ends).max(axis=0))
    bad = (cos_beta < ends.min(axis=0) - tol) | (cos_beta > ends.max(axis=0) + tol)
    _require(not bad.any(), f"cos_beta differs from the tan-power form at row {np.argmax(bad)}")

    edge = BOUNDARY + BOUNDARY_TOL
    bad = (feasible & (lo > edge)) | (~feasible & (hi <= edge))
    _require(not bad.any(), f"feasible flag wrong at row {np.argmax(bad)}")


def check_fig2(text: str, resolution: int) -> None:
    rows = _csv_rows(text, "cos_omega,n_pbr,n_alt,n_alt_log_raw", resolution)
    _require(all(len(r) == 4 for r in rows), "fig2 rows must have 4 fields")
    c = _check_grid(np.array([float(r[0]) for r in rows]), resolution)
    n_pbr = np.array([int(r[1]) for r in rows])
    n_alt = np.array([int(r[2]) for r in rows])
    log_raw = np.array([float(r[3]) for r in rows])

    lo, hi = cos_band(c)

    _require((n_alt % 2 == 0).all() and (n_alt >= 2).all(), "n_alt must be even and >= 2")
    _require((n_pbr >= 2).all(), "n_pbr must be >= 2")
    bad = n_alt < n_pbr
    _require(not bad.any(), f"n_alt < n_pbr at row {np.argmax(bad)}")

    m = n_alt // 2
    bad = ~group_ok(lo, m) | ((m > 1) & group_ok(hi, m - 1))
    _require(not bad.any(), f"n_alt not minimal at row {np.argmax(bad)}")

    t_hi = tan_half(lo) * (1 + 1e-14)
    t_lo = tan_half(hi) * (1 - 1e-14)
    bad = ~pbr_ok(t_hi, n_pbr) | ((n_pbr > 2) & pbr_ok(t_lo, np.maximum(n_pbr - 1, 1)))
    _require(not bad.any(), f"n_pbr not minimal at row {np.argmax(bad)}")

    expected = -math.log(2.0) / (2.0 * np.log(c))
    bad = np.abs(log_raw - expected) > 1e-12 * np.abs(expected)
    _require(not bad.any(), f"n_alt_log_raw differs from -ln2/(2 ln c) at row {np.argmax(bad)}")


# ---------------------------------------------------------------- sampling


def chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law for 1 or 2 degrees of freedom."""
    if dof == 1:
        return math.erfc(math.sqrt(x / 2.0))
    if dof == 2:
        return math.exp(-x / 2.0)
    raise ValueError(f"dof must be 1 or 2, got {dof}")


def goodness_of_fit(counts, probs, trials: int) -> float:
    """p-value of Pearson's test, cells pooled until each expects >= 5.

    Returns 1.0 when pooling leaves a single cell (nothing to test).
    """
    cells = sorted(zip((trials * p for p in probs), counts))
    bins: list[list[float]] = []
    for expected, observed in cells:
        if bins and bins[-1][0] < GOF_MIN_EXPECTED:
            bins[-1][0] += expected
            bins[-1][1] += observed
        else:
            bins.append([expected, observed])
    if len(bins) > 1 and bins[-1][0] < GOF_MIN_EXPECTED:
        last = bins.pop()
        bins[-1][0] += last[0]
        bins[-1][1] += last[1]
    if len(bins) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for e, o in bins)
    return chi2_sf(stat, len(bins) - 1)


_SIM_HEAD = re.compile(
    r"cos_omega = (\S+), beta = (\S+), alpha = (\S+)\n"
    r"trials = (\d+) per preparation, base seed = (-?\d+)\n"
)
_SIM_PREP = re.compile(r"preparation (\d): counts = \[(\d+), (\d+), (\d+), (\d+)\], forbidden outcome (\d) count = (\d+)")
_REDUCED = re.compile(r"reduced: n=(\d+), effective cos = (\S+)\n")


def check_simulate(stdout: str, rc: int, cos_omega: float, trials: int, seed: int) -> None:
    _require(rc == 0, f"simulate exited {rc}")
    reduced = _REDUCED.match(stdout)
    lo, hi = cos_band(cos_omega)
    effective = cos_omega
    if reduced:
        _require(not group_ok(lo, 1), f"simulate reduced a feasible overlap {cos_omega!r}")
        n, effective = int(reduced.group(1)), float(reduced.group(2))
        _require(n % 2 == 0, f"simulate grouped an odd n = {n}")
        check_group(cos_omega, n // 2, "simulate")
        check_effective_cos(cos_omega, n // 2, effective, 1e-12, "simulate")
        body = stdout[reduced.end():]
    else:
        _require(group_ok(hi, 1), f"simulate did not reduce the infeasible overlap {cos_omega!r}")
        body = stdout
    head = _SIM_HEAD.match(body)
    _require(head, "simulate header lines missing")
    _require(float(head.group(1)) == cos_omega, "simulate echoed another cos_omega")
    _require(int(head.group(4)) == trials and int(head.group(5)) == seed, "simulate echoed other trials or seed")
    beta, alpha = float(head.group(2)), float(head.group(3))
    check_cos_beta(effective, beta, "simulate")
    _, _, P = check_phases(effective, alpha, beta, "simulate")

    preps = _SIM_PREP.findall(body)
    _require([int(p[0]) for p in preps] == [1, 2, 3, 4], "simulate must print preparations 1..4")
    for p in preps:
        j = int(p[0])
        counts = [int(x) for x in p[1:5]]
        _require(sum(counts) == trials, f"preparation {j}: counts sum to {sum(counts)}, not {trials}")
        _require(int(p[5]) == j and int(p[6]) == counts[j - 1], f"preparation {j}: forbidden tally misprinted")
        _require(counts[j - 1] == 0, f"preparation {j}: forbidden outcome fired {counts[j - 1]} times")
        column = np.where(P[:, j - 1] < PROB_FLOOR, 0.0, P[:, j - 1])
        column = column / column.sum()
        pvalue = goodness_of_fit(counts, column, trials)
        _require(pvalue >= GOF_ALPHA, f"preparation {j}: counts {counts} fail the fit test (p = {pvalue:.2e})")
    _require(stdout.endswith("forbidden outcomes fired 0 times\n"), "simulate must end with the 0-fired line")


# ---------------------------------------------------------------- queries

_COMPLEX = re.compile(r"([+-]?\d+\.?\d*(?:e[+-]?\d+)?)\s*([+-]\s*\d+\.?\d*(?:e[+-]?\d+)?)j")


def parse_complex_array(body: str) -> np.ndarray:
    """Entries of a complex array as numpy prints it."""
    return np.array([complex(float(a), float(b.replace(" ", ""))) for a, b in _COMPLEX.findall(body)])


def parse_real_array(body: str) -> np.ndarray:
    return np.array([float(x) for x in body.replace("[", " ").replace("]", " ").split()])


def _blocks(stdout: str) -> dict[str, str]:
    """'name =\\n<array>' blocks of a printed output, by name."""
    out = {}
    for m in re.finditer(r"^(\w+) =\n(\[.*?\]\])\n|^(\w+) =\n(\[.*?\])\n", stdout, re.S | re.M):
        name = m.group(1) or m.group(3)
        out[name] = m.group(2) or m.group(4)
    return out


def _field(stdout: str, name: str) -> str:
    m = re.search(rf"^{re.escape(name)} = (\S+)$", stdout, re.M)
    _require(m, f"missing line '{name} = ...'")
    return m.group(1)


def check_solve(stdout: str, rc: int, cos_omega: float) -> None:
    _require(float(_field(stdout, "cos_omega")) == cos_omega, "solve echoed another cos_omega")
    lo, hi = cos_band(cos_omega)
    raw = float(_field(stdout, "cos_beta_raw"))
    ends = sorted(float(cos_beta_tan_form(x)) for x in (lo, hi))
    tol = 1e-9 * max(1.0, abs(ends[1]))
    _require(ends[0] - tol <= raw <= ends[1] + tol, f"cos_beta_raw {raw!r} off the tan form {ends}")
    if rc == 2:
        _require(not group_ok(lo, 1), f"solve called {cos_omega!r} infeasible")
        _require("INFEASIBLE" in stdout, "exit 2 without the INFEASIBLE line")
        return
    _require(rc == 0, f"solve exited {rc}")
    _require(group_ok(hi, 1), f"solve called {cos_omega!r} feasible")
    beta, alpha = float(_field(stdout, "beta")), float(_field(stdout, "alpha"))
    check_cos_beta(cos_omega, beta, "solve")
    M, C, P = check_phases(cos_omega, alpha, beta, "solve")
    blocks = _blocks(stdout)
    for name, ours, parse in (("M", M, parse_complex_array), ("C", C, parse_complex_array), ("P", P, parse_real_array)):
        _require(name in blocks, f"solve printed no {name}")
        printed = parse(blocks[name])
        _require(printed.size == 16, f"solve printed {printed.size} entries of {name}")
        err = np.abs(printed - ours.ravel()).max()
        _require(err <= 1e-6, f"printed {name} differs from M.C built here by {err:.2e}")
    max_diag = float(_field(stdout, "max diagonal probability"))
    _require(0.0 <= max_diag <= ZERO_DIAGONAL_TOL, f"max diagonal probability {max_diag!r}")


def check_reduce(stdout: str, rc: int, pair_json: str) -> None:
    _require(rc == 0, f"reduce exited {rc}")
    pair = json.loads(pair_json)
    psi = np.array([complex(a, b) for a, b in pair["psi"]])
    phi = np.array([complex(a, b) for a, b in pair["phi"]])
    overlap = np.vdot(psi, phi)
    c = float(_field(stdout, "cos_omega"))
    _require(abs(c - abs(overlap)) <= 1e-12, f"cos_omega {c!r}, |<psi|phi>| = {abs(overlap)!r}")
    omega = float(_field(stdout, "omega"))
    _require(abs(math.cos(omega) - c) <= 1e-12, "omega does not match cos_omega")
    phase = float(_field(stdout, "phase_applied"))
    expected = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    _require(abs(np.exp(1j * phase) - expected) <= 1e-9, "phase_applied is not arg<psi|phi>")
    blocks = _blocks(stdout)
    b0, b1 = parse_complex_array(blocks.get("basis0", "")), parse_complex_array(blocks.get("basis1", ""))
    _require(b0.size == psi.size and b1.size == psi.size, "basis vectors have the wrong dimension")
    ch, sh = math.cos(omega / 2.0), math.sin(omega / 2.0)
    aligned = phi * np.exp(-1j * phase)
    err = max(np.abs(ch * b0 + sh * b1 - psi).max(), np.abs(ch * b0 - sh * b1 - aligned).max())
    _require(err <= 5e-6, f"basis does not rebuild the pair (error {err:.2e})")
    m = re.search(r"^grouping: n = (\d+) devices in two groups of (\d+)$", stdout, re.M)
    _require(m and int(m.group(1)) == 2 * int(m.group(2)), "grouping line missing or n != 2 m")
    check_group(c, int(m.group(2)), "reduce")
    check_effective_cos(c, int(m.group(2)), float(_field(stdout, "effective cos")), 1e-12, "reduce")


def _check_bound(epsilon: float, n: int, bound: float, claims_positive: bool, rel: float) -> None:
    if epsilon == 0.0:
        _require(bound == 0.0 and not claims_positive, "epsilon = 0 must give bound 0 and no contradiction")
        return
    _require(claims_positive, "a positive epsilon must claim the contradiction")
    if bound == 0.0:
        raise KnownFault(f"epsilon^n = {epsilon!r}^{n} printed as 0 while claimed positive")
    expected = math.exp(n * math.log(epsilon))
    _require(abs(bound - expected) <= rel * expected, f"epsilon^n = {bound!r}, expected {expected!r}")


def check_report_json(stdout: str, rc: int, cos_omega: float, epsilon: float) -> None:
    _require(rc == 0, f"report exited {rc}")
    rec = json.loads(stdout)
    _require(abs(rec["cos_omega"] - cos_omega) <= COS_TOL, "cos_omega off the input")
    _require(rec["epsilon"] == epsilon, "epsilon off the input")
    n, m = rec["n"], rec["group_size"]
    _require(n == 2 * m, f"n = {n} is not twice group_size {m}")
    check_group(cos_omega, m, "report")
    effective = rec["cos_effective_omega"]
    check_effective_cos(cos_omega, m, effective, 1e-12, "report")
    check_cos_beta(effective, rec["beta"], "report")
    check_phases(effective, rec["alpha"], rec["beta"], "report")
    forbidden = rec["forbidden_probabilities"]
    _require(len(forbidden) == 4 and max(forbidden) <= ZERO_DIAGONAL_TOL, "forbidden probabilities not ~0")
    _require(rec["max_diagonal"] == max(forbidden), "max_diagonal is not the largest forbidden probability")
    _check_bound(epsilon, n, rec["compat_bound"], rec["contradiction"], 1e-12)


_REPORT_TEXT = re.compile(
    r"overlap: cos\(omega\) = (\S+) \(omega = (\S+)\)\n"
    r"devices: n = (\d+), two groups of (\d+); effective cos = (\S+)\n"
    r"measurement phases: beta = (\S+), alpha = (\S+)\n"
    r"joint preparations and forbidden outcomes:\n"
    r"((?:  preparation \d: .*\n){4})"
    r"claimed doubly-compatible probability: epsilon\^n = (\S+)\^(\d+) = (\S+)\n"
    r"max forbidden-outcome probability: (\S+)\n"
    r"(CONTRADICTION: .*|no contradiction claimed .*)$"
)


def check_report_text(stdout: str, rc: int, cos_omega: float, epsilon: float) -> None:
    _require(rc == 0, f"report exited {rc}")
    m = _REPORT_TEXT.fullmatch(stdout.rstrip("\n"))
    _require(m, "report text does not have the documented layout")
    _require(abs(float(m.group(1)) - cos_omega) <= 1e-11, "overlap line off the input")
    n, g = int(m.group(3)), int(m.group(4))
    _require(n == 2 * g and int(m.group(10)) == n, "device count lines disagree")
    check_group(cos_omega, g, "report")
    effective = float(m.group(5))
    check_effective_cos(cos_omega, g, effective, 1e-11, "report")
    # Phases and cos print with 12 digits, which bounds how well they null the diagonal.
    check_phases(effective, float(m.group(7)), float(m.group(6)), "report", diag_tol=1e-10)
    probs = re.findall(r"preparation (\d): \S+ \(x\) \S+  ->  outcome (\d) forbidden \(p = (\S+)\)", m.group(8))
    _require([(p[0], p[1]) for p in probs] == [(str(j), str(j)) for j in (1, 2, 3, 4)], "preparation lines garbled")
    _require(all(float(p[2]) <= ZERO_DIAGONAL_TOL for p in probs), "forbidden probability not ~0")
    _require(float(m.group(12)) <= ZERO_DIAGONAL_TOL, "max forbidden-outcome probability not ~0")
    _require(abs(float(m.group(9)) - epsilon) <= 1e-11 * max(epsilon, 1e-300), "epsilon line off the input")
    _check_bound(epsilon, n, float(m.group(11)), m.group(13).startswith("CONTRADICTION"), 1e-6)


def check_op(op, rc: int, stdout: str, stderr: str, data: bytes) -> None:
    """Check one CLI call of a benchmark round; ``data`` is the CSV a figure op wrote."""
    _require(stderr == "", f"unexpected stderr: {stderr[:200]!r}")
    if op.kind in ("fig1", "fig2"):
        _require(rc == 0 and stdout == "", f"{op.kind} exited {rc} with output {stdout[:200]!r}")
        check = check_fig1 if op.kind == "fig1" else check_fig2
        check(data.decode("ascii"), op.resolution)
    elif op.kind == "simulate":
        check_simulate(stdout, rc, op.cos_omega, op.trials, op.seed)
    elif op.kind == "solve":
        check_solve(stdout, rc, op.cos_omega)
    elif op.kind == "report":
        check_report_text(stdout, rc, op.cos_omega, op.epsilon)
    elif op.kind == "report-json":
        check_report_json(stdout, rc, op.cos_omega, op.epsilon)
    elif op.kind == "reduce":
        check_reduce(stdout, rc, op.pair_json)
    else:
        raise CheckError(f"unknown operation kind {op.kind!r}")
