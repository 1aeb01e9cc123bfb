"""Acceptance gate: eight criteria, one verdict line each.

Every test prints exactly one line, ``ACCEPTANCE <k> (<label>): PASS|FAIL``,
and fails with the list of violated sub-checks.  Expected numbers are frozen
from independent oracle evaluations (direct powering, brute-force search,
explicit tensor products, Gram-Schmidt constructions); tolerances are pinned
in-line.
"""

import math
import time

import numpy as np

from _reference import ambient, cos_beta_tan_form, make_pair, product_state
from pbrkit import (
    OverlapAngle,
    build_C,
    build_M,
    cos_beta_raw,
    grouping_plan,
    min_n_pbr,
    outcome_matrix,
    reduce_pair,
    sample_outcomes,
    solve_measurement,
    within_boundary,
)
from pbrkit import cli
from pbrkit.reduction import alt_log_bound_raw

BOUNDARY = math.sqrt(0.5)


def _gate(number, label, limit_s, body):
    failures = []

    def check(ok, msg):
        if not ok:
            failures.append(msg)

    start = time.perf_counter()
    try:
        body(check)
    except Exception as exc:  # keep the verdict line even on a crash
        failures.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    check(elapsed < limit_s, f"runtime {elapsed:.3f}s exceeded {limit_s}s")
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({label}): {status}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def test_acceptance_1_feasibility_boundary():
    def body(check):
        at_boundary = cos_beta_raw(BOUNDARY)
        check(abs(at_boundary - 1.0) <= 1e-12, f"cos_beta({BOUNDARY}) = {at_boundary}, not 1")
        at_zero = cos_beta_raw(0.0)
        check(abs(at_zero + 1.0) <= 1e-12, f"cos_beta(0) = {at_zero}, not -1")
        for c in (0.72, 0.8, 0.9, 0.99):
            raw = cos_beta_raw(c)
            check(raw > 1.0, f"raw at {c} is {raw}, expected > 1")
            check(not within_boundary(c), f"{c} reported feasible")
            check(solve_measurement(OverlapAngle(cos=c)) is None, f"{c} solved past the boundary")

    _gate(1, "feasibility boundary", 1.0, body)


def test_acceptance_2_closed_form_equivalence():
    def body(check):
        worst = 0.0
        for c in np.linspace(0.005, 0.995, 200):
            omega = OverlapAngle(cos=float(c))
            worst = max(worst, abs(cos_beta_raw(omega.cos) - cos_beta_tan_form(omega)))
        check(worst <= 1e-10, f"closed forms disagree by {worst:.3e}")

    _gate(2, "closed-form equivalence", 1.0, body)


def test_acceptance_3_zero_diagonal_construction():
    def body(check):
        for c in np.linspace(0.0, BOUNDARY, 50):
            angle = OverlapAngle(cos=float(c))
            phases = solve_measurement(angle)
            check(phases is not None, f"{c} infeasible inside the boundary")
            m = build_M(*phases)
            amplitudes = m @ build_C(angle)
            diag = np.abs(np.diag(amplitudes)).max()
            check(diag <= 1e-10, f"diagonal {diag:.3e} at cos_omega = {c}")
            residual = np.abs(m.conj().T @ m - np.eye(4)).max()
            check(residual <= 1e-12, f"M residual {residual:.3e} at cos_omega = {c}")
            sums = outcome_matrix(angle, *phases).sum(axis=0)
            check(np.abs(sums - 1.0).max() <= 1e-12, f"column sums off at cos_omega = {c}")

    _gate(3, "zero-diagonal construction", 1.0, body)


def test_acceptance_4_group_reduction():
    expected = {0.75: 4, 0.8: 4, 0.9: 8, 0.95: 14}

    def body(check):
        for c, n_expected in expected.items():
            n = grouping_plan(OverlapAngle(cos=c)).n
            check(n == n_expected, f"grouping_plan({c}).n = {n}, expected {n_expected}")
            m = n // 2
            check(c**m <= BOUNDARY + 1e-12, f"{c}^{m} above the boundary")
            check(c ** (m - 1) > BOUNDARY, f"{c}^{m - 1} not above the boundary (n too big)")
            # brute-force oracle: first even n whose group power is feasible
            oracle_m = 1
            while c**oracle_m > BOUNDARY + 1e-12:
                oracle_m += 1
            check(oracle_m == m, f"brute force gives m = {oracle_m}, plan gives {m}")
            # explicit tensor products agree with the analytic overlap (n <= 20)
            pair = make_pair(OverlapAngle(cos=c))
            explicit = np.vdot(product_state(pair.psi, m), product_state(pair.phi, m))
            check(abs(explicit - c**m) <= 1e-10, f"tensor overlap off at {c}: {explicit}")

    _gate(4, "group reduction", 5.0, body)


def test_acceptance_5_minimal_n_comparison():
    def body(check):
        check(min_n_pbr(OverlapAngle(cos=BOUNDARY)) == 2, "n_pbr at the boundary is not 2")
        n9 = min_n_pbr(OverlapAngle(cos=0.9))
        check(n9 == 4, f"n_pbr(0.9) = {n9}, expected 4")
        # direct-substitution oracle: condition holds at 4, fails at 3
        t = OverlapAngle(cos=0.9).tan_half
        check(t >= 2.0 ** (1.0 / 4.0) - 1.0, "condition fails at n = 4")
        check(t < 2.0 ** (1.0 / 3.0) - 1.0, "condition unexpectedly holds at n = 3")
        for c in np.linspace(0.01, 0.99, 200):
            omega = OverlapAngle(cos=float(c))
            n_pbr, n_alt = min_n_pbr(omega), grouping_plan(omega).n
            check(n_alt >= n_pbr, f"n_alt < n_pbr at cos_omega = {c}")
            if c <= BOUNDARY:
                check(n_pbr == 2 and n_alt == 2, f"counts above 2 at cos_omega = {c}")
        # halved logarithmic form reads 1 at the boundary; operative count is 2
        raw = alt_log_bound_raw(BOUNDARY)
        check(abs(raw - 1.0) <= 1e-12, f"raw log bound at boundary = {raw}, expected 1")
        check(grouping_plan(OverlapAngle(cos=BOUNDARY)).n == 2, "operative bound not 2")

    _gate(5, "minimal-n comparison", 1.0, body)


def test_acceptance_6_monte_carlo_statistics():
    def body(check):
        angle = OverlapAngle(cos=0.5)
        p = outcome_matrix(angle, *solve_measurement(angle))
        for j in (1, 2, 3, 4):
            counts = sample_outcomes(p, j, 100_000, 4242 + j)
            check(counts[j - 1] == 0, f"forbidden outcome fired for preparation {j}")
            empirical = np.asarray(counts) / 100_000
            tv = 0.5 * float(np.abs(empirical - p[:, j - 1]).sum())
            check(tv < 0.01, f"TV distance {tv:.4f} for preparation {j}")
        # orthogonal case: deterministic anti-diagonal permutation
        orthogonal = OverlapAngle(cos=0.0)
        p0 = outcome_matrix(orthogonal, *solve_measurement(orthogonal))
        for j, hit in ((1, 4), (2, 3), (3, 2), (4, 1)):
            counts = sample_outcomes(p0, j, 1000, j)
            check(counts[hit - 1] == 1000, f"preparation {j} did not map to outcome {hit}: {counts}")

    _gate(6, "monte-carlo statistics", 10.0, body)


def test_acceptance_7_reduction_round_trip():
    def body(check):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            modulus = rng.uniform(0.05, 0.95)
            phase = rng.uniform(-math.pi, math.pi)
            # Gram-Schmidt oracle: build inputs with a known overlap
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            w -= np.vdot(psi, w) * psi
            w /= np.linalg.norm(w)
            overlap = modulus * np.exp(1j * phase)
            phi = overlap * psi + math.sqrt(1.0 - modulus**2) * w
            phi /= np.linalg.norm(phi)
            pair = reduce_pair(psi, phi)
            check(
                abs(pair.omega.cos - modulus) <= 1e-10,
                f"cos recovery off by {abs(pair.omega.cos - modulus):.3e}",
            )
            psi_ambient, phi_ambient = ambient(pair)
            err_psi = float(np.abs(psi_ambient - psi).max())
            err_phi = float(np.abs(phi_ambient - phi * np.exp(-1j * pair.phase_applied)).max())
            check(err_psi <= 1e-10, f"psi reconstruction off by {err_psi:.3e}")
            check(err_phi <= 1e-10, f"phi reconstruction off by {err_phi:.3e}")

    _gate(7, "reduction round trip", 5.0, body)


def test_acceptance_8_figure_data_goldens(tmp_path):
    def body(check):
        paths = {name: [tmp_path / f"{name}_{k}.csv" for k in (1, 2)] for name in ("fig1", "fig2")}
        for name, (first, second) in paths.items():
            check(cli.main([name, "--out", str(first)]) == 0, f"{name} first run failed")
            check(cli.main([name, "--out", str(second)]) == 0, f"{name} second run failed")
            check(first.read_bytes() == second.read_bytes(), f"{name} runs differ")

        # row-wise facts of criterion 1 on the fig1 data
        for line in paths["fig1"][0].read_text().splitlines()[1:]:
            c_str, raw_str, feasible = line.split(",")
            c, raw = float(c_str), float(raw_str)
            check(
                (feasible == "true") == (c <= BOUNDARY + 1e-12),
                f"feasible flag wrong at cos_omega = {c}",
            )
            if feasible == "false":
                check(raw > 1.0, f"infeasible row with raw = {raw}")
            else:
                check(abs(raw) <= 1.0 + 1e-12, f"feasible row with |raw| > 1 at {c}")

        # row-wise facts of criterion 5 on the fig2 data
        for line in paths["fig2"][0].read_text().splitlines()[1:]:
            c_str, n_pbr_str, n_alt_str, _ = line.split(",")
            c, n_pbr, n_alt = float(c_str), int(n_pbr_str), int(n_alt_str)
            check(n_alt >= n_pbr >= 2, f"count ordering broken at cos_omega = {c}")
            check(n_alt % 2 == 0, f"odd n_alt at cos_omega = {c}")
            if c <= BOUNDARY:
                check(n_pbr == 2 and n_alt == 2, f"counts above 2 at cos_omega = {c}")

    _gate(8, "figure data goldens", 30.0, body)
