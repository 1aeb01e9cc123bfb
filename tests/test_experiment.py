"""Tests for the Monte-Carlo sampler and the contradiction report."""

import json
import math

import numpy as np
import pytest

from pbrkit import (
    MAX_TRIALS,
    BadEpsilon,
    BadPreparation,
    OverlapAngle,
    contradiction_report,
    outcome_matrix,
    render_report,
    report_as_dict,
    sample_outcomes,
    solve_measurement,
)


def _solved_matrix(cos_omega):
    sol = solve_measurement(OverlapAngle.from_cos(cos_omega))
    return outcome_matrix(sol.omega, sol.alpha, sol.beta)


def test_sample_counts_sum_to_trials():
    p = _solved_matrix(0.5)
    tally = sample_outcomes(p, 2, 12345, 0)
    assert sum(tally.counts) == tally.trials == 12345
    assert tally.generator == "numpy-pcg64-multinomial"


def test_sample_huge_trial_counts_in_constant_memory():
    # one multinomial draw: 10^12 trials cost what 10 do
    p = _solved_matrix(0.5)
    for j in (1, 2, 3, 4):
        tally = sample_outcomes(p, j, 10**12, 100 + j)
        assert sum(tally.counts) == 10**12
        assert tally.counts[j - 1] == 0
    assert sum(sample_outcomes(p, 1, MAX_TRIALS, 7).counts) == MAX_TRIALS


def test_sample_deterministic():
    p = _solved_matrix(0.3)
    first = sample_outcomes(p, 1, 1, 99)
    second = sample_outcomes(p, 1, 1, 99)
    assert first == second
    assert sample_outcomes(p, 3, 5000, 4) == sample_outcomes(p, 3, 5000, 4)


def test_sample_anti_diagonal_is_deterministic():
    p = _solved_matrix(0.0)
    tally = sample_outcomes(p, 1, 1000, 7)
    assert tally.counts == (0, 0, 0, 1000)


def test_sample_forbidden_outcome_never_fires():
    p = _solved_matrix(0.5)
    for j in (1, 2, 3, 4):
        tally = sample_outcomes(p, j, 100_000, 10 + j)
        assert tally.counts[j - 1] == 0


def test_sample_empirical_frequencies_converge():
    """TV distance < 0.01 at 1e5 trials across a feasible overlap grid."""
    for k, c in enumerate(np.linspace(0.0, math.sqrt(0.5), 10)):
        p = _solved_matrix(float(c))
        for j in (1, 2, 3, 4):
            tally = sample_outcomes(p, j, 100_000, 1000 * k + j)
            empirical = np.asarray(tally.counts) / tally.trials
            tv = 0.5 * np.abs(empirical - p.p[:, j - 1]).sum()
            assert tv < 0.01


def test_sample_rejects_bad_preparation():
    p = _solved_matrix(0.5)
    with pytest.raises(BadPreparation):
        sample_outcomes(p, 0, 10, 0)
    with pytest.raises(BadPreparation):
        sample_outcomes(p, 5, 10, 0)


def test_sample_rejects_bad_trials():
    with pytest.raises(ValueError):
        sample_outcomes(_solved_matrix(0.5), 1, 0, 0)
    with pytest.raises(ValueError):
        sample_outcomes(_solved_matrix(0.5), 1, MAX_TRIALS + 1, 0)


def test_report_zero_epsilon_is_vacuous():
    report = contradiction_report(OverlapAngle.from_cos(0.5), 0.0)
    assert report.compat_bound == 0.0
    assert not report.contradiction


def test_report_feasible_overlap():
    report = contradiction_report(OverlapAngle.from_cos(0.5), 0.1)
    assert report.n == 2
    assert report.compat_bound == pytest.approx(0.01, abs=1e-15)
    assert report.max_diagonal <= 1e-10
    assert report.contradiction


def test_report_grouped_overlap():
    report = contradiction_report(OverlapAngle.from_cos(0.9), 0.2)
    assert report.n == 8
    assert report.compat_bound == pytest.approx(2.56e-6, rel=1e-12)
    assert report.effective_omega.cos == pytest.approx(0.6561, abs=1e-12)
    assert report.contradiction


def test_report_rejects_bad_epsilon():
    with pytest.raises(BadEpsilon):
        contradiction_report(OverlapAngle.from_cos(0.5), -0.1)
    with pytest.raises(BadEpsilon):
        contradiction_report(OverlapAngle.from_cos(0.5), 1.1)


def test_render_report_names_all_preparations():
    text = render_report(contradiction_report(OverlapAngle.from_cos(0.8), 0.3))
    for j in (1, 2, 3, 4):
        assert f"preparation {j}:" in text
        assert f"outcome {j} forbidden" in text
    assert "CONTRADICTION" in text
    assert "epsilon^n" in text


def test_render_report_vacuous_case():
    text = render_report(contradiction_report(OverlapAngle.from_cos(0.8), 0.0))
    assert "no contradiction" in text


def test_report_as_dict_round_trips_through_json():
    report = contradiction_report(OverlapAngle.from_cos(0.9), 0.2)
    record = json.loads(json.dumps(report_as_dict(report)))
    assert record["n"] == 8
    assert record["contradiction"] is True
    assert record["compat_bound"] == pytest.approx(2.56e-6, rel=1e-12)
    assert len(record["forbidden_probabilities"]) == 4
