"""Tests for the Monte-Carlo sampler and the contradiction report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrkit import experiment
from pbrkit import (
    MAX_TRIALS,
    PROB_FLOOR,
    OverlapAngle,
    ToolkitError,
    contradiction_report,
    outcome_matrix,
    render_report,
    sample_outcomes,
    solve_measurement,
)


def _solved_matrix(cos_omega):
    angle = OverlapAngle(cos=cos_omega)
    return outcome_matrix(angle, *solve_measurement(angle))


def test_sample_counts_sum_to_trials():
    counts = sample_outcomes(_solved_matrix(0.5), 2, 12345, 0)
    assert len(counts) == 4 and all(type(k) is int for k in counts)
    assert sum(counts) == 12345


def test_sample_huge_trial_counts_in_constant_memory():
    # one multinomial draw: 10^12 trials cost what 10 do
    p = _solved_matrix(0.5)
    for j in (1, 2, 3, 4):
        counts = sample_outcomes(p, j, 10**12, 100 + j)
        assert sum(counts) == 10**12
        assert counts[j - 1] == 0
    assert sum(sample_outcomes(p, 1, MAX_TRIALS, 7)) == MAX_TRIALS


def test_sample_deterministic():
    p = _solved_matrix(0.3)
    first = sample_outcomes(p, 1, 1, 99)
    second = sample_outcomes(p, 1, 1, 99)
    assert first == second
    assert sample_outcomes(p, 3, 5000, 4) == sample_outcomes(p, 3, 5000, 4)


def test_sample_anti_diagonal_is_deterministic():
    p = _solved_matrix(0.0)
    assert sample_outcomes(p, 1, 1000, 7) == (0, 0, 0, 1000)


def test_sample_forbidden_outcome_never_fires():
    p = _solved_matrix(0.5)
    for j in (1, 2, 3, 4):
        assert sample_outcomes(p, j, 100_000, 10 + j)[j - 1] == 0


def test_sample_empirical_frequencies_converge():
    """TV distance < 0.01 at 1e5 trials across a feasible overlap grid."""
    for k, c in enumerate(np.linspace(0.0, math.sqrt(0.5), 10)):
        p = _solved_matrix(float(c))
        for j in (1, 2, 3, 4):
            empirical = np.asarray(sample_outcomes(p, j, 100_000, 1000 * k + j)) / 100_000
            tv = 0.5 * np.abs(empirical - p[:, j - 1]).sum()
            assert tv < 0.01


def test_sample_rejects_bad_preparation():
    p = _solved_matrix(0.5)
    with pytest.raises(ToolkitError, match="preparation must be in 1..4, got 0"):
        sample_outcomes(p, 0, 10, 0)
    with pytest.raises(ToolkitError, match="preparation must be in 1..4, got 5"):
        sample_outcomes(p, 5, 10, 0)


def test_sample_rejects_bad_trials():
    with pytest.raises(ToolkitError, match="trials must be >= 1, got 0"):
        sample_outcomes(_solved_matrix(0.5), 1, 0, 0)
    with pytest.raises(ToolkitError, match=r"trials must be <= 2\*\*63 - 1, got 9223372036854775808"):
        sample_outcomes(_solved_matrix(0.5), 1, MAX_TRIALS + 1, 0)
    # numpy's own seeding raises a bare ValueError here
    with pytest.raises(ToolkitError, match="seed must be >= 0, got -1"):
        sample_outcomes(_solved_matrix(0.5), 1, 10, -1)


@st.composite
def _columns(draw):
    """4 entries: 1 to 4 at or above PROB_FLOOR, the rest zero or just below it, in any order."""
    drawn = draw(st.lists(st.one_of(st.just(PROB_FLOOR), st.floats(PROB_FLOOR, 1.0)), min_size=1, max_size=4))
    below = st.one_of(st.just(math.nextafter(PROB_FLOOR, 0.0)), st.floats(0.0, PROB_FLOOR, exclude_max=True))
    drawn += draw(st.lists(below, min_size=4 - len(drawn), max_size=4 - len(drawn)))
    return draw(st.permutations(drawn))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_columns(), st.integers(1, 4), st.one_of(st.integers(1, 1000), st.integers(1, MAX_TRIALS)),
       st.one_of(st.integers(0, 2**32), st.integers(0, 2**128)))
def test_sample_is_the_numpy_multinomial_over_the_support(column, preparation, trials, seed):
    p = np.full((4, 4), 0.25)
    p[:, preparation - 1] = column
    support = np.flatnonzero(p[:, preparation - 1] >= PROB_FLOOR)
    weights = p[support, preparation - 1]
    expected = np.zeros(4, dtype=np.int64)
    expected[support] = np.random.default_rng(seed).multinomial(trials, weights / weights.sum())
    assert sample_outcomes(p, preparation, trials, seed) == tuple(expected.tolist())


def test_report_zero_epsilon_is_vacuous():
    report = contradiction_report(OverlapAngle(cos=0.5), 0.0)
    assert report["compat_bound"] == 0.0
    assert report["contradiction"] is False


def test_report_feasible_overlap():
    report = contradiction_report(OverlapAngle(cos=0.5), 0.1)
    assert report["n"] == 2
    assert report["compat_bound"] == pytest.approx(0.01, abs=1e-15)
    assert report["max_diagonal"] < PROB_FLOOR
    assert report["contradiction"] is True


def test_report_grouped_overlap():
    report = contradiction_report(OverlapAngle(cos=0.9), 0.2)
    assert report["n"] == 8
    assert report["group_size"] == 4
    assert report["compat_bound"] == pytest.approx(2.56e-6, rel=1e-12)
    assert report["cos_effective_omega"] == pytest.approx(0.6561, abs=1e-12)
    assert report["contradiction"] is True


@pytest.mark.parametrize("d", [PROB_FLOOR, math.nextafter(PROB_FLOOR, 0.0)], ids=["floor", "below"])
def test_report_and_sampler_agree_at_the_floor(monkeypatch, d):
    # an outcome is forbidden in the report exactly when the sampler never draws it
    p = np.full((4, 4), (1.0 - d) / 3.0)
    np.fill_diagonal(p, d)
    monkeypatch.setattr(experiment, "outcome_matrix", lambda omega, alpha, beta: p)
    report = contradiction_report(OverlapAngle(cos=0.5), 0.5)
    assert report["forbidden_probabilities"] == [d] * 4
    for j in (1, 2, 3, 4):
        # at 2^63 - 1 trials an outcome of probability 1e-12 is drawn ~10^7 times
        drawn = sample_outcomes(p, j, MAX_TRIALS, j)[j - 1] > 0
        assert report["contradiction"] is not drawn


def test_report_rejects_bad_epsilon():
    with pytest.raises(ToolkitError, match=r"epsilon must lie in \[0, 1\], got -0.1"):
        contradiction_report(OverlapAngle(cos=0.5), -0.1)
    with pytest.raises(ToolkitError, match=r"epsilon must lie in \[0, 1\], got 1.1"):
        contradiction_report(OverlapAngle(cos=0.5), 1.1)


def test_render_report_names_all_preparations():
    text = render_report(contradiction_report(OverlapAngle(cos=0.8), 0.3))
    for j in (1, 2, 3, 4):
        assert f"preparation {j}:" in text
        assert f"outcome {j} forbidden" in text
    assert "CONTRADICTION" in text
    assert "epsilon^n" in text


def test_render_report_vacuous_case():
    text = render_report(contradiction_report(OverlapAngle(cos=0.8), 0.0))
    assert "no contradiction" in text


def test_report_record_round_trips_through_json():
    report = contradiction_report(OverlapAngle(cos=0.9), 0.2)
    record = json.loads(json.dumps(report))
    assert record == report
    assert record["n"] == 8
    assert record["contradiction"] is True
    assert record["compat_bound"] == pytest.approx(2.56e-6, rel=1e-12)
    assert len(record["forbidden_probabilities"]) == 4
