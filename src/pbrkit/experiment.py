"""Monte-Carlo sampling of the outcome statistics and the contradiction report.

The sampler draws the outcome counts of each joint preparation from a seeded
multinomial over the outcomes that can happen, so a forbidden outcome can
never fire.
The report assembles the incompatibility argument: if each device produced
a physical state compatible with both preparations with probability at
least epsilon, all four joint settings would be doubly compatible with
probability at least epsilon^n, yet each of them forbids one measurement
outcome completely.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadEpsilon, BadPreparation
from .measurement import outcome_matrix, solve_measurement
from .reduction import grouping_plan
from .states import OverlapAngle, _as_angle

# Column entries below this are treated as exact zeros and never sampled,
# so "forbidden" means never, not merely probability ~1e-10.
PROB_FLOOR = 1e-12

# numpy's multinomial counts are 64-bit signed integers.
MAX_TRIALS = 2**63 - 1

# A diagonal entry at or below this counts as a forbidden outcome.
ZERO_DIAGONAL_TOL = 1e-10


@dataclass(frozen=True)
class OutcomeCounts:
    """Sampled outcome tallies for one joint preparation."""

    counts: tuple[int, int, int, int]
    trials: int
    preparation: int
    seed: int
    generator: str = "numpy-pcg64-multinomial"


@dataclass(frozen=True)
class ContradictionReport:
    """The epsilon^n argument evaluated at one overlap value."""

    omega: OverlapAngle
    epsilon: float
    n: int
    compat_bound: float
    max_diagonal: float
    contradiction: bool
    effective_omega: OverlapAngle
    alpha: float
    beta: float
    forbidden_probabilities: tuple[float, float, float, float]


def sample_outcomes(p: np.ndarray, preparation: int, trials: int, seed: int) -> OutcomeCounts:
    """Draw the four outcome counts of one preparation in one multinomial draw.

    ``p`` is an :func:`outcome_matrix`.  The support is the entries of the
    preparation's column at or above PROB_FLOOR.  It is renormalized and
    sampled with numpy's PCG64 ``Generator.multinomial`` seeded with
    ``seed``; every other outcome counts 0 by construction.  Time and
    memory do not grow with ``trials`` (1 to MAX_TRIALS), and identical
    inputs give identical counts.
    """
    if preparation not in (1, 2, 3, 4):
        raise BadPreparation(f"preparation must be in 1..4, got {preparation}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**63 - 1], got {trials}")
    column = p[:, preparation - 1]
    support = np.flatnonzero(column >= PROB_FLOOR)
    counts = np.zeros(4, dtype=np.int64)
    weights = column[support]
    counts[support] = np.random.default_rng(seed).multinomial(trials, weights / weights.sum())
    return OutcomeCounts(
        counts=tuple(int(k) for k in counts),
        trials=trials,
        preparation=preparation,
        seed=seed,
    )


def contradiction_report(omega, epsilon: float) -> ContradictionReport:
    """Evaluate the epsilon^n incompatibility argument at one overlap.

    Groups enough devices for a feasible effective overlap, solves the
    measurement there, and flags the contradiction: a strictly positive
    lower bound epsilon^n on doubly-compatible joint preparations next to
    four forbidden outcomes of zero probability.
    """
    omega = _as_angle(omega)
    epsilon = float(epsilon)
    if not (0.0 <= epsilon <= 1.0):
        raise BadEpsilon(f"epsilon must lie in [0, 1], got {epsilon!r}")
    plan = grouping_plan(omega)
    solution = solve_measurement(plan.effective_omega)
    probs = outcome_matrix(plan.effective_omega, solution.alpha, solution.beta)
    diagonal = np.diag(probs)
    max_diagonal = float(diagonal.max())
    return ContradictionReport(
        omega=omega,
        epsilon=epsilon,
        n=plan.n,
        compat_bound=epsilon**plan.n,
        max_diagonal=max_diagonal,
        contradiction=(epsilon > 0.0) and (max_diagonal <= ZERO_DIAGONAL_TOL),
        effective_omega=plan.effective_omega,
        alpha=solution.alpha,
        beta=solution.beta,
        forbidden_probabilities=tuple(float(x) for x in diagonal),
    )


_GROUP_SETTINGS = (("psi", "psi"), ("psi", "phi"), ("phi", "psi"), ("phi", "phi"))


def render_report(report: ContradictionReport) -> str:
    """Plain-text rendering naming the joint preparations and their forbidden outcomes."""
    m = report.n // 2
    lines = [
        f"overlap: cos(omega) = {report.omega.cos:.12g} (omega = {report.omega.omega:.12g})",
        f"devices: n = {report.n}, two groups of {m}; effective cos = {report.effective_omega.cos:.12g}",
        f"measurement phases: beta = {report.beta:.12g}, alpha = {report.alpha:.12g}",
        "joint preparations and forbidden outcomes:",
    ]
    for j, (g1, g2) in enumerate(_GROUP_SETTINGS, start=1):
        prob = report.forbidden_probabilities[j - 1]
        lines.append(
            f"  preparation {j}: {g1}^(x{m}) (x) {g2}^(x{m})  ->  outcome {j} forbidden (p = {prob:.3e})"
        )
    lines.append(
        f"claimed doubly-compatible probability: epsilon^n = {report.epsilon:.12g}^{report.n}"
        f" = {report.compat_bound:.6e}"
    )
    lines.append(f"max forbidden-outcome probability: {report.max_diagonal:.6e}")
    if report.contradiction:
        lines.append(
            "CONTRADICTION: the compatibility bound is positive, yet a doubly-compatible"
            " run would have to yield an outcome every setting forbids."
        )
    else:
        lines.append("no contradiction claimed (epsilon = 0 bounds nothing).")
    return "\n".join(lines)


def report_as_dict(report: ContradictionReport) -> dict:
    """JSON-serializable record of the report."""
    return {
        "cos_omega": report.omega.cos,
        "omega": report.omega.omega,
        "epsilon": report.epsilon,
        "n": report.n,
        "group_size": report.n // 2,
        "cos_effective_omega": report.effective_omega.cos,
        "alpha": report.alpha,
        "beta": report.beta,
        "compat_bound": report.compat_bound,
        "max_diagonal": report.max_diagonal,
        "forbidden_probabilities": list(report.forbidden_probabilities),
        "contradiction": report.contradiction,
    }
