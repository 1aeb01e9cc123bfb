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

import numpy as np

from .errors import ToolkitError
from .measurement import outcome_matrix, solve_measurement
from .reduction import grouping_plan
from .states import OverlapAngle

# A probability below this is an exact zero: never drawn by the sampler, and
# forbidden in the report.  Solved overlaps forbid at most ~1e-24.
PROB_FLOOR = 1e-12

# numpy's multinomial counts are 64-bit signed integers.
MAX_TRIALS = 2**63 - 1


def sample_outcomes(p: np.ndarray, preparation: int, trials: int, seed: int) -> tuple[int, int, int, int]:
    """Draw the four outcome counts of one preparation in one multinomial draw.

    ``p`` is an :func:`outcome_matrix`.  The support is the entries of the
    preparation's column at or above PROB_FLOOR.  It is renormalized and
    sampled with numpy's PCG64 ``Generator.multinomial`` seeded with
    ``seed`` (>= 0); every other outcome counts 0 by construction.  Time and
    memory do not grow with ``trials`` (1 to MAX_TRIALS), and identical
    inputs give identical counts, returned as a tuple of ints.
    """
    if preparation not in (1, 2, 3, 4):
        raise ToolkitError(f"preparation must be in 1..4, got {preparation}")
    if trials < 1:
        raise ToolkitError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ToolkitError(f"trials must be <= 2**63 - 1, got {trials}")
    if seed < 0:
        raise ToolkitError(f"seed must be >= 0, got {seed}")
    column = p[:, preparation - 1].tolist()
    support = [k for k, w in enumerate(column) if w >= PROB_FLOOR]
    # numpy sums at most 7 floats left to right from 0, so these are the
    # bits of weights / weights.sum() (Python's sum() is compensated since 3.12).
    total = 0.0
    for k in support:
        total += column[k]
    drawn = np.random.default_rng(seed).multinomial(trials, [column[k] / total for k in support]).tolist()
    counts = [0, 0, 0, 0]
    for k, n in zip(support, drawn):
        counts[k] = n
    return tuple(counts)


def contradiction_report(omega: OverlapAngle, epsilon: float) -> dict:
    """Evaluate the epsilon^n incompatibility argument at one overlap.

    Groups enough devices for a feasible effective overlap, solves the
    measurement there, and flags the contradiction: a strictly positive
    lower bound epsilon^n on doubly-compatible joint preparations next to
    four forbidden outcomes of zero probability.  The result is the
    JSON-serializable record that ``report --json`` prints.
    """
    epsilon = float(epsilon) + 0.0  # -0.0 prints as 0
    if not (0.0 <= epsilon <= 1.0):
        raise ToolkitError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    plan = grouping_plan(omega)
    alpha, beta = solve_measurement(plan.effective_omega)
    diagonal = np.diag(outcome_matrix(plan.effective_omega, alpha, beta)).tolist()
    max_diagonal = max(diagonal)
    return {
        "cos_omega": omega.cos,
        "omega": omega.omega,
        "epsilon": epsilon,
        "n": plan.n,
        "group_size": plan.group_size,
        "cos_effective_omega": plan.effective_omega.cos,
        "alpha": alpha,
        "beta": beta,
        "compat_bound": epsilon**plan.n,
        "max_diagonal": max_diagonal,
        "forbidden_probabilities": diagonal,
        "contradiction": epsilon > 0.0 and max_diagonal < PROB_FLOOR,
    }


_GROUP_SETTINGS = (("psi", "psi"), ("psi", "phi"), ("phi", "psi"), ("phi", "phi"))


def render_report(record: dict) -> str:
    """Plain text of a :func:`contradiction_report` record, naming each joint preparation's forbidden outcome."""
    m = record["group_size"]
    lines = [
        f"overlap: cos(omega) = {record['cos_omega']:.12g} (omega = {record['omega']:.12g})",
        f"devices: n = {record['n']}, two groups of {m}; effective cos = {record['cos_effective_omega']:.12g}",
        f"measurement phases: beta = {record['beta']:.12g}, alpha = {record['alpha']:.12g}",
        "joint preparations and forbidden outcomes:",
    ]
    for j, ((g1, g2), prob) in enumerate(zip(_GROUP_SETTINGS, record["forbidden_probabilities"]), start=1):
        lines.append(
            f"  preparation {j}: {g1}^(x{m}) (x) {g2}^(x{m})  ->  outcome {j} forbidden (p = {prob:.3e})"
        )
    lines.append(
        f"claimed doubly-compatible probability: epsilon^n = {record['epsilon']:.12g}^{record['n']}"
        f" = {record['compat_bound']:.6e}"
    )
    lines.append(f"max forbidden-outcome probability: {record['max_diagonal']:.6e}")
    if record["contradiction"]:
        lines.append(
            "CONTRADICTION: the compatibility bound is positive, yet a doubly-compatible"
            " run would have to yield an outcome every setting forbids."
        )
    else:
        lines.append("no contradiction claimed (epsilon = 0 bounds nothing).")
    return "\n".join(lines)
