"""Seeded inputs of the three benchmark workloads.

A workload is a *round*: a fixed list of CLI operations drawn from the seed.
The benchmark repeats whole rounds, so every run attempts the same mix of
operations and the share that fails is the same whatever the seed and
however long the run.

* figures  -- fig1 and fig2 at resolutions just above 20000 rows.
* sampling -- simulate at about 1e6 trials per preparation, overlaps on both
  sides of sqrt(2)/2.
* queries  -- one-shot solve, report (text and JSON), reduce and simulate
  calls over overlaps across [0, 1), some within 1e-6 of 1, plus two fixed
  reports whose epsilon^n bound underflows (a known fault, counted as
  failed until the report carries the bound in log space).
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import min_group

WORKLOADS = ("figures", "sampling", "queries")

# Overlaps are drawn clear of the boundary on either side so that the number
# of feasible and infeasible calls in a round does not depend on the seed.
BELOW = (0.0, 0.7071)
ABOVE = (0.7072, 1.0)
# Exponent of the distance 1 - cos(omega) for overlaps drawn next to 1.
NEAR_ONE_LOG10 = (-9.0, -6.0)

FIG_RESOLUTION = 20000
SAMPLING_TRIALS = 1_000_000
QUERY_TRIALS = 10_000
# epsilon is drawn so that epsilon^n = exp(-u) with u in this range: the
# bound never leaves the normal double range, so only the fixed underflow
# reports below fail.
BOUND_EXPONENT = (1e-2, 600.0)
UNDERFLOW_REPORTS = (
    ("report", "--cos-omega", "0.999999", "--epsilon", "0.2"),
    ("report", "--cos-omega", "0.999999", "--epsilon", "0.2", "--json"),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the items it produces and what its check needs."""

    kind: str
    argv: tuple[str, ...]
    items: int
    cos_omega: float = 0.0
    epsilon: float = 0.0
    trials: int = 0
    seed: int = 0
    resolution: int = 0
    pair_json: str = ""
    out: str = ""


def _num(x: float) -> str:
    return repr(float(x))


def _overlaps(rng: np.random.Generator, k: int) -> list[float]:
    """k overlaps: a fixed share below the boundary, above it, and next to 1."""
    near = k // 5
    below = k // 2
    above = k - below - near
    values = list(rng.uniform(*BELOW, below)) + list(rng.uniform(*ABOVE, above))
    values += [1.0 - 10.0 ** rng.uniform(*NEAR_ONE_LOG10) for _ in range(near)]
    return [float(v) for v in values]


def figures(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """fig1, fig2 and fig1 again at a second grid: fig1 is two thirds of the ops,
    so op_s.p50 falls among fig1 calls and op_s.p90 among fig2 calls."""
    ra, rb = (FIG_RESOLUTION + int(r) for r in rng.choice(200, size=2, replace=False))

    def fig(name: str, res: int) -> Op:
        out = str(workdir / f"{name}-{res}.csv")
        return Op(name, (name, "--resolution", str(res), "--out", out), res, resolution=res, out=out)

    return [fig("fig1", ra), fig("fig2", ra), fig("fig1", rb)]


def _simulate(rng: np.random.Generator, c: float, trials: int, items: int) -> Op:
    seed = int(rng.integers(0, 2**31))
    argv = ("simulate", "--cos-omega", _num(c), "--trials", str(trials), "--seed", str(seed))
    return Op("simulate", argv, items, cos_omega=c, trials=trials, seed=seed)


def sampling(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """Eight simulate calls, four on each side of the boundary."""
    below = rng.uniform(0.05, BELOW[1], 4)
    above = rng.uniform(ABOVE[0], 0.99, 4)
    ops = []
    for c in np.column_stack([below, above]).ravel():
        trials = SAMPLING_TRIALS + int(rng.integers(0, 1000))
        ops.append(_simulate(rng, float(c), trials, 4 * trials))
    return ops


def random_pair(rng: np.random.Generator, dim: int, c: float) -> dict:
    """Normalized pair with |<psi|phi>| = c and a random relative phase."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    perp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    perp -= np.vdot(psi, perp) * psi
    perp /= np.linalg.norm(perp)
    phi = np.exp(1j * rng.uniform(-math.pi, math.pi)) * c * psi + math.sqrt(1.0 - c * c) * perp
    phi /= np.linalg.norm(phi)
    as_pairs = lambda v: [[float(z.real), float(z.imag)] for z in v]
    return {"dim": dim, "psi": as_pairs(psi), "phi": as_pairs(phi)}


def queries(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """Fifty one-shot calls in a seeded order; two of them underflow."""
    ops = []
    for c in _overlaps(rng, 10):
        ops.append(Op("solve", ("solve", "--cos-omega", _num(c)), 1, cos_omega=c))
    for kind in ("report", "report-json"):
        for c in _overlaps(rng, 10):
            n = 2 * min_group(c)
            eps = math.exp(-math.exp(rng.uniform(*np.log(BOUND_EXPONENT))) / n)
            argv = ("report", "--cos-omega", _num(c), "--epsilon", _num(eps))
            ops.append(Op(kind, argv + (("--json",) if kind == "report-json" else ()), 1, cos_omega=c, epsilon=eps))
    for k, c in enumerate(_overlaps(rng, 10)):
        text = json.dumps(random_pair(rng, int(rng.integers(2, 65)), c))
        path = workdir / f"pair-{k}.json"
        path.write_text(text, encoding="utf-8")
        ops.append(Op("reduce", ("reduce", "--in", str(path)), 1, pair_json=text))
    for c in _overlaps(rng, 8):
        ops.append(_simulate(rng, c, QUERY_TRIALS, 1))
    for argv in UNDERFLOW_REPORTS:
        ops.append(Op("report-json" if "--json" in argv else "report", argv, 1, cos_omega=0.999999, epsilon=0.2))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The round of ``workload`` for ``seed``; writes its input files into workdir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"figures": figures, "sampling": sampling, "queries": queries}[workload](rng, workdir)

