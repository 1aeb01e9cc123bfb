"""End-to-end tests for the command-line interface.

All run in-process except the few that need a process of their own: a real
stdout, a memory limit, or a fresh import.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pbrkit import cli
from pbrkit.experiment import OutcomeCounts
from pbrkit.measurement import FEASIBILITY_BOUNDARY, build_C, build_M, outcome_matrix, solve_measurement
from pbrkit.states import OverlapAngle, reduce_pair

ROOT2 = math.sqrt(2.0)


def _write_pair(path, dim, psi, phi):
    path.write_text(json.dumps({"dim": dim, "psi": psi, "phi": phi}))
    return str(path)


def _subprocess_env(**extra):
    """The test's environment, with pbrkit's source tree first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def test_solve_feasible(capsys):
    assert cli.main(["solve", "--cos-omega", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "cos_beta_raw = -0.57735026918962606" in out
    assert "beta = 2.1862760354652844" in out
    assert "alpha = -0.67967381890824352" in out
    for name in ("M =", "C =", "P ="):
        assert name in out
    assert "max diagonal probability" in out


def test_solve_boundary_crossing(capsys):
    assert cli.main(["solve", "--cos-omega", repr(ROOT2 / 2)]) == 0
    out = capsys.readouterr().out
    assert "beta = 0" in out
    assert "alpha = 3.1415926535897931" in out


def test_solve_orthogonal(capsys):
    assert cli.main(["solve", "--cos-omega", "0"]) == 0
    out = capsys.readouterr().out
    assert "beta = 3.1415926535897931" in out
    assert "alpha = 0" in out


def test_solve_infeasible(capsys):
    assert cli.main(["solve", "--cos-omega", "0.9"]) == 2
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "cos_beta_raw = 16.288517104809891" in out
    assert "M =" not in out


def test_solve_out_of_range(capsys):
    assert cli.main(["solve", "--cos-omega", "1.2"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_non_numeric_flag(capsys):
    assert cli.main(["solve", "--cos-omega", "abc"]) == 1
    assert "error" in capsys.readouterr().err


def test_no_subcommand(capsys):
    assert cli.main([]) == 1
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


def test_fig1_output(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--resolution", "50", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cos_omega,cos_beta,feasible"
    assert len(lines) == 51
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[0]) == pytest.approx(0.01)
    assert float(last[0]) == pytest.approx(0.99)
    assert first[2] == "true" and last[2] == "false"
    # raw value emitted even where infeasible (curve crosses +1)
    assert float(last[1]) > 1.0
    capsys.readouterr()


def test_fig1_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["fig1", "--out", str(a)]) == 0
    assert cli.main(["fig1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_fig2_output(tmp_path):
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--resolution", "50", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "cos_omega,n_pbr,n_alt,n_alt_log_raw"
    assert len(lines) == 51
    for line in lines[1:]:
        c, n_pbr, n_alt, raw = line.split(",")
        assert int(n_alt) >= int(n_pbr) >= 2
        assert int(n_alt) % 2 == 0
        assert float(raw) > 0.0


def test_fig2_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["fig2", "--out", str(a)]) == 0
    assert cli.main(["fig2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the CSVs as the per-row scalar implementation wrote them, on
# x86-64 Linux with glibc's libm.  The rows follow libm's acos, cos, tan, log,
# log1p and pow to the last bit, so another C library may give other bytes.
FIGURE_DIGESTS = [
    ("fig1", 200, "17c5aa654940821d8c6d7d242019cda0d795b50ad55181744288877951a77bb9"),
    ("fig1", 20000, "14291d844ea5a9ab766e83cb1cd458b8734264081247974feb594f524574b64e"),
    ("fig2", 200, "f3de7ec32a91f28c175254359c6715b898f9fe62c46a07098fbb3739d2bc8912"),
    ("fig2", 20000, "f5c215bfb5cad11e88a95004f144ef1a90e17dbae6e090c902fcdeac1a69e327"),
]


@pytest.mark.parametrize("name,resolution,digest", FIGURE_DIGESTS)
def test_figure_bytes_pinned(tmp_path, name, resolution, digest):
    out = tmp_path / f"{name}.csv"
    assert cli.main([name, "--resolution", str(resolution), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_figure_rows_independent_of_block_size(tmp_path, monkeypatch, name):
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert cli.main([name, "--resolution", "1001", "--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "CSV_BLOCK", 7)
    assert cli.main([name, "--resolution", "1001", "--out", str(blocked)]) == 0
    assert whole.read_bytes() == blocked.read_bytes()


@pytest.mark.parametrize("resolution", [2, 3, 2047, 2049, 20123, 1000003])
def test_figure_blocks_are_linspace(resolution):
    blocks = list(cli._figure_blocks(resolution))
    assert max(block.size for block in blocks) <= cli.CSV_BLOCK
    grid = np.concatenate(blocks)
    assert grid.tobytes() == np.linspace(0.01, 0.99, resolution).tobytes()


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_fig_huge_resolution_in_bounded_memory():
    # 10^9 rows would be a 7.45 GiB grid; only one block may be allocated,
    # and its write hits ENOSPC
    result = subprocess.run(
        [sys.executable, "-m", "pbrkit.cli", "fig1", "--resolution", "1000000000", "--out", "/dev/full"],
        capture_output=True,
        env=_subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert result.stderr.startswith(b"error: ")
    assert b"Traceback" not in result.stderr


def test_fig_resolution_too_small(tmp_path, capsys):
    assert cli.main(["fig1", "--resolution", "1", "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_fig_unwritable_path(capsys):
    assert cli.main(["fig1", "--out", "/nonexistent-dir/x.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_reduce_orthogonal_pair(tmp_path, capsys):
    path = _write_pair(
        tmp_path / "ortho.json",
        3,
        [[1, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0]],
    )
    assert cli.main(["reduce", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "grouping: n = 2" in out
    cos_line = [ln for ln in out.splitlines() if ln.startswith("cos_omega")][0]
    assert abs(float(cos_line.split(" = ")[1])) <= 1e-12


def test_reduce_grouped_pair(tmp_path, capsys):
    s = math.sqrt(1.0 - 0.81)
    path = _write_pair(
        tmp_path / "ov9.json",
        4,
        [[1, 0], [0, 0], [0, 0], [0, 0]],
        [[0.9, 0], [s, 0], [0, 0], [0, 0]],
    )
    assert cli.main(["reduce", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "grouping: n = 8" in out
    assert "effective cos = 0.65610000000000" in out


def test_reduce_degenerate_pair(tmp_path, capsys):
    path = _write_pair(tmp_path / "dup.json", 2, [[1, 0], [0, 0]], [[0, 1], [0, 0]])
    assert cli.main(["reduce", "--in", path]) == 3
    assert "states identical up to phase" in capsys.readouterr().err


def test_reduce_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["reduce", "--in", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_reduce_schema_violation(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": 3, "psi": [[1, 0]], "phi": [[1, 0]]}))
    assert cli.main(["reduce", "--in", str(path)]) == 1
    capsys.readouterr()


def test_reduce_renormalizes_with_warning(tmp_path, capsys):
    eps = 5e-10
    path = _write_pair(tmp_path / "warn.json", 2, [[1 + eps, 0], [0, 0]], [[0.6, 0], [0.8, 0]])
    assert cli.main(["reduce", "--in", path]) == 0
    captured = capsys.readouterr()
    assert "warning: renormalizing psi" in captured.err
    assert "cos_omega = 0.59999999999" in captured.out


def test_reduce_rejects_badly_normalized(tmp_path, capsys):
    path = _write_pair(tmp_path / "bad_norm.json", 2, [[1.1, 0], [0, 0]], [[0.6, 0], [0.8, 0]])
    assert cli.main(["reduce", "--in", path]) == 1
    assert "norm deviates" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_reduce_rejects_non_finite(tmp_path, capsys, bad):
    path = tmp_path / "non_finite.json"
    path.write_text(f'{{"dim": 2, "psi": [[{bad}, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]}}')
    assert cli.main(["reduce", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: psi norm deviates by ")


def test_reduce_missing_file(capsys):
    assert cli.main(["reduce", "--in", "/nonexistent/pair.json"]) == 1
    assert "error" in capsys.readouterr().err


def _wide_pair(dim):
    """A fixed complex pair whose basis vectors wrap past 140 columns."""
    psi = [[math.cos(k) / math.sqrt(dim), math.sin(k) / math.sqrt(dim)] for k in range(dim)]
    phi = [[math.cos(0.7 * k) / math.sqrt(dim), math.sin(0.7 * k) / math.sqrt(dim)] for k in range(dim)]
    return psi, phi


# SHA-256 of stdout, taken while np.array2string printed the matrices.
SOLVE_DIGESTS = [
    ("0", "236a2492c52e5368600579d8a94fea002316a98125cc178f2628ba8bc781e14d"),
    ("0.3", "11ba556b258e4dd125a69474ede5179542b2ec9ff995895a14cfbe52fc8f2aee"),
    (repr(ROOT2 / 2), "3a0246e8d49d5a9551e662c0e3c5c3e42f0c624d9852248ef67fa63a2886395f"),
    ("0.9", "f9f066af3e314c4644d76dc504793ca678316ab5cf377a1a815753c81f11f4eb"),
]
REDUCE_PAIRS = [
    (3, [[1, 0], [0, 0], [0, 0]], [[0.8, 0], [0, 0.36], [0.48, 0]],
     "f5cbce3d91c779ba0e51db0702f7adcf764a9ddf64623bfb0481028f6b7d9bb6"),
    (40, *_wide_pair(40), "5e75b9e865459e264655accd6b073133e6a5547407aed0c33dd329865a9e353b"),
]


@pytest.mark.parametrize("cos_omega,digest", SOLVE_DIGESTS)
def test_solve_bytes_pinned(capsys, cos_omega, digest):
    cli.main(["solve", "--cos-omega", cos_omega])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("dim,psi,phi,digest", REDUCE_PAIRS, ids=["dim3", "dim40"])
def test_reduce_bytes_pinned(tmp_path, capsys, dim, psi, phi, digest):
    assert cli.main(["reduce", "--in", _write_pair(tmp_path / "pair.json", dim, psi, phi)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _solved(c, which):
    angle = OverlapAngle.from_cos(c)
    sol = solve_measurement(angle)
    if which == "M":
        return build_M(sol.alpha, sol.beta)
    return build_C(angle) if which == "C" else outcome_matrix(angle, sol.alpha, sol.beta).p


def _basis(dim, c, seed, which):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    perp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    perp -= np.vdot(psi, perp) * psi
    perp /= np.linalg.norm(perp)
    phi = np.exp(1j * rng.uniform(-math.pi, math.pi)) * c * psi + math.sqrt(1.0 - c * c) * perp
    pair = reduce_pair(psi, phi / np.linalg.norm(phi))
    return pair.basis1 if which else pair.basis0


_shapes = hnp.array_shapes(min_dims=1, max_dims=2, max_side=12)
_wide = st.one_of(st.tuples(st.integers(20, 80)), st.tuples(st.integers(1, 6), st.integers(10, 30)))
_tiny = st.sampled_from([1e-33, -1e-33, 0.0, -0.0, 0.5])
PRINTED_ARRAYS = {
    "solved": st.builds(_solved, st.one_of(st.sampled_from([0.0, FEASIBILITY_BOUNDARY]),
                                           st.floats(0.0, FEASIBILITY_BOUNDARY)),
                        st.sampled_from("MCP")),
    "C-infeasible": st.floats(FEASIBILITY_BOUNDARY + 1e-9, 0.999999).map(
        lambda c: build_C(OverlapAngle.from_cos(c))),
    "bases": st.builds(_basis, st.integers(2, 64), st.floats(0.0, 0.999),
                       st.integers(0, 2**32 - 1), st.booleans()),
    "dyadic-ties": hnp.arrays(float, _shapes, elements=st.integers(-2**12, 2**12).map(lambda k: k / 2**7)),
    "tiny-and-signed-zero": hnp.arrays(complex, _shapes, elements=st.builds(complex, _tiny, _tiny)),
    "all-zero": st.builds(np.zeros, _shapes, st.sampled_from([float, complex])),
    "wide-real": hnp.arrays(float, _wide, elements=st.floats(-1e7, 1e7)),
    "wide-complex": hnp.arrays(complex, _wide, elements=st.complex_numbers(max_magnitude=1e7)),
    "summarised": st.integers(1001, 3000).map(lambda n: np.random.default_rng(n).normal(size=n) / 30),
}


@pytest.mark.parametrize("kind", PRINTED_ARRAYS)
def test_format_matrix_is_array2string(kind):
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(PRINTED_ARRAYS[kind])
    def check(m):
        body = np.array2string(m, precision=6, suppress_small=True, max_line_width=140)
        assert cli._format_matrix("X", m) == f"X =\n{body}"

    check()


def test_simulate_forbidden_never_fires(capsys):
    assert cli.main(["simulate", "--cos-omega", "0.5", "--trials", "2000", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    for j in (1, 2, 3, 4):
        assert f"forbidden outcome {j} count = 0" in out
    assert "forbidden outcomes fired 0 times" in out
    assert "reduced:" not in out


def test_simulate_deterministic_output(capsys):
    args = ["simulate", "--cos-omega", "0.4", "--trials", "500", "--seed", "21"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_simulate_orthogonal_permutation(capsys):
    assert cli.main(["simulate", "--cos-omega", "0", "--trials", "1000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "preparation 1: counts = [0, 0, 0, 1000]" in out
    assert "preparation 2: counts = [0, 0, 1000, 0]" in out
    assert "preparation 3: counts = [0, 1000, 0, 0]" in out
    assert "preparation 4: counts = [1000, 0, 0, 0]" in out


def test_simulate_auto_reduction(capsys):
    assert cli.main(["simulate", "--cos-omega", "0.9", "--trials", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "reduced: n=8, effective cos = 0.65610000000000" in out


def test_simulate_bad_trials(capsys):
    assert cli.main(["simulate", "--cos-omega", "0.5", "--trials", "0"]) == 1
    capsys.readouterr()


def test_simulate_trials_beyond_int64(capsys):
    assert cli.main(["simulate", "--cos-omega", "0.5", "--trials", str(2**63)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trials must be <= 2**63 - 1, got {2**63}\n"


def test_simulate_negative_seed(capsys):
    assert cli.main(["simulate", "--cos-omega", "0.5", "--seed", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -5\n"


def test_simulate_statistical_contradiction_exit(monkeypatch, capsys):
    def fake(p, preparation, trials, seed):
        counts = [0, 0, 0, 0]
        counts[preparation - 1] = trials
        return OutcomeCounts(
            counts=tuple(counts), trials=trials, preparation=preparation, seed=seed
        )

    monkeypatch.setattr(cli, "sample_outcomes", fake)
    assert cli.main(["simulate", "--cos-omega", "0.5", "--trials", "10", "--seed", "1"]) == 4
    assert "statistical contradiction" in capsys.readouterr().out


def test_report_text(capsys):
    assert cli.main(["report", "--cos-omega", "0.9", "--epsilon", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "CONTRADICTION" in out
    assert "n = 8" in out


def test_report_json(capsys):
    assert cli.main(["report", "--cos-omega", "0.5", "--epsilon", "0.1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 2
    assert record["compat_bound"] == pytest.approx(0.01)
    assert record["contradiction"] is True


def test_report_bad_epsilon(capsys):
    assert cli.main(["report", "--cos-omega", "0.5", "--epsilon", "1.5"]) == 1
    assert "epsilon" in capsys.readouterr().err


REUSE_SEQUENCES = {
    "report-json-then-text": [
        ["report", "--cos-omega", "0.9", "--epsilon", "0.2", "--json"],
        ["report", "--cos-omega", "0.9", "--epsilon", "0.2"],
    ],
    "simulate-trials-then-default": [
        ["simulate", "--cos-omega", "0.5", "--trials", "7"],
        ["simulate", "--cos-omega", "0.5"],
    ],
    "usage-error-then-good": [
        ["simulate", "--cos-omega", "0.5", "--trials", "abc"],
        ["simulate", "--cos-omega", "0.5", "--trials", "3"],
    ],
    "missing-flag-then-good": [["solve"], ["solve", "--cos-omega", "0.3"]],
}


@pytest.mark.parametrize("calls", REUSE_SEQUENCES.values(), ids=REUSE_SEQUENCES)
def test_main_reused_parser_matches_fresh_parser(monkeypatch, capsys, calls):
    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run(argv) for argv in calls] == fresh


def test_main_builds_parser_once(monkeypatch, capsys):
    build_parser = cli.build_parser
    assert build_parser() is not build_parser()
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_PARSER", None)
    for calls in REUSE_SEQUENCES.values():
        for argv in calls:
            cli.main(argv)
    capsys.readouterr()
    assert len(builds) == 1


def test_main_dispatches_to_rebound_command(monkeypatch, capsys):
    assert cli.main(["report", "--cos-omega", "0.9", "--epsilon", "0.2"]) == 0
    capsys.readouterr()
    seen = []

    def fake_report(args):
        seen.append(args)
        return 42

    monkeypatch.setattr(cli, "cmd_report", fake_report)
    assert cli.main(["report", "--cos-omega", "0.9", "--epsilon", "0.2", "--json"]) == 42
    assert capsys.readouterr().out == ""
    assert len(seen) == 1 and seen[0].as_json and seen[0].epsilon == 0.2


def test_import_builds_no_parser():
    code = textwrap.dedent(
        """
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import pbrkit.cli
        print(len(built), pbrkit.cli._PARSER)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=_subprocess_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"0 None\n"


# Unbuffered, the write in main fails; buffered, the flush on the way out does.
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_report_broken_pipe(unbuffered):
    env = _subprocess_env(PYTHONUNBUFFERED="1") if unbuffered else _subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pbrkit.cli", "report", "--cos-omega", "0.9", "--epsilon", "0.2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == b""
