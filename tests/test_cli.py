"""End-to-end tests for the command-line interface.

All run in-process except the broken-pipe test, which needs a real stdout.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbrkit import cli
from pbrkit.experiment import OutcomeCounts

ROOT2 = math.sqrt(2.0)


def _write_pair(path, dim, psi, phi):
    path.write_text(json.dumps({"dim": dim, "psi": psi, "phi": phi}))
    return str(path)


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


# Unbuffered, the write in main fails; buffered, the flush on the way out does.
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_report_broken_pipe(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
