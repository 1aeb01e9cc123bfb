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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pbrkit import cli, figures
from pbrkit.measurement import (
    FEASIBILITY_BOUNDARY,
    build_C,
    build_M,
    cos_beta_raw,
    outcome_matrix,
    solve_measurement,
    within_boundary,
)
from pbrkit.reduction import _near_integer, grouping_plan, min_n_pbr
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
    assert "cos_beta_raw = -0.57735026918962584" in out
    assert "beta = 2.1862760354652839" in out
    assert "alpha = -0.67967381890824397" in out
    for name in ("M =", "C =", "P ="):
        assert name in out
    assert "max diagonal probability" in out


@pytest.mark.parametrize("c", ["0.3", "0.5"])
def test_solve_and_report_use_the_given_cosine(capsys, c):
    # cos(acos(c)) is not c at either value
    assert cli.main(["solve", "--cos-omega", c]) == 0
    assert f"\ncos_beta_raw = {cli._g17(cos_beta_raw(float(c)))}\n" in capsys.readouterr().out
    assert cli.main(["report", "--cos-omega", c, "--epsilon", "0.2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cos_omega"] == float(c)


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


@pytest.mark.parametrize("resolution", [200, 20000, 20123])
def test_fig1_rows_are_computed_at_the_grid(tmp_path, resolution):
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--resolution", str(resolution), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    grid = np.linspace(0.01, 0.99, resolution)
    assert [float(c) for c, _, _ in rows] == grid.tolist()
    assert [float(b) for _, b, _ in rows] == cos_beta_raw(grid).tolist()
    assert [f == "true" for _, _, f in rows] == within_boundary(grid).tolist()


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


# SHA-256 of the CSVs, on x86-64 Linux with glibc's libm.  fig2's rows follow
# libm's log to the last bit, so another C library may give other bytes; its
# log1p decides only n_pbr's ceiling, exact either way, and fig2 takes no pow.
# fig1's rows take only arithmetic and sqrt.
FIGURE_DIGESTS = [
    ("fig1", 200, "f57ce037d8bd6a1a22f01db283dabf59c7daac7dc0d980cf1c944f5f8dc8335b"),
    ("fig1", 20000, "467963d221f1d68438d1330f0ab0a11f1988e8397af5097e1b5cdb21be631055"),
    ("fig2", 200, "f3de7ec32a91f28c175254359c6715b898f9fe62c46a07098fbb3739d2bc8912"),
    ("fig2", 20000, "f5c215bfb5cad11e88a95004f144ef1a90e17dbae6e090c902fcdeac1a69e327"),
    # a grid spacing of about 1e-6, over 977 blocks
    ("fig2", 1000000, "2098509cba04649443b44a1b2f3cc967a77fdac24dfa4bbe480df9e12f806e7d"),
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
    # one-row blocks, where each count and flag column is a table of one run
    for encode_rows in (1, 3, 7, 1001):
        monkeypatch.setattr(figures, "ENCODE_ROWS", encode_rows)
        assert cli.main([name, "--resolution", "1001", "--out", str(blocked)]) == 0
        assert whole.read_bytes() == blocked.read_bytes()


# With blocks of 7 rows, block ends fall on count steps.
@pytest.mark.parametrize("encode_rows", [figures.ENCODE_ROWS, 7])
@pytest.mark.parametrize("resolution", [2, 3, 2049, 20000])
def test_fig2_counts_equal_one_overlap_calls(tmp_path, monkeypatch, resolution, encode_rows):
    monkeypatch.setattr(figures, "ENCODE_ROWS", encode_rows)
    out = tmp_path / "fig2.csv"
    assert cli.main(["fig2", "--resolution", str(resolution), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == resolution
    for c, n_pbr, n_alt, raw in rows:
        omega = OverlapAngle(cos=float(c))
        assert (int(n_pbr), int(n_alt)) == (min_n_pbr(omega), grouping_plan(omega).n)
        # past the boundary n_alt is 2 ceil(n_alt_log_raw), but where that quotient is near an integer
        if not within_boundary(omega.cos) and not _near_integer(float(raw)):
            assert int(n_alt) == 2 * math.ceil(float(raw))


# Catches in Tier-1 what the figures workload's peak_mem_mb bound would refuse.
@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_figure_peak_memory(tmp_path, name):
    argv = [name, "--resolution", "20000", "--out", str(tmp_path / f"{name}.csv")]
    assert cli.main(argv) == 0  # the parser and numpy's own caches are built once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.266e6


# Resolutions around half a block, one block and two blocks of ENCODE_ROWS rows.
_BLOCK_EDGES = [k * figures.ENCODE_ROWS // 2 + d for k in (1, 2, 4) for d in (-1, 0, 1)]


@pytest.mark.parametrize("resolution", [2, 3, *_BLOCK_EDGES, 20123, 1000003])
def test_figure_blocks_are_linspace(tmp_path, monkeypatch, resolution):
    blocks, fig1_columns = [], figures._fig1_columns

    def columns(grid):
        blocks.append(grid.copy())
        return fig1_columns(grid)

    monkeypatch.setattr(figures, "_fig1_columns", columns)
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--resolution", str(resolution), "--out", str(out)]) == 0
    assert max(block.size for block in blocks) <= figures.ENCODE_ROWS
    expected = np.linspace(0.01, 0.99, resolution).tobytes()
    assert np.concatenate(blocks).tobytes() == expected
    # %.17g round-trips a double, so the CSV's first column holds the same bits
    lines = out.read_bytes().splitlines()[1:]
    assert np.array([float(line.split(b",", 1)[0]) for line in lines]).tobytes() == expected


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
    assert result.stderr.startswith(b"error: [Errno 28] ")
    assert b"Traceback" not in result.stderr


def test_fig_resolution_too_small(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["fig1", "--resolution", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: resolution must be >= 2, got 1\n"
    assert not out.exists()  # checked before the file is opened


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: states identical up to phase\n"


MALFORMED_JSON = {
    "not_json": b"{not json",
    # json.load refuses integer literals of more than 4300 digits with a ValueError
    "long_entry": b'{"dim": 2, "psi": [[1' + b"0" * 4400 + b', 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]}',
    "long_dim": b'{"dim": 1' + b"0" * 4400 + b', "psi": [], "phi": []}',
    "not_utf8": '{"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0, 0], [1, 0]], "x": "\xe9"}'.encode("latin-1"),
    # nested past the recursion limit, where json.load raises RecursionError
    "too_deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("content", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_reduce_malformed_json(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["reduce", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: invalid JSON (")


def test_reduce_schema_violation(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": 3, "psi": [[1, 0]], "phi": [[1, 0]]}))
    assert cli.main(["reduce", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 'psi' must be a list of 3 [re, im] pairs\n"


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


@pytest.mark.parametrize("name", ["psi", "phi"])
def test_reduce_rejects_overflowing_norm(tmp_path, capsys, name):
    # an entry past ~1.3e154 squares to inf: the norm deviates by inf, and
    # numpy's overflow warning must not reach stderr (or, here, raise)
    states = {"psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0]]}
    states[name] = [[1e200, 0], [0, 0]]
    path = _write_pair(tmp_path / "huge.json", 2, states["psi"], states["phi"])
    assert cli.main(["reduce", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} norm deviates by inf, beyond 1e-08\n"


JSON_NON_NUMBERS = {
    "psi_entry": ('{"dim": 2, "psi": [[true, false], [false, false]], "phi": [[0.6, 0], [0.8, 0]]}',
                  "'psi[0]' holds non-numeric values"),
    "phi_imag": ('{"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0.6, 0], [0.8, false]]}',
                 "'phi[1]' holds non-numeric values"),
    "dim_true": ('{"dim": true, "psi": [[1, 0]], "phi": [[0.6, 0]]}', "integer 'dim'"),
    "dim_false": ('{"dim": false, "psi": [], "phi": []}', "integer 'dim'"),
    "psi_strings": ('{"dim": 2, "psi": [["0.6", " 0 "], ["8e-1", "0"]], "phi": [[1, 0], [0, 0]]}',
                    "'psi[0]' holds non-numeric values"),
    "phi_string_nan": ('{"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0.6, 0], [0.8, "nan"]]}',
                       "'phi[1]' holds non-numeric values"),
    "psi_beyond_float": ('{"dim": 2, "psi": [[1' + "0" * 400 + ', 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]}',
                         "'psi[0]' holds an integer beyond float range"),
    "psi_entry_not_pair": ('{"dim": 2, "psi": [[1, 0, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]}',
                           "'psi[0]' must be a [re, im] pair"),
    "dim_one": ('{"dim": 1, "psi": [[1, 0]], "phi": [[1, 0]]}', "'dim' must be >= 2, got 1"),
}


@pytest.mark.parametrize("text,message", JSON_NON_NUMBERS.values(), ids=JSON_NON_NUMBERS)
def test_reduce_rejects_json_booleans(tmp_path, capsys, text, message):
    # float() takes true as 1.0 and "0.6" as 0.6, True is an int, and an
    # integer past 1.8e308 overflows float(): only JSON numbers in float range pass.
    # An entry that is not a pair, or a dim below 2, is rejected as well.
    path = tmp_path / "bool.json"
    path.write_text(text)
    assert cli.main(["reduce", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_reduce_missing_file(capsys):
    assert cli.main(["reduce", "--in", "/nonexistent/pair.json"]) == 1
    assert "error" in capsys.readouterr().err


def _wide_pair(dim):
    """A fixed complex pair whose basis vectors wrap past 140 columns."""
    psi = [[math.cos(k) / math.sqrt(dim), math.sin(k) / math.sqrt(dim)] for k in range(dim)]
    phi = [[math.cos(0.7 * k) / math.sqrt(dim), math.sin(0.7 * k) / math.sqrt(dim)] for k in range(dim)]
    return psi, phi


# SHA-256 of stdout.
SOLVE_DIGESTS = [
    ("0", "b44f9fcd8e4ad18474373de62a91fc8ed0257182f8046ad767f34314910b86a6"),
    ("0.3", "48a9794ef2f92cf99ebd577b6229dd30d232720a6f97aef5feee4a92a4a42d69"),
    (repr(ROOT2 / 2), "218f9ce50c18ba227e0f61ad2e0ab7cbbf82cbf39b52e355003576a6bb71e12a"),
    ("0.9", "f9f066af3e314c4644d76dc504793ca678316ab5cf377a1a815753c81f11f4eb"),
    # cos_beta_raw is -1.0000000000000002 here: beta = pi only through the clamp
    ("1e-08", "57d8cd03068d25b4b8e30a217ca90d8bf73b4b51aaed30c93a46998714fd771f"),
]
REDUCE_PAIRS = [
    (3, [[1, 0], [0, 0], [0, 0]], [[0.8, 0], [0, 0.36], [0.48, 0]],
     "f5cbce3d91c779ba0e51db0702f7adcf764a9ddf64623bfb0481028f6b7d9bb6"),
    (40, *_wide_pair(40), "41bb5e922391a3850ac68de874b3d93dbb12a47c232176d29a2a133fa63f87a6"),
    # psi's norm deviates by 5e-10, past TOL_NORM, so reduce renormalizes it
    (3, [[0.48 * (1 + 5e-10), 0], [0, 0.6 * (1 + 5e-10)], [0.64 * (1 + 5e-10), 0]],
     [[0.6, 0], [0.8, 0], [0, 0]], "9721281bb626a4774fd88e655d60f0e4063674ae71ca91813d716f0324fe61df"),
]


# SHA-256 of stdout.
PINNED_RUNS = {
    "report": ["report", "--epsilon", "0.2"],
    "report-json": ["report", "--epsilon", "0.2", "--json"],
    "simulate": ["simulate", "--trials", "1000", "--seed", "3"],
}
RUN_DIGESTS = [
    ("report", "0", "39c1cffeac67ba98f586f7924f3fbe88e5038a8f6dfd8dd1e461464029393736"),
    ("report-json", "0", "91e13e8ed25dd13da9a51eb45572e0a10f754200cf6d91c82470245fa813b088"),
    ("simulate", "0", "f877de1bab1f10fc25530e64e580b03dc51a8c12816aa4cd179cba447b53614e"),
    ("report", "0.5", "941baf311c5db742d58520e9cecc02bbe5e04052c3f69d0ef6dca8ac0dc37bbb"),
    ("report-json", "0.5", "a820b21793d1588865ad266772a5c720117dea98cda22e458874186743fc090d"),
    ("simulate", "0.5", "fa028d8732cb0a583c738e05df2ba5f1aa8dfb93aacee57246b8342e1f4926a8"),
    ("report", repr(ROOT2 / 2), "5c3c06fcc9682d46424f9859d72d2fb9c1f4e11fe5b0c83533c10131b9adce74"),
    ("report-json", repr(ROOT2 / 2), "81f39673a84345997cc04184d816c1fade5464a735367cf8e2c1fb46fc432d34"),
    ("simulate", repr(ROOT2 / 2), "64751e3201621bc831692599b15aa481c54dcddfe7956cfa53f11060efd6aa90"),
    ("report", "0.9", "76b0bd4e445f65890180ce884e32b1af09f679368fdfd0fa0ff7d0ca4640b8cc"),
    ("report-json", "0.9", "12865e40d642465661e0e612bf65996fb0d528586af56e98237202fe0910c3af"),
    ("simulate", "0.9", "508cc16287260785a8f4079c010d1fa9e5b4dbb0dbbffff7ca6b4ed80d9a45f9"),
    ("report", "0.999", "c5f289642c701258fee885c667f967d2d76295abbea63ea6d539d5c81c6d1ef2"),
    ("report-json", "0.999", "b04c1923b195a72c196b8980ea2c729d97b7a61bcca4cf63232cd5393f408bec"),
    ("simulate", "0.999", "89beba116899c54691add953bccb9e3c0a9b50c2f9147c775248387559861a56"),
]


@pytest.mark.parametrize("run,cos_omega,digest", RUN_DIGESTS)
def test_report_simulate_bytes_pinned(capsys, run, cos_omega, digest):
    assert cli.main([*PINNED_RUNS[run], "--cos-omega", cos_omega]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("cos_omega,digest", SOLVE_DIGESTS)
def test_solve_bytes_pinned(capsys, cos_omega, digest):
    cli.main(["solve", "--cos-omega", cos_omega])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -0.0 passes the range check, but an overlap modulus is never negative: each
# command prints the bytes it prints at 0.
ZERO_DIGESTS = {"solve": dict(SOLVE_DIGESTS)["0"], **{run: d for run, c, d in RUN_DIGESTS if c == "0"}}


@pytest.mark.parametrize("run", ZERO_DIGESTS)
def test_negative_zero_prints_the_bytes_of_zero(capsys, run):
    assert cli.main([*PINNED_RUNS.get(run, ["solve"]), "--cos-omega", "-0.0"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ZERO_DIGESTS[run]


def test_negative_zero_epsilon_prints_the_bytes_of_zero(capsys):
    for flags in ([], ["--json"]):
        outputs = []
        for epsilon in ("0", "-0.0"):
            assert cli.main(["report", "--cos-omega", "0.9", "--epsilon", epsilon, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("dim,psi,phi,digest", REDUCE_PAIRS, ids=["dim3", "dim40", "dim3-renormalized"])
def test_reduce_bytes_pinned(tmp_path, capsys, dim, psi, phi, digest):
    assert cli.main(["reduce", "--in", _write_pair(tmp_path / "pair.json", dim, psi, phi)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _solved(c, which):
    angle = OverlapAngle(cos=c)
    phases = solve_measurement(angle)
    if which == "M":
        return build_M(*phases)
    return build_C(angle) if which == "C" else outcome_matrix(angle, *phases)


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
        lambda c: build_C(OverlapAngle(cos=c))),
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
    # rejected by the first draw, which comes before any line is printed
    assert cli.main(["simulate", "--cos-omega", "0.5", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be >= 1, got 0\n"


def test_simulate_reports_bad_overlap_before_bad_trials(capsys):
    assert cli.main(["simulate", "--cos-omega", "1", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cos(omega) must lie in [0, 1), got 1.0\n"


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
        return tuple(counts)

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


def test_report_near_unit_overlap_counts_exactly(capsys):
    # at 1 - c = 1e-13 the exact group size leaves the effective overlap under
    # sqrt(2)/2, so the forbidden probabilities are roundoff of the solve alone
    assert cli.main(["report", "--cos-omega", "0.9999999999999", "--epsilon", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "devices: n = 6929317167776, two groups of 3464658583888;" in out
    assert float(out.split("max forbidden-outcome probability: ")[1].split()[0]) < 1e-30


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
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(run(argv))
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    assert [run(argv) for argv in calls] == fresh


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


# The first line of each command's --help at 80 columns.
HELP_USAGE = {
    (): "usage: pbrkit [-h] command ...\n",
    ("solve",): "usage: pbrkit solve [-h] --cos-omega COS_OMEGA\n",
    ("fig1",): "usage: pbrkit fig1 [-h] [--resolution RESOLUTION] --out OUT\n",
    ("fig2",): "usage: pbrkit fig2 [-h] [--resolution RESOLUTION] --out OUT\n",
    ("reduce",): "usage: pbrkit reduce [-h] --in IN_PATH\n",
    ("simulate",): "usage: pbrkit simulate [-h] --cos-omega COS_OMEGA [--trials TRIALS]\n",
    ("report",): "usage: pbrkit report [-h] --cos-omega COS_OMEGA --epsilon EPSILON [--json]\n",
}


def test_help_returns_zero(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()
    for command, usage in HELP_USAGE.items():
        assert cli.main([*command, "--help"]) == 0
        in_process = capsys.readouterr()
        assert in_process.out.startswith(usage)
        result = subprocess.run([sys.executable, "-m", "pbrkit.cli", *command, "--help"],
                                capture_output=True, text=True, env=_subprocess_env(COLUMNS="80"), timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, in_process.out, in_process.err)


# main hands an argv that opens with a command name to that command's parser;
# each of these must end as it does through the full parser.
DISPATCH_ARGVS = [
    *(argv for calls in REUSE_SEQUENCES.values() for argv in calls),
    *([*command, "--help"] for command in HELP_USAGE),
    ["solve", "--cos=0.5"],
    ["solve", "--cos-omega=0.5"],
    ["solve", "--", "--cos-omega", "0.5"],
    ["simulate", "--cos-omega", "0.5", "--trials", "3", "--"],
    ["--", "solve", "--cos-omega", "0.5"],
    ["simulate", "--cos-omega", "0.5", "--seed", "-1"],
    ["simulate", "--cos-omega", "0.5", "--trials", "3", "--trials", "5"],
    ["report", "--cos-omega", "0.5", "--epsilon", "0.2", "extra"],
    ["sol", "--cos-omega", "0.5"],
    [],
    ["-h", "solve"],
]


def _outcome(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "no-argument")
def test_dispatch_matches_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    dispatched = _outcome(capsys, argv)
    monkeypatch.setattr(cli._PARSER, "commands", {})  # every argv now takes the full parser
    assert _outcome(capsys, argv) == dispatched


def test_main_never_builds_a_parser(monkeypatch, capsys):
    assert cli.build_parser() is not cli.build_parser()

    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    for argv in DISPATCH_ARGVS:
        cli.main(argv)
    capsys.readouterr()


def test_command_call_skips_the_full_parser(monkeypatch, capsys, tmp_path):
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_PARSER", parser)
    calls = []
    parse_known_args = parser.parse_known_args

    def counting_parse_known_args(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting_parse_known_args)
    pair = _write_pair(tmp_path / "pair.json", 2, [[1, 0], [0, 0]], [[0.6, 0], [0.8, 0]])
    commands = [
        ["fig1", "--resolution", "2", "--out", str(tmp_path / "fig1.csv")],
        ["fig2", "--resolution", "2", "--out", str(tmp_path / "fig2.csv")],
        ["reduce", "--in", pair],
        *(argv for argv in DISPATCH_ARGVS if argv and argv[0] in parser.commands),
    ]
    assert {argv[0] for argv in commands} == set(parser.commands)
    for argv in commands:
        cli.main(argv)
    assert calls == []
    cli.main(["sol", "--cos-omega", "0.5"])
    assert len(calls) == 1
    capsys.readouterr()


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
