"""Tests for the figure CSV encoder, and for which commands load it.

The figure commands themselves are run end to end in test_cli.py.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbrkit import figures


def test_decades_are_least_doubles_from_powers_of_ten():
    for k, x in zip(range(-4, 16), figures._DECADES.tolist()):
        assert Fraction(x) >= Fraction(10)**k > Fraction(math.nextafter(x, 0.0))


def _powers_of_ten_ladder(k, steps):
    """10**k moved ``steps`` doubles up (steps > 0) or down (steps < 0)."""
    x = 10.0**k
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


_signs = st.sampled_from([1.0, -1.0])
CSV_FLOATS = st.one_of(
    # every binade from 2**-20 (1e-6) to 2**60 (1e18), both signs
    st.builds(lambda m, e, s: s * math.ldexp(m, e),
              st.floats(1.0, 2.0, exclude_max=True), st.integers(-20, 60), _signs),
    # dyadic k / 2**j; an odd k over 2**j (j <= 4) past 1e11 makes 17-digit ties
    st.builds(lambda k, j, s: s * k / 2**j, st.integers(1, 2**53), st.integers(0, 60), _signs),
    st.builds(lambda m, j: (2 * m + 1) / 2**j, st.integers(10**11, 2**52 - 1), st.integers(1, 4)),
    # powers of ten and their neighbours, where the decimal exponent changes
    st.builds(lambda k, n, s: s * _powers_of_ten_ladder(k, n), st.integers(-6, 18), st.integers(-3, 3), _signs),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
CSV_INTS = st.one_of(
    st.integers(-10**4, 10**4),
    st.integers(-2**63, 2**63 - 1),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 10**16 - 1, 10**16, -2**63, 2**63 - 1]),
)


def _texts(kind, values):
    """The array an encoder column holds, and Python's text of each entry."""
    if kind == "f":
        return np.array(values, float), ["%.17g" % v for v in values]
    if kind == "i":
        return np.array(values, np.int64), ["%d" % v for v in values]
    return np.array(values, bool), ["true" if v else "false" for v in values]


@st.composite
def _csv_blocks(draw):
    """The columns of one encoder sub-block: half the time a float, an integer, a
    boolean and a float column, as fig1/fig2 mix them; otherwise one to five
    columns of any kinds, so blocks of booleans only and of integers only occur."""
    n = draw(st.integers(1, 40))
    kinds = draw(st.one_of(st.just("fibf"), st.text("fib", min_size=1, max_size=5)))
    ints = st.one_of(
        st.lists(CSV_INTS, min_size=n, max_size=n),
        CSV_INTS.map(lambda v: [v] * n),  # one repeated value
        st.lists(CSV_INTS, min_size=n, max_size=n, unique=True),  # all distinct
        st.lists(st.integers(0, 9), min_size=n, max_size=n),  # the widest is 1 character
    )
    element = {"f": st.lists(CSV_FLOATS, min_size=n, max_size=n), "i": ints,
               "b": st.lists(st.booleans(), min_size=n, max_size=n)}
    return [_texts(kind, draw(element[kind])) for kind in kinds]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_csv_blocks())
# Each field is as wide as its longest entry in the block: the narrowest cases,
# a table of one value, a one-character widest integer and booleans only.
@example([_texts("b", [True, True, True])])
@example([_texts("b", [False, False, False]), _texts("b", [True, False, True])])
@example([_texts("i", [7] * 5), _texts("i", [0, 3, 9, 1, 0])])
@example([_texts("i", [-2**63] * 3), _texts("i", [2**63 - 1, -2**63, 0])])
@example([_texts("i", [5]), _texts("f", [0.5]), _texts("b", [True]), _texts("i", [-1])])
# Runs of one value apart, and a one-row block: a table merging equal values
# across runs, or one dropping the last run, puts the wrong text in a row or
# leaves a row out.  0.1's 17th digit is rounded up, so floor for rint fails.
@example([_texts("i", [1, 2, 1]), _texts("b", [True, False, True])])
@example([_texts("i", [3]), _texts("f", [0.1]), _texts("b", [False])])
def test_csv_rows_match_percent_formatting(block):
    # Values outside the encoded ranges take Python's % inside the same block.
    expected = "".join(",".join(row) + "\n" for row in zip(*(texts for _, texts in block)))
    rows = figures._csv_rows([values for values, _ in block])
    assert rows[rows != 0].tobytes().decode("ascii") == expected


# Prints, after each step, whether pbrkit.figures is loaded and the step's exit code.
_LOADED_AFTER = """
import contextlib, io, json, sys
pair, out = sys.argv[1:]
steps = {}
import pbrkit
steps["import pbrkit"] = "pbrkit.figures" in sys.modules
from pbrkit import cli
steps["import pbrkit.cli"] = "pbrkit.figures" in sys.modules
for name, argv in {
    "solve": ["solve", "--cos-omega", "0.5"],
    "report": ["report", "--cos-omega", "0.9", "--epsilon", "0.2"],
    "report --json": ["report", "--cos-omega", "0.9", "--epsilon", "0.2", "--json"],
    "reduce": ["reduce", "--in", pair],
    "simulate": ["simulate", "--cos-omega", "0.5", "--trials", "100"],
    "fig1": ["fig1", "--resolution", "3", "--out", out],
}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps[name] = [code, "pbrkit.figures" in sys.modules]
print(json.dumps(steps))
"""


def test_only_the_figure_commands_load_the_encoder(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"dim": 2, "psi": [[1, 0], [0, 0]], "phi": [[0.6, 0], [0.8, 0]]}))
    env = dict(os.environ)
    src = str(Path(figures.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, str(pair), str(tmp_path / "fig1.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {
        "import pbrkit": False,
        "import pbrkit.cli": False,
        **{name: [0, False] for name in ("solve", "report", "report --json", "reduce", "simulate")},
        "fig1": [0, True],
    }
