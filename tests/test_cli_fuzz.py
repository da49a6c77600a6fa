"""Fuzzed loop files and options through the command line, in process.

Whatever the input, `hologate` exits 0, 2 or 4; a nonzero exit prints one
line on stderr, and a zero exit prints JSON without NaN or infinities.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hologate import cli

RECT = {"u_min": 0.0, "u_max": 1.0, "v_min": 0.0, "v_max": 1.0}
ODD_NUMBERS = [math.nan, math.inf, -math.inf, 1e300, -1e308, 10**400, -(10**30), 0, True]

coordinates = st.one_of(
    st.floats(-0.3, 0.3, allow_nan=False),
    st.sampled_from(ODD_NUMBERS),
    st.text(max_size=3),
    st.none(),
    st.lists(st.floats(-1, 1), max_size=2),
)
rects = st.dictionaries(
    st.sampled_from(["u_min", "u_max", "v_min", "v_max"]), coordinates, min_size=3, max_size=4
) | st.fixed_dictionaries(
    {
        "u_min": st.floats(-0.2, 0.0),
        "u_max": st.floats(0.01, 0.2),
        "v_min": st.floats(0.0, 0.1),
        "v_max": st.floats(0.11, 0.3),
    }
)
vertices = st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2) | coordinates | st.lists(
    coordinates, max_size=3
)
polylines = st.lists(vertices, max_size=7) | st.text(max_size=4) | st.dictionaries(
    st.text(max_size=2), coordinates, max_size=2
)
loops = st.fixed_dictionaries(
    {"plane": st.sampled_from(["I", "II", "III"]) | st.sampled_from(["IV", 3, None, ["I"]])},
    optional={
        "orientation": st.sampled_from([1, -1]) | st.sampled_from([0, 2, 1.0, True, "1", None]),
        "rect": rects,
        "polyline": polylines,
    },
)
junk = st.one_of(st.integers(), st.text(max_size=5), st.lists(st.integers(), max_size=3), st.none())
documents = loops.map(json.dumps) | junk.map(json.dumps) | st.text(max_size=20)

numbers = st.sampled_from(["0", "0.01", "-0.01", "2.5", "1e300", "nan", "inf", "x"])
options = st.tuples(
    st.booleans().map(lambda strict: ["--strict"] if strict else []),
    (st.integers(1, 17) | st.integers(-1, 0)).map(lambda p: ["--precision", str(p)]),
    st.integers(-2, 5).map(lambda s: ["--seed", str(s)]),
).map(lambda parts: sum(parts, []))


def oracle_argv(cutoff, steps, method):
    return ["--cutoff", str(cutoff), "--steps", str(steps), "oracle", "{loop}", "--method", method]


commands = st.one_of(
    st.sampled_from([["area", "{loop}"], ["gate", "{loop}"]]),
    st.lists(numbers, min_size=4, max_size=4).map(
        lambda shift: ["error", "{loop}", "--shift", ",".join(shift)]
    ),
    st.tuples(numbers, st.sampled_from(["0", "1", "2", "8", "2.5", "-3", "nan"])).map(
        lambda stat: ["error", "{loop}", "--statistical", *stat]
    ),
    st.builds(
        oracle_argv,
        st.integers(-1, 8),
        st.integers(-5, 200),
        st.sampled_from(["connection", "kicked"]),
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(document=documents, opts=options, command=commands)
# an integer coordinate too large for a float
@example(
    document=json.dumps({"plane": "I", "rect": dict(RECT, u_min=10**400)}),
    opts=[],
    command=["area", "{loop}"],
)
# three corners past the truncation budget, under --strict
@example(
    document=json.dumps({"plane": "I", "rect": dict(RECT, u_max=2.6, v_max=0.05)}),
    opts=["--strict"],
    command=oracle_argv(8, 128, "connection"),
)
def test_fuzzed_cli_exits_0_2_or_4_with_one_line_or_clean_json(fuzz_dir, document, opts, command):
    path = fuzz_dir / "loop.json"
    path.write_text(document)
    argv = opts + [arg.format(loop=path) for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    assert code in (0, 2, 4), (argv, document, err.getvalue())
    if code == 0:
        record = json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(c))
        assert isinstance(record, dict)
    else:
        # exit 4 follows the record it refuses; exit 2 prints none
        assert code == 4 or out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
