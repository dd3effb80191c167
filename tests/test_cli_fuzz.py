"""Broken graph files through the command line.

Every file here is derived from one valid graph file: a field dropped or
given the wrong type, an edge or a log-weight replaced, NaN or huge numbers,
truncated text, bytes that are not UTF-8, and a statistics profile in place
of a graph.  Each goes through ``cli.main`` for every subcommand that reads a
graph.  A file ``load_graph`` refuses must end in exit code 1 with the JSON
error object of that refusal; a file it accepts runs like any graph (exit 0,
1 with an error object, or 3 for a REJECT).  No other exception may escape.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnlab import GraphError, build_graph, load_graph
from rnlab.cli import main

FIELDS = ("n", "d", "K", "edges", "log_weights")

# one small weighted path with a triangle at its end, on which every command succeeds
VALID = build_graph([(0, 2), *((v, v + 1) for v in range(7))],
                    [0.0, 0.25, 0.5, 0.25, 0.0, -0.25, 0.0, 0.25], d=3, K=2.0).to_json_dict()

COMMANDS = {
    "sample": ["sample", "--graph", "@", "--queries", "8", "--r", "1"],
    "stats": ["stats", "--graph", "@", "--rmax", "1"],
    "partition": ["partition", "--graph", "@", "--epsilon", "0.3"],
    "estimate": ["estimate", "--what", "independence", "--graph", "@", "--epsilon", "0.5"],
    "test": ["test", "--graph", "@", "--property", "forest", "--epsilon", "0.3"],
    "observe": ["observe", "--graph", "@", "--s", "3"],
    "distance": ["distance", "--graph", "@", "--property", "bipartite"],
}

# values of the wrong type, or numbers a graph cannot hold
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30, -(10**30),
                     2**63, 2**64, -1, 0, 0.5]),
    st.lists(st.integers(-3, 5), max_size=3),
    st.dictionaries(st.sampled_from(FIELDS), st.integers(0, 3), max_size=2),
)


def _dumps(obj) -> bytes:
    # allow_nan writes NaN and Infinity, which Python's json reads back
    return json.dumps(obj, allow_nan=True).encode()


@st.composite
def broken_files(draw) -> bytes:
    text = _dumps(VALID)
    kind = draw(st.sampled_from(["drop", "field", "edge", "weight", "truncate", "bytes"]))
    obj = json.loads(text)
    if kind == "drop":
        del obj[draw(st.sampled_from(FIELDS))]
    elif kind == "field":
        obj[draw(st.sampled_from(FIELDS))] = draw(ODD_VALUES)
    elif kind == "edge":
        i = draw(st.integers(0, len(obj["edges"]) - 1))
        if draw(st.booleans()):
            obj["edges"][i] = draw(ODD_VALUES)
        else:
            obj["edges"][i][draw(st.integers(0, 1))] = draw(ODD_VALUES)
    elif kind == "weight":
        obj["log_weights"][draw(st.integers(0, len(obj["log_weights"]) - 1))] = draw(ODD_VALUES)
    elif kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    else:
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80", b"\xed\xa0\x80"]))
        return text[:at] + junk + text[at:]
    return _dumps(obj)


def _run(argv):
    """main's exit code and stdout; a usage error's SystemExit gives its code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _check_all_commands(path):
    try:
        load_graph(path)
        refusal = None
    except GraphError as e:
        refusal = {"error": type(e).__name__, "message": str(e)}
    for name, argv in COMMANDS.items():
        code, out = _run([path if a == "@" else a for a in argv])
        if code == 2:
            continue
        if refusal is not None:
            assert (code, json.loads(out)) == (1, refusal), name
        else:
            assert code in (0, 1, 3), name
            if code == 1:
                assert set(json.loads(out)) == {"error", "message"}, name


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_file_runs_every_command(workdir):
    path = workdir / "valid.json"
    path.write_bytes(_dumps(VALID))
    for name, argv in COMMANDS.items():
        code, out = _run([str(path) if a == "@" else a for a in argv])
        assert code in (0, 3), (name, out)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(broken_files())
def test_broken_graph_files(workdir, data):
    path = workdir / "broken.json"
    path.write_bytes(data)
    _check_all_commands(str(path))


def test_profile_in_place_of_a_graph(workdir):
    graph = workdir / "g.json"
    graph.write_bytes(_dumps(VALID))
    profile = workdir / "p.json"
    assert _run(["stats", "--graph", str(graph), "--rmax", "1", "--out", str(profile)])[0] == 0
    with pytest.raises(GraphError, match="is not a graph file"):
        load_graph(str(profile))
    _check_all_commands(str(profile))
