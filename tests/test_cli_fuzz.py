"""Broken inputs through the command line.

Graph files are derived from one valid graph file: a field dropped or given
the wrong type, an edge or a log-weight replaced, NaN or huge numbers,
truncated text, bytes that are not UTF-8, and a statistics profile in place
of a graph.  Each goes through ``cli.main`` for every subcommand that reads a
graph.  A file ``load_graph`` refuses must end in exit code 1 with the JSON
error object of that refusal; a file it accepts runs like any graph (exit 0,
1 with an error object, or 3 for a REJECT).  No other exception may escape.

Statistics profiles, scenario configs, the ``--param`` values of ``gen``
and ``scenario``, the ``--K`` of ``rnlab distance --absolute``, the
``--forbidden`` graph of ``test`` and ``distance`` and the ``--epsilon`` of
every command that takes one are derived the same way from valid ones.  Each
ends in exit code 0 (or 3 for a REJECT) with output that is strict JSON (no
NaN or Infinity), 1 with the JSON error object, or 2 for a usage error.
These tests check types and ranges, not memory: the sizes they ask for stay
small, since a valid but huge size is a request to do that much work.
"""
import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnlab import (GraphError, build_graph, gen_grid, gen_path, load_graph, load_profile,
                   profile_to_json, stats_profile)
from rnlab.cli import main

FIELDS = ("n", "d", "K", "edges", "log_weights")

# one small weighted path with a triangle at its end, on which every command succeeds
GRAPH = build_graph([(0, 2), *((v, v + 1) for v in range(7))],
                    [0.0, 0.25, 0.5, 0.25, 0.0, -0.25, 0.0, 0.25], d=3, K=2.0)
VALID = GRAPH.to_json_dict()

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


def _damaged(draw, text: bytes) -> bytes:
    """text cut short, or with bytes that are not UTF-8 put in."""
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    at = draw(st.integers(0, len(text)))
    junk = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80", b"\xed\xa0\x80"]))
    return text[:at] + junk + text[at:]


@st.composite
def broken_files(draw) -> bytes:
    text = _dumps(VALID)
    kind = draw(st.sampled_from(["drop", "field", "edge", "weight", "damage"]))
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
    else:
        return _damaged(draw, text)
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


def _strict_json(text: str):
    """text as JSON, which has no NaN or Infinity, though Python writes them."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _check_outcome(code, out, reject=False):
    """Exit 0 with strict JSON, 1 with the JSON error object, or 2; 3 with
    strict JSON too where a REJECT is an answer."""
    assert code in (0, 1, 2, 3) if reject else code in (0, 1, 2), (code, out)
    if code == 1:
        assert set(_strict_json(out)) == {"error", "message"}
    elif code in (0, 3):
        _strict_json(out)


# small values of the wrong type or out of range: no huge sizes, whose only
# fault would be the work they ask for
SMALL_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(alphabet="xyz ", max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 1, 2, 0.5, 1.5, 2.5]),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 2), max_size=1),
)
# a float param takes huge magnitudes too: they ask for no work
FLOAT_PARAMS = {"beta", "betas", "epsilon", "epsilons"}
HUGE_FLOATS = st.sampled_from([1e300, -1e300, 5e-324, 1e-300])

# small params of every scenario, on which each runs in milliseconds
SCENARIO_PARAMS = {
    "phase_transition": {"depth": 6, "budget": 200, "betas": [0.0, 0.69]},
    "convergence_to_orbit_tree": {"depths": [5, 6], "radius": 2},
    "estimator_error_curve": {"instances": [["path", 20], ["grid", 4]], "epsilons": [0.2]},
    "perturbation_sensitivity": {"sizes": [4], "r_max": 2},
    "tester_calibration": {"trials": 3, "epsilon": 0.3},
    "entropy_sweep": {"depths": [5, 10], "beta": 0.69},
}


def _one_replaced(draw, params: dict) -> dict:
    """A copy of params with one value, or one item of a list value, replaced."""
    params = copy.deepcopy(params)
    key = draw(st.sampled_from(sorted(params)))
    values = st.one_of(SMALL_ODD_VALUES, HUGE_FLOATS) if key in FLOAT_PARAMS else SMALL_ODD_VALUES
    if isinstance(params[key], list) and draw(st.booleans()):
        params[key][draw(st.integers(0, len(params[key]) - 1))] = draw(values)
    else:
        params[key] = draw(values)
    return params


@st.composite
def scenario_params(draw) -> tuple[str, dict]:
    name = draw(st.sampled_from(sorted(SCENARIO_PARAMS)))
    return name, _one_replaced(draw, SCENARIO_PARAMS[name])


@st.composite
def scenario_configs(draw) -> bytes:
    name, params = draw(scenario_params())
    obj = {"scenario": name, "params": params}
    kind = draw(st.sampled_from(["params", "field", "drop", "damage"]))
    if kind == "field":
        obj[draw(st.sampled_from(["scenario", "params", "seed", "output_path", "threads"]))] = (
            draw(SMALL_ODD_VALUES))
    elif kind == "drop":
        del obj[draw(st.sampled_from(["scenario", "params"]))]
    elif kind == "damage":
        return _damaged(draw, _dumps(obj))
    return _dumps(obj)


def _check_scenario(argv):
    """A scenario run: exit 0 with a report of strict JSON lines, 1 with the
    JSON error object, or 2."""
    code, out = _run(argv)
    if code == 0:
        with open(out.strip()) as fh:
            for line in fh:
                _strict_json(line)
    else:
        _check_outcome(code, out)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(scenario_configs())
def test_scenario_configs(workdir, data):
    # a config may name any output_path, so reports land in workdir
    with contextlib.chdir(workdir):
        with open("config.json", "wb") as fh:
            fh.write(data)
        _check_scenario(["scenario", "--config", "config.json"])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(scenario_params(), st.sampled_from(["1", "2", "0", "-1", "x"]))
def test_scenario_param_values(workdir, scenario, threads):
    name, params = scenario
    argv = ["scenario", "--name", name, f"--threads={threads}"]
    argv += [f"--param={key}={json.dumps(value)}" for key, value in params.items()]
    with contextlib.chdir(workdir):
        _check_scenario(argv)


# small params of every generator family
GEN_PARAMS = {
    "binary_tree": {"depth": 3, "beta": 0.5, "representation": "auto"},
    "orbit_tree": {"depth": 2},
    "path": {"n": 4, "d": 2},
    "cycle": {"n": 5, "d": 2},
    "grid": {"rows": 2, "cols": 3},
    "random_regular": {"n": 8, "d": 3},
    "perturbed_union": {"n": 4, "profile": "uniform"},
    "disjoint_triangles": {"k": 2, "d": 2},
    "theta": {"arms": [2, 3, 4]},
}


@st.composite
def gen_params(draw) -> tuple[str, dict]:
    family = draw(st.sampled_from(sorted(GEN_PARAMS)))
    return family, _one_replaced(draw, GEN_PARAMS[family])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(gen_params())
def test_gen_param_values(family_params):
    family, params = family_params
    argv = ["gen", "--family", family]
    argv += [f"--param={key}={json.dumps(value)}" for key, value in params.items()]
    _check_outcome(*_run(argv))


@pytest.fixture(scope="module")
def profile(workdir):
    path = workdir / "profile.json"
    path.write_text(profile_to_json(stats_profile(GRAPH, 2, 2), "exact"))
    return path


@st.composite
def broken_profiles(draw, text: bytes) -> bytes:
    obj = json.loads(text)
    stat = obj["per_radius"][draw(st.sampled_from(sorted(obj["per_radius"])))]
    kind = draw(st.sampled_from(["drop", "field", "mass", "radius", "damage"]))
    if kind == "drop":
        del stat[draw(st.sampled_from(sorted(stat)))]
    elif kind == "field":
        stat[draw(st.sampled_from(sorted(stat)))] = draw(st.one_of(
            ODD_VALUES, st.sampled_from([1.9, 2.0, math.nan])))
    elif kind == "mass":
        stat["weights"][draw(st.sampled_from(sorted(stat["weights"])))] = draw(st.sampled_from(
            [math.nan, math.inf, -5.0, -1e-300, 0, 1.5, 2**64, "0.5", None, True, [0.5]]))
    elif kind == "radius":
        obj["per_radius"][draw(st.text(alphabet="0123x", max_size=2))] = stat
    else:
        return _damaged(draw, text)
    return _dumps(obj)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_broken_profiles(workdir, profile, data):
    path = workdir / "broken_profile.json"
    path.write_bytes(data.draw(broken_profiles(profile.read_bytes())))
    try:
        load_profile(str(path))
        refusal = None
    except GraphError as e:
        refusal = {"error": type(e).__name__, "message": str(e)}
    for rmax in ("1", "2"):
        code, out = _run(["distance", "--stats-a", str(path), "--stats-b", str(profile),
                          "--rmax", rmax])
        if refusal is not None:
            assert (code, json.loads(out)) == (1, refusal)
        else:
            _check_outcome(code, out)
            if code == 0:
                # a weighted sum of total variation distances, each at most
                # 1 up to the float error a profile's masses may carry
                assert 0.0 <= _strict_json(out)["statistical_distance"] <= 1.0 + 1e-9


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.one_of(
    st.floats(),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324", "0.5", "1", "-1", "x", ""]),
))
def test_absolute_distance_ratio_bounds(workdir, K):
    path = workdir / "cycle.json"
    path.write_bytes(_dumps(build_graph([(v, (v + 1) % 5) for v in range(5)], [0.0] * 5,
                                        d=2, K=1.0).to_json_dict()))
    code, out = _run(["distance", "--graph", str(path), "--property", "forest", "--absolute",
                      f"--K={K}"])
    _check_outcome(code, out)
    if code == 0:
        assert 0.0 <= _strict_json(out)["absolute_distance"] <= 1.0


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123-:,x ", max_size=10),
    st.builds("{}:{}".format, st.integers(-1, 4), st.lists(
        st.builds("{}-{}".format, st.integers(-1, 5), st.integers(-1, 5)), max_size=4,
    ).map(",".join)),
))
def test_forbidden_graphs(workdir, forbidden):
    path = workdir / "graph.json"
    path.write_bytes(_dumps(VALID))
    for argv in (["test", "--epsilon", "0.3"], ["distance"]):
        argv += ["--graph", str(path), "--property", "h_free", f"--forbidden={forbidden}"]
        _check_outcome(*_run(argv), reject=True)


# the commands that take --epsilon, each on a graph it can answer on
EPSILON_COMMANDS = {
    "test": ["test", "--graph", "@", "--property", "forest"],
    "test-observable": ["test", "--graph", "@", "--property", "bipartite", "--observable"],
    "partition": ["partition", "--graph", "@"],
    "partition-cover": ["partition", "--graph", "@path", "--cover"],
    "partition-grid": ["partition", "--graph", "@grid", "--cover", "--grid-dims", "3,3"],
    "estimate-independence": ["estimate", "--what", "independence", "--graph", "@"],
    "estimate-matching": ["estimate", "--what", "matching", "--graph", "@path"],
}
# the ends of the accepted range, subnormals included, and the smallest
# epsilon whose observation depth is answered and one just below it
EDGE_EPSILONS = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-12, 0.02, 0.0199,
                 0.5, math.nextafter(1.0, 0.0)]


@pytest.fixture(scope="module")
def epsilon_graphs(workdir):
    paths = {}
    for name, G in {"@": GRAPH, "@path": gen_path(6), "@grid": gen_grid(3, 3)}.items():
        paths[name] = workdir / f"eps{len(paths)}.json"
        paths[name].write_bytes(_dumps(G.to_json_dict()))
    return paths


def _check_epsilon_everywhere(workdir, graphs, epsilon: str):
    for name, argv in EPSILON_COMMANDS.items():
        argv = [str(graphs[a]) if a in graphs else a for a in argv]
        code, out = _run(argv + [f"--epsilon={epsilon}"])
        _check_outcome(code, out, reject=name.startswith("test"))
    with contextlib.chdir(workdir):
        _check_scenario(["scenario", "--name", "estimator_error_curve",
                         '--param=instances=[["path", 12], ["grid", 3]]',
                         f"--param=epsilons=[{epsilon}]"])


@pytest.mark.parametrize("epsilon", EDGE_EPSILONS)
def test_epsilon_edges_answer(workdir, epsilon_graphs, epsilon):
    _check_epsilon_everywhere(workdir, epsilon_graphs, repr(epsilon))


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True).map(repr),
    st.sampled_from(["0", "1", "-5e-324", "nan", "inf", "1e-400", "0x1p-1074", "x"]),
))
def test_epsilon_values(workdir, epsilon_graphs, epsilon):
    _check_epsilon_everywhere(workdir, epsilon_graphs, epsilon)
