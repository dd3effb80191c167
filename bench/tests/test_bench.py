"""Tests of the benchmark itself: every workload runs and passes its checks,
and every check rejects an output with a known error.

    python3 -m pytest bench/tests -q
"""
import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest

import layertrace
import reference as ref
import run
import workloads
from workloads import CheckFailed, Unguaranteed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_runs_clean_and_reports_every_metric(name, spec):
    result = run.run_workload(name, seed=5, seconds=0.5, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_reports_every_layer_metric(name, spec):
    result = run.run_workload(name, seed=5, seconds=0.5, trace=True)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_spec_lists_the_workloads(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == run.NAMES == tuple(workloads.WORKLOADS)


def test_tracer_restores_every_binding():
    import rnlab.oracles
    import rnlab.statistics

    before = (rnlab.statistics.canonicalize, rnlab.oracles.RadonNikodymOracle.__init__)
    tracer = layertrace.Tracer()
    tracer.install()
    assert rnlab.statistics.canonicalize is not before[0]
    tracer.uninstall()
    assert (rnlab.statistics.canonicalize, rnlab.oracles.RadonNikodymOracle.__init__) == before


def test_tracer_self_time_excludes_nested_layers():
    import rnlab.statistics
    from rnlab import gen_grid

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        rnlab.statistics.stats_profile(gen_grid(4, 4), r_max=2, t=2)
        tracer.end_op()
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["statistics.support_size"][0] > 0
    assert m["balls.extract_ball_calls"][0] == 32
    top = [(name, t1 - t0) for _, _, parent, name, t0, t1 in tracer.spans if parent is None]
    assert [name for name, _ in top] == ["statistics.exact_stats"] * 2
    # self times telescope: together they are exactly the top-level spans' time
    assert sum(tracer.self_ns.values()) == sum(dt for _, dt in top)
    assert 0 < tracer.self_ns["statistics.exact_stats"] < sum(dt for _, dt in top)


# ---------------------------------------------------------------------------
# each check rejects a known error
# ---------------------------------------------------------------------------


def _one_op(name, tmp_path, i=1):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(7, 0.2, str(tmp_path))
    out = wl.op(state, i)
    wl.check(state, i, out)
    return wl, state, out


def test_tester_check_catches_a_flipped_verdict(tmp_path):
    wl, state, verdicts = _one_op("tester_repeat", tmp_path)
    for k, v in enumerate(verdicts):
        flipped = dataclasses.replace(v, verdict="REJECT" if v.accepted else "ACCEPT")
        bad = verdicts[:k] + [flipped] + verdicts[k + 1:]
        with pytest.raises(CheckFailed):
            wl.check(state, 1, bad)


def test_tester_check_catches_a_wrong_fraction_and_short_evidence(tmp_path):
    wl, state, verdicts = _one_op("tester_repeat", tmp_path)
    v = verdicts[0]
    with pytest.raises(CheckFailed):
        wl.check(state, 1, [dataclasses.replace(v, violating_fraction=0.5)] + verdicts[1:])
    key = next(iter(v.evidence))
    count, flag = v.evidence[key]
    short = dict(v.evidence, **{key: (count - 1, flag)})
    with pytest.raises(CheckFailed):
        wl.check(state, 1, [dataclasses.replace(v, evidence=short)] + verdicts[1:])


def test_stats_check_catches_mass_moved_between_keys(tmp_path):
    wl, state, profiles = _one_op("stats_sweep", tmp_path)
    st = profiles[0][3]
    a, b = sorted(st.weights)[:2]
    st.weights[a] += 1e-6
    st.weights[b] -= 1e-6
    with pytest.raises(CheckFailed):
        wl.check(state, 1, profiles)


def test_stats_check_catches_merged_classes(tmp_path):
    wl, state, profiles = _one_op("stats_sweep", tmp_path)
    st = profiles[1][2]
    a, b = sorted(st.weights)[:2]
    st.weights[a] += st.weights.pop(b)
    with pytest.raises(CheckFailed):
        wl.check(state, 1, profiles)


def test_estimate_check_catches_a_dependent_set(tmp_path):
    wl, state, out = _one_op("estimate_partition", tmp_path)
    inp = state["weighted"][1 % wl.variants][0][0]
    J, value = out["sets"][0]
    v = next(iter(J))
    u = next(u for a, b in inp.edges for u in ((b,) if a == v else (a,) if b == v else ()))
    out["sets"][0] = (J | {u}, value)
    with pytest.raises(CheckFailed):
        wl.check(state, 1, out)


def test_estimate_check_catches_a_poor_estimate_and_a_bad_certificate(tmp_path):
    wl, state, out = _one_op("estimate_partition", tmp_path)
    J, value = out["sets"][-1]
    with pytest.raises(CheckFailed):
        wl.check(state, 1, dict(out, sets=out["sets"][:-1] + [(frozenset(), 0.0)]))
    with pytest.raises(CheckFailed):
        wl.check(state, 1, dict(out, ratios=[0.3, out["ratios"][1]]))
    with pytest.raises(CheckFailed):
        wl.check(state, 1, dict(out, ratios=[0.6, out["ratios"][1]]))
    empty = dataclasses.replace(out["cert"], removed=frozenset())
    with pytest.raises(CheckFailed):
        wl.check(state, 1, dict(out, cert=empty))


def test_estimate_fallback_warning_fails_the_op(tmp_path):
    wl, state, out = _one_op("estimate_partition", tmp_path)
    with pytest.raises(Unguaranteed):
        wl.check(state, 1, dict(out, warnings=["greedy fallback carries no accuracy guarantee"]))


def test_cli_check_catches_wrong_counts(tmp_path):
    wl, state, code = _one_op("cli_oneshot", tmp_path)
    with open(state["out"]) as fh:
        counts = {row["key"]: row["count"] for row in map(json.loads, fh)}
    keys = sorted(counts, key=counts.get)
    with pytest.raises(CheckFailed):  # a query lost
        wl.check_counts(state, dict(counts, **{keys[0]: counts[keys[0]] - 1}), len(counts))
    with pytest.raises(CheckFailed):  # all mass on one key
        wl.check_counts(state, {keys[0]: wl.queries}, 1)
    with pytest.raises(CheckFailed):  # more keys than ball classes
        extra = {f"k{j}": 1 for j in range(len(state["masses"]))}
        moved = dict(counts, **{keys[-1]: counts[keys[-1]] - len(extra)}, **extra)
        wl.check_counts(state, moved, len(moved))
    with pytest.raises(CheckFailed):
        wl.check(state, 1, 1)


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------


def _brute_mwis(g, w):
    best = 0.0
    for k in range(g.number_of_nodes() + 1):
        for S in itertools.combinations(g, k):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(S, 2)):
                best = max(best, sum(w[v] for v in S))
    return best


@pytest.mark.parametrize("g", [nx.path_graph(9), nx.cycle_graph(9), nx.balanced_tree(2, 3),
                               nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 4))])
def test_mwis_reference_matches_brute_force(g):
    w = [1.0 + ((7 * v) % 5) / 3.0 for v in range(g.number_of_nodes())]
    assert ref.mwis_value(g, w) == pytest.approx(_brute_mwis(g, w), abs=1e-12)


def test_ball_classes_reference_on_known_graphs():
    cycle = nx.cycle_graph(12)
    assert ref.ball_class_masses(cycle, [Fraction(1)] * 12, 2, 2) == [1.0]
    # alternating weights 1, 2: two classes carrying 1/3 and 2/3
    w = [Fraction(1 + v % 2) for v in range(12)]
    masses = ref.ball_class_masses(cycle, w, 1, 2)
    assert masses == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    # a path: ends, next-to-ends and the interior differ at radius 2
    assert len(ref.ball_class_masses(nx.path_graph(10), [0.0] * 10, 2, 2)) == 3


def test_sorted_within_is_a_valid_comparison():
    assert ref.sorted_within([0.5, 0.5], [0.45, 0.55], 0.06)
    assert not ref.sorted_within([1.0], [0.5, 0.5], 0.3)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tester_repeat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
