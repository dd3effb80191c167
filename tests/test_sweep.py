"""Exact sweeps and sampled lookups type their roots through one path,
BallIndex.types, which reads the graph's G.neighbor_lists() when its roots
are every vertex and calls G.neighbors otherwise.  These tests hold the balls read
from neighbor lists to those read through G.neighbors, and the statistics
and ball indexes of exact sweeps to a reference that extracts and
canonicalizes every sweep root's ball afresh, with no index."""
import math
import sys
import threading

import numpy as np
import pytest

from helpers import random_bounded_graph, reference_exact_stats
from rnlab import (
    PropertySpec,
    RadonNikodymOracle,
    WeightedGraph,
    ball_index,
    build_graph,
    empirical_stats,
    exact_stats,
    extract_ball,
    extract_ball_with_map,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    gen_random_regular,
    save_graph,
    stats_profile,
    truncate_label,
)
from rnlab import balls, oracles
from rnlab.cli import main
from rnlab.testers import test_property as run_tester

LN2 = math.log(2.0)


def weighted_grid(seed=5):
    base = gen_grid(5, 6)
    w = np.random.default_rng(seed).choice([2.0, 3.0, 4.0], size=base.n)
    return build_graph(base.edge_list(), np.log(w), d=4, K=2.0)


def weighted_heap_tree(depth=5, seed=7):
    n = 2**depth - 1
    edges = [(v, 2 * v + c) for v in range(n // 2) for c in (1, 2)]
    lw = np.random.default_rng(seed).uniform(-0.5, 0.5, size=n)
    return build_graph(edges, lw, d=3, K=math.exp(1.0))


def tied_random_graph(seed=3, levels=3):
    """A random bounded graph whose log-weights take only `levels` values."""
    base = random_bounded_graph(np.random.default_rng(seed), 25, 4, 4.0)
    lw = [LN2 * (v % levels) for v in range(base.n)]
    return build_graph(base.edge_list(), lw, d=4, K=2.0 ** (levels - 1))


def signed_zero_path():
    """Log-weights 0.0 and -0.0 are equal floats with different bits."""
    return build_graph([(v, v + 1) for v in range(5)], [0.0, -0.0, 0.0, -0.0, LN2, 0.0], d=2, K=2.0)


# every maker returns a fresh graph object, so no index carries over
EXPLICIT = {
    "weighted_grid": weighted_grid,
    "weighted_heap_tree": weighted_heap_tree,
    "cubic_a": lambda: gen_random_regular(16, 3, seed=2),
    "cubic_b": lambda: gen_random_regular(20, 3, seed=3),
    "tied_random": tied_random_graph,
    "tied_random_two_levels": lambda: tied_random_graph(seed=8, levels=2),
    "signed_zero_path": signed_zero_path,
    # smaller than a radius-4 ball
    "path3": lambda: gen_path(3),
    "cycle4": lambda: gen_cycle(4),
    "triangles": lambda: gen_disjoint_triangles(2),
}
GRAPHS = {
    **EXPLICIT,
    "implicit_tree": lambda: gen_binary_tree(6, 0.4, representation="implicit"),
    "orbit_tree": lambda: gen_binary_tree(6, LN2, representation="explicit"),
}
# sweep-sized graphs for the sweep comparison; orbit trees sweep one
# representative per layer (the deep tree is as deep as sampling allows)
SWEEP_GRAPHS = {
    **EXPLICIT,
    "implicit_tree": lambda: gen_binary_tree(9, 0.4, representation="implicit"),
    "orbit_tree": lambda: gen_binary_tree(7, LN2, representation="explicit"),
    "deep_implicit_tree": lambda: gen_binary_tree(60, LN2, representation="implicit"),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_neighbor_lists_give_the_same_balls(name):
    G = GRAPHS[name]()
    adj = G.neighbor_lists()
    for x in range(G.n):
        for r in range(5):
            assert extract_ball_with_map(G, x, r, 2, adj=adj) == extract_ball_with_map(G, x, r, 2)
            assert extract_ball(G, x, r, 2, adj=adj) == extract_ball(G, x, r, 2)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("t", [0, 1, 2])
def test_labels_are_truncated_weight_ratios(name, t):
    """Vertices that share a log-weight share a label object; each label is
    still truncate_label of exp of the log-weight difference."""
    G = GRAPHS[name]()
    for x in range(G.n):
        for r in range(4):
            ball, order = extract_ball_with_map(G, x, r, t)
            lw_root = G.log_weight(x)
            assert ball.labels == tuple(
                truncate_label(math.exp(G.log_weight(v) - lw_root), t) for v in order
            )


def _sweep_roots(G):
    reps = G.orbit_reps()
    return list(range(G.n)) if reps is None else [rep for rep, _ in reps]


def _prefill(G, how):
    """Leave some indexes filled in part by sampled roots, as the tester and
    empirical statistics leave them."""
    if how == "tester":
        run_tester(G, PropertySpec.forest(), 0.3, seed=1, radius=2)
        run_tester(G, PropertySpec.bipartite(), 0.25, seed=4, radius=3)
    elif how == "empirical":
        empirical_stats(G, 3, 2, 40, seed=2)
        empirical_stats(G, 1, 2, 10, seed=6)


def _assert_matches_reference(stats, G, r, t, keys_before):
    """stats (the exact sweep of G) and G's index at (r, t), held to the
    reference, which reads no index; keys_before are the index's keys from
    before the sweep."""
    ref = reference_exact_stats(G, r, t)
    assert stats.to_json_dict() == ref.to_json_dict()
    assert [(k.hex(), v.hex()) for k, v in stats.weights.items()] == [
        (k.hex(), v.hex()) for k, v in ref.weights.items()
    ]
    index = ball_index(G, r, t)
    # types the sweep adds come after the prefilled ones, in sweep order
    assert index.keys == keys_before + [k for k in ref.weights if k not in keys_before]
    assert len(index.roots) == len(index.keys)
    for key, root in zip(index.keys, index.roots):
        assert balls.canonicalize(extract_ball(G, root, r, t)) == key
    roots = _sweep_roots(G)
    assert [index.keys[tid] for tid in index.types(roots).tolist()] == [
        balls.canonicalize(extract_ball(G, root, r, t)) for root in roots
    ]


@pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
@pytest.mark.parametrize("prefill", ["none", "tester", "empirical"])
def test_sweep_matches_per_root_lookups(name, prefill):
    G = SWEEP_GRAPHS[name]()
    _prefill(G, prefill)
    keys_before = {r: list(ball_index(G, r, 2).keys) for r in (1, 2, 3)}
    profile = stats_profile(G, 3, 2)
    assert list(profile) == [1, 2, 3]
    for r in (1, 2, 3):
        _assert_matches_reference(profile[r], G, r, 2, keys_before[r])


def test_sweep_of_a_depth_100_tree_matches_per_root_lookups():
    G = gen_binary_tree(100, LN2, representation="implicit")
    profile = stats_profile(G, 3, 2)
    for r in (1, 2, 3):
        _assert_matches_reference(profile[r], G, r, 2, [])


def _count_calls(monkeypatch):
    extracted = []
    canonicalized = []
    real_extract, real_canonicalize = oracles.extract_ball, balls.canonicalize

    def extract(G, x, r, t, **kwargs):
        extracted.append((x, r, kwargs.get("adj") is not None))
        return real_extract(G, x, r, t, **kwargs)

    def canonicalize(ball):
        canonicalized.append(ball)
        return real_canonicalize(ball)

    # the ball index extracts through oracles' own binding
    monkeypatch.setattr(oracles, "extract_ball", extract)
    monkeypatch.setattr(balls, "canonicalize", canonicalize)
    return extracted, canonicalized


def test_sweep_extracts_each_root_once_per_radius_and_types_as_often(monkeypatch):
    extracted, canonicalized = _count_calls(monkeypatch)
    G = weighted_grid()
    stats_profile(G, 3, 2)
    # every vertex is a root, so every extraction reads the neighbor lists
    assert extracted == [(x, r, True) for r in (1, 2, 3) for x in range(G.n)]
    per_profile = len(canonicalized)
    # one canonicalization per distinct raw ball
    assert per_profile == sum(
        len({(b.depths, b.edges, b.labels) for b in (extract_ball(G, x, r, 2) for x in range(G.n))})
        for r in (1, 2, 3)
    )
    stats_profile(G, 3, 2)
    assert len(extracted) == 3 * G.n and len(canonicalized) == per_profile

    # one root per lookup, as sampled queries come: through G.neighbors
    canonicalized.clear()
    extracted.clear()
    H = weighted_grid()
    for r in (1, 2, 3):
        for x in range(H.n):
            ball_index(H, r, 2).types([x])
    assert extracted == [(x, r, False) for r in (1, 2, 3) for x in range(H.n)]
    assert len(canonicalized) == per_profile


def test_sweep_extracts_only_the_roots_still_untyped(monkeypatch):
    G = weighted_grid()
    empirical_stats(G, 2, 2, 8, seed=2)
    sampled = set(RadonNikodymOracle(G, 2, 2, seed=2).sample_roots(8).tolist())
    assert 0 < len(sampled) < G.n
    extracted, _ = _count_calls(monkeypatch)
    exact_stats(G, 2, 2)
    assert extracted == [(x, 2, True) for x in range(G.n) if x not in sampled]


def test_orbit_sweeps_extract_without_neighbor_lists(monkeypatch):
    extracted, _ = _count_calls(monkeypatch)
    G = gen_binary_tree(100, LN2, representation="implicit")
    exact_stats(G, 2, 2)
    assert [roots for _, _, roots in extracted] == [False] * len(G.orbit_reps())


def test_neighbor_lists_read_on_full_sweeps_only(monkeypatch, tmp_path):
    """rnlab stats builds the graph's neighbor lists once for all its radii;
    rnlab sample, whose queries reach only some of the vertices, builds none."""
    builds = []
    real = WeightedGraph._list_neighbors

    def list_neighbors(G):
        builds.append(G.n)
        return real(G)

    monkeypatch.setattr(WeightedGraph, "_list_neighbors", list_neighbors)
    path = str(tmp_path / "g.json")
    save_graph(weighted_grid(), path)
    assert main(["sample", "--graph", path, "--r", "2", "--queries", "12"]) == 0
    assert builds == []
    assert main(["stats", "--graph", path, "--rmax", "3"]) == 0
    assert builds == [30]


def test_concurrent_profiles_and_lookups_agree():
    """Sweeps and sampled lookups fill through one locked path: threads that
    sweep and sample the same graphs at once must still type each orbit
    exactly once."""
    shared = [weighted_grid(), tied_random_graph()]
    expected = [
        [st.to_json_dict() for st in stats_profile(make(), 3, 2).values()]
        for make in (weighted_grid, tied_random_graph)
    ]
    workers = 5
    start = threading.Barrier(workers, timeout=60)
    results = {}
    errors = []

    def work(k):
        try:
            start.wait()
            out = []
            for G in shared:
                if k % 2:
                    run_tester(G, PropertySpec.forest(), 0.3, seed=k, radius=2)
                    exact_stats(G, 3, 2)
                out.append([st.to_json_dict() for st in stats_profile(G, 3, 2).values()])
            results[k] = out
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert all(results[k] == expected for k in range(workers))
    for G in shared:
        for r in (1, 2, 3):
            index = ball_index(G, r, 2)
            # a second fill of one orbit would drive the count below zero
            assert index._remaining == 0 and (index._type_of_orbit >= 0).all()
            assert len(set(index.keys)) == len(index.keys) == len(index.roots)
