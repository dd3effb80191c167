"""The per-graph ball index is shared by the tester and both statistics, so
no call may see a result that depends on which calls filled the index
before it."""
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from rnlab import (
    ExperimentConfig,
    PropertySpec,
    ball_index,
    build_graph,
    empirical_stats,
    extract_ball,
    exact_stats,
    gen_binary_tree,
    gen_grid,
    scenario_report_lines,
)
from rnlab.testers import test_property as run_tester

LN2 = math.log(2.0)
FOREST = PropertySpec.forest()
BIPARTITE = PropertySpec.bipartite()


def weighted_grid():
    base = gen_grid(5, 6)
    lw = np.random.default_rng(11).uniform(-0.6, 0.6, size=base.n)
    return build_graph(base.edge_list(), lw, d=4, K=4.0)


GRAPHS = {
    "weighted_grid": weighted_grid,
    "explicit_tree_with_orbits": lambda: gen_binary_tree(7, LN2, representation="explicit"),
    "implicit_tree": lambda: gen_binary_tree(9, 0.4, representation="implicit"),
}

# (kind, arguments): properties, radii, digits and seeds all vary
CALLS = [
    ("test", (FOREST, 0.3, None, 2, 1)),
    ("exact", (2, 2)),
    ("test", (BIPARTITE, 0.25, 3, 1, 5)),
    ("empirical", (2, 2, 500, 3)),
    ("test", (FOREST, 0.5, 2, 2, 9)),
    ("exact", (3, 1)),
    ("test", (BIPARTITE, 0.3, None, 2, 1)),
    ("empirical", (3, 1, 800, 4)),
    ("test", (FOREST, 0.25, 3, 1, 2)),
    ("exact", (2, 1)),
    ("empirical", (2, 2, 500, 8)),
]


def fingerprint(G, kind, args):
    """The result with every float as its bits and every mapping in order."""
    if kind == "test":
        P, eps, radius, t, seed = args
        v = run_tester(G, P, eps, seed=seed, radius=radius, t=t)
        return (v.verdict, v.violating_fraction.hex(), v.params, list(v.evidence.items()))
    if kind == "exact":
        st = exact_stats(G, *args)
    else:
        r, t, budget, seed = args
        st = empirical_stats(G, r, t, budget, seed=seed)
    return [(k.hex(), v.hex()) for k, v in st.weights.items()]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shared_index_matches_fresh_graphs(name):
    make = GRAPHS[name]
    shared = make()
    order = np.random.default_rng(3).permutation(2 * len(CALLS)) % len(CALLS)
    for i in order.tolist():
        kind, args = CALLS[i]
        assert fingerprint(shared, kind, args) == fingerprint(make(), kind, args), CALLS[i]


def test_outputs_pinned():
    """Masses in bits, keys in order and evidence of one small graph, as the
    memo-per-call implementation produced them for the same seeds."""

    def tag(data: bytes) -> str:
        return hashlib.sha1(data).hexdigest()[:10]

    # a 3x3 grid with one diagonal: two triangles at the corner
    base = gen_grid(3, 3)
    lw = [math.log(x) for x in (1, 2, 3, 2, 1, 2, 3, 2, 1)]
    G = build_graph(base.edge_list() + [(0, 4)], lw, d=5, K=3.0)
    exact = exact_stats(G, 1, 2)
    assert [(tag(k.data), v.hex()) for k, v in exact.weights.items()] == [
        ("b6dfb361ba", "0x1.e1e1e1e1e1e1dp-5"),
        ("fc8eb5173b", "0x1.e1e1e1e1e1e1ep-3"),
        ("8fc7e891b5", "0x1.6969696969697p-2"),
        ("3b1f1457d8", "0x1.e1e1e1e1e1e1dp-5"),
        ("be561bfb5e", "0x1.e1e1e1e1e1e1ep-3"),
        ("bea12d794f", "0x1.e1e1e1e1e1e1dp-5"),
    ]
    sampled = empirical_stats(G, 1, 2, 70, seed=5)
    assert [(tag(k.data), v.hex()) for k, v in sampled.weights.items()] == [
        ("b6dfb361ba", "0x1.5f15f15f15f16p-4"),
        ("fc8eb5173b", "0x1.3333333333333p-2"),
        ("8fc7e891b5", "0x1.5075075075074p-2"),
        ("3b1f1457d8", "0x1.5f15f15f15f16p-5"),
        ("be561bfb5e", "0x1.b6db6db6db6dbp-3"),
        ("bea12d794f", "0x1.d41d41d41d41dp-6"),
    ]
    v = run_tester(G, BIPARTITE, 0.3, seed=2, radius=2)
    assert (v.verdict, v.violating_fraction) == ("REJECT", 0.95)
    assert [(tag(bytes.fromhex(k)), c) for k, c in v.evidence.items()] == [
        ("62abe61696", (20, False)),
        ("6e25c79ad6", (160, True)),
        ("2b461a85a1", (76, True)),
        ("b359c0835a", (88, True)),
        ("94e4d75aac", (28, True)),
        ("d7e481ab94", (28, True)),
    ]


class TestCaches:
    """The index's hex strings and flag arrays follow the types it holds."""

    @staticmethod
    def grid_index():
        G = weighted_grid()
        return G, ball_index(G, 1, 2)

    def test_hex_keys_follow_new_types(self):
        G, index = self.grid_index()
        assert index.hex_keys() == []
        for roots in ([0, 7], [29], range(G.n)):
            index.types(np.array(roots))
            assert index.hex_keys() == [k.hex() for k in index.keys]
        assert len(index.keys) > 3

    def test_flags_cover_types_added_later(self):
        G, index = self.grid_index()
        # two specs on one index: has at least 3 vertices, and has a vertex of degree 4
        big, hub = ("big", 3), ("hub", 4)

        def has_three(ball):
            return ball.n >= 3

        def has_hub(ball):
            return any(sum(v in e for e in ball.edges) >= 4 for v in range(ball.n))

        index.types(np.array([0]))
        first = index.flags(big, has_three)
        assert first.tolist() == [has_three(extract_ball(G, 0, 1, 2))]
        index.types(np.array([0, 6, 7, 8]))
        assert index.flags(hub, has_hub).tolist() == [
            has_hub(extract_ball(G, root, 1, 2)) for root in index.roots
        ]
        index.types(np.arange(G.n))
        for spec, predicate in ((big, has_three), (hub, has_hub)):
            flags = index.flags(spec, predicate)
            assert flags.tolist() == [predicate(extract_ball(G, root, 1, 2)) for root in index.roots]
            assert flags.dtype == bool and not flags.flags.writeable
            # no types were added since: the same array comes back
            assert index.flags(spec, predicate) is flags
        # an array handed out earlier is kept as it was
        assert first.tolist() == [True]

    @pytest.mark.parametrize("representation", ["explicit", "implicit"])
    def test_unsorted_roots_fill_as_sorted(self, representation):
        # 5 layers: at radius 2 every layer is an orbit with its own type
        def make():
            return gen_binary_tree(5, 0.4, representation=representation)

        roots = np.random.default_rng(4).permutation(31)
        shuffled, ordered = make(), make()
        for part in (roots[:12], roots):
            ball_index(shuffled, 2, 2).types(part)
            ball_index(ordered, 2, 2).types(np.sort(part))
        ours, theirs = ball_index(shuffled, 2, 2), ball_index(ordered, 2, 2)
        assert (ours.keys, ours.roots) == (theirs.keys, theirs.roots)
        # the input order matters: some orbit's first root is not its smallest
        first, smallest = {}, {}
        for orbit, root in zip(shuffled.orbit_ids(roots[:12]).tolist(), roots[:12].tolist()):
            first.setdefault(orbit, root)
            smallest[orbit] = min(smallest.get(orbit, root), root)
        assert first != smallest


def test_tester_calibration_identical_across_threads():
    params = {"trials": 25, "epsilon": 0.2}
    reports = [
        "\n".join(
            scenario_report_lines(ExperimentConfig("tester_calibration", params, seed=3, threads=k))
        ).encode()
        for k in (1, 2)
    ]
    assert reports[0] == reports[1]


def test_concurrent_fills_agree():
    shared = [weighted_grid() for _ in range(4)]
    expected = [fingerprint(weighted_grid(), kind, args) for kind, args in CALLS] * len(shared)
    workers = 6
    start = threading.Barrier(workers, timeout=60)
    results = {}
    errors = []

    def work(k):
        try:
            start.wait()
            results[k] = [fingerprint(G, kind, args) for G in shared for kind, args in CALLS]
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
        for r, t in {(2, 2), (3, 1), (2, 1)}:
            keys = ball_index(G, r, t).keys
            assert len(set(keys)) == len(keys)
