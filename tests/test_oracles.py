import hashlib
import math

import networkx as nx
import numpy as np
import pytest

from rnlab import (
    AliasSampler,
    BudgetExceeded,
    PropertySpec,
    RadonNikodymOracle,
    TooLarge,
    cycle_key,
    enumerate_connected_classes,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_path,
    gen_random_regular,
    gen_theta_graph,
    girth,
    induced_cycle_lengths,
    observable_test,
    observe,
    odd_girth,
    rank_rule,
    run_local_rule,
    truncate_label,
    uniform_query,
)
from rnlab import GraphError, ball_index, build_graph, canonicalize, extract_ball, gen_grid
from rnlab import balls, graphs
from rnlab.balls import unrooted_key
from helpers import (
    GIRTH8_CUBIC_EDGES,
    GIRTH8_CUBIC_N,
    path_key,
    random_bounded_graph,
    random_tree,
    reference_alias_tables,
    reference_connected_classes,
    reference_odd_girth,
    reference_pick,
)

LN2 = math.log(2.0)


class TestAliasSampler:
    def test_matches_target_distribution(self):
        probs = np.array([0.5, 0.2, 0.3])
        sampler = AliasSampler(probs)
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=(2, 200_000), dtype=np.uint64)
        picks = sampler.pick(words[0], words[1])
        freq = np.bincount(picks, minlength=3) / len(picks)
        assert np.allclose(freq, probs, atol=0.01)

    def test_deterministic_given_words(self):
        sampler = AliasSampler(np.array([0.1, 0.9]))
        w = np.arange(50, dtype=np.uint64) * np.uint64(2**40)
        a = sampler.pick(w, w[::-1].copy())
        b = sampler.pick(w, w[::-1].copy())
        assert np.array_equal(a, b)

    def test_single_outcome(self):
        sampler = AliasSampler(np.array([1.0]))
        w = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(sampler.pick(w, w), [0, 0, 0])

    def test_tables_pinned(self):
        # sampled roots, and so every seeded result, follow these tables bit for bit
        sampler = AliasSampler(np.array([3.0, 1.0, 1.0, 7.0, 0.5, 2.5]))
        assert [float(x).hex() for x in sampler.prob] == [
            "0x1.0000000000000p+0",
            "0x1.999999999999ap-2",
            "0x1.999999999999ap-2",
            "0x1.9999999999999p-1",
            "0x1.999999999999ap-3",
            "0x1.9999999999998p-3",
        ]
        assert sampler.alias.tolist() == [0, 3, 3, 0, 5, 3]
        assert sampler.prob.dtype == np.float64 and sampler.alias.dtype == np.int64


def ladder_probabilities(rungs=10_000, pattern=((1, 2, 3, 3, 2), (2, 1, 1, 3, 3))):
    """Vertex masses of a circular ladder whose weights repeat the pattern
    along each side: the one-shot CLI benchmark's graph file."""
    edges = [(i, (i + 1) % rungs) for i in range(rungs)]
    edges += [(rungs + a, rungs + b) for a, b in edges] + [(i, rungs + i) for i in range(rungs)]
    w = [side[i % len(side)] for side in pattern for i in range(rungs)]
    return build_graph(edges, [math.log(x) for x in w], d=3, K=3.0).probabilities


def random_distributions(count=300, seed=19):
    """Distributions with ties (weights from {1, 2, 3}, uniform weights),
    one- and two-point ones, and spread-out ones."""
    rng = np.random.default_rng(seed)
    out = [np.ones(1), np.array([1.0, 3.0]), np.array([2.0, 2.0]), np.array([1e-9, 1.0])]
    while len(out) < count:
        n = int(rng.integers(1, 400))
        kind = len(out) % 5
        if kind == 0:
            out.append(rng.integers(1, 4, n).astype(np.float64))
        elif kind == 1:
            out.append(np.full(n, float(rng.integers(1, 9))))
        elif kind == 2:
            out.append(rng.random(n) + 1e-6)
        elif kind == 3:
            out.append(np.exp(rng.normal(0.0, 3.0, n)))
        else:
            out.append(rng.random(int(rng.integers(1, 3))) + 0.1)
    return out


class TestAliasTablesMatchReference:
    """AliasSampler builds the prob/alias arrays of the reference loop bit
    for bit, so every sampled root is unchanged."""

    @staticmethod
    def check(probs):
        sampler = AliasSampler(probs)
        prob, alias = reference_alias_tables(probs)
        assert sampler.prob.tobytes() == prob.tobytes()
        assert sampler.alias.tobytes() == alias.tobytes()

    def test_benchmark_ladder(self):
        self.check(ladder_probabilities())

    def test_random_distributions(self):
        cases = random_distributions()
        assert len(cases) == 300 and {len(p) for p in cases} >= {1, 2}
        for probs in cases:
            self.check(probs)


# words at the edges of the float conversion: 2^64 - 1 rounds up to 2^64
EDGE_WORDS = np.array([0, 1, 2, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1],
                      dtype=np.uint64)


def word_pairs(rng, count=20_000):
    """Random index and coin words, with every pair of edge words among them."""
    words = rng.integers(0, 2**64, size=(2, count), dtype=np.uint64)
    grid = np.array(np.meshgrid(EDGE_WORDS, EDGE_WORDS)).reshape(2, -1)
    words[:, : grid.shape[1]] = grid
    return words


class TestPickMatchesReference:
    """AliasSampler.pick on its table scaled to raw words picks what the
    per-word division by 2^64 picked, bit for bit."""

    @staticmethod
    def check(probs, words):
        sampler = AliasSampler(probs)
        expected = reference_pick(sampler.prob, sampler.alias, words[0], words[1])
        got = sampler.pick(words[0], words[1])
        assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()

    def test_benchmark_ladder(self):
        self.check(ladder_probabilities(), word_pairs(np.random.default_rng(3)))

    def test_random_distributions(self):
        rng = np.random.default_rng(23)
        for k, probs in enumerate(random_distributions()):
            if k % 3 == 0:
                # zero masses: their slots always take the alias
                probs = np.where(rng.random(len(probs)) < 0.3, 0.0, probs)
                probs[0] = max(probs[0], 1.0)
            self.check(probs, word_pairs(rng))

    def test_strided_words(self):
        # the oracle hands pick every fourth word of its block
        words = np.random.default_rng(5).integers(0, 2**64, size=4000, dtype=np.uint64)
        self.check(np.array([3.0, 1.0, 1.0, 7.0, 0.5, 2.5]), (words[0::4], words[1::4]))


class TestRootSampling:
    def test_counter_replay(self, weighted_p3):
        oracle = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=42)
        full = oracle.sample_roots(20, start_query=0)
        head = oracle.sample_roots(10, start_query=0)
        tail = oracle.sample_roots(10, start_query=10)
        assert np.array_equal(full, np.concatenate([head, tail]))

    def test_same_seed_same_stream(self, weighted_p3):
        a = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=5)
        b = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=5)
        assert np.array_equal(a.sample_roots(100), b.sample_roots(100))

    def test_different_seeds_differ(self, weighted_p3):
        a = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=5)
        b = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=6)
        assert not np.array_equal(a.sample_roots(100), b.sample_roots(100))

    def test_roots_follow_vertex_distribution(self, weighted_p3):
        oracle = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=0)
        roots = oracle.sample_roots(100_000)
        freq = np.bincount(roots, minlength=3) / len(roots)
        assert np.allclose(freq, [0.5, 0.2, 0.3], atol=0.01)

    def test_layered_roots_follow_layer_masses(self):
        T = gen_binary_tree(10, LN2, representation="implicit")
        oracle = RadonNikodymOracle(T, r=1, t=2, seed=3)
        roots = oracle.sample_roots(50_000)
        layers = np.array([(int(v) + 1).bit_length() - 1 for v in roots])
        freq = np.bincount(layers, minlength=10) / len(layers)
        assert np.allclose(freq, T.layer_masses, atol=0.01)

    def test_layered_offsets_uniform_within_layer(self):
        T = gen_binary_tree(6, 0.0, representation="implicit")
        oracle = RadonNikodymOracle(T, r=0, t=2, seed=1)
        roots = oracle.sample_roots(60_000)
        # bottom layer has 32 slots; conditional distribution is uniform
        bottom = roots[roots >= 31] - 31
        freq = np.bincount(bottom, minlength=32) / len(bottom)
        assert np.allclose(freq, [1 / 32] * 32, atol=0.01)

    def test_query_is_replayable(self, weighted_p3):
        oracle = RadonNikodymOracle(weighted_p3, r=1, t=2, seed=11)
        first = [oracle.query(i) for i in range(6)]
        again = [oracle.query(i) for i in range(6)]
        assert first == again

    def test_negative_query_indexes_are_rejected(self):
        # Philox.advance would wrap them to the far end of the stream
        oracle = RadonNikodymOracle(gen_path(5), r=1, t=2, seed=0)
        with pytest.raises(ValueError, match="start_query=-3"):
            oracle.sample_roots(2, start_query=-3)
        with pytest.raises(ValueError, match="start_query=-1"):
            oracle.query(-1)
        assert oracle.query(0) == oracle.ball_at(int(oracle.sample_roots(1)[0]))

    def test_negative_query_counts_are_rejected(self):
        oracle = RadonNikodymOracle(gen_path(5), r=1, t=2, seed=0)
        with pytest.raises(ValueError, match="count=-1"):
            oracle.sample_roots(-1)
        assert oracle.sample_roots(0).tolist() == []


class TestBallQueries:
    def test_center_ball_labels(self, weighted_p3):
        oracle = RadonNikodymOracle(weighted_p3, r=1, t=2)
        ball = oracle.ball_at(1)
        assert ball.labels[0] == truncate_label(1.0, 2)
        assert sorted(l.scaled_value for l in ball.labels[1:]) == [150, 250]

    def test_implicit_and_explicit_balls_agree(self):
        implicit = gen_binary_tree(8, LN2, representation="implicit")
        explicit = gen_binary_tree(8, LN2, representation="explicit")
        a = RadonNikodymOracle(implicit, r=2, t=2, seed=9)
        b = RadonNikodymOracle(explicit, r=2, t=2, seed=9)
        roots_a = a.sample_roots(200)
        roots_b = b.sample_roots(200)
        # same root index must give the same labeled ball either way
        for root in set(int(v) for v in roots_a[:50]) | set(int(v) for v in roots_b[:50]):
            assert a.ball_at(root) == b.ball_at(root)

    def test_uniform_query_forgets_weights(self, weighted_p3):
        rng = np.random.default_rng(0)
        unit = truncate_label(1.0, 2)
        for _ in range(10):
            ball = uniform_query(weighted_p3, 1, rng)
            assert all(l == unit for l in ball.labels)

    def test_uniform_query_uniform_roots(self, weighted_p3):
        # the ball shape distinguishes ends (2 vertices) from the middle (3),
        # and under uniform rooting the ends carry 2/3 of the mass, not the
        # 0.8 they carry under the vertex distribution
        rng = np.random.default_rng(1)
        ends = 0
        for _ in range(30_000):
            ball = uniform_query(weighted_p3, 1, rng)
            if ball.n == 2:
                ends += 1
        assert abs(ends / 30_000 - 2 / 3) < 0.02


class TestBallIndex:
    def test_one_index_per_graph_and_radius(self, weighted_p3):
        index = ball_index(weighted_p3, 1, 2)
        assert ball_index(weighted_p3, 1, 2) is index
        assert RadonNikodymOracle(weighted_p3, 1, 2, seed=4).index is index
        assert ball_index(weighted_p3, 2, 2) is not index
        equal = build_graph([(0, 1), (1, 2)], weighted_p3.log_weights, d=2, K=3.0)
        assert ball_index(equal, 1, 2) is not index

    @pytest.mark.parametrize("r, t", [(-1, 1), (1, -1)])
    def test_negative_radius_or_digits_rejected(self, weighted_p3, r, t):
        with pytest.raises(ValueError, match=f"r={r}, t={t}"):
            RadonNikodymOracle(weighted_p3, r, t)
        with pytest.raises(ValueError, match=f"r={r}, t={t}"):
            ball_index(weighted_p3, r, t)
        # nothing is left behind in the graph's derived structures
        assert ("balls", r, t) not in weighted_p3._derived

    def test_index_does_not_keep_its_graph_alive(self):
        index = ball_index(gen_path(5), 1, 2)
        with pytest.raises(GraphError):
            index.types([0])

    def test_types_are_dense_and_keys_distinct(self):
        G = gen_grid(5, 5)
        index = ball_index(G, 1, 2)
        types = index.types(np.arange(G.n))
        # corner, edge and interior vertices
        assert sorted(set(types.tolist())) == [0, 1, 2]
        assert len(set(index.keys)) == len(index.keys) == len(index.roots) == 3
        for v in range(G.n):
            assert index.keys[types[v]] == canonicalize(extract_ball(G, v, 1, 2))

    def test_orbits_share_one_slot(self):
        T = gen_binary_tree(12, LN2, representation="implicit")
        index = ball_index(T, 2, 2)
        layer_starts = [T.layer_start(k) for k in range(12)]
        ends = [T.layer_start(k + 1) - 1 for k in range(12)]
        assert np.array_equal(index.types(layer_starts), index.types(ends))

    def test_flags_evaluated_once_per_type(self):
        G = gen_cycle(5)
        index = ball_index(G, 2, 2)
        index.types(np.arange(5))
        calls = []

        def predicate(ball):
            calls.append(ball)
            return len(ball.edges) >= ball.n

        assert index.flags("cyclic", predicate).tolist() == [True]
        assert index.flags("cyclic", predicate).tolist() == [True]
        assert len(calls) == 1

    def test_budget_error_is_typed_and_leaves_no_entry(self, monkeypatch):
        assert BudgetExceeded is graphs.BudgetExceeded
        assert issubclass(BudgetExceeded, GraphError)
        # the 6-cycle ball has a reflection, so its search needs two leaves
        monkeypatch.setattr(balls._RefinementSearch, "MAX_LEAVES", 1)
        G = gen_cycle(6)
        index = ball_index(G, 3, 2)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                index.types([0])
        assert index.keys == [] and index.roots == []
        monkeypatch.undo()
        assert index.types([0]).tolist() == [0]


class TestObserve:
    def test_c5_shows_paths_only(self):
        table = observe(gen_cycle(5), 4)
        for k in range(1, 5):
            assert table.entries[path_key(k)]
        assert not table.entries[cycle_key(3)]
        assert not table.entries[cycle_key(4)]

    def test_c4_shows_itself_but_no_p4(self):
        table = observe(gen_cycle(4), 4)
        assert table.entries[cycle_key(4)]
        assert not table.entries[cycle_key(3)]
        assert table.entries[path_key(3)]
        assert not table.entries[path_key(4)]

    def test_triangles_hide_p3(self):
        table = observe(gen_disjoint_triangles(3), 3)
        assert table.entries[cycle_key(3)]
        assert table.entries[path_key(2)]
        assert not table.entries[path_key(3)]

    def test_deeper_tables_extend_shallower_ones(self):
        G = gen_theta_graph((2, 3, 4))
        t3 = observe(G, 3)
        t5 = observe(G, 5)
        for key, verdict in t3.entries.items():
            assert t5.entries[key] == verdict

    def test_positives(self):
        table = observe(gen_path(6), 3)
        positives = {key for key, seen in table.entries.items() if seen}
        assert positives == {path_key(1), path_key(2), path_key(3)}

    def test_class_enumeration_counts(self):
        # connected graphs on <= 4 vertices: 1 + 1 + 2 + 6
        assert len(enumerate_connected_classes(4, 3)) == 10
        # max degree 2 keeps only paths and cycles
        assert len(enumerate_connected_classes(4, 2)) == 6

    @pytest.fixture(scope="class")
    def atlas(self):
        """(vertex count, max degree, unrooted key) of every connected graph
        of networkx's atlas: all graphs on 1 to 7 vertices."""
        out = []
        for H in nx.graph_atlas_g()[1:]:
            if nx.is_connected(H):
                n = H.number_of_nodes()
                out.append((n, max(d for _, d in H.degree), unrooted_key(n, list(H.edges()))))
        return out

    @pytest.mark.parametrize("s", range(1, 8))
    def test_classes_match_the_graph_atlas(self, atlas, s):
        counts = []
        for d in range(5):
            expected = {key for n, dmax, key in atlas if n <= s and dmax <= d}
            classes = enumerate_connected_classes(s, d)
            assert set(classes) == expected, (s, d)
            counts.append(len(classes))
        if s == 7:
            assert counts == [1, 2, 12, 113, 462]

    def test_classes_match_the_edge_growing_reference(self):
        # past the atlas: the reference also adds edges and tries every vertex subset
        classes = enumerate_connected_classes(8, 3)
        assert len(classes) == 307
        assert set(classes) == reference_connected_classes(8, 3)

    def test_representatives_have_their_keys(self):
        for key, (n, edges) in enumerate_connected_classes(6, 3).items():
            assert unrooted_key(n, edges) == key

    # sha256 of the sorted "key value" lines of each table, with the table's
    # size and positive count, as computed one key per induced subset
    PINNED_TABLES = {
        "grid12x12_s5": (
            "18fe7af6768bc893f9f5bbc8c4e0ca725187b99c6993f71b6f581056b573dfbd", 31, 10
        ),
        "path200_s6": (
            "a27db774e3945b96127c0f754b483dec6ccc8e096677ab622fbdf39a78eb0006", 10, 6
        ),
        "cubic60_s5": (
            "a8f56fafd69023c374a74b6231dda8a7e1416b9204a53447914c51c80a5267e7", 20, 14
        ),
        # tables with classes the old enumeration reached by adding an edge
        # to a grown shape, pinned with that enumeration
        "grid12x12_s6": (
            "ee67489dd44ddf468d1e4c59d9fbcb01fd667973db5f92ec926d829fdbf79e69", 109, 20
        ),
        "girth8_s7": (
            "39e3e8c58f97703b35ce4b97882ce79b3b190acacfca288b2150f23d6e7d312c", 113, 17
        ),
        "nxcubic200_s6": (
            "19147ae2e86e10f15df7db2ee586e6e63826f401b0ba023a8c859424f3444ba6", 49, 22
        ),
    }
    TABLE_INPUTS = {
        "grid12x12_s5": (lambda: gen_grid(12, 12), 5),
        "path200_s6": (lambda: gen_path(200), 6),
        "cubic60_s5": (lambda: gen_random_regular(60, 3, seed=1), 5),
        "grid12x12_s6": (lambda: gen_grid(12, 12), 6),
        "girth8_s7": (lambda: build_graph(GIRTH8_CUBIC_EDGES, [0.0] * GIRTH8_CUBIC_N, d=3, K=1.0), 7),
        "nxcubic200_s6": (
            lambda: build_graph(sorted(nx.random_regular_graph(3, 200, seed=1).edges()),
                                [0.0] * 200, d=3, K=1.0),
            6,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_tables_pinned(self, name):
        make, s = self.TABLE_INPUTS[name]
        entries = observe(make(), s).entries
        lines = "\n".join(f"{k} {v}" for k, v in sorted(entries.items()))
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert (digest, len(entries), sum(entries.values())) == self.PINNED_TABLES[name]

    def test_path_and_cycle_keys_pinned(self):
        lines = [path_key(k) for k in range(1, 9)] + [cycle_key(k) for k in range(3, 9)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "c23eb3d08a1ccef7c1fb60851b2cf3435d5c8634b83af604b587fdde760ec0fe"
        )


class TestCycleOracles:
    def test_girth(self):
        assert girth(gen_cycle(7)) == 7
        assert girth(gen_path(9)) == math.inf
        assert girth(gen_theta_graph((2, 3, 4))) == 5

    def test_bounded_girth_matches_unbounded(self, rng):
        graphs = [
            random_bounded_graph(rng, int(rng.integers(1, 40)), int(rng.integers(2, 5)), 2.0,
                                 edge_factor=float(rng.uniform(0.4, 1.6)))
            for _ in range(80)
        ]
        for n in (1, 2, 7, 30):
            graphs.append(build_graph(random_tree(rng, n), [0.0] * n, d=4, K=1.0))
        graphs += [gen_cycle(n) for n in range(3, 13)]
        graphs += [gen_theta_graph((2, 3, 4)), gen_grid(3, 5)]
        graphs.append(build_graph(GIRTH8_CUBIC_EDGES, [0.0] * GIRTH8_CUBIC_N, d=3, K=1.0))
        for G in graphs:
            g = girth(G)
            # networkx is the independent reference for the unbounded form
            assert g == nx.girth(nx.Graph(G.edge_list()))
            for limit in [*range(G.n + 3), 2.5, math.inf]:
                assert girth(G, limit) == (g if g <= limit else math.inf), (G, limit)

    def test_odd_girth(self):
        assert odd_girth(gen_cycle(6)) == math.inf
        assert odd_girth(gen_cycle(5)) == 5
        assert odd_girth(gen_theta_graph((2, 3, 4))) == 5

    def test_cycle_oracles_match_networkx(self, rng):
        """girth against nx.girth, odd_girth against shortest paths in the
        double cover, on random bounded-degree graphs and named families."""
        graphs = [
            random_bounded_graph(rng, int(rng.integers(1, 30)), int(rng.integers(2, 5)), 2.0,
                                 edge_factor=float(rng.uniform(0.4, 1.6)))
            for _ in range(200)
        ]
        graphs += [gen_cycle(n) for n in range(3, 12)]
        graphs += [gen_grid(r, c) for r, c in ((1, 5), (2, 2), (3, 3), (3, 5), (4, 6))]
        graphs += [gen_theta_graph(p) for p in ((2, 3, 4), (1, 2, 2), (3, 3, 5), (2, 4, 6))]
        # the girth-8 graph and its double cover, as the local_blindness demo builds them
        cover = [(u, GIRTH8_CUBIC_N + v) for a, b in GIRTH8_CUBIC_EDGES for u, v in ((a, b), (b, a))]
        graphs += [build_graph(GIRTH8_CUBIC_EDGES, [0.0] * GIRTH8_CUBIC_N, d=3, K=1.0),
                   build_graph(cover, [0.0] * (2 * GIRTH8_CUBIC_N), d=3, K=1.0)]
        for G in graphs:
            assert girth(G) == nx.girth(nx.Graph(G.edge_list())), G
            assert odd_girth(G) == reference_odd_girth(G), G

    def test_girth8_graph_regression(self):
        G = build_graph(GIRTH8_CUBIC_EDGES, [0.0] * GIRTH8_CUBIC_N, d=3, K=1.0)
        assert girth(G) == 8
        assert odd_girth(G) == 9

    def test_induced_cycle_lengths(self):
        assert induced_cycle_lengths(gen_cycle(6), 6) == {6}
        assert induced_cycle_lengths(gen_cycle(6), 5) == set()
        assert induced_cycle_lengths(gen_theta_graph((2, 3, 4)), 7) == {5, 6, 7}
        assert induced_cycle_lengths(gen_theta_graph((2, 3, 4)), 6) == {5, 6}


class TestDeepImplicitTrees:
    """Whole-graph scans of an implicit tree too deep to list raise TooLarge
    at once, instead of looping over its 2^depth - 1 vertices; shallower
    trees answer as their materialization does."""

    SCANS = {
        "neighbor_lists": lambda T: T.neighbor_lists(),
        "components": lambda T: graphs.components(T),
        "girth": girth,
        "odd_girth": odd_girth,
        "observe": lambda T: observe(T, 3),
        "observable_test": lambda T: observable_test(T, PropertySpec.forest(), 0.5),
        "run_local_rule": lambda T: run_local_rule(T, rank_rule(), 2, seed=0),
    }

    @pytest.mark.parametrize("name", sorted(SCANS))
    @pytest.mark.parametrize("depth", [23, 100])
    def test_too_deep_to_list(self, name, depth):
        T = gen_binary_tree(depth, 0.7, representation="implicit")
        with pytest.raises(TooLarge, match=f"neighbors of 2\\^{depth} - 1 vertices"):
            self.SCANS[name](T)

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_listable_depths_match_the_materialization(self, name):
        T = gen_binary_tree(6, 0.7, representation="implicit")
        G = T.materialize()
        got, want = self.SCANS[name](T), self.SCANS[name](G)
        if name == "neighbor_lists":
            # the tree lists the parent first, the explicit graph ascending
            assert [sorted(a) for a in got] == want
            assert got == [T.neighbors(v) for v in range(T.n)]
        elif name == "observe":
            assert got.entries == want.entries
        else:
            assert got == want
