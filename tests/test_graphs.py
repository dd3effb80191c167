import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref

import networkx as nx
import numpy as np
import pytest

import rnlab
from helpers import (
    count_neighbor_list_builds,
    gen_layered_weights,
    random_bounded_graph,
    same_graph,
    scalar_build_graph,
)
from rnlab import (
    DegreeExceeded,
    DuplicateEdge,
    GraphError,
    LayeredBinaryTree,
    NotAdjacent,
    RatioBoundViolated,
    SelfLoop,
    WeightedGraph,
    adjacency,
    bfs,
    build_graph,
    components,
    gen_binary_tree,
    gen_cycle,
    gen_grid,
    gen_orbit_tree,
    gen_path,
    gen_perturbed_union,
    gen_random_regular,
    graph_from_json_dict,
    graph_to_json,
    load_graph,
    ratio,
    save_graph,
    two_coloring,
    walk_order,
)
from rnlab.graphs import MAX_BETA, RATIO_SLACK, _key_type, philox

LN2 = math.log(2.0)


class TestBuildGraph:
    def test_uniform_path(self):
        G = build_graph([(0, 1), (1, 2)], [0.0, 0.0, 0.0], d=2, K=2.0)
        assert G.n == 3
        assert np.allclose(G.probabilities, [1 / 3, 1 / 3, 1 / 3])

    def test_ratio_bound_violation(self):
        with pytest.raises(RatioBoundViolated):
            build_graph([(0, 1)], [0.0, math.log(3.0)], d=2, K=2.0)

    def test_ratio_bound_boundary_accepted(self):
        # an edge exactly at ratio K passes (slack absorbs float noise)
        G = build_graph([(0, 1)], [0.0, math.log(2.0)], d=1, K=2.0)
        assert math.isclose(ratio(G, 0, 1), 2.0)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph([(0, 0)], [0.0], d=2, K=2.0)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_graph([(0, 1), (1, 0)], [0.0, 0.0], d=2, K=2.0)

    def test_degree_exceeded(self):
        edges = [(0, 1), (0, 2), (0, 3)]
        with pytest.raises(DegreeExceeded):
            build_graph(edges, [0.0] * 4, d=2, K=2.0)

    def test_adjacency_symmetric_and_sorted(self):
        G = build_graph([(2, 0), (1, 2)], [0.0] * 3, d=2, K=2.0)
        assert list(G.neighbors(2)) == [0, 1]
        for v in range(G.n):
            for u in G.neighbors(v):
                assert v in G.neighbors(int(u))

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            G = random_bounded_graph(rng, int(rng.integers(2, 40)), d=5, K=3.0)
            assert abs(float(G.probabilities.sum()) - 1.0) < 1e-12

    def test_extreme_skew_no_underflow(self):
        # weights spanning hundreds of orders of magnitude normalize fine
        n = 50
        lw = [-20.0 * k for k in range(n)]
        edges = [(k, k + 1) for k in range(n - 1)]
        G = build_graph(edges, lw, d=2, K=math.exp(20.0) * 1.001)
        p = G.probabilities
        assert abs(float(p.sum()) - 1.0) < 1e-12
        assert p[0] > 0.999999


def _outcome(build):
    """What a build gives: its CSR arrays, or its exception's type and text."""
    try:
        result = build()
    except GraphError as e:
        return type(e), str(e)
    if isinstance(result, WeightedGraph):
        result = result._indptr, result._indices
    return ("built",) + tuple(a.dtype.str + a.tobytes().hex() for a in result)


class TestVectorizedBuilder:
    """build_graph checks and assembles in one numpy pass; the loop it
    replaced (helpers.scalar_build_graph) is the reference."""

    @staticmethod
    def _faulty_input(rng):
        """A random edge list with zero to three injected faults of the five
        kinds, a weight vector and a degree bound."""
        n = int(rng.integers(1, 12))
        K = float(rng.choice([1.0, 2.0, 3.0]))
        lw = rng.uniform(0.0, math.log(K), size=n)
        pairs = [(int(a), int(b)) for a, b in rng.integers(n, size=(int(rng.integers(0, 2 * n + 1)), 2))]
        edges, seen = [], set()
        for a, b in pairs:
            if a != b and (min(a, b), max(a, b)) not in seen:
                seen.add((min(a, b), max(a, b)))
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
        d = 4
        for _ in range(int(rng.integers(0, 4))):
            kind = rng.integers(5)
            at = int(rng.integers(len(edges) + 1))
            v = int(rng.integers(n))
            if kind == 0:
                edges.insert(at, (v, v))
            elif kind == 1:
                out = int(rng.choice([-1, n]))
                edges.insert(at, [(v, out), (out, v), (out, out)][rng.integers(3)])
            elif kind == 2:
                if edges:
                    a, b = edges[int(rng.integers(len(edges)))]
                    edges.insert(at, (a, b) if rng.random() < 0.5 else (b, a))
            elif kind == 3:
                lw[v] += math.log(K) + float(rng.uniform(0.1, 2.0))
            else:
                d = int(rng.integers(1, 3))
        return edges, lw.tolist(), d, K

    def test_matches_the_scalar_builder(self, rng):
        kinds = set()
        for _ in range(3000):
            edges, lw, d, K = self._faulty_input(rng)
            expected = _outcome(lambda: scalar_build_graph(edges, lw, d, K))
            kinds.add(expected[0])
            assert _outcome(lambda: build_graph(edges, lw, d=d, K=K)) == expected, (edges, lw, d, K)
        assert kinds == {"built", SelfLoop, GraphError, DuplicateEdge, RatioBoundViolated, DegreeExceeded}

    def test_earliest_fault_wins(self):
        lw = [0.0, 0.0, 5.0, 0.0]
        # each list holds several faults; the builder names the first one
        cases = [
            ([(0, 1), (1, 2), (3, 3), (0, 4)], RatioBoundViolated, "edge (1, 2) has weight ratio"),
            ([(0, 1), (1, 0), (2, 2), (1, 2)], DuplicateEdge, "edge (0, 1) appears twice"),
            ([(0, 1), (1, 3), (9, 9), (3, 1), (4, 0)], SelfLoop, "self-loop at vertex 9"),
            ([(0, 1), (-1, 0), (1, 0)], GraphError, "edge (-1, 0) references a vertex outside [0, 4)"),
            # an edge that is both a self-loop and out of range is a self-loop
            ([(0, 1), (7, 7), (0, 9)], SelfLoop, "self-loop at vertex 7"),
            ([(0, 1), (-1, -1)], SelfLoop, "self-loop at vertex -1"),
        ]
        for edges, kind, text in cases:
            assert _outcome(lambda: scalar_build_graph(edges, lw, 3, 2.0))[0] is kind
            with pytest.raises(kind, match=f"^{re.escape(text)}") as e:
                build_graph(edges, lw, d=3, K=2.0)
            assert type(e.value) is kind
        with pytest.raises(DuplicateEdge, match=r"^edge \(1, 2\) appears twice$"):
            build_graph([(0, 1), (2, 1), (1, 2), (2, 2)], [0.0] * 3, d=3, K=2.0)

    def test_error_texts(self):
        lw = [0.0, 0.0, math.log(3.0)]
        cases = [
            ([(0, 1), (2, 2)], 2, 3.0, SelfLoop, "self-loop at vertex 2"),
            ([(0, 1), (1, 3)], 2, 3.0, GraphError, "edge (1, 3) references a vertex outside [0, 3)"),
            ([(1, 0), (0, 1)], 2, 3.0, DuplicateEdge, "edge (0, 1) appears twice"),
            ([(0, 1), (2, 1)], 2, 2.0, RatioBoundViolated, "edge (1, 2) has weight ratio exp(1.09861) > K=2.0"),
            ([(0, 1), (1, 2), (2, 0)], 1, 3.0, DegreeExceeded, "vertex 0 has degree 2 > d=1"),
            # a K that is not a number of at least 1 was kept and written as NaN
            ([(0, 1)], 2, 0.5, GraphError, "ratio bound must be at least 1, got 0.5"),
            ([(0, 1)], 2, math.nan, GraphError, "ratio bound must be finite, got nan"),
            ([(0, 1)], 2, math.inf, GraphError, "ratio bound must be finite, got inf"),
        ]
        for edges, d, K, kind, text in cases:
            with pytest.raises(GraphError) as e:
                build_graph(edges, lw, d=d, K=K)
            assert (type(e.value), str(e.value)) == (kind, text)

    def test_ratio_threshold_is_strict(self):
        log_k = math.log(2.0) * (1.0 + RATIO_SLACK) + RATIO_SLACK
        build_graph([(0, 1)], [0.0, log_k], d=1, K=2.0)
        with pytest.raises(RatioBoundViolated):
            build_graph([(0, 1)], [0.0, math.nextafter(log_k, math.inf)], d=1, K=2.0)

    def test_accepted_edge_shapes(self):
        pairs = [(2, 0), (1, 2), (3, 1)]
        expected = build_graph(pairs, [0.0] * 4, d=2, K=1.0)
        shapes = [
            [list(e) for e in pairs], tuple(pairs), (e for e in pairs), iter(pairs), set(pairs),
            np.array(pairs), np.array(pairs, dtype=np.int32), [np.array(e) for e in pairs],
            [(np.int64(a), b) for a, b in pairs],
        ]
        for edges in shapes:
            assert same_graph(build_graph(edges, [0.0] * 4, d=2, K=1.0), expected)
        for empty in ([], (), iter([]), np.empty((0, 2), dtype=np.int64)):
            G = build_graph(empty, [0.0] * 3, d=1, K=1.0)
            assert G.edge_count == 0 and G._indptr.tolist() == [0, 0, 0, 0]
        assert build_graph([], [], d=1, K=1.0).n == 0

    def test_empty_graph_has_no_distribution(self):
        # nothing is kept from a failed read, so every read raises
        G = build_graph([], [], d=1, K=1.0)
        for query in ("log_z", "probabilities") * 2:
            with pytest.raises(GraphError, match="^the graph has no vertices, so no vertex distribution$"):
                getattr(G, query)

    def test_distribution_kept_read_only(self):
        G = build_graph([(0, 1), (1, 2)], [0.0, 1.0, 0.5], d=2, K=3.0)
        p = G.probabilities
        assert G.probabilities is p and not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = 0.5
        assert G.log_z == pytest.approx(math.log(1.0 + math.e + math.exp(0.5)), rel=1e-15)

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1, 2)], [(0, 1), (2,)], [(0,)], [()], [0, 1], [[0, 1], [1, 2, 0]], [[[0, 1]]],
         [("a", "b")], [(0, 2**63)], [(-2**63 - 1, 0)], [(0, 2**70)],
         [(0, 1.9)], [(0, 1.0)], [("0", "1")], [(0, "1")], [(True, False)], [(0, None)],
         np.array([[0.0, 1.0]])],
        ids=["triple", "ragged", "single", "empty-entry", "flat", "ragged-late", "nested",
             "text", "too-large", "too-small", "huge",
             "float", "integral-float", "numeric-text", "mixed-text", "bool", "none",
             "float-array"],
    )
    def test_entries_that_are_not_pairs_of_ids(self, edges):
        with pytest.raises(GraphError, match="^edges must be pairs of"):
            build_graph(edges, [0.0] * 3, d=2, K=1.0)

    def test_unsigned_ids_above_int64_are_rejected(self):
        pairs = [(2, 0), (1, 2)]
        expected = build_graph(pairs, [0.0] * 3, d=2, K=1.0)
        assert same_graph(build_graph(np.array(pairs, dtype=np.uint64), [0.0] * 3, d=2, K=1.0), expected)
        assert same_graph(build_graph(np.array(pairs, dtype=np.uint8), [0.0] * 3, d=2, K=1.0), expected)
        # 2**63 + 1 would wrap to -(2**63 - 1) and be reported as that vertex
        for big in (2**63, 2**63 + 1, 2**64 - 1):
            edges = np.array([(0, 1), (1, big)], dtype=np.uint64)
            with pytest.raises(GraphError, match=f"^edges must be pairs of int64 vertex ids, got id {big} "):
                build_graph(edges, [0.0] * 3, d=2, K=1.0)
        # the int64 maximum itself passes the cast and fails the range check
        edges = np.array([(0, 2**63 - 1)], dtype=np.uint64)
        with pytest.raises(GraphError, match=r"^edge \(0, 9223372036854775807\) references a vertex outside"):
            build_graph(edges, [0.0] * 3, d=2, K=1.0)


class TestRatio:
    def test_uniform_edges(self, c6_uniform):
        for u, v in c6_uniform.edge_list():
            assert ratio(c6_uniform, u, v) == 1.0

    def test_critical_tree_parent_child(self, critical_tree):
        # child 1 hangs off root 0
        assert math.isclose(ratio(critical_tree, 0, 1), 0.5)
        assert math.isclose(ratio(critical_tree, 1, 0), 2.0)

    def test_not_adjacent(self, p3_uniform):
        with pytest.raises(NotAdjacent):
            ratio(p3_uniform, 0, 2)

    def test_reciprocal_in_log_space(self, rng):
        G = random_bounded_graph(rng, 30, d=4, K=4.0)
        for u, v in G.edge_list():
            # exact cancellation: same two log-weights subtracted both ways
            assert (G.log_weight(v) - G.log_weight(u)) + (
                G.log_weight(u) - G.log_weight(v)
            ) == 0.0

    def test_cycle_product_exactly_one(self, rng):
        from rnlab import cycle_ratio_product, walk_log_ratio

        for n in (3, 5, 12, 101):
            lw = rng.uniform(0.0, math.log(4.0), size=n).tolist()
            edges = [(i, (i + 1) % n) for i in range(n)]
            G = build_graph(edges, lw, d=2, K=4.0)
            cycle = list(range(n))
            assert walk_log_ratio(G, cycle, closed=True) == 0.0
            assert cycle_ratio_product(G, cycle) == 1.0
            # direction and starting point are irrelevant
            assert cycle_ratio_product(G, cycle[::-1]) == 1.0
            assert cycle_ratio_product(G, cycle[4:] + cycle[:4]) == 1.0

    def test_walk_log_ratio_open_walk(self):
        from rnlab import walk_log_ratio

        G = build_graph([(0, 1), (1, 2)], [0.0, LN2, 2 * LN2], d=2, K=2.0)
        assert math.isclose(walk_log_ratio(G, [0, 1, 2]), 2 * LN2)

    def test_walk_rejects_non_edges(self, p3_uniform):
        from rnlab import walk_log_ratio

        with pytest.raises(NotAdjacent):
            walk_log_ratio(p3_uniform, [0, 2])


class TestBijectionIdentity:
    def test_matched_mass_transport(self, rng):
        # sum over v in A of r(v, phi(v)) p(v) equals p(B) for any matching
        # phi along edges with disjoint sides
        for _ in range(50):
            G = random_bounded_graph(rng, int(rng.integers(4, 50)), d=5, K=3.0)
            edges = G.edge_list()
            if not edges:
                continue
            rng.shuffle(edges)
            used = set()
            phi = {}
            for u, v in edges:
                if u not in used and v not in used:
                    phi[u] = v
                    used.update((u, v))
            p = G.probabilities
            lhs = sum(ratio(G, v, w) * p[v] for v, w in phi.items())
            rhs = sum(p[w] for w in phi.values())
            assert abs(lhs - rhs) < 1e-12


class TestLayeredBinaryTree:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1e300, math.nextafter(MAX_BETA, 1e3)])
    def test_beta_without_a_finite_ratio_bound(self, beta):
        with pytest.raises(GraphError, match=r"^beta must be finite with \|beta\| <= 709\.783, got "):
            LayeredBinaryTree(3, beta)
        assert LayeredBinaryTree(3, -MAX_BETA).K == math.exp(MAX_BETA)

    def test_sizes_and_indexing(self):
        T = LayeredBinaryTree(5, LN2)
        assert T.n == 31
        assert T.layer(0) == 0
        assert T.layer(1) == T.layer(2) == 1
        assert T.layer(30) == 4
        assert T.layer_start(3) == 7

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_orbit_ids_of_integer_arrays_at_layer_edges(self, dtype):
        T = LayeredBinaryTree(100, 0.0)
        top = 31 if dtype == np.int32 else 63
        edges = [0] + [v for k in range(1, top + 1) for v in ((1 << k) - 2, (1 << k) - 1)]
        edges += [2**62 - 1, 2**62, 2**63 - 1] if top == 63 else [2**31 - 1]
        roots = np.array(edges, dtype=dtype)
        ids = T.orbit_ids(roots)
        assert ids.dtype == np.int64
        assert ids.tolist() == [T.layer(int(v)) for v in roots]

    def test_orbit_ids_of_deep_roots_stay_exact(self):
        # object arrays hold ids past 2^63: no float or int64 conversion
        T = LayeredBinaryTree(100, 0.0)
        reps = [rep for rep, _ in T.orbit_reps()]
        roots = np.array(reps + [rep + 1 for rep in reps[1:]] + [T.n - 1], dtype=object)
        assert T.orbit_ids(roots).tolist() == list(range(100)) + list(range(1, 100)) + [99]
        assert T.orbit_ids([]).tolist() == []

    def test_orbit_ids_of_sampled_roots(self):
        T = gen_binary_tree(30, 0.5, representation="implicit")
        roots = rnlab.RadonNikodymOracle(T, 1, 2, seed=4).sample_roots(3000)
        assert T.orbit_ids(roots).tolist() == [T.layer(int(v)) for v in roots]

    def test_neighbors_match_heap_indexing(self):
        T = LayeredBinaryTree(4, 0.0)
        assert sorted(T.neighbors(0)) == [1, 2]
        assert sorted(T.neighbors(1)) == [0, 3, 4]
        assert T.neighbors(7) == [3]

    def test_layer_masses_closed_form(self):
        for depth in (3, 10, 25):
            for beta in (0.0, 0.3, LN2, 2 * LN2):
                T = LayeredBinaryTree(depth, beta)
                raw = np.array(
                    [math.pow(2.0, k) * math.exp(-beta * k) for k in range(depth)]
                )
                assert np.allclose(T.layer_masses, raw / raw.sum(), atol=1e-12)

    def test_critical_masses_uniform(self):
        T = LayeredBinaryTree(7, LN2)
        assert np.allclose(T.layer_masses, [1 / 7] * 7)

    def test_materialize_matches_queries(self):
        T = LayeredBinaryTree(6, 0.4)
        G = T.materialize()
        assert G.n == T.n
        assert G.d == T.d == 3
        for v in range(T.n):
            assert sorted(int(u) for u in G.neighbors(v)) == sorted(T.neighbors(v))
            assert math.isclose(G.p(v), T.p(v), rel_tol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.4, LN2, -0.3, 2.5])
    def test_materialize_matches_the_per_vertex_construction(self, beta):
        for depth in range(1, 11):
            T = LayeredBinaryTree(depth, beta)
            edges = [(v, c) for v in range(T.n) if 2 * v + 1 < T.n for c in (2 * v + 1, 2 * v + 2)]
            lw = [-beta * T.layer(v) for v in range(T.n)]
            layers = [T.layer(v) for v in range(T.n)]
            G = T.materialize()
            expected = build_graph(edges, lw, d=3, K=T.K, orbit_labels=np.array(layers))
            assert same_graph(G, expected)
            # the same float bits, signed zeros included
            assert G.log_weights.tobytes() == np.array(lw).tobytes()
            assert G.orbit_ids(range(T.n)).tolist() == layers
            assert G.orbit_reps() == expected.orbit_reps()

    @pytest.mark.parametrize("depth", [1, 5, 12])
    def test_probabilities_match_per_vertex_masses(self, depth):
        for beta in (0.0, 0.4, LN2, -0.3, 2.5):
            T = LayeredBinaryTree(depth, beta)
            # the same float bits as one p(v) per vertex
            assert T.probabilities.tobytes() == np.array([T.p(v) for v in range(T.n)]).tobytes()

    def test_orbit_reps_cover_layers(self):
        T = LayeredBinaryTree(9, LN2)
        reps = T.orbit_reps()
        assert len(reps) == 9
        assert abs(sum(m for _, m in reps) - 1.0) < 1e-12
        roots = [rep for rep, _ in reps]
        assert T.orbit_ids(roots).tolist() == [T.layer(rep) for rep in roots] == list(range(9))

    def test_depth_three_critical_layer_third(self):
        G = gen_binary_tree(3, LN2)
        p = G.probabilities
        layers = [p[0], p[1] + p[2], p[3:].sum()]
        assert np.allclose(layers, [1 / 3] * 3)


class TestGraphProtocol:
    """Both graph classes answer neighbor queries with fresh lists of Python
    ints within the degree bound, and adjacent and materialize agree with
    them."""

    @staticmethod
    def _sample_vertices(G):
        if G.n <= 64:
            return range(G.n)
        # the first, last and a middle layer of a tree too deep to list
        return [0, 1, 2, 2**40, 2**40 + 7, G.n - 2, G.n - 1]

    @pytest.mark.parametrize(
        "G",
        [
            build_graph([(2, 0), (1, 2), (3, 1), (0, 4), (4, 3), (5, 2)], [0.0] * 6, d=3, K=1.0),
            gen_grid(3, 4),
            LayeredBinaryTree(5, 0.4).materialize(),
            LayeredBinaryTree(5, 0.4),
            LayeredBinaryTree(70, LN2),
        ],
        ids=["explicit", "grid", "materialized-tree", "tree-5", "tree-70"],
    )
    def test_neighbors_adjacent_degree_materialize(self, G):
        vertices = self._sample_vertices(G)
        for v in vertices:
            nbrs = G.neighbors(v)
            assert type(nbrs) is list
            assert all(type(u) is int for u in nbrs)
            assert G.neighbors(v) is not nbrs  # fresh: callers may keep or mutate it
            assert len(nbrs) <= G.d
            for u in nbrs:
                assert 0 <= u < G.n
                assert G.adjacent(v, u) and G.adjacent(u, v)
                assert v in G.neighbors(u)
        for v in vertices:
            for u in vertices:
                assert G.adjacent(v, u) == (u in G.neighbors(v)) == G.adjacent(u, v)
        if isinstance(G, WeightedGraph):
            assert all(G.neighbors(v) == sorted(G.neighbors(v)) for v in vertices)
        else:
            # parent first, then the children
            assert G.neighbors(5) == [2, 11, 12] and G.neighbors(0) == [1, 2]
        if G.n > 2**22:
            return
        M = G.materialize()
        assert isinstance(M, WeightedGraph)
        assert all(M.neighbors(v) == sorted(G.neighbors(v)) for v in range(G.n))
        if isinstance(G, WeightedGraph):
            assert M is G

    @pytest.mark.parametrize(
        "G",
        [
            build_graph([(2, 0), (1, 2), (3, 1), (0, 4), (4, 3), (5, 2)], [0.0] * 7, d=3, K=1.0),
            gen_grid(3, 4),
            build_graph([], [], d=1, K=1.0),
            LayeredBinaryTree(5, 0.4).materialize(),
            LayeredBinaryTree(5, 0.4),
            LayeredBinaryTree(1, 0.0),
        ],
        ids=["explicit-isolated", "grid", "empty", "materialized-tree", "tree-5", "tree-1"],
    )
    def test_neighbor_lists_match_neighbors(self, G):
        lists = G.neighbor_lists()
        assert type(lists) is list and len(lists) == G.n
        for v in range(G.n):
            assert type(lists[v]) is list
            assert all(type(u) is int for u in lists[v])
            assert lists[v] == G.neighbors(v)
        # built once and kept on the graph
        assert G.neighbor_lists() is lists

    @pytest.mark.parametrize(
        "make", [lambda: gen_cycle(60), lambda: gen_path(50)], ids=["cycle", "path"]
    )
    def test_one_list_build_serves_every_scan(self, make):
        """Estimators, covers, partitions, solvers and exact sweeps all read
        the graph's one set of neighbor lists, and none of them mutates it."""
        G = make()
        builds = count_neighbor_list_builds(G)
        rnlab.local_independent_set(G, 0.2)
        rnlab.estimate_matching(G, 0.2)
        assert rnlab.verify_uniform_cover(G, rnlab.build_uniform_cover(G, 0.2))
        assert rnlab.verify_weighted_partition(G, rnlab.find_weighted_partition(G, 0.2, 20))
        rnlab.exact_weighted_mis(G)
        for r in (1, 2, 3):
            rnlab.exact_stats(G, r, 2)
        assert len(builds) == 1
        assert G.neighbor_lists() == [G.neighbors(v) for v in range(G.n)]

    def test_adjacency_lists(self):
        assert adjacency(4, [(2, 0), (1, 2), (0, 1)]) == [[1, 2], [0, 2], [0, 1], []]
        G = gen_grid(3, 3)
        assert adjacency(G.n, G.edge_list()) == [G.neighbors(v) for v in range(G.n)]


def _derive_everything(G) -> set:
    """Build every structure a graph keeps of itself: its neighbor lists,
    alias table, orbit index, a ball index with predicate flags, and its
    partition plan.  Returns the keys of what it keeps."""
    G.neighbor_lists()
    roots = rnlab.RadonNikodymOracle(G, 2, 2, seed=1).sample_roots(50)
    G.orbit_ids(roots)
    rnlab.ball_index(G, 1, 2).types(range(G.n))
    rnlab.test_property(G, rnlab.PropertySpec.forest(), 0.3, seed=1)
    rnlab.independent_set_estimate(G, 0.2)
    rnlab.find_weighted_partition(G, 0.2, G.n)
    return set(G._derived)


@pytest.mark.parametrize("make, orbits", [
    (lambda: gen_binary_tree(6, 0.5, representation="explicit"), True),
    (lambda: build_graph(gen_grid(6, 7).edge_list(), [0.1 * (v % 7) for v in range(42)],
                         d=4, K=2.0), False),
    (lambda: LayeredBinaryTree(6, 0.5), False),
], ids=["explicit-tree-with-orbits", "weighted-grid", "implicit-tree"])
def test_graph_and_derived_structures_freed_without_the_collector(make, orbits):
    """No derived structure refers back to its graph, so a dropped graph is
    freed by reference counting alone, everything it keeps with it."""
    def build_and_drop():
        G = make()
        return weakref.ref(G), _derive_everything(G)

    enabled = gc.isenabled()
    gc.disable()
    try:
        ref, kept = build_and_drop()
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert {"neighbor_lists", "alias", ("balls", 1, 2), ("balls", 2, 2), "partition_plan"} <= kept
    assert ("orbits" in kept) is orbits


class TestComponents:
    @staticmethod
    def _check_against_networkx(G, removed, comps):
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from((u, int(v)) for u in range(G.n) for v in G.neighbors(u))
        g.remove_nodes_from(removed)
        expected = sorted(sorted(c) for c in nx.connected_components(g))
        assert sorted(sorted(c) for c in comps) == expected
        # ordered by smallest vertex, and each scan starts at that vertex
        firsts = [c[0] for c in comps]
        assert firsts == sorted(firsts)
        assert all(c[0] == min(c) for c in comps)

    def test_matches_networkx_on_random_removals(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            G = random_bounded_graph(rng, n, d=3, K=2.0, edge_factor=float(rng.uniform(0.3, 1.5)))
            removed = {int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
            self._check_against_networkx(G, removed, components(G, removed))

    def test_implicit_tree_matches_its_materialization(self, rng):
        T = LayeredBinaryTree(5, 0.4)
        G = T.materialize()
        for k in (0, 1, 3, 8):
            removed = frozenset(int(v) for v in rng.choice(T.n, size=k, replace=False))
            comps = components(T, removed)
            assert comps == components(G, removed)
            self._check_against_networkx(G, removed, comps)

    def test_visit_order_and_edge_cases(self):
        # stack scan: 0 pushes 1 and 2, then 2 is visited before 1
        assert components(gen_grid(2, 2)) == [[0, 2, 3, 1]]
        assert components(gen_path(5), {2}) == [[0, 1], [3, 4]]
        assert components(gen_path(3), {0, 1, 2}) == []
        assert components(build_graph([], [0.0] * 3, d=2, K=1.0)) == [[0], [1], [2]]

    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_removed_ids_outside_the_graph_are_rejected(self, bad):
        # an unchecked -1 would wrap to the last vertex and drop it from the result
        with pytest.raises(GraphError, match=f"removed vertex {bad} "):
            components(gen_path(5), {bad})

    def test_core_paths_do_not_load_scipy(self):
        code = textwrap.dedent(
            """
            import os
            import sys
            import tempfile
            import rnlab
            G = rnlab.gen_grid(4, 4)
            assert len(rnlab.components(G, {5, 6})) == 1
            rnlab.find_weighted_partition(G, 0.3, K_target=16)
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "g.json")
                rnlab.save_graph(G, path)
                assert rnlab.graph_to_json(rnlab.load_graph(path)) == rnlab.graph_to_json(G)
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
            """
        )
        src = os.path.dirname(os.path.dirname(rnlab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)

    def test_arcs_follow_csr_order(self, rng):
        G = random_bounded_graph(rng, 15, d=3, K=2.0)
        tails, heads = G.arcs()
        assert tails.tolist() == [u for u in range(G.n) for _ in G.neighbors(u)]
        assert heads.tolist() == [int(v) for u in range(G.n) for v in G.neighbors(u)]


class TestTraversals:
    @staticmethod
    def _nx(G):
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from(G.edge_list())
        return g

    @staticmethod
    def _check_bfs(neighbors, g, root, radius):
        order, depths, pos = bfs(neighbors, root, radius)
        expected = nx.single_source_shortest_path_length(g, root, cutoff=radius)
        assert dict(zip(order, depths)) == expected
        assert len(order) == len(expected)
        assert order[0] == root
        assert depths == sorted(depths)
        assert pos == {v: i for i, v in enumerate(order)}
        # FIFO: each vertex hangs off its first-visited neighbor one layer up,
        # and children come out in parent order, then in listed order
        rank = []
        for w in order[1:]:
            parent = min((pos[int(u)] for u in neighbors(w) if int(u) in pos
                          and depths[pos[int(u)]] == depths[pos[w]] - 1))
            listed = [int(u) for u in neighbors(order[parent])]
            rank.append((parent, listed.index(w)))
        assert rank == sorted(rank)
        return order, depths, pos

    def test_bfs_matches_networkx(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            G = random_bounded_graph(rng, n, d=3, K=2.0, edge_factor=float(rng.uniform(0.3, 1.5)))
            g = self._nx(G)
            root = int(rng.integers(n))
            for radius in (0, 1, 2, 3, 4, None):
                self._check_bfs(G.neighbors, g, root, radius)

    def test_bfs_on_adjacency_lists_and_implicit_trees(self, rng):
        G = random_bounded_graph(rng, 25, d=4, K=2.0)
        adj = [[int(w) for w in G.neighbors(v)] for v in range(G.n)]
        for radius in (0, 2, None):
            assert bfs(adj.__getitem__, 3, radius) == self._check_bfs(G.neighbors, self._nx(G), 3, radius)
        T = LayeredBinaryTree(6, 0.4)
        M = T.materialize()
        for root in (0, 5, T.n - 1):
            for radius in (0, 1, 4):
                assert bfs(T.neighbors, root, radius) == self._check_bfs(M.neighbors, self._nx(M), root, radius)
        # a tree too deep to materialize: the root, its parent and children,
        # then 6 and 12 vertices two and three steps out
        v = 2**20
        order, depths, _ = bfs(LayeredBinaryTree(30, 0.4).neighbors, v, 3)
        assert order[:4] == [v, (v - 1) // 2, 2 * v + 1, 2 * v + 2]
        assert depths == [0] + [1] * 3 + [2] * 6 + [3] * 12

    def test_two_coloring_matches_networkx(self, rng):
        graphs = [
            gen_cycle(7), gen_cycle(8), gen_grid(3, 4), build_graph([], [0.0] * 3, d=2, K=1.0),
            # disconnected: an even cycle next to an odd one, and two paths
            build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)], [0.0] * 7, d=2, K=1.0),
            build_graph([(0, 1), (1, 2), (3, 4)], [0.0] * 5, d=2, K=1.0),
        ]
        for _ in range(40):
            n = int(rng.integers(1, 20))
            graphs.append(random_bounded_graph(rng, n, d=3, K=2.0, edge_factor=float(rng.uniform(0.3, 1.3))))
        outcomes = set()
        for G in graphs:
            color = two_coloring(G.neighbors, range(G.n))
            outcomes.add(color is not None)
            assert (color is not None) == nx.is_bipartite(self._nx(G))
            if color is not None:
                assert sorted(color) == list(range(G.n))
                assert all(color[u] != color[v] for u, v in G.edge_list())
                # depth parity of the scan from each component's first vertex
                for comp in components(G):
                    s = min(comp)
                    order, depths, _ = bfs(G.neighbors, s)
                    assert [color[v] for v in order] == [dist & 1 for dist in depths]
        assert outcomes == {True, False}

    def test_walk_order_on_paths_and_cycles(self, rng):
        assert walk_order(gen_path(6).neighbors, 0, 6) == [0, 1, 2, 3, 4, 5]
        assert walk_order(gen_path(6).neighbors, 5, 6) == [5, 4, 3, 2, 1, 0]
        # the first step takes the first listed neighbor, then never turns back
        assert walk_order(gen_cycle(6).neighbors, 0, 6) == [0, 1, 2, 3, 4, 5]
        assert walk_order(gen_cycle(6).neighbors, 3, 6) == [3, 2, 1, 0, 5, 4]
        for _ in range(20):
            n = int(rng.integers(3, 25))
            perm = [int(v) for v in rng.permutation(n)]
            for closed in (False, True):
                edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
                if closed:
                    edges.append((perm[-1], perm[0]))
                G = build_graph(edges, [0.0] * n, d=2, K=1.0)
                start = perm[0]
                order = walk_order(G.neighbors, start, n)
                assert sorted(order) == list(range(n))
                assert all(G.adjacent(a, b) for a, b in zip(order, order[1:]))
                assert order[1] == int(G.neighbors(start)[0])
                adj = {v: [int(w) for w in G.neighbors(v)] for v in range(n)}
                assert walk_order(adj.__getitem__, start, n) == order

    def test_walk_order_past_the_end_of_a_path(self):
        with pytest.raises(GraphError, match="reached 3 of 5 vertices"):
            walk_order(gen_path(3).neighbors, 0, 5)
        with pytest.raises(GraphError, match="reached 1 of 2 vertices"):
            walk_order(build_graph([], [0.0], d=1, K=1.0).neighbors, 0, 2)


class TestEdgeView:
    def test_edges_follow_the_neighbor_lists(self, rng):
        graphs = [build_graph([], [0.0] * 3, d=1, K=1.0), gen_grid(3, 4), LayeredBinaryTree(5, 0.4).materialize()]
        graphs += [random_bounded_graph(rng, int(rng.integers(1, 30)), d=4, K=2.0) for _ in range(20)]
        for G in graphs:
            expected = [(u, v) for u in range(G.n) for v in G.neighbors(u) if u < v]
            assert G.edge_list() == expected
            assert all(type(u) is int and type(v) is int for u, v in G.edge_list())
            arr = G.edge_array()
            assert arr.dtype == np.int64 and arr.shape == (G.edge_count, 2)
            assert arr.tolist() == [list(e) for e in expected]

    def test_layered_weights_on_an_edgeless_graph(self):
        G = gen_layered_weights(build_graph([], [0.3], d=1, K=1.0), 0, "exp_beta", beta=0.5)
        assert G.K == 1.0 and G.log_weights.tolist() == [0.0]


# graph_to_json bytes of a small corpus, pinned when the JSON writer and the
# edge view were vectorized: the file format must not move
JSON_CORPUS_SHA256 = "aa116df97ea2e1f77657c10ca7a5f997827220af47cd35e5d84d758e9945d253"


def _json_corpus():
    rng = np.random.default_rng(7)
    return [
        gen_path(6), gen_cycle(7), gen_grid(3, 4), gen_binary_tree(5, LN2),
        gen_orbit_tree(4), gen_random_regular(20, 3, seed=2),
        gen_perturbed_union(4, profile="adversarial"),
        gen_layered_weights(gen_grid(3, 3), 4, "inverse_sphere"),
        gen_layered_weights(gen_cycle(9), 0, "exp_beta", beta=0.7),
        LayeredBinaryTree(4, 0.0).materialize(), LayeredBinaryTree(6, -0.3).materialize(),
        random_bounded_graph(rng, 30, d=4, K=3.0),
    ]


class TestJsonRoundTrip:
    def test_json_bytes_pinned(self):
        text = "\n".join(graph_to_json(G) for G in _json_corpus())
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_CORPUS_SHA256

    def test_to_from_dict(self, rng):
        G = random_bounded_graph(rng, 17, d=4, K=3.0)
        H = graph_from_json_dict(json.loads(graph_to_json(G)))
        assert same_graph(H, G)
        assert np.array_equal(H.log_weights, G.log_weights)

    def test_file_round_trip(self, tmp_path, critical_tree):
        path = tmp_path / "g.json"
        save_graph(critical_tree, path)
        H = load_graph(path)
        assert same_graph(H, critical_tree)
        assert H.K == critical_tree.K

    @pytest.mark.parametrize("content, reason", [
        (b'{"key": "ab", "count": 3}\n{"key": "cd", "count": 1}\n', "Extra data"),
        (b"\xff\xfe", "can't decode byte"),
        (b"[0, 1]", "it needs n, d, K, edges, log_weights"),
        (b'"n d K edges log_weights"', "it needs n, d, K, edges, log_weights"),
        (b'{"n": 2, "d": 1, "K": 1.0, "edges": [[0, 1]]}', "it needs n, d, K, edges, log_weights"),
    ])
    def test_other_file_kinds_rejected(self, tmp_path, content, reason):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        pattern = f"^{re.escape(str(path))} is not a graph file: .*{re.escape(reason)}"
        with pytest.raises(GraphError, match=pattern):
            load_graph(path)

    @pytest.mark.parametrize("field, value, message", [
        ("log_weights", 5, "graph field log_weights must be a list of numbers, got 5"),
        ("log_weights", [0.0, "1"], "graph field log_weights must be a list of numbers"),
        ("log_weights", [0.0, True], "graph field log_weights must be a list of numbers"),
        ("n", "two", "graph field n must be an integer, got 'two'"),
        ("n", True, "graph field n must be an integer, got True"),
        ("n", 2.0, "graph field n must be an integer, got 2.0"),
        ("d", 1.5, "graph field d must be an integer, got 1.5"),
        ("d", False, "graph field d must be an integer, got False"),
        ("K", "2", "graph field K must be a number, got '2'"),
        ("K", True, "graph field K must be a number, got True"),
        ("edges", {"0": 1}, "graph field edges must be a list, got {'0': 1}"),
    ])
    def test_mistyped_fields_rejected(self, tmp_path, field, value, message):
        obj = {"n": 2, "d": 1, "K": 1.0, "edges": [[0, 1]], "log_weights": [0.0, 0.0]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj | {field: value}))
        with pytest.raises(GraphError, match=f"^{re.escape(message)}"):
            load_graph(path)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}"):
            graph_from_json_dict(obj | {field: value})

    @pytest.mark.parametrize("edges, message", [
        ([[0, True]], "got [0, True] at edge 0"),
        ([[0, 2], [2, 1], [False, 1]], "got [False, 1] at edge 2"),
        ([[0, 2], [True, 2]], "got [True, 2] at edge 1"),
    ])
    def test_bool_ids_among_ints_rejected(self, tmp_path, edges, message):
        # numpy reads these as the ids 0 and 1
        obj = {"n": 3, "d": 2, "K": 1.0, "edges": edges, "log_weights": [0.0] * 3}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        message = f"^edges must be pairs of int64 vertex ids, {re.escape(message)}$"
        with pytest.raises(GraphError, match=message):
            load_graph(path)
        with pytest.raises(GraphError, match=message):
            build_graph(edges, [0.0] * 3, d=2, K=1.0)
        with pytest.raises(GraphError, match=r"^edges must be pairs of int64 vertex ids, got \(np.True_, 2\)"):
            build_graph([(np.True_, 2)], [0.0] * 3, d=2, K=1.0)

    def test_bool_ids_after_shape_and_type_checks(self):
        for edges, message in (([[0, True], [0, 1.5]], "got float64 entries"),
                               ([[0, True], [1]], "inhomogeneous shape"),
                               ([[0, True, 2]], r"got an array of shape \(1, 3\)")):
            with pytest.raises(GraphError, match=f"^edges must be pairs of .*{message}"):
                build_graph(edges, [0.0] * 3, d=2, K=1.0)

    def test_int_ratio_bound_accepted(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "d": 1, "K": 1, "edges": [[0, 1]], "log_weights": [0, 0.0]}')
        G = load_graph(path)
        assert (G.K, G.edge_list(), G.log_weights.tolist()) == (1.0, [(0, 1)], [0.0, 0.0])

    def test_format_fields(self, p3_uniform):
        obj = json.loads(graph_to_json(p3_uniform))
        assert set(obj) >= {"n", "d", "K", "edges", "log_weights"}
        assert obj["n"] == 3
        assert sorted(map(tuple, obj["edges"])) == [(0, 1), (1, 2)]

    def test_reads_do_not_mutate(self, critical_tree):
        before = critical_tree.probabilities.copy()
        from rnlab import extract_ball

        extract_ball(critical_tree, 3, 2, 2)
        critical_tree.edge_list()
        critical_tree.orbit_reps()
        assert np.array_equal(critical_tree.probabilities, before)


class TestCollectorPause:
    """load_graph and graph_to_json run with the cyclic collector paused:
    their JSON holds no cycles, yet has a list per edge."""

    GRAPH_FILES = {
        "graph": {"n": 3, "d": 2, "K": 1.0, "edges": [[0, 1], [1, 2]], "log_weights": [0.0] * 3},
        "not JSON": "{",
        "missing field": {"n": 3, "d": 2, "K": 1.0, "edges": []},
        "mistyped field": {"n": "3", "d": 2, "K": 1.0, "edges": [], "log_weights": [0.0] * 3},
        "duplicate edge": {"n": 3, "d": 2, "K": 1.0, "edges": [[0, 1], [1, 0]],
                           "log_weights": [0.0] * 3},
    }

    def test_no_collection_inside_load_or_dump(self, tmp_path):
        G = gen_path(30_001)
        path = tmp_path / "path.json"
        save_graph(G, path)
        started, where = [], None

        def hook(phase, info):
            if phase == "start":
                started.append((where, info["generation"]))

        gc.collect()
        gc.callbacks.append(hook)
        try:
            where = "load_graph"
            H = load_graph(path)
            where = "graph_to_json"
            text = graph_to_json(H)
        finally:
            gc.callbacks.remove(hook)
        assert started == []
        assert same_graph(H, G)
        assert text == path.read_text()

    @pytest.mark.parametrize("name", list(GRAPH_FILES))
    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "caller-paused"])
    def test_collector_state_restored(self, tmp_path, name, enabled):
        content = self.GRAPH_FILES[name]
        path = tmp_path / "g.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        if not enabled:
            gc.disable()
        try:
            if name == "graph":
                graph_to_json(load_graph(path))
            else:
                with pytest.raises(DuplicateEdge if name == "duplicate edge" else GraphError):
                    load_graph(path)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestKeyedStream:
    """philox(key, counter) is numpy's Philox(key=key) advanced by counter
    blocks, built without drawing OS entropy."""

    @pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
    @pytest.mark.parametrize("counter", [0, 1, 7, 10**6])
    def test_words_match_numpy(self, key, counter):
        reference = np.random.Philox(key=key)
        reference.advance(counter)
        assert np.array_equal(philox(key, counter).random_raw(9), reference.random_raw(9))

    def test_default_counter_is_zero(self):
        assert np.array_equal(philox(5).random_raw(4), np.random.Philox(key=5).random_raw(4))

    def test_numpy_integer_keys(self):
        assert np.array_equal(philox(np.uint64(3)).random_raw(4), philox(3).random_raw(4))

    @pytest.mark.parametrize("key", [-1, 2**128])
    def test_keys_outside_128_bits_rejected(self, key):
        with pytest.raises(ValueError) as numpy_error:
            np.random.Philox(key=key)
        with pytest.raises(ValueError) as ours:
            philox(key)
        assert str(ours.value) == str(numpy_error.value)

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # the stream's seed-sequence class is made on first use
        code = "import sys, rnlab.cli; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rnlab.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout.strip() == "False", proc.stderr

    def test_no_seed_sequence_from_os_entropy(self):
        assert isinstance(philox(9).seed_seq, _key_type())

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint32), (3, np.uint64)])
    def test_any_other_state_request_raises(self, n_words, dtype):
        key = _key_type()(np.array([1, 2], dtype=np.uint64))
        assert key.generate_state(2, np.uint64).tolist() == [1, 2]
        with pytest.raises(RuntimeError, match="a Philox key is 2 uint64 words"):
            key.generate_state(n_words, dtype)
