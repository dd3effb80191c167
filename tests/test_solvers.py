import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from rnlab import (
    TooLarge,
    adjacency,
    build_graph,
    exact_weighted_mis,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    is_independent,
    two_coloring,
)
from rnlab.solvers import (
    _bipartite_mwis,
    _branch_mwis,
    _cycle_mwis,
    _forest_mwis,
    component_mwis,
    matching_size,
    maximum_matching,
)
from helpers import (
    GIRTH8_CUBIC_EDGES,
    GIRTH8_CUBIC_N,
    exact_matching,
    exhaustive_mwis,
    petersen_edges,
    random_bounded_graph,
    reference_bipartite_mwis,
)


def _adj_and_weights(G):
    adj = {v: [int(u) for u in G.neighbors(v)] for v in range(G.n)}
    w = {v: G.p(v) for v in range(G.n)}
    return adj, w


class TestMatching:
    def test_single_edge(self):
        assert exact_matching(gen_path(2)) == 0.5

    def test_even_cycle_perfect(self):
        assert exact_matching(gen_cycle(6)) == 0.5

    def test_odd_path(self):
        assert exact_matching(gen_path(7)) == pytest.approx(3 / 7)

    def test_petersen_perfect_matching(self):
        G = build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0)
        assert exact_matching(G) == 0.5

    def test_blossom_needed(self):
        # two triangles joined by a bridge: greedy bipartite-style augmenting
        # fails without blossom contraction
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        G = build_graph(edges, [0.0] * 6, d=3, K=1.0)
        assert exact_matching(G) == 0.5

    def test_matches_networkx_on_random_graphs(self, rng):
        for _ in range(15):
            G = random_bounded_graph(rng, 24, 3, 1.0, uniform=True, edge_factor=1.3)
            adj = [[int(u) for u in G.neighbors(v)] for v in range(G.n)]
            ours = matching_size(G.n, adj)
            H = nx.Graph(G.edge_list())
            H.add_nodes_from(range(G.n))
            theirs = len(nx.max_weight_matching(H, maxcardinality=True))
            assert ours == theirs

    def test_matching_is_valid(self):
        G = gen_grid(5, 5)
        adj = [[int(u) for u in G.neighbors(v)] for v in range(G.n)]
        match = maximum_matching(G.n, adj)
        for v, m in enumerate(match):
            if m != -1:
                assert match[m] == v
                assert m in adj[v]


def _nx_matching_size(n, edges):
    H = nx.Graph(edges)
    H.add_nodes_from(range(n))
    return len(nx.max_weight_matching(H, maxcardinality=True))


def _k4_chain(links):
    """K4 blocks in a row, each joined to the next by one edge."""
    edges = []
    for b in range(links):
        base = 4 * b
        edges += [(base + i, base + j) for i in range(4) for j in range(i + 1, 4)]
        if b:
            edges.append((base - 1, base))
    return 4 * links, edges


BLOSSOM_CASES = {
    "bridged_triangles": (6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
    "petersen": (10, petersen_edges()),
    "k4_chain_1": _k4_chain(1),
    "k4_chain_3": _k4_chain(3),
    "k4_chain_7": _k4_chain(7),
    # a triangle hanging off each end of an odd path
    "triangle_path_triangle": (9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                                   (5, 6), (6, 7), (7, 8), (6, 8)]),
}


class TestMatchingAgainstNetworkx:
    """The greedy start must not change the size: it is unique, and the
    augmenting search is exact from any starting matching."""

    @pytest.mark.parametrize("name", sorted(BLOSSOM_CASES))
    def test_blossom_cases(self, name):
        n, edges = BLOSSOM_CASES[name]
        adj = adjacency(n, edges)
        assert matching_size(n, adj) == _nx_matching_size(n, edges)
        _assert_valid_matching(maximum_matching(n, adj), adj)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cubic(self, seed):
        H = nx.random_regular_graph(3, 20 + 10 * seed, seed=seed)
        n, edges = H.number_of_nodes(), list(H.edges())
        adj = adjacency(n, edges)
        assert matching_size(n, adj) == _nx_matching_size(n, edges)
        _assert_valid_matching(maximum_matching(n, adj), adj)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_vertex_order_does_not_matter(self, order):
        # relabeling changes the greedy start, never the size
        n, edges = _k4_chain(5)
        if order == "reversed":
            edges = [(n - 1 - u, n - 1 - v) for u, v in edges]
        assert matching_size(n, adjacency(n, edges)) == n // 2


def _assert_valid_matching(match, adj):
    for v, m in enumerate(match):
        if m != -1:
            assert match[m] == v
            assert m in adj[v]


def _bipartite_cases(rng, kind):
    """Connected bipartite components with weights of the given kind:
    random bipartite graphs, grids and hypercubes."""
    cases = []
    for _ in range(40):
        a, b = (int(x) for x in rng.integers(1, 20, size=2))
        H = nx.bipartite.random_graph(a, b, float(rng.uniform(0.05, 0.5)),
                                      seed=int(rng.integers(2**31)))
        cases.extend(H.subgraph(c).copy() for c in nx.connected_components(H) if len(c) > 1)
    for rows, cols in ((2, 2), (3, 7), (12, 12), (20, 13), (30, 30)):
        cases.append(nx.grid_2d_graph(rows, cols))
    for dim in range(1, 8):
        cases.append(nx.hypercube_graph(dim))
    out = []
    for H in cases:
        H = nx.convert_node_labels_to_integers(H, ordering="sorted")
        verts = list(H)
        if kind == "uniform":
            w = {v: 1.0 / len(verts) for v in verts}
        elif kind == "small_ints":
            w = {v: float(rng.integers(1, 4)) for v in verts}
        else:
            w = {v: float(rng.uniform(0.25, 1.0)) for v in verts}
        out.append((verts, {v: sorted(H[v]) for v in verts}, w))
    return out


class TestBipartiteFlow:
    """The compact flow returns the reference Dinic's exact list: every
    maximum flow leaves the same vertices reachable from the source."""

    @pytest.mark.parametrize("kind", ["uniform", "small_ints", "quarter_to_one"])
    def test_identical_to_reference(self, rng, kind):
        for verts, adj, w in _bipartite_cases(rng, kind):
            color = two_coloring(adj.__getitem__, verts)
            got = _bipartite_mwis(verts, adj, w, color)
            assert got == reference_bipartite_mwis(verts, adj, w, color)

    def test_workload_grid_weights(self, rng):
        # the 12x12 grid with weights within a factor 4, as the partition
        # estimators see it whole
        adj = adjacency(144, gen_grid(12, 12).edge_list())
        verts = list(range(144))
        for _ in range(5):
            lw = rng.uniform(-math.log(2.0), math.log(2.0), size=144)
            p = np.exp(lw) / np.exp(lw).sum()
            w = p.tolist()
            color = two_coloring(adj.__getitem__, verts)
            got = _bipartite_mwis(verts, adj, w, color)
            assert got == reference_bipartite_mwis(verts, adj, w, color)
            assert got == component_mwis(verts, adj, w)

    def test_output_follows_verts_order(self):
        # the list keeps the caller's order, not the left-then-right order
        adj = adjacency(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        verts = [3, 1, 2, 0]
        w = {0: 1.0, 1: 2.0, 2: 1.0, 3: 2.0}
        color = two_coloring(adj.__getitem__, verts)
        assert _bipartite_mwis(verts, adj, w, color) == [3, 1]


class TestComponentDispatch:
    def test_edgeless(self):
        G = build_graph([], [0.0] * 5, d=2, K=1.0)
        S, val = exact_weighted_mis(G)
        assert S == frozenset(range(5))
        assert val == pytest.approx(1.0)

    def test_even_cycle(self):
        S, val = exact_weighted_mis(gen_cycle(8))
        assert val == pytest.approx(0.5)
        assert is_independent(gen_cycle(8), S)

    def test_odd_cycle(self):
        S, val = exact_weighted_mis(gen_cycle(5))
        assert val == pytest.approx(2 / 5)

    def test_weighted_path_prefers_heavy_middle(self, weighted_p3):
        S, val = exact_weighted_mis(weighted_p3)
        assert S == frozenset({0, 2})
        assert val == pytest.approx(0.8)

    def test_heavy_center_star(self):
        # center weight exceeds the leaf total, so the DP must take it
        lw = [math.log(8), 0.0, 0.0, 0.0]
        G = build_graph([(0, 1), (0, 2), (0, 3)], lw, d=3, K=8.0)
        S, val = exact_weighted_mis(G)
        assert S == frozenset({0})
        assert val == pytest.approx(8 / 11)

    def test_grid_bipartite_route(self):
        G = gen_grid(12, 12)
        S, val = exact_weighted_mis(G)
        assert val == pytest.approx(0.5)
        assert is_independent(G, S)

    def test_petersen_branch_route(self):
        G = build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0)
        S, val = exact_weighted_mis(G)
        assert val == pytest.approx(0.4)
        assert is_independent(G, S)

    def test_girth8_graph_and_double_cover(self):
        G = build_graph(GIRTH8_CUBIC_EDGES, [0.0] * GIRTH8_CUBIC_N, d=3, K=1.0)
        S, val = exact_weighted_mis(G)
        assert val == pytest.approx(18 / 40)
        n = GIRTH8_CUBIC_N
        cover_edges = []
        for u, v in GIRTH8_CUBIC_EDGES:
            cover_edges.append((u, n + v))
            cover_edges.append((v, n + u))
        H = build_graph(sorted(cover_edges), [0.0] * (2 * n), d=3, K=1.0)
        S2, val2 = exact_weighted_mis(H)
        assert val2 == pytest.approx(0.5)

    def test_disjoint_triangles(self):
        S, val = exact_weighted_mis(gen_disjoint_triangles(5))
        assert val == pytest.approx(1 / 3)

    def test_too_large_nonbipartite(self):
        # 3 * 17 = 51 vertices of disjoint triangles form one 51-vertex
        # component once chained; exceed the branch cap with an expander-ish
        # graph instead: odd cycle with chords on 46 vertices
        n = 46
        edges = [(i, (i + 1) % n) for i in range(n)] + [
            (i, (i + 2) % n) for i in range(0, n, 2)
        ]
        G = build_graph(sorted(set(edges)), [0.0] * n, d=4, K=1.0)
        with pytest.raises(TooLarge):
            exact_weighted_mis(G)


class TestAgainstExhaustive:
    def test_random_small_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 13))
            G = random_bounded_graph(rng, n, 3, 3.0, edge_factor=1.4)
            adj, w = _adj_and_weights(G)
            S, val = exact_weighted_mis(G)
            ref = exhaustive_mwis(list(range(n)), adj, w)
            ref_val = sum(w[v] for v in ref)
            assert val == pytest.approx(ref_val, abs=1e-9)
            assert is_independent(G, S)

    def test_forced_branch_route(self, rng):
        # petersen plus noise weights exercises _branch_mwis specifically
        for trial in range(10):
            lw = rng.uniform(0.0, math.log(3.0), size=10).tolist()
            G = build_graph(petersen_edges(), lw, d=3, K=3.0)
            adj, w = _adj_and_weights(G)
            got = _branch_mwis(list(range(10)), adj, w)
            ref = exhaustive_mwis(list(range(10)), adj, w)
            assert sum(w[v] for v in got) == pytest.approx(sum(w[v] for v in ref))

    def test_forest_dp(self, rng):
        from helpers import random_tree

        for _ in range(10):
            n = 14
            edges = random_tree(rng, n)
            lw = rng.uniform(0.0, 1.0, size=n).tolist()
            G = build_graph(edges, lw, d=6, K=math.e)
            adj, w = _adj_and_weights(G)
            got = _forest_mwis(list(range(n)), adj, w)
            ref = exhaustive_mwis(list(range(n)), adj, w)
            assert sum(w[v] for v in got) == pytest.approx(sum(w[v] for v in ref))
            assert is_independent(G, got)

    def test_cycle_dp(self, rng):
        for n in (3, 4, 7, 12):
            lw = rng.uniform(0.0, 1.0, size=n).tolist()
            G = gen_cycle(n)
            G = build_graph(G.edge_list(), lw, d=2, K=math.e)
            adj, w = _adj_and_weights(G)
            got = _cycle_mwis(list(range(n)), adj, w)
            ref = exhaustive_mwis(list(range(n)), adj, w)
            assert sum(w[v] for v in got) == pytest.approx(sum(w[v] for v in ref))
            assert is_independent(G, got)

    def test_bipartite_mincut(self, rng):
        for _ in range(10):
            G = random_bounded_graph(rng, 14, 3, 2.0, edge_factor=1.1)
            adj, w = _adj_and_weights(G)
            for comp in _comp_list(G):
                color = two_coloring(adj.__getitem__, comp)
                if color is None or len(comp) < 3:
                    continue
                got = _bipartite_mwis(comp, adj, w, color)
                ref = exhaustive_mwis(comp, adj, w)
                got_val = sum(w[v] for v in got)
                ref_val = sum(w[v] for v in ref)
                assert got_val == pytest.approx(ref_val, abs=1e-9)

    def test_component_mwis_mixed(self, rng):
        for _ in range(20):
            G = random_bounded_graph(rng, 10, 4, 2.0, edge_factor=1.6)
            adj, w = _adj_and_weights(G)
            for comp in _comp_list(G):
                got = component_mwis(comp, adj, w)
                ref = exhaustive_mwis(comp, adj, w)
                assert sum(w[v] for v in got) == pytest.approx(
                    sum(w[v] for v in ref), abs=1e-9
                )


# Tie-pinned corpus.  With weights in {1.0, 2.0} most instances have several
# optima, so these lists fix which one each solver returns, and in which
# order.  Computed with the solvers as they stood when the corpus was added.
def _tie_graphs():
    graphs = {}
    for n in list(range(3, 13)) + [45, 121]:
        graphs[f"C{n}"] = adjacency(n, [(v, (v + 1) % n) for v in range(n)])
    for n in (2, 5, 8, 13):
        graphs[f"P{n}"] = adjacency(n, [(v, v + 1) for v in range(n - 1)])
    graphs["petersen"] = adjacency(10, petersen_edges())
    graphs["girth8"] = adjacency(GIRTH8_CUBIC_N, GIRTH8_CUBIC_EDGES)
    return graphs


TIE_GRAPHS = _tie_graphs()
TIE_WEIGHTS = {
    "ones": lambda v: 1.0,
    "mixed": lambda v: 2.0 if (v * 7 + 3) % 5 < 2 else 1.0,
}
TIE_SOLVERS = {
    "component_mwis": component_mwis,
    "_cycle_mwis": _cycle_mwis,
    "_branch_mwis": _branch_mwis,
}
TIE_PINNED = {
    ("component_mwis", "C3", "ones"): [1],
    ("_cycle_mwis", "C3", "ones"): [1],
    ("_branch_mwis", "C3", "ones"): [1],
    ("component_mwis", "C3", "mixed"): [1],
    ("_cycle_mwis", "C3", "mixed"): [1],
    ("_branch_mwis", "C3", "mixed"): [1],
    ("component_mwis", "C4", "ones"): [3, 1],
    ("_cycle_mwis", "C4", "ones"): [3, 1],
    ("_branch_mwis", "C4", "ones"): [1, 3],
    ("component_mwis", "C4", "mixed"): [3, 1],
    ("_cycle_mwis", "C4", "mixed"): [3, 1],
    ("_branch_mwis", "C4", "mixed"): [1, 3],
    ("component_mwis", "C5", "ones"): [3, 1],
    ("_cycle_mwis", "C5", "ones"): [3, 1],
    ("_branch_mwis", "C5", "ones"): [1, 3],
    ("component_mwis", "C5", "mixed"): [4, 1],
    ("_cycle_mwis", "C5", "mixed"): [4, 1],
    ("_branch_mwis", "C5", "mixed"): [1, 4],
    ("component_mwis", "C6", "ones"): [5, 3, 1],
    ("_cycle_mwis", "C6", "ones"): [5, 3, 1],
    ("_branch_mwis", "C6", "ones"): [1, 3, 5],
    ("component_mwis", "C6", "mixed"): [4, 1],
    ("_cycle_mwis", "C6", "mixed"): [4, 1],
    ("_branch_mwis", "C6", "mixed"): [1, 4],
    ("component_mwis", "C7", "ones"): [5, 3, 1],
    ("_cycle_mwis", "C7", "ones"): [5, 3, 1],
    ("_branch_mwis", "C7", "ones"): [1, 3, 5],
    ("component_mwis", "C7", "mixed"): [6, 4, 1],
    ("_cycle_mwis", "C7", "mixed"): [6, 4, 1],
    ("_branch_mwis", "C7", "mixed"): [1, 4, 6],
    ("component_mwis", "C8", "ones"): [7, 5, 3, 1],
    ("_cycle_mwis", "C8", "ones"): [7, 5, 3, 1],
    ("_branch_mwis", "C8", "ones"): [1, 3, 5, 7],
    ("component_mwis", "C8", "mixed"): [6, 4, 1],
    ("_cycle_mwis", "C8", "mixed"): [6, 4, 1],
    ("_branch_mwis", "C8", "mixed"): [1, 4, 6],
    ("component_mwis", "C9", "ones"): [7, 5, 3, 1],
    ("_cycle_mwis", "C9", "ones"): [7, 5, 3, 1],
    ("_branch_mwis", "C9", "ones"): [1, 3, 5, 7],
    ("component_mwis", "C9", "mixed"): [8, 6, 4, 1],
    ("_cycle_mwis", "C9", "mixed"): [8, 6, 4, 1],
    ("_branch_mwis", "C9", "mixed"): [1, 4, 6, 8],
    ("component_mwis", "C10", "ones"): [9, 7, 5, 3, 1],
    ("_cycle_mwis", "C10", "ones"): [9, 7, 5, 3, 1],
    ("_branch_mwis", "C10", "ones"): [1, 3, 5, 7, 9],
    ("component_mwis", "C10", "mixed"): [9, 6, 4, 1],
    ("_cycle_mwis", "C10", "mixed"): [9, 6, 4, 1],
    ("_branch_mwis", "C10", "mixed"): [1, 4, 6, 9],
    ("component_mwis", "C11", "ones"): [9, 7, 5, 3, 1],
    ("_cycle_mwis", "C11", "ones"): [9, 7, 5, 3, 1],
    ("_branch_mwis", "C11", "ones"): [1, 3, 5, 7, 9],
    ("component_mwis", "C11", "mixed"): [9, 6, 4, 1],
    ("_cycle_mwis", "C11", "mixed"): [9, 6, 4, 1],
    ("_branch_mwis", "C11", "mixed"): [1, 4, 6, 9],
    ("component_mwis", "C12", "ones"): [11, 9, 7, 5, 3, 1],
    ("_cycle_mwis", "C12", "ones"): [11, 9, 7, 5, 3, 1],
    ("_branch_mwis", "C12", "ones"): [1, 3, 5, 7, 9, 11],
    ("component_mwis", "C12", "mixed"): [11, 9, 6, 4, 1],
    ("_cycle_mwis", "C12", "mixed"): [11, 9, 6, 4, 1],
    ("_branch_mwis", "C12", "mixed"): [1, 4, 6, 9, 11],
    ("component_mwis", "C45", "ones"): [
        43, 41, 39, 37, 35, 33, 31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9,
        7, 5, 3, 1,
    ],
    ("_cycle_mwis", "C45", "ones"): [
        43, 41, 39, 37, 35, 33, 31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9,
        7, 5, 3, 1,
    ],
    ("_branch_mwis", "C45", "ones"): [
        1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37,
        39, 41, 43,
    ],
    ("component_mwis", "C45", "mixed"): [
        44, 41, 39, 36, 34, 31, 29, 26, 24, 21, 19, 16, 14, 11, 9, 6, 4, 1,
    ],
    ("_cycle_mwis", "C45", "mixed"): [
        44, 41, 39, 36, 34, 31, 29, 26, 24, 21, 19, 16, 14, 11, 9, 6, 4, 1,
    ],
    ("_branch_mwis", "C45", "mixed"): [
        1, 4, 6, 9, 11, 14, 16, 19, 21, 24, 26, 29, 31, 34, 36, 39, 41, 44,
    ],
    ("component_mwis", "C121", "ones"): [
        119, 117, 115, 113, 111, 109, 107, 105, 103, 101, 99, 97, 95, 93, 91,
        89, 87, 85, 83, 81, 79, 77, 75, 73, 71, 69, 67, 65, 63, 61, 59, 57, 55,
        53, 51, 49, 47, 45, 43, 41, 39, 37, 35, 33, 31, 29, 27, 25, 23, 21, 19,
        17, 15, 13, 11, 9, 7, 5, 3, 1,
    ],
    ("_cycle_mwis", "C121", "ones"): [
        119, 117, 115, 113, 111, 109, 107, 105, 103, 101, 99, 97, 95, 93, 91,
        89, 87, 85, 83, 81, 79, 77, 75, 73, 71, 69, 67, 65, 63, 61, 59, 57, 55,
        53, 51, 49, 47, 45, 43, 41, 39, 37, 35, 33, 31, 29, 27, 25, 23, 21, 19,
        17, 15, 13, 11, 9, 7, 5, 3, 1,
    ],
    ("component_mwis", "C121", "mixed"): [
        119, 116, 114, 111, 109, 106, 104, 101, 99, 96, 94, 91, 89, 86, 84, 81,
        79, 76, 74, 71, 69, 66, 64, 61, 59, 56, 54, 51, 49, 46, 44, 41, 39, 36,
        34, 31, 29, 26, 24, 21, 19, 16, 14, 11, 9, 6, 4, 1,
    ],
    ("_cycle_mwis", "C121", "mixed"): [
        119, 116, 114, 111, 109, 106, 104, 101, 99, 96, 94, 91, 89, 86, 84, 81,
        79, 76, 74, 71, 69, 66, 64, 61, 59, 56, 54, 51, 49, 46, 44, 41, 39, 36,
        34, 31, 29, 26, 24, 21, 19, 16, 14, 11, 9, 6, 4, 1,
    ],
    ("component_mwis", "P2", "ones"): [1],
    ("_branch_mwis", "P2", "ones"): [0],
    ("component_mwis", "P2", "mixed"): [1],
    ("_branch_mwis", "P2", "mixed"): [1],
    ("component_mwis", "P5", "ones"): [0, 2, 4],
    ("_branch_mwis", "P5", "ones"): [0, 2, 4],
    ("component_mwis", "P5", "mixed"): [1, 4],
    ("_branch_mwis", "P5", "mixed"): [1, 4],
    ("component_mwis", "P8", "ones"): [1, 3, 5, 7],
    ("_branch_mwis", "P8", "ones"): [0, 2, 4, 6],
    ("component_mwis", "P8", "mixed"): [1, 4, 6],
    ("_branch_mwis", "P8", "mixed"): [1, 4, 6],
    ("component_mwis", "P13", "ones"): [0, 2, 4, 6, 8, 10, 12],
    ("_branch_mwis", "P13", "ones"): [0, 2, 4, 6, 8, 10, 12],
    ("component_mwis", "P13", "mixed"): [1, 4, 6, 9, 11],
    ("_branch_mwis", "P13", "mixed"): [1, 4, 6, 9, 11],
    ("component_mwis", "petersen", "ones"): [0, 3, 6, 7],
    ("_branch_mwis", "petersen", "ones"): [0, 3, 6, 7],
    ("component_mwis", "petersen", "mixed"): [2, 4, 5, 6],
    ("_branch_mwis", "petersen", "mixed"): [2, 4, 5, 6],
    ("component_mwis", "girth8", "ones"): [
        0, 1, 3, 4, 7, 9, 11, 12, 13, 15, 17, 18, 23, 24, 30, 34, 35, 39,
    ],
    ("_branch_mwis", "girth8", "ones"): [
        0, 1, 3, 4, 7, 9, 11, 12, 13, 15, 17, 18, 23, 24, 30, 34, 35, 39,
    ],
    ("component_mwis", "girth8", "mixed"): [
        0, 1, 3, 4, 7, 9, 11, 15, 17, 18, 19, 21, 23, 24, 31, 34, 39,
    ],
    ("_branch_mwis", "girth8", "mixed"): [
        0, 1, 3, 4, 7, 9, 11, 15, 17, 18, 19, 21, 23, 24, 31, 34, 39,
    ],
}


@pytest.mark.parametrize("solver,graph,weights", sorted(TIE_PINNED))
def test_tied_weights_pinned(solver, graph, weights):
    adj = TIE_GRAPHS[graph]
    verts = list(range(len(adj)))
    w = {v: TIE_WEIGHTS[weights](v) for v in verts}
    assert TIE_SOLVERS[solver](verts, adj, w) == TIE_PINNED[solver, graph, weights]


@pytest.mark.parametrize(
    "G,chosen,value",
    [
        (gen_cycle(21), list(range(1, 21, 2)), "0x1.e79e79e79e79ep-2"),
        (gen_grid(4, 5), list(range(1, 20, 2)), "0x1.0000000000000p-1"),
    ],
    ids=["cycle21", "grid4x5"],
)
def test_exact_weighted_mis_uniform_pinned(G, chosen, value):
    S, val = exact_weighted_mis(G)
    assert sorted(S) == chosen
    assert val.hex() == value


def _comp_list(G):
    from rnlab.graphs import components

    return [sorted(c) for c in components(G)]


class TestHelpers:
    def test_is_independent(self, c6_uniform):
        assert is_independent(c6_uniform, {0, 2, 4})
        assert not is_independent(c6_uniform, {0, 1})
        assert is_independent(c6_uniform, set())
