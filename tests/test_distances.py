import itertools
import math
from fractions import Fraction

import pytest

from rnlab import (
    GraphError,
    PropertySpec,
    SizeMismatch,
    TooLarge,
    UnsupportedProperty,
    VertexSetMismatch,
    absolute_distance,
    absolute_distance_grid_check,
    build_graph,
    distance_to_property,
    edit_distance_uniform,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    holds_on,
    is_member,
    n_epsilon_cycles,
    weighted_edit_distance,
)
from helpers import (
    brute_force_min_deletion,
    brute_force_min_mass_deletion,
    petersen_edges,
    random_bounded_graph,
)

FOREST = PropertySpec.forest()
BIPARTITE = PropertySpec.bipartite()
TRIANGLE_FREE = PropertySpec.h_free(3, [(0, 1), (1, 2), (0, 2)])


class TestMembership:
    def test_forest(self):
        assert is_member(gen_path(5), FOREST)
        assert not is_member(gen_cycle(5), FOREST)
        assert not is_member(gen_disjoint_triangles(2), FOREST)

    def test_bipartite(self):
        assert is_member(gen_cycle(6), BIPARTITE)
        assert not is_member(gen_cycle(5), BIPARTITE)
        assert is_member(gen_grid(3, 3), BIPARTITE)
        petersen = build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0)
        assert not is_member(petersen, BIPARTITE)

    def test_h_free(self):
        assert is_member(gen_cycle(7), TRIANGLE_FREE)
        assert not is_member(gen_disjoint_triangles(1), TRIANGLE_FREE)
        p3_free = PropertySpec.h_free(3, [(0, 1), (1, 2)])
        star = build_graph([(0, 1), (0, 2), (0, 3)], [0.0] * 4, d=3, K=1.0)
        assert not is_member(star, p3_free)

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1), (2, 2)], "forbidden edge 2-2 is a self-loop"),
        (3, [(0, 5)], "forbidden edge 0-5 has an endpoint outside 0..2"),
        (3, [(-1, 2)], "forbidden edge -1-2 has an endpoint outside 0..2"),
        (-1, [], "the forbidden graph needs a vertex count of at least 0, got -1"),
    ])
    def test_h_free_rejects_edges_outside_a_simple_graph(self, n, edges, message):
        with pytest.raises(ValueError) as e:
            PropertySpec.h_free(n, edges)
        assert str(e.value) == message

    def test_k_colorable(self):
        assert is_member(gen_cycle(5), PropertySpec.k_colorable(3))
        assert not is_member(gen_cycle(5), PropertySpec.k_colorable(2))
        k4 = build_graph(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [0.0] * 4, d=3, K=1.0
        )
        assert not is_member(k4, PropertySpec.k_colorable(3))
        assert is_member(k4, PropertySpec.k_colorable(4))

    def test_unknown_property(self):
        with pytest.raises(UnsupportedProperty):
            holds_on(PropertySpec(id="planar"), 3, [])


class TestUniformEditDistance:
    def test_triangle_vs_path(self):
        tri = gen_disjoint_triangles(1)
        p3 = gen_path(3)
        assert edit_distance_uniform(tri, p3) == pytest.approx(1 / 6)

    def test_cycle_vs_path(self):
        assert edit_distance_uniform(gen_cycle(4), gen_path(4)) == pytest.approx(1 / 8)

    def test_isomorphic_is_zero(self):
        a = build_graph([(0, 1), (1, 2), (2, 3)], [0.0] * 4, d=2, K=1.0)
        b = build_graph([(2, 0), (0, 3), (3, 1)], [0.0] * 4, d=2, K=1.0)
        assert edit_distance_uniform(a, b) == 0.0

    def test_cycle_vs_matching(self):
        matching = build_graph([(0, 2), (1, 3)], [0.0] * 4, d=2, K=1.0)
        assert edit_distance_uniform(gen_cycle(4), matching) == pytest.approx(1 / 4)

    def test_symmetry(self):
        a, b = gen_cycle(5), gen_path(5)
        assert edit_distance_uniform(a, b) == edit_distance_uniform(b, a)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            edit_distance_uniform(gen_path(4), gen_path(5))
        with pytest.raises(SizeMismatch):
            edit_distance_uniform(gen_path(4), gen_path(4, d=3))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            edit_distance_uniform(gen_cycle(10), gen_path(10))


class TestWeightedEditDistance:
    def test_same_graph(self, c6_uniform):
        assert weighted_edit_distance(c6_uniform, c6_uniform) == 0.0

    def test_one_deleted_edge(self):
        c4 = gen_cycle(4)
        p4 = build_graph([(0, 1), (1, 2), (2, 3)], [0.0] * 4, d=2, K=1.0)
        assert weighted_edit_distance(c4, p4) == pytest.approx(0.5)

    def test_disjoint_edge_sets(self):
        a = build_graph([(0, 1)], [0.0] * 3, d=2, K=1.0)
        b = build_graph([(1, 2)], [0.0] * 3, d=2, K=1.0)
        assert weighted_edit_distance(a, b) == pytest.approx(4 / 3)

    def test_each_side_uses_its_own_masses(self, weighted_p3):
        bare = build_graph([(1, 2)], list(weighted_p3.log_weights), d=2, K=3.0)
        # only edge (0,1) differs and it belongs to the weighted graph
        assert weighted_edit_distance(weighted_p3, bare) == pytest.approx(0.7)

    def test_symmetry(self, rng):
        for _ in range(10):
            G = random_bounded_graph(rng, 8, 3, 2.0)
            H = random_bounded_graph(rng, 8, 3, 2.0)
            assert weighted_edit_distance(G, H) == pytest.approx(
                weighted_edit_distance(H, G)
            )

    def test_vertex_set_mismatch(self):
        with pytest.raises(VertexSetMismatch):
            weighted_edit_distance(gen_path(3), gen_path(4))


class TestDistanceToProperty:
    def test_cycle_to_forest(self):
        for n in range(3, 13):
            assert distance_to_property(gen_cycle(n), FOREST) == pytest.approx(2 / n)

    def test_forest_witness_is_lightest_edge(self):
        lw = [0.0, 0.0, -2.0, -2.0, 0.0, 0.0]
        G = build_graph([(i, (i + 1) % 6) for i in range(6)], lw, d=2, K=math.e**2)
        dist, witness = distance_to_property(G, FOREST, return_witness=True)
        assert witness == ((2, 3),)
        assert dist == pytest.approx(G.p(2) + G.p(3))

    def test_member_distance_zero(self):
        dist, witness = distance_to_property(gen_path(7), FOREST, return_witness=True)
        assert dist == 0.0 and witness == ()
        assert distance_to_property(gen_cycle(6), BIPARTITE) == 0.0

    def test_odd_cycle_to_bipartite(self):
        assert distance_to_property(gen_cycle(5), BIPARTITE) == pytest.approx(2 / 5)

    def test_triangles_to_bipartite(self):
        G = gen_disjoint_triangles(2)
        assert distance_to_property(G, BIPARTITE) == pytest.approx(2 / 3)

    def test_k4_to_triangle_free(self):
        k4 = build_graph(
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [0.0] * 4, d=3, K=1.0
        )
        # removing a perfect matching leaves a 4-cycle
        assert distance_to_property(k4, TRIANGLE_FREE) == pytest.approx(1.0)

    def test_two_colorable_agrees_with_bipartite(self, rng):
        two_col = PropertySpec.k_colorable(2)
        for _ in range(8):
            G = random_bounded_graph(rng, 8, 3, 2.0, edge_factor=1.1)
            assert distance_to_property(G, two_col) == pytest.approx(
                distance_to_property(G, BIPARTITE)
            )

    def test_uniform_matches_min_cardinality(self, rng):
        for _ in range(8):
            G = random_bounded_graph(rng, 9, 3, 1.0, uniform=True, edge_factor=1.3)
            for P in (FOREST, BIPARTITE):
                drop = brute_force_min_deletion(
                    G.n, G.edge_list(), lambda n, e: holds_on(P, n, e)
                )
                assert distance_to_property(G, P) == pytest.approx(
                    len(drop) * 2 / G.n
                )

    def test_weighted_matches_subset_search(self, rng):
        for _ in range(6):
            G = random_bounded_graph(rng, 7, 3, 3.0, edge_factor=1.3)
            for P in (FOREST, BIPARTITE, TRIANGLE_FREE):
                best, _ = brute_force_min_mass_deletion(
                    G, lambda n, e: holds_on(P, n, e)
                )
                assert distance_to_property(G, P) == pytest.approx(best)

    def test_too_many_edges(self):
        with pytest.raises(TooLarge):
            distance_to_property(gen_cycle(30), BIPARTITE)

    def test_forest_route_has_no_edge_cap(self):
        assert distance_to_property(gen_cycle(200), FOREST) == pytest.approx(0.01)

    def test_unsupported(self):
        with pytest.raises(UnsupportedProperty):
            distance_to_property(gen_path(3), PropertySpec(id="planar"))


class TestAbsoluteDistance:
    def test_cycles_exact(self):
        for n in range(3, 11):
            value, p = absolute_distance(gen_cycle(n), FOREST, 3, exact=True)
            assert value == Fraction(2, n)
            assert sum(p) == 1

    def test_member_is_zero(self):
        value, p = absolute_distance(gen_path(6), FOREST, 2, exact=True)
        assert value == 0

    def test_odd_cycle_bipartite(self):
        assert absolute_distance(gen_cycle(5), BIPARTITE, 2) == pytest.approx(0.4)

    def test_skew_beats_uniform_when_allowed(self):
        # triangle with a pendant: pushing mass off the pendant raises the
        # cheapest triangle edge from 1/2 (uniform) to 8/13 at K = 4
        G = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)], [0.0] * 4, d=3, K=4.0)
        v1, _ = absolute_distance(G, FOREST, 1, exact=True)
        v4, p = absolute_distance(G, FOREST, 4, exact=True)
        assert v1 == Fraction(1, 2)
        assert v4 == Fraction(8, 13)
        assert p == [Fraction(4, 13)] * 3 + [Fraction(1, 13)]

    def test_monotone_in_K(self):
        G = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)], [0.0] * 4, d=3, K=8.0)
        vals = [absolute_distance(G, FOREST, K) for K in (1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_grid_check_agrees_on_divisible_steps(self):
        for n in range(3, 7):
            G = gen_cycle(n)
            lp = absolute_distance(G, FOREST, 2)
            grid = absolute_distance_grid_check(G, FOREST, 2, steps=2 * n)
            assert abs(lp - grid) < 1e-9

    @staticmethod
    def _fraction_grid_check(G, P, K, steps):
        """The grid check by its definition: Fraction probabilities i/steps
        on every vertex, the ratio bound checked on them, and the cheapest
        edge deletion found among all edge subsets."""
        edges = G.edge_list()
        feasible = [
            drop
            for k in range(len(edges) + 1)
            for drop in itertools.combinations(edges, k)
            if holds_on(P, G.n, [e for e in edges if e not in drop])
        ]
        Kf = Fraction(K)
        best = Fraction(0)
        for parts in itertools.product(range(steps + 1), repeat=G.n):
            if sum(parts) != steps:
                continue
            p = [Fraction(a, steps) for a in parts]
            if any(p[u] > Kf * p[v] or p[v] > Kf * p[u] for u, v in edges):
                continue
            best = max(best, min(sum(p[u] + p[v] for u, v in drop) for drop in feasible))
        return float(best)

    def test_grid_check_matches_fraction_definition(self):
        pendant = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)], [0.0] * 4, d=3, K=4.0)
        cases = [(gen_cycle(3), 6), (gen_cycle(4), 8), (gen_cycle(5), 7), (pendant, 9), (gen_path(4), 5)]
        for G, steps in cases:
            for P in (FOREST, BIPARTITE):
                for K in (1.0, 1.5, 2, 2.7, 4):
                    expected = self._fraction_grid_check(G, P, K, steps)
                    assert absolute_distance_grid_check(G, P, K, steps) == expected

    def test_grid_check_is_lower_bound(self):
        G = build_graph([(0, 1), (1, 2), (0, 2), (0, 3)], [0.0] * 4, d=3, K=4.0)
        lp = absolute_distance(G, FOREST, 4)
        for steps in (5, 9, 13):
            assert absolute_distance_grid_check(G, FOREST, 4, steps) <= lp + 1e-12

    def test_too_many_edges(self):
        with pytest.raises(TooLarge):
            absolute_distance(gen_cycle(17), FOREST, 2)

    def test_unsupported(self):
        with pytest.raises(UnsupportedProperty):
            absolute_distance(gen_path(3), PropertySpec(id="planar"), 2)

    @pytest.mark.parametrize("K, message", [
        (math.nan, "ratio bound must be finite, got nan"),
        (math.inf, "ratio bound must be finite, got inf"),
        (0.5, "ratio bound must be at least 1, got 0.5"),
        (-1, "ratio bound must be at least 1, got -1"),
    ])
    def test_ratio_bound_below_one_or_not_finite(self, K, message):
        # a path holds the property, so no LP would have looked at K
        for G in (gen_cycle(5), gen_path(3)):
            with pytest.raises(GraphError, match=f"^{message}$"):
                absolute_distance(G, FOREST, K)
            with pytest.raises(GraphError, match=f"^{message}$"):
                absolute_distance_grid_check(G, FOREST, K, steps=4)


class TestEpsilonCycles:
    def test_values(self):
        assert n_epsilon_cycles(0.2) == 10
        assert n_epsilon_cycles(0.3) == 7
        assert n_epsilon_cycles(1.0) == 2
        assert n_epsilon_cycles(0.05) == 40

    def test_exact_ratio_boundary(self):
        assert n_epsilon_cycles(2 / 7) == 7

    def test_defining_property(self):
        eps = 0.25
        n = n_epsilon_cycles(eps)
        assert absolute_distance(gen_cycle(n), FOREST, 2) <= eps + 1e-12
        assert absolute_distance(gen_cycle(n - 1), FOREST, 2) > eps
