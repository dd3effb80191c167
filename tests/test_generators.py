import math

import numpy as np
import pytest

from rnlab import (
    GeneratorSpec,
    GraphError,
    InvalidSize,
    LayeredBinaryTree,
    WeightedGraph,
    algebraic_connectivity,
    build_from_spec,
    build_graph,
    canonicalize,
    extract_ball,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_orbit_tree,
    gen_path,
    gen_perturbed_union,
    gen_random_regular,
    gen_theta_graph,
    ratio,
)
from helpers import gen_layered_weights, same_graph

LN2 = math.log(2.0)


class TestBinaryTree:
    def test_beta_zero_uniform(self):
        G = gen_binary_tree(3, 0.0)
        assert G.n == 7
        assert np.allclose(G.probabilities, [1 / 7] * 7)

    def test_critical_layer_masses(self):
        for depth in (4, 9, 14):
            T = gen_binary_tree(depth, LN2, representation="implicit")
            assert np.allclose(T.layer_masses, [1 / depth] * depth, atol=1e-12)

    def test_supercritical_top_heavy(self):
        T = gen_binary_tree(20, 2 * LN2, representation="implicit")
        assert float(T.layer_masses[:6].sum()) > 0.9

    def test_representation_switch(self):
        assert isinstance(gen_binary_tree(5, 0.1), WeightedGraph)
        assert isinstance(gen_binary_tree(30, 0.1), LayeredBinaryTree)
        assert isinstance(
            gen_binary_tree(5, 0.1, representation="implicit"), LayeredBinaryTree
        )
        with pytest.raises(ValueError):
            gen_binary_tree(5, 0.1, representation="sideways")

    def test_invalid_depth(self):
        with pytest.raises(InvalidSize):
            gen_binary_tree(0, 0.5)

    def test_recorded_K_is_minimal(self):
        G = gen_binary_tree(6, 0.7)
        assert math.isclose(G.K, math.exp(0.7))


class TestOrbitTree:
    def test_depth_one_star(self):
        G = gen_orbit_tree(1)
        assert G.n == 4
        ratios = sorted(ratio(G, 0, v) for v in G.neighbors(0))
        assert np.allclose(ratios, [0.5, 0.5, 2.0])

    def test_every_internal_vertex_sees_one_heavy_neighbor(self):
        G = gen_orbit_tree(4)
        for v in range(G.n):
            nbrs = list(G.neighbors(v))
            if len(nbrs) < 3:
                continue
            rs = sorted(ratio(G, v, int(u)) for u in nbrs)
            assert np.allclose(rs, [0.5, 0.5, 2.0])

    def test_three_regular_inside(self):
        G = gen_orbit_tree(3)
        interior = [v for v in range(G.n) if len(G.neighbors(v)) == 3]
        assert len(interior) >= 4
        assert all(len(G.neighbors(v)) in (1, 3) for v in range(G.n))

    def test_interior_ball_matches_critical_tree(self):
        orbit = gen_orbit_tree(3)
        target = canonicalize(extract_ball(orbit, 0, 2, 2))
        tree = gen_binary_tree(9, LN2)
        # a mid-layer vertex: depth 4 of 9
        mid = 2**4 - 1 + 3
        got = canonicalize(extract_ball(tree, mid, 2, 2))
        assert got == target

    def test_K_is_two(self):
        assert gen_orbit_tree(2).K == 2.0


class TestSimplefamilies:
    def test_path(self):
        G = gen_path(5)
        assert G.n == 5 and G.edge_count == 4
        assert len(G.neighbors(0)) == 1 and len(G.neighbors(2)) == 2

    def test_cycle(self):
        G = gen_cycle(6)
        assert G.edge_count == 6
        assert all(len(G.neighbors(v)) == 2 for v in range(6))

    def test_grid(self):
        G = gen_grid(3, 4)
        assert G.n == 12
        assert G.edge_count == 3 * 3 + 2 * 4
        assert G.d == 4

    def test_disjoint_triangles(self):
        G = gen_disjoint_triangles(4)
        assert G.n == 12 and G.edge_count == 12

    def test_theta_graph(self):
        G = gen_theta_graph((2, 3, 4))
        degs = sorted(len(G.neighbors(v)) for v in range(G.n))
        assert degs[-1] == 3 and degs[-2] == 3
        assert sum(1 for d in degs if d == 3) == 2


class TestRandomRegular:
    def test_reproducible(self):
        a = gen_random_regular(20, 3, seed=5)
        b = gen_random_regular(20, 3, seed=5)
        assert same_graph(a, b)

    def test_different_seed_differs(self):
        a = gen_random_regular(20, 3, seed=5)
        b = gen_random_regular(20, 3, seed=6)
        assert not same_graph(a, b)

    def test_degrees(self):
        G = gen_random_regular(16, 3, seed=1)
        assert all(len(G.neighbors(v)) == 3 for v in range(16))

    def test_spectral_gap_enforced(self):
        G = gen_random_regular(24, 3, seed=2)
        assert algebraic_connectivity(G) > 0.1

    def test_odd_product_rejected(self):
        with pytest.raises(InvalidSize):
            gen_random_regular(7, 3, seed=0)


class TestPerturbedUnion:
    def test_structure(self):
        G = gen_perturbed_union(4, seed=3)
        assert G.n == 16 + 4
        path_part = range(16)
        cross = [
            (u, v)
            for u, v in G.edge_list()
            if (u in path_part) != (v in path_part)
        ]
        assert len(cross) == 1

    def test_uniform_mass(self):
        n = 10
        G = gen_perturbed_union(n, profile="uniform", seed=0)
        dense = range(n * n, n * n + n)
        mass = float(sum(G.p(v) for v in dense))
        assert math.isclose(mass, n / (n * n + n))

    def test_adversarial_half_mass(self):
        n = 10
        G = gen_perturbed_union(n, profile="adversarial", seed=0)
        dense = range(n * n, n * n + n)
        assert math.isclose(sum(G.p(v) for v in dense), 0.5, abs_tol=1e-12)
        assert G.K == float(n)

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            gen_perturbed_union(3)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            gen_perturbed_union(6, profile="spooky")


class TestLayeredWeights:
    def test_exp_beta_zero_uniform(self):
        G = gen_layered_weights(gen_path(5), 0, "exp_beta", beta=0.0)
        assert np.allclose(G.probabilities, [0.2] * 5)

    def test_inverse_sphere_on_path_uniform(self):
        G = gen_layered_weights(gen_path(8), 0, "inverse_sphere")
        assert np.allclose(G.probabilities, [1 / 8] * 8)

    def test_exp_beta_matches_tree_generator(self):
        base = gen_binary_tree(6, 0.0)
        relayered = gen_layered_weights(base, 0, "exp_beta", beta=LN2)
        direct = gen_binary_tree(6, LN2)
        assert same_graph(relayered, direct)
        assert np.allclose(relayered.log_weights, direct.log_weights)
        assert math.isclose(relayered.K, direct.K)

    def test_inverse_sphere_masses(self):
        # on a binary tree, inverse-sphere weights put equal mass on layers
        G = gen_layered_weights(gen_binary_tree(4, 0.7), 0, "inverse_sphere")
        p = G.probabilities
        layers = [p[0], p[1:3].sum(), p[3:7].sum(), p[7:].sum()]
        assert np.allclose(layers, [0.25] * 4)

    def test_disconnected_rejected(self):
        G = gen_disjoint_triangles(2, d=3)
        with pytest.raises(GraphError, match="reachable"):
            gen_layered_weights(G, 0, "inverse_sphere")


class TestGeneratorSpec:
    def test_build_binary_tree(self):
        spec = GeneratorSpec(family="binary_tree", params={"depth": 4, "beta": LN2})
        G = build_from_spec(spec)
        assert G.n == 15

    def test_build_random_regular_spec_seed(self):
        spec = GeneratorSpec(family="random_regular", params={"n": 14, "d": 3}, seed=9)
        a, b = build_from_spec(spec), build_from_spec(spec)
        assert same_graph(a, b)

    def test_unknown_family(self):
        with pytest.raises(Exception):
            build_from_spec(GeneratorSpec(family="klein_bottle", params={}))

    def test_every_family_passes_validation(self):
        specs = [
            GeneratorSpec("binary_tree", {"depth": 5, "beta": 0.4}),
            GeneratorSpec("path", {"n": 9}),
            GeneratorSpec("cycle", {"n": 9}),
            GeneratorSpec("grid", {"rows": 3, "cols": 5}),
            GeneratorSpec("random_regular", {"n": 12, "d": 3}, seed=4),
            GeneratorSpec("perturbed_union", {"n": 6}, seed=4),
            GeneratorSpec("orbit_tree", {"depth": 3}),
            GeneratorSpec("disjoint_triangles", {"k": 3}),
            GeneratorSpec("theta", {"arms": [2, 3, 3]}),
        ]
        for spec in specs:
            G = build_from_spec(spec)
            # rebuilding through the validator must accept generator output
            H = build_graph(G.edge_list(), list(G.log_weights), d=G.d, K=G.K)
            assert same_graph(H, G)
