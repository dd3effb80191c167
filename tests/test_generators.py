import math

import numpy as np
import pytest

from rnlab import (
    GraphError,
    InvalidSize,
    LayeredBinaryTree,
    UnsupportedFamily,
    WeightedGraph,
    algebraic_connectivity,
    build_from_spec,
    build_graph,
    build_uniform_cover,
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
    verify_uniform_cover,
)
from helpers import (
    gen_layered_weights,
    reference_algebraic_connectivity,
    reference_grid,
    reference_grid_covers,
    reference_perturbed_union,
    reference_random_regular,
    same_graph,
)
from rnlab.partitions import UniformCoverCertificate

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
    """build_from_spec(family, params, seed), the family table the CLI's
    gen command reads."""

    def test_build_binary_tree(self):
        G = build_from_spec("binary_tree", {"depth": 4, "beta": LN2}, seed=0)
        assert G.n == 15

    def test_build_random_regular_spec_seed(self):
        a, b = (build_from_spec("random_regular", {"n": 14, "d": 3}, seed=9) for _ in range(2))
        assert same_graph(a, b)

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="unknown generator family 'klein_bottle'"):
            build_from_spec("klein_bottle", {}, seed=0)

    def test_every_family_passes_validation(self):
        specs = [
            ("binary_tree", {"depth": 5, "beta": 0.4}),
            ("path", {"n": 9}),
            ("cycle", {"n": 9}),
            ("grid", {"rows": 3, "cols": 5}),
            ("random_regular", {"n": 12, "d": 3}),
            ("perturbed_union", {"n": 6}),
            ("orbit_tree", {"depth": 3}),
            ("disjoint_triangles", {"k": 3}),
            ("theta", {"arms": [2, 3, 3]}),
        ]
        for family, params in specs:
            G = build_from_spec(family, params, seed=4)
            # rebuilding through the validator must accept generator output
            H = build_graph(G.edge_list(), list(G.log_weights), d=G.d, K=G.K)
            assert same_graph(H, G)

    @pytest.mark.parametrize("family, params, message", [
        ("binary_tree", {}, "GraphError: family 'binary_tree' needs parameter 'depth'"),
        ("binary_tree", {"depth": "x"},
         "GraphError: bad parameter for family 'binary_tree': invalid literal for int() with base 10: 'x'"),
        ("binary_tree", {"depth": 0}, "InvalidSize: depth must be positive, got 0"),
        ("binary_tree", {"depth": 3, "beta": "b"},
         "GraphError: bad parameter for family 'binary_tree': could not convert string to float: 'b'"),
        ("binary_tree", {"depth": 3, "representation": "bogus"},
         "GraphError: bad parameter for family 'binary_tree': unknown representation 'bogus'"),
        ("orbit_tree", {"depth": None},
         "GraphError: bad parameter for family 'orbit_tree': int() argument must be a string, "
         "a bytes-like object or a real number, not 'NoneType'"),
        ("path", {"n": 3, "d": 0}, "GraphError: degree bound must be positive, got 0"),
        ("path", {"n": math.inf},
         "GraphError: bad parameter for family 'path': cannot convert float infinity to integer"),
        ("path", {"n": math.nan},
         "GraphError: bad parameter for family 'path': cannot convert float NaN to integer"),
        ("cycle", {"n": 5, "d": 1}, "DegreeExceeded: vertex 0 has degree 2 > d=1"),
        ("grid", {"rows": 2}, "GraphError: family 'grid' needs parameter 'cols'"),
        ("grid", {"rows": 0, "cols": 3}, "InvalidSize: grid needs positive dimensions, got 0x3"),
        ("random_regular", {"n": 3, "d": 4},
         "InvalidSize: regular degree 4 needs more than 3 vertices"),
        ("random_regular", {"n": 40, "d": 2},
         "GraphError: no 2-regular graph on 40 vertices with spectral gap > 0.1 found in 300 tries"),
        ("perturbed_union", {"n": 5, "profile": "weird"},
         "InvalidSize: n*d must be even, got n=5, d=3"),
        ("perturbed_union", {"n": 6, "profile": "weird"},
         "GraphError: bad parameter for family 'perturbed_union': unknown profile 'weird'"),
        ("disjoint_triangles", {"k": 0}, "InvalidSize: need at least 1 triangle, got 0"),
        ("theta", {"arms": [0, 2]}, "InvalidSize: theta arms need at least one edge segment"),
        ("theta", {"arms": ["a"]},
         "GraphError: bad parameter for family 'theta': invalid literal for int() with base 10: 'a'"),
        ("theta", {"arms": [1, 1]}, "DuplicateEdge: edge (0, 1) appears twice"),
        # a bool or a fraction is refused, not read as 0, 1 or truncated
        ("path", {"n": 3.9}, "GraphError: bad parameter for family 'path': expected an integer, got 3.9"),
        ("path", {"n": True}, "GraphError: bad parameter for family 'path': expected an integer, got True"),
        ("cycle", {"n": 5, "d": 2.5},
         "GraphError: bad parameter for family 'cycle': expected an integer, got 2.5"),
        ("theta", {"arms": [2, 3, 0.5]},
         "GraphError: bad parameter for family 'theta': expected an integer, got 0.5"),
    ])
    def test_error_texts(self, family, params, message):
        with pytest.raises(GraphError) as e:
            build_from_spec(family, params, seed=3)
        assert f"{type(e.value).__name__}: {e.value}" == message

    def test_integral_floats_and_digit_strings_read_as_ints(self):
        for n in (4, 4.0, "4"):
            assert same_graph(build_from_spec("path", {"n": n}, seed=0), gen_path(4))


def _same_arrays(G, H):
    """G and H hold equal CSR arrays, log-weights, bounds and orbit labels."""
    assert np.array_equal(G._indptr, H._indptr)
    assert np.array_equal(G._indices, H._indices)
    assert np.array_equal(G.log_weights, H.log_weights)
    assert (G.d, G.K) == (H.d, H.K)
    assert (G._orbit_labels is None) == (H._orbit_labels is None)
    if G._orbit_labels is not None:
        assert np.array_equal(G._orbit_labels, H._orbit_labels)


def _outcome(make, *args):
    """make(*args), or the type and text of the GraphError it raises."""
    try:
        return make(*args)
    except GraphError as e:
        return type(e), str(e)


class TestSameGraphsAsTheLoops:
    """The generators that build through index arrays give the graphs, the
    draws and the errors of the per-edge loops kept in helpers.py."""

    # a connected 2-regular graph is a cycle, whose spectral gap is below 0.1
    # past 19 vertices, so every larger d = 2 case spends all its tries
    @pytest.mark.parametrize("d, sizes", [
        (2, [*range(1, 13), 15, 19, 20]),
        (3, [*range(1, 13), 15, 19, 20, 33, 64, 100]),
        (4, [*range(1, 13), 15, 19, 20, 25, 33, 64, 100]),
    ])
    def test_random_regular(self, d, sizes):
        errors = 0
        for n in sizes:
            for seed in range(15):
                got = _outcome(gen_random_regular, n, d, seed)
                want = _outcome(reference_random_regular, n, d, seed)
                if isinstance(want, tuple):
                    errors += 1
                    assert got == want, (n, d, seed)
                else:
                    _same_arrays(got, want)
                    assert algebraic_connectivity(got) == reference_algebraic_connectivity(want)
        assert errors > 0

    def test_grid(self):
        for rows in range(1, 12):
            for cols in range(1, 12):
                _same_arrays(gen_grid(rows, cols), reference_grid(rows, cols))

    @pytest.mark.parametrize("profile", ["uniform", "adversarial"])
    def test_perturbed_union(self, profile):
        for n in (4, 6, 10):
            for seed in range(3):
                _same_arrays(gen_perturbed_union(n, profile, seed),
                             reference_perturbed_union(n, profile, seed))

    def test_grid_covers(self):
        for rows in range(2, 10):
            for cols in range(2, 10):
                G = gen_grid(rows, cols)
                for epsilon in (0.3, 0.5, 0.7, 0.9):
                    m = math.ceil(2.0 / epsilon - 1e-9)
                    want = reference_grid_covers(rows, cols, m)
                    try:
                        cert = build_uniform_cover(G, epsilon, grid_dims=(rows, cols))
                    except UnsupportedFamily:
                        cert = UniformCoverCertificate(want, epsilon, (m - 1) * (m - 1))
                        assert not verify_uniform_cover(G, cert)
                        continue
                    assert cert.covers == want
                    assert cert.component_bound == (m - 1) * (m - 1)
