import math
from collections import Counter

import numpy as np
import pytest

from helpers import (
    count_neighbor_list_builds,
    random_bounded_graph,
    reweighted,
    scalar_find_weighted_partition,
)
from rnlab import (
    PartitionCertificate,
    PartitionInfeasible,
    UniformCoverCertificate,
    UnsupportedFamily,
    build_graph,
    build_uniform_cover,
    find_weighted_partition,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    gen_random_regular,
    gen_perturbed_union,
    removed_mass,
    verify_uniform_cover,
    verify_weighted_partition,
)

LN2 = math.log(2.0)


class TestVerifyWeightedPartition:
    def test_every_tenth_vertex_on_c100(self):
        G = gen_cycle(100)
        removed = frozenset(range(9, 100, 10))
        cert = PartitionCertificate(removed=removed, epsilon=0.1, component_bound=9)
        assert verify_weighted_partition(G, cert)

    def test_mass_budget_is_checked(self):
        G = gen_cycle(100)
        removed = frozenset(range(9, 100, 10))
        cert = PartitionCertificate(removed=removed, epsilon=0.05, component_bound=9)
        assert not verify_weighted_partition(G, cert)

    def test_component_bound_is_checked(self):
        G = gen_cycle(100)
        removed = frozenset(range(9, 100, 10))
        cert = PartitionCertificate(removed=removed, epsilon=0.1, component_bound=8)
        assert not verify_weighted_partition(G, cert)

    def test_verifier_ignores_claimed_sizes(self):
        # the sizes field is advisory; verification recomputes components
        G = gen_path(10)
        cert = PartitionCertificate(
            removed=frozenset(), epsilon=0.5, component_bound=10,
            component_sizes=(1, 1, 1),
        )
        assert verify_weighted_partition(G, cert)

    def test_vertices_outside_the_graph_fail(self):
        G = gen_path(10)
        # -1 must not stand in for vertex 9, which would cut {5..9} to size 4
        wraps = PartitionCertificate(removed=frozenset({4, -1}), epsilon=0.25, component_bound=4)
        assert not verify_weighted_partition(G, wraps)
        beyond = PartitionCertificate(removed=frozenset({4, 10}), epsilon=0.25, component_bound=5)
        assert not verify_weighted_partition(G, beyond)
        cover = UniformCoverCertificate(
            covers=(frozenset({2, 5, 8}), frozenset({0, 3, 6, -1})), epsilon=0.75, component_bound=2
        )
        assert not verify_uniform_cover(G, cover)

    def test_weighted_mass(self, weighted_p3):
        cert = PartitionCertificate(
            removed=frozenset({0}), epsilon=0.5, component_bound=2
        )
        assert verify_weighted_partition(weighted_p3, cert)
        tight = PartitionCertificate(
            removed=frozenset({0}), epsilon=0.49, component_bound=2
        )
        assert not verify_weighted_partition(weighted_p3, tight)

    def test_removed_mass_helper(self, weighted_p3):
        assert removed_mass(weighted_p3, [0, 2]) == pytest.approx(0.8)
        assert removed_mass(weighted_p3, []) == 0.0


class TestFindWeightedPartition:
    def test_uniform_path_default_hint(self):
        G = gen_path(200)
        cert = find_weighted_partition(G, 0.1)
        assert verify_weighted_partition(G, cert)
        assert cert.component_bound <= 10

    def test_cycle_needs_double_hint(self):
        G = gen_cycle(200)
        with pytest.raises(PartitionInfeasible):
            find_weighted_partition(G, 0.1)
        cert = find_weighted_partition(G, 0.1, K_target=21)
        assert verify_weighted_partition(G, cert)

    def test_critical_tree(self):
        G = gen_binary_tree(10, LN2)
        cert = find_weighted_partition(G, 0.2, K_target=40)
        assert verify_weighted_partition(G, cert)
        assert removed_mass(G, cert.removed) <= 0.2

    def test_grid_quadratic_hint(self):
        G = gen_grid(20, 20)
        cert = find_weighted_partition(G, 0.3, K_target=120)
        assert verify_weighted_partition(G, cert)

    def test_small_components_exhaust_without_cuts(self):
        G = gen_disjoint_triangles(4)
        cert = find_weighted_partition(G, 0.5, K_target=3)
        assert cert.removed == frozenset()
        assert cert.component_bound == 3
        assert verify_weighted_partition(G, cert)

    def test_single_vertex(self):
        G = build_graph([], [0.0], d=2, K=1.0)
        cert = find_weighted_partition(G, 0.5)
        assert cert.removed == frozenset() and cert.component_bound == 1

    def test_expander_part_resists_small_regions(self):
        G = gen_perturbed_union(16, profile="adversarial", seed=0)
        with pytest.raises(PartitionInfeasible):
            find_weighted_partition(G, 0.05, K_target=10)

    def test_adversarial_union_default_hint_infeasible(self):
        G = gen_perturbed_union(32, profile="adversarial", seed=0)
        with pytest.raises(PartitionInfeasible):
            find_weighted_partition(G, 0.05)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            find_weighted_partition(gen_path(5), 0.0)
        with pytest.raises(ValueError):
            find_weighted_partition(gen_path(5), 1.5)

    def test_certificate_serializes(self):
        G = gen_path(50)
        cert = find_weighted_partition(G, 0.2)
        obj = cert.to_json_dict()
        assert obj["removed"] == sorted(cert.removed)
        assert obj["component_bound"] == cert.component_bound


def _tied_graph():
    """A path of 30, a cycle of 12 and a binary tree of 15 vertices on three
    weight levels, so each component has several vertices of top weight."""
    edges = [(i, i + 1) for i in range(29)]
    edges += [(30 + i, 30 + (i + 1) % 12) for i in range(12)]
    edges += [(42 + v, 42 + 2 * v + c) for v in range(7) for c in (1, 2)]
    lw = [LN2 / 2 * ((i * i + i // 4) % 3) for i in range(57)]
    return build_graph(edges, lw, d=3, K=2.0)


class TestTiedWeightCertificates:
    """Certificates pinned on tied weights: the entry of each component is
    its first heaviest vertex in scan order, and changing that tie-break
    changes these certificates."""

    @pytest.mark.parametrize(
        "epsilon, K_target, removed, sizes",
        [
            (0.15, 20, [20], (9, 12, 15, 20)),
            (0.25, 10, [10, 20, 34, 36, 45, 46], (1, 1, 1, 1, 1, 9, 9, 9, 9, 10)),
            (0.25, 12, [12, 24, 45, 46], (1, 1, 1, 1, 5, 9, 11, 12, 12)),
            (0.3, 30, [], (12, 15, 30)),
        ],
    )
    def test_pinned(self, epsilon, K_target, removed, sizes):
        G = _tied_graph()
        cert = find_weighted_partition(G, epsilon, K_target)
        assert sorted(cert.removed) == removed
        assert cert.component_sizes == sizes
        assert cert.component_bound == max(sizes)
        assert verify_weighted_partition(G, cert)

    def test_pinned_infeasible(self):
        with pytest.raises(PartitionInfeasible):
            find_weighted_partition(_tied_graph(), 0.4, 8)


def _outcome(find, G, epsilon, K_target):
    try:
        return find(G, epsilon, K_target)
    except PartitionInfeasible as e:
        return ("infeasible", str(e))


def _agreed_outcome(G, epsilon, K_target):
    """find_weighted_partition against the scalar reference, which calls
    G.neighbors once per visit and sums numpy masses per layer: the same
    certificate or the same PartitionInfeasible text."""
    new = _outcome(find_weighted_partition, G, epsilon, K_target)
    assert new == _outcome(scalar_find_weighted_partition, G, epsilon, K_target)
    return new


class TestAgainstScalarReference:
    def test_random_bounded_graphs(self):
        rng = np.random.default_rng(20261018)
        kinds = Counter()
        for i in range(2000):
            n = int(rng.integers(1, 48))
            d = int(rng.integers(2, 5))
            # sparse draws leave several components
            G = random_bounded_graph(rng, n, d, K=2.0, edge_factor=float(rng.uniform(0.2, 1.3)))
            if i % 2:
                # up to three weight levels: many vertices tie for heaviest
                levels = rng.integers(0, int(rng.integers(1, 4)), size=n)
                G = build_graph(G.edge_list(), (levels * (LN2 / 2)).tolist(), d=d, K=2.0)
            epsilon = float(rng.uniform(0.02, 0.9))
            K_target = None if i % 10 == 0 else int(rng.integers(1, n + 2))
            out = _agreed_outcome(G, epsilon, K_target)
            if isinstance(out, tuple):
                kinds["infeasible"] += 1
            else:
                kinds["cut" if out.removed else "whole"] += 1
                assert verify_weighted_partition(G, out)
        # every branch is exercised many times
        assert min(kinds["infeasible"], kinds["cut"], kinds["whole"]) >= 200, kinds

    @pytest.mark.parametrize("representation", ["implicit", "explicit"])
    def test_trees(self, representation):
        rng = np.random.default_rng(7)
        for depth in (1, 2, 4, 7, 9):
            for beta in (0.0, 0.4, LN2, 2 * LN2):
                T = gen_binary_tree(depth, beta, representation=representation)
                for _ in range(6):
                    epsilon = float(rng.uniform(0.03, 0.8))
                    _agreed_outcome(T, epsilon, int(rng.integers(1, T.n + 2)))

    def test_paths_cycles_and_grids(self):
        rng = np.random.default_rng(3)
        graphs = [gen_path(n) for n in (1, 2, 5, 40, 200)]
        graphs += [gen_cycle(n) for n in (3, 8, 121)]
        graphs += [gen_grid(r, c) for r, c in ((1, 6), (4, 4), (12, 12))]
        graphs += [reweighted(G, rng, 4.0) for G in graphs if G.n > 1]
        graphs += [gen_random_regular(60, 3, seed=1), gen_perturbed_union(16, profile="adversarial", seed=0)]
        for G in graphs:
            for _ in range(8):
                epsilon = float(rng.uniform(0.03, 0.8))
                _agreed_outcome(G, epsilon, int(rng.integers(1, 2 * G.n + 2)))
            _agreed_outcome(G, 0.1, None)


class TestUniformCover:
    def test_one_adjacency_per_call(self):
        for G in (gen_cycle(200), gen_path(150)):
            builds = count_neighbor_list_builds(G)
            cert = build_uniform_cover(G, 0.05)
            # the construction's scans and its verifier's share one build
            assert len(builds) == 1
            assert verify_uniform_cover(G, cert)
            assert len(builds) == 1

    def test_path_shifts(self):
        G = gen_path(40)
        cert = build_uniform_cover(G, 0.5)
        assert len(cert.covers) == 4
        assert verify_uniform_cover(G, cert)
        assert len(set(cert.covers)) == len(cert.covers)

    def test_cycle_shifts(self):
        G = gen_cycle(30)
        cert = build_uniform_cover(G, 0.4)
        assert len(cert.covers) == 5
        assert verify_uniform_cover(G, cert)
        assert cert.component_bound <= 4

    def test_grid_two_axis_shifts(self):
        G = gen_grid(20, 20)
        cert = build_uniform_cover(G, 0.3, grid_dims=(20, 20))
        assert len(cert.covers) == 49
        assert verify_uniform_cover(G, cert)
        assert cert.component_bound <= 36

    def test_single_vertex(self):
        G = build_graph([], [0.0], d=2, K=1.0)
        cert = build_uniform_cover(G, 0.3)
        assert len(cert.covers) == 1
        assert verify_uniform_cover(G, cert)

    def test_unsupported_families(self):
        star = build_graph([(0, 1), (0, 2), (0, 3)], [0.0] * 4, d=3, K=1.0)
        with pytest.raises(UnsupportedFamily):
            build_uniform_cover(star, 0.5)
        with pytest.raises(UnsupportedFamily):
            build_uniform_cover(gen_disjoint_triangles(2), 0.5)
        with pytest.raises(UnsupportedFamily):
            build_uniform_cover(gen_grid(4, 5), 0.5, grid_dims=(5, 5))

    def test_verifier_rejects_oversized_cover(self):
        G = gen_path(10)
        cert = UniformCoverCertificate(
            covers=(frozenset(range(10)),), epsilon=0.5, component_bound=10
        )
        assert not verify_uniform_cover(G, cert)

    def test_verifier_rejects_frequent_coverage(self):
        G = gen_path(20)
        cov = frozenset(range(0, 20, 4))
        cert = UniformCoverCertificate(
            covers=(cov, cov, cov), epsilon=0.5, component_bound=3
        )
        assert not verify_uniform_cover(G, cert)

    def test_verifier_rejects_empty_certificate(self):
        cert = UniformCoverCertificate(covers=(), epsilon=0.5, component_bound=1)
        assert not verify_uniform_cover(gen_path(4), cert)

    def test_cover_serializes(self):
        G = gen_cycle(12)
        cert = build_uniform_cover(G, 0.5)
        obj = cert.to_json_dict()
        assert len(obj["covers"]) == len(cert.covers)
