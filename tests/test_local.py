import math

import numpy as np
import pytest

from rnlab import (
    GraphError,
    LocalRule,
    PartitionInfeasible,
    RuleIncomplete,
    TooLarge,
    build_graph,
    canonicalize_decorated,
    draw_vertex_bits,
    estimate_matching,
    exact_stats,
    exact_weighted_mis,
    extract_ball_with_map,
    gen_binary_tree,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_regular,
    independent_set_estimate,
    is_independent,
    local_independent_set,
    rank_rule,
    run_local_rule,
    table_rule,
    tv,
)
from rnlab import partitions
from helpers import (
    GIRTH8_CUBIC_EDGES,
    GIRTH8_CUBIC_N,
    count_neighbor_list_builds,
    exact_matching,
    random_bounded_graph,
    reference_bound_ladder,
    reference_estimate_matching,
    reference_independent_set_estimate,
    reference_vertex_bits,
    scalar_find_weighted_partition,
)

LN2 = math.log(2.0)


class TestVertexBits:
    def test_deterministic(self):
        assert draw_vertex_bits(20, 16, seed=7) == draw_vertex_bits(20, 16, seed=7)

    def test_seed_changes_bits(self):
        assert draw_vertex_bits(20, 16, seed=7) != draw_vertex_bits(20, 16, seed=8)

    def test_bit_width(self):
        for b in draw_vertex_bits(100, 5, seed=0):
            assert 0 <= b < 32

    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1, 2**64 + 5, 2**127 + 11])
    @pytest.mark.parametrize("k", [1, 32, 64])
    def test_matches_numpy_keyed_streams(self, seed, k):
        assert draw_vertex_bits(70, k, seed) == reference_vertex_bits(70, k, seed)

    @pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 2])
    def test_high_seeds_keep_their_low_bits(self, seed):
        # keys used to pass through float64 here, so these pairs drew the same bits
        assert draw_vertex_bits(4, 64, seed) != draw_vertex_bits(4, 64, seed + 1)

    def test_per_vertex_streams_are_stable(self):
        # vertex v's bits do not depend on how many other vertices exist
        short = draw_vertex_bits(5, 32, seed=3)
        long = draw_vertex_bits(50, 32, seed=3)
        assert long[:5] == short


class TestRankRule:
    def test_output_independent(self):
        rule = rank_rule()
        for G in (gen_cycle(6), gen_path(9), gen_grid(4, 4)):
            for seed in range(5):
                S = run_local_rule(G, rule, t=2, seed=seed)
                assert is_independent(G, S)
                assert len(S) > 0

    def test_deterministic_in_seed(self, c6_uniform):
        rule = rank_rule()
        a = run_local_rule(c6_uniform, rule, t=2, seed=11)
        b = run_local_rule(c6_uniform, rule, t=2, seed=11)
        assert a == b

    def test_explicit_bits_pick_local_maxima(self, c6_uniform):
        rule = rank_rule()
        bits = [5, 1, 3, 0, 4, 2]
        S = run_local_rule(c6_uniform, rule, t=2, seed=0, bits=bits)
        # 5 beats neighbors 1 and 2; 4 beats 0 and 2; 3 beats 1 and 0
        assert S == frozenset({0, 2, 4})

    def test_anonymity_under_relabeling(self, rng):
        # apply a vertex permutation to graph and bits; members must map along
        rule = rank_rule()
        G = random_bounded_graph(rng, 14, 3, 2.0, edge_factor=1.3)
        bits = draw_vertex_bits(G.n, 32, seed=5)
        perm = [int(v) for v in rng.permutation(G.n)]
        edges_p = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in G.edge_list()
        )
        lw_p = [0.0] * G.n
        bits_p = [0] * G.n
        for v in range(G.n):
            lw_p[perm[v]] = float(G.log_weights[v])
            bits_p[perm[v]] = bits[v]
        H = build_graph(edges_p, lw_p, d=G.d, K=G.K)
        S_G = run_local_rule(G, rule, t=2, seed=0, bits=bits)
        S_H = run_local_rule(H, rule, t=2, seed=0, bits=bits_p)
        assert S_H == frozenset(perm[v] for v in S_G)


class TestTableRule:
    def test_manual_built_from_graph(self, c6_uniform):
        # record the rank rule's decisions, then replay them from the table
        base = rank_rule()
        bits = draw_vertex_bits(c6_uniform.n, 32, seed=9)
        table = {}
        for v in range(c6_uniform.n):
            ball, vmap = extract_ball_with_map(c6_uniform, v, 1, 2)
            dec = canonicalize_decorated(ball, [bits[u] for u in vmap])
            table[dec.key] = base.decide(dec)
        replay = table_rule(1, 32, table)
        assert run_local_rule(c6_uniform, replay, t=2, seed=0, bits=bits) == \
            run_local_rule(c6_uniform, base, t=2, seed=0, bits=bits)

    def test_unknown_ball_is_an_error(self, p3_uniform):
        empty = table_rule(1, 1, {})
        with pytest.raises(RuleIncomplete):
            run_local_rule(p3_uniform, empty, t=2, seed=0)

    def test_rule_record_fields(self):
        rule = rank_rule(radius=2, bits_per_vertex=8)
        assert isinstance(rule, LocalRule)
        assert rule.radius == 2 and rule.bits_per_vertex == 8


class TestLocalIndependentSet:
    def test_single_vertex(self):
        G = build_graph([], [0.0], d=2, K=1.0)
        S, val = local_independent_set(G, 0.5)
        assert S == frozenset({0}) and val == 1.0

    def test_path_exact_at_final_rung(self):
        G = gen_path(4)
        S, val = local_independent_set(G, 0.3)
        assert val == pytest.approx(0.5)
        assert is_independent(G, S)

    def test_heavy_star(self):
        lw = [math.log(6.0), 0.0, 0.0, 0.0, 0.0]
        G = build_graph([(0, i) for i in range(1, 5)], lw, d=4, K=6.0)
        S, val = local_independent_set(G, 0.2)
        assert S == frozenset({0})
        assert val == pytest.approx(0.6)

    def test_cycle(self):
        G = gen_cycle(12)
        S, val = local_independent_set(G, 0.25)
        assert val == pytest.approx(0.5)

    def test_error_bound_on_random_instances(self, rng):
        eps = 0.2
        for _ in range(10):
            G = random_bounded_graph(rng, 36, 3, 2.0, edge_factor=1.2)
            S, val = local_independent_set(G, eps, seed=3)
            _, exact = exact_weighted_mis(G)
            assert val <= exact + 1e-9
            assert val >= exact - eps / 2 - 1e-9
            assert is_independent(G, S)

    def test_expander_falls_back_with_warning(self):
        G = gen_random_regular(60, 3, seed=1)
        with pytest.warns(UserWarning, match="greedy"):
            S, val = local_independent_set(G, 0.3, seed=2)
        assert is_independent(G, S)
        assert val > 0.0


class TestOneAdjacencyPerEstimate:
    """Every partition, component scan and solve of an estimate, and of the
    estimates after it, reads the graph's one set of neighbor lists."""

    def test_independent_set_on_a_grid(self):
        G = gen_grid(12, 12)
        expected = local_independent_set(gen_grid(12, 12), 0.05)
        builds = count_neighbor_list_builds(G)
        assert local_independent_set(G, 0.05) == expected
        assert local_independent_set(G, 0.05) == expected
        assert len(builds) == 1

    def test_matching_on_a_cycle(self):
        G = gen_cycle(121)
        expected = estimate_matching(gen_cycle(121), 0.1)
        builds = count_neighbor_list_builds(G)
        assert estimate_matching(G, 0.1) == expected
        assert estimate_matching(G, 0.1) == expected
        assert len(builds) == 1


class TestEstimateMatching:
    def test_single_edge(self):
        assert estimate_matching(gen_path(2), 0.5) == 0.5

    def test_long_path(self):
        est = estimate_matching(gen_path(50), 0.2)
        assert est <= 0.5 + 1e-12
        assert est >= 0.5 - 0.1 - 1e-9

    def test_grid(self):
        est = estimate_matching(gen_grid(10, 10), 0.5)
        assert est <= 0.5 + 1e-12
        assert est >= 0.5 - 0.25 - 1e-9

    def test_long_cycle(self):
        est = estimate_matching(gen_cycle(1000), 0.1)
        assert est <= 0.5 + 1e-12
        assert est >= 0.5 - 0.05 - 1e-9

    def test_estimates_never_exceed_truth(self, rng):
        for _ in range(8):
            G = random_bounded_graph(rng, 30, 3, 1.0, uniform=True)
            est = estimate_matching(G, 0.4)
            assert est <= exact_matching(G) + 1e-12

    def test_rejects_weighted_graphs(self, weighted_p3):
        with pytest.raises(GraphError):
            estimate_matching(weighted_p3, 0.2)

    def test_implicit_tree_matches_its_materialization(self):
        T = gen_binary_tree(7, 0.0, representation="implicit")
        assert estimate_matching(T, 0.3) == estimate_matching(T.materialize(), 0.3)
        assert estimate_matching(T, 0.3) == 0.33070866141732286

    def test_rejects_weighted_implicit_tree(self):
        T = gen_binary_tree(7, 0.5, representation="implicit")
        with pytest.raises(GraphError, match="^matching estimation expects uniform weights$"):
            estimate_matching(T, 0.3)

    def test_deep_implicit_tree_fails_fast(self, monkeypatch):
        # the weight check reads one vertex per layer, not 2^100 - 1 vertices;
        # the partition plan then cannot list the masses, and that failure
        # ends the estimate before any component bound is tried
        bounds = count_partition_bounds(monkeypatch)
        T = gen_binary_tree(100, 0.0, representation="implicit")
        with pytest.raises(TooLarge, match=r"^refusing to list 2\^100 - 1 vertex masses$"):
            estimate_matching(T, 0.3)
        with pytest.raises(TooLarge, match=r"^refusing to list 2\^100 - 1 vertex masses$"):
            independent_set_estimate(T, 0.3)
        assert bounds == []

    def test_no_usable_bound_names_the_last_failure(self):
        # the last bound is n = 210: the partition exists there, but its one
        # component is past the matching solver's 200-vertex cap
        G = gen_random_regular(210, 3, seed=1)
        with pytest.raises(PartitionInfeasible) as e:
            estimate_matching(G, 0.3)
        assert str(e.value) == (
            "no usable partition at any component bound: "
            "matching solver limited to 200 vertices"
        )


@pytest.mark.parametrize("epsilon", [0.0, -1.0, 1.0, 1.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "estimator", [local_independent_set, independent_set_estimate, estimate_matching]
)
def test_epsilon_outside_the_unit_interval_is_rejected(estimator, epsilon, monkeypatch):
    """Before any component bound is tried: below 0 or at infinity the
    bound ladder would never end, at 0 it would divide by zero, and at 1 or
    more it would claim a guarantee the partition cannot give."""
    bounds = count_partition_bounds(monkeypatch)
    with pytest.raises(ValueError) as e:
        estimator(gen_grid(12, 9), epsilon)
    assert type(e.value) is ValueError and str(e.value) == "epsilon must lie in (0, 1)"
    assert bounds == []


def count_partition_bounds(monkeypatch) -> list:
    """The component bound of every partition a plan is asked for, in order,
    recorded through a wrapper on the plan class."""
    bounds = []
    certificate = partitions._Plan.certificate

    def counted(plan, K_target):
        bounds.append(K_target)
        return certificate(plan, K_target)

    monkeypatch.setattr(partitions._Plan, "certificate", counted)
    return bounds


def test_bound_ladder_tries_each_bound_once_on_one_plan(monkeypatch):
    # a 20-vertex cycle at epsilon 0.3: bound 7 fails, 14 fails, the whole
    # graph removes nothing, and one plan serves all three
    plans = []
    bounds = count_partition_bounds(monkeypatch)
    init = partitions._Plan.__init__

    def made(plan, *args):
        plans.append(plan)
        init(plan, *args)

    monkeypatch.setattr(partitions._Plan, "__init__", made)
    assert estimate_matching(gen_cycle(20), 0.3) == 0.5
    assert bounds == [7, 14, 20] and len(plans) == 1


def _outcome(fn, *args):
    """What fn returns, or the text of the PartitionInfeasible it raises."""
    try:
        return fn(*args)
    except PartitionInfeasible as e:
        return ("infeasible", str(e))


def _joined(G, H):
    """The disjoint union of G and H, H's vertices numbered after G's."""
    edges = G.edge_list() + [(u + G.n, v + G.n) for u, v in H.edge_list()]
    lw = [G.log_weight(v) for v in range(G.n)] + [H.log_weight(v) for v in range(H.n)]
    return build_graph(edges, lw, d=max(G.d, H.d), K=max(G.K, H.K))


def _ladder_corpus(rng):
    """Weighted paths, cycles, heap trees, grids and cubic graphs with
    weights within K, some with tied weights, and disjoint unions of them."""
    def weights(n, K):
        if rng.integers(2):
            # up to three weight levels: many vertices tie for heaviest
            return (rng.integers(0, 3, size=n) * (math.log(K) / 2)).tolist()
        return rng.uniform(0.0, math.log(K), size=n).tolist()

    def path(n, K):
        return build_graph([(v, v + 1) for v in range(n - 1)], weights(n, K), d=2, K=K)

    def cycle(n, K):
        return build_graph([(v, (v + 1) % n) for v in range(n)], weights(n, K), d=2, K=K)

    def tree(n, K):
        return build_graph([((v - 1) // 2, v) for v in range(1, n)], weights(n, K), d=3, K=K)

    def grid(rows, cols, K):
        return build_graph(gen_grid(rows, cols).edge_list(), weights(rows * cols, K), d=4, K=K)

    def cubic(n, K):
        G = gen_random_regular(n, 3, seed=int(rng.integers(1000)))
        return build_graph(G.edge_list(), weights(n, K), d=3, K=K)

    makers = [
        lambda K: path(int(rng.integers(1, 150)), K),
        lambda K: cycle(int(rng.integers(3, 150)), K),
        lambda K: tree(int(rng.integers(1, 128)), K),
        lambda K: grid(int(rng.integers(1, 11)), int(rng.integers(2, 13)), K),
        lambda K: cubic(2 * int(rng.integers(3, 33)), K),
    ]
    graphs = []
    for i in range(60):
        K = float(rng.choice([1.0, 2.0, 4.0]))
        G = makers[i % len(makers)](K)
        if i % 3 == 2:
            G = _joined(G, makers[int(rng.integers(len(makers)))](K))
        graphs.append(G)
    # past the matching solver's 200 vertices: no bound is usable there
    graphs.append(cubic(210, 2.0))
    return graphs


class TestLadderAgainstPerRungReference:
    """One partition plan serving every bound of an estimate's ladder against
    a loop of separate partitions: the same certificate or failure text at
    every bound, and the same estimates."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _ladder_corpus(np.random.default_rng(20261020))

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2, 0.3])
    def test_every_bound_on_one_plan(self, corpus, epsilon):
        infeasible = 0
        for G in corpus:
            plan = partitions._Plan(G, epsilon / 2.0)
            for K_target in reference_bound_ladder(G.n, epsilon):
                got = _outcome(plan.certificate, K_target)
                assert got == _outcome(scalar_find_weighted_partition, G, epsilon / 2.0, K_target)
                infeasible += isinstance(got, tuple)
        assert infeasible > 0

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2, 0.3])
    def test_estimates(self, corpus, epsilon, monkeypatch):
        bounds = count_partition_bounds(monkeypatch)
        guaranteed = unmatched = 0
        for seed, G in enumerate(corpus):
            del bounds[:]
            got = independent_set_estimate(G, epsilon, seed=seed)
            assert got == reference_independent_set_estimate(G, epsilon, seed=seed)
            guaranteed += got[2]
            ladder = reference_bound_ladder(G.n, epsilon)
            assert bounds == ladder[: len(bounds)]
            U = build_graph(G.edge_list(), [0.0] * G.n, d=G.d, K=1.0)
            ratio = _outcome(estimate_matching, U, epsilon)
            assert ratio == _outcome(reference_estimate_matching, U, epsilon)
            unmatched += isinstance(ratio, tuple)
        assert 0 < guaranteed < len(corpus) and unmatched > 0


class TestIndistinguishablePair:
    """Two cubic graphs whose radius-3 neighborhoods are statistically
    identical while their independence ratios differ by 1/20: any estimator
    reading only radius-3 ball statistics must err on one of them."""

    def _pair(self):
        n = GIRTH8_CUBIC_N
        G = build_graph(GIRTH8_CUBIC_EDGES, [0.0] * n, d=3, K=1.0)
        cover_edges = sorted(
            e for u, v in GIRTH8_CUBIC_EDGES for e in ((u, n + v), (v, n + u))
        )
        H = build_graph(cover_edges, [0.0] * (2 * n), d=3, K=1.0)
        return G, H

    def test_ball_statistics_agree_up_to_radius_three(self):
        G, H = self._pair()
        for r in (1, 2, 3):
            assert tv(exact_stats(G, r, 2), exact_stats(H, r, 2)) < 1e-12

    def test_independence_ratios_differ(self):
        G, H = self._pair()
        _, alpha_g = exact_weighted_mis(G)
        _, alpha_h = exact_weighted_mis(H)
        assert alpha_g == pytest.approx(0.45)
        assert alpha_h == pytest.approx(0.50)
