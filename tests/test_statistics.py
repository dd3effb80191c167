import hashlib
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rnlab import (
    BallStatistics,
    CanonicalBallKey,
    ParamMismatch,
    build_graph,
    canonicalize,
    edge_entropy,
    empirical_profile,
    empirical_stats,
    exact_stats,
    extract_ball,
    gen_binary_tree,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_regular,
    load_profile,
    profile_to_json,
    statistical_distance,
    stats_profile,
    truncation_stability,
    tv,
    vertex_entropy,
)
from rnlab import GraphError, statistics
from helpers import heap_tree, random_bounded_graph, weighted_grid

LN2 = math.log(2.0)


class TestExactStats:
    def test_p3_masses(self, p3_uniform):
        stats = exact_stats(p3_uniform, 1, 2)
        assert stats.support_size() == 2
        assert sorted(stats.weights.values()) == pytest.approx([1 / 3, 2 / 3])

    def test_cycle_single_class(self):
        stats = exact_stats(gen_cycle(8), 2, 2)
        assert stats.support_size() == 1
        assert list(stats.weights.values()) == pytest.approx([1.0])

    def test_star_masses(self):
        n = 7
        star = build_graph([(0, i) for i in range(1, n)], [0.0] * n, d=n - 1, K=1.0)
        stats = exact_stats(star, 1, 2)
        assert sorted(stats.weights.values()) == pytest.approx([1 / n, (n - 1) / n])

    def test_weighted_p3_three_classes(self, weighted_p3):
        stats = exact_stats(weighted_p3, 1, 2)
        assert stats.support_size() == 3
        assert sorted(stats.weights.values()) == pytest.approx([0.2, 0.3, 0.5])

    def test_radius_zero_forgets_structure(self, weighted_p3):
        stats = exact_stats(weighted_p3, 0, 2)
        assert stats.support_size() == 1

    def test_orbit_sweep_matches_full_sweep(self):
        implicit = gen_binary_tree(8, LN2, representation="implicit")
        explicit = implicit.materialize()
        a = exact_stats(implicit, 2, 2)
        for G in (implicit, explicit):
            # every vertex on its own, without the orbit shortcut
            per_vertex = {}
            for v in range(G.n):
                key = canonicalize(extract_ball(G, v, 2, 2))
                per_vertex[key] = per_vertex.get(key, 0.0) + G.p(v)
            for stats in (a, exact_stats(G, 2, 2)):
                assert stats.weights.keys() == per_vertex.keys()
                assert max(abs(stats.weights[k] - m) for k, m in per_vertex.items()) < 1e-12

    def test_masses_sum_to_one(self, rng):
        for _ in range(10):
            G = random_bounded_graph(rng, 30, 3, 2.0)
            stats = exact_stats(G, 2, 2)
            assert sum(stats.weights.values()) == pytest.approx(1.0, abs=1e-9)


class TestEmpiricalStats:
    def test_converges_to_exact(self):
        G = gen_grid(4, 4)
        target = exact_stats(G, 1, 2)
        dists = []
        for budget in (500, 32_000):
            est = empirical_stats(G, 1, 2, budget, seed=7)
            dists.append(tv(est, target))
        assert dists[1] < dists[0]
        assert dists[1] < 0.02

    def test_deterministic_in_seed(self, grid4):
        a = empirical_stats(grid4, 1, 2, 1000, seed=3)
        b = empirical_stats(grid4, 1, 2, 1000, seed=3)
        assert a.weights == b.weights

    def test_support_subset_of_exact(self, critical_tree):
        est = empirical_stats(critical_tree, 2, 2, 2000, seed=1)
        target = exact_stats(critical_tree, 2, 2)
        assert set(est.weights) <= set(target.weights)

    def test_records_budget(self, grid4):
        est = empirical_stats(grid4, 1, 2, 123)
        assert est.total_queries == 123

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, grid4, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            empirical_stats(grid4, 1, 2, budget)
        with pytest.raises(ValueError, match="budget must be at least 1"):
            empirical_profile(grid4, 2, 2, budget=budget)


class TestStatisticalDistance:
    def test_tv_independent_of_key_order(self):
        # masses of many magnitudes: a float sum in another order changes bits
        rng = np.random.default_rng(4)
        keys = [CanonicalBallKey(rng.bytes(12)) for _ in range(2000)]
        masses = rng.random(len(keys)) * 10.0 ** rng.integers(-12, 0, len(keys))

        def stats(order, scale):
            return BallStatistics(1, 2, 3, 2.0, {keys[i]: masses[i] * scale for i in order})

        forward, backward = range(len(keys)), range(len(keys) - 1, -1, -1)
        d = tv(stats(forward, 1.0), stats(forward, 0.5))
        assert tv(stats(backward, 1.0), stats(backward, 0.5)) == d
        assert tv(stats(backward, 0.5), stats(forward, 1.0)) == d
        exact = sum(Fraction(abs(m - m * 0.5)) for m in masses) / 2
        assert d == float(exact)

    def test_identity(self, critical_tree):
        prof = stats_profile(critical_tree, 3, 2)
        assert statistical_distance(prof, prof, 3) == 0.0

    def test_symmetry(self):
        a = stats_profile(gen_path(10), 2, 2)
        b = stats_profile(gen_cycle(10), 2, 2)
        assert statistical_distance(a, b, 2) == pytest.approx(
            statistical_distance(b, a, 2)
        )

    def test_monotone_in_radius(self):
        a = stats_profile(gen_binary_tree(10, LN2), 3, 2)
        b = stats_profile(gen_binary_tree(15, LN2), 3, 2)
        d1 = statistical_distance(a, b, 1)
        d2 = statistical_distance(a, b, 2)
        d3 = statistical_distance(a, b, 3)
        assert d1 <= d2 <= d3
        assert d3 > 0.0

    def test_bounded_by_one(self):
        a = stats_profile(gen_path(12), 3, 2)
        b = stats_profile(gen_cycle(12), 3, 2)
        assert 0.0 < statistical_distance(a, b, 3) < 1.0

    def test_triangle_inequality(self):
        star5 = build_graph([(0, i) for i in range(1, 5)], [0.0] * 5, d=4, K=1.0)
        profiles = [
            stats_profile(G, 2, 2)
            for G in (
                gen_path(10, d=4),
                gen_cycle(10, d=4),
                gen_grid(3, 4),
                gen_grid(2, 6),
                star5,
            )
        ]
        for a in profiles:
            for b in profiles:
                for c in profiles:
                    dab = statistical_distance(a, b, 2)
                    dbc = statistical_distance(b, c, 2)
                    dac = statistical_distance(a, c, 2)
                    assert dac <= dab + dbc + 1e-12

    def test_missing_radius_rejected(self):
        a = stats_profile(gen_path(6), 1, 2)
        b = stats_profile(gen_path(7), 2, 2)
        with pytest.raises(ParamMismatch):
            statistical_distance(a, b, 2)

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_no_radius_rejected(self, r_max):
        """A sum over no radius would call any two profiles equal, even
        incompatible ones."""
        a = stats_profile(gen_grid(3, 3), 2, 2)
        b = stats_profile(gen_binary_tree(5, LN2), 2, 2)
        with pytest.raises(ValueError, match=f"r_max >= 1, got {r_max}"):
            statistical_distance(a, b, r_max)

    def test_incompatible_digits_rejected(self):
        a = exact_stats(gen_path(6), 1, 2)
        b = exact_stats(gen_path(6), 1, 3)
        with pytest.raises(ParamMismatch):
            tv(a, b)

    def test_empirical_profile_shape(self, grid4):
        prof = empirical_profile(grid4, 3, 2, budget=200, seed=0)
        assert sorted(prof) == [1, 2, 3]


class TestEntropies:
    def test_vertex_entropy_uniform(self):
        assert vertex_entropy(gen_cycle(17)) == pytest.approx(math.log(17))

    def test_vertex_entropy_decreases_with_skew(self):
        h = [vertex_entropy(gen_binary_tree(12, beta)) for beta in (0.0, LN2, 2 * LN2)]
        assert h[0] == pytest.approx(math.log(2**12 - 1))
        assert h[0] > h[1] > h[2]

    def test_vertex_entropy_orbit_path_matches_dense_path(self):
        implicit = gen_binary_tree(10, 0.4, representation="implicit")
        explicit = implicit.materialize()
        explicit._orbit_labels = None
        assert vertex_entropy(implicit) == pytest.approx(
            vertex_entropy(explicit), abs=1e-12
        )

    def test_vertex_entropy_against_high_precision(self):
        depth, beta = 8, LN2
        G = gen_binary_tree(depth, beta)
        with mpmath.workdps(50):
            ws = [mpmath.exp(-beta * k) for k in range(depth) for _ in range(2**k)]
            z = mpmath.fsum(ws)
            expected = -mpmath.fsum(w / z * mpmath.log(w / z) for w in ws)
        assert vertex_entropy(G) == pytest.approx(float(expected), abs=1e-12)

    def test_vertex_entropy_of_a_deep_heavy_tree(self):
        # at depth 100 and beta 8 the deepest layers keep positive mass while
        # each of their vertices has p(v) = 0 in floats; the entropy is the
        # layer sum of mass * (beta * k + log Z), high precision as reference
        depth, beta = 100, 8.0
        G = gen_binary_tree(depth, beta, representation="implicit")
        assert G.p(2**99 - 1) == 0.0 and G.layer_masses[-1] > 0.0
        with mpmath.workdps(50):
            layers = [2**k * mpmath.exp(-beta * k) for k in range(depth)]
            z = mpmath.fsum(layers)
            expected = mpmath.fsum(w / z * (beta * k + mpmath.log(z)) for k, w in enumerate(layers))
        assert vertex_entropy(G) == pytest.approx(float(expected), abs=1e-12)

    def test_edge_entropy_uniform_zero(self, grid4):
        assert edge_entropy(grid4) == 0.0

    def test_edge_entropy_critical_tree_closed_form(self):
        # interior vertices contribute log 2 each, the root adds one extra
        # share and leaves subtract one, leaving (1 - 1/depth) * log 2
        for depth in (10, 100):
            T = gen_binary_tree(depth, LN2, representation="implicit")
            assert edge_entropy(T) == pytest.approx((1 - 1 / depth) * LN2, abs=1e-12)

    def test_edge_entropy_nonnegative_and_bounded(self, rng):
        K = 4.0
        for _ in range(20):
            G = random_bounded_graph(rng, 40, 3, K)
            h = edge_entropy(G)
            assert -1e-12 <= h < G.d * math.log(K)

    def test_edge_entropy_orbit_path_matches_dense_path(self):
        implicit = gen_binary_tree(9, 0.3, representation="implicit")
        explicit = implicit.materialize()
        explicit._orbit_labels = None
        assert edge_entropy(implicit) == pytest.approx(
            edge_entropy(explicit), abs=1e-12
        )


class TestTruncationStability:
    def test_uniform_graph_stable(self, grid4):
        stable, mass = truncation_stability(grid4, 2, 2)
        assert stable and mass == 0.0

    def test_critical_tree_stable(self, critical_tree):
        stable, mass = truncation_stability(critical_tree, 2, 2)
        assert stable and mass == 0.0

    def test_crafted_boundary_detected(self):
        # ratio chosen in the narrow band where the guard lifts the 2-digit
        # label to 0.20 while the 3-digit label stays at 0.199
        x = 0.1999999999997945
        G = build_graph([(0, 1)], [0.0, math.log(x)], d=1, K=6.0)
        stable, mass = truncation_stability(G, 1, 2)
        assert not stable
        assert mass == pytest.approx(1 / (1 + x))

    def test_threshold_can_tolerate_boundary(self):
        x = 0.1999999999997945
        G = build_graph([(0, 1)], [0.0, math.log(x)], d=1, K=6.0)
        stable, mass = truncation_stability(G, 1, 2, threshold=0.9)
        assert stable and mass > 0.8

    def test_python_scalars_on_both_sweeps(self, grid4):
        tree = gen_binary_tree(70, LN2, representation="implicit")
        for G in (grid4, tree):
            stable, mass = truncation_stability(G, 1, 2)
            assert type(stable) is bool and type(mass) is float


def test_sweep_without_orbits_is_bounded(monkeypatch):
    monkeypatch.setattr(statistics, "MAX_EXACT_SWEEP", 10)
    for sweep in (exact_stats, truncation_stability):
        with pytest.raises(GraphError, match="exact sweep over 20 vertices refused"):
            sweep(gen_path(20), 1, 2)
        # orbit representatives are not bounded by the vertex count
        sweep(gen_binary_tree(70, LN2, representation="implicit"), 1, 2)


def _stat(**fields) -> dict:
    """A statistic as to_json_dict writes it, with these fields replaced."""
    return {"radius": 1, "digits": 2, "degree_bound": 2, "ratio_bound": 1.0,
            "total_queries": 0, "weights": {"00": 1.0}} | fields


class TestSerialization:
    """A profile is the one statistics file format: profile_to_json writes
    it, as ``rnlab stats`` does, and load_profile reads it."""

    def test_round_trip(self, tmp_path, weighted_p3):
        profile = stats_profile(weighted_p3, 2, 2)
        path = tmp_path / "profile.json"
        path.write_text(profile_to_json(profile, "exact"))
        loaded = load_profile(str(path))
        assert list(loaded) == [1, 2]
        for r, stats in profile.items():
            assert loaded[r].weights == stats.weights
            assert (loaded[r].radius, loaded[r].digits) == (r, 2)
            assert loaded[r].ratio_bound == stats.ratio_bound
            assert tv(loaded[r], stats) == 0.0

    def test_loaded_keys_are_usable(self, tmp_path, grid4):
        profile = empirical_profile(grid4, 2, 2, budget=300, seed=4)
        path = tmp_path / "profile.json"
        path.write_text(profile_to_json(profile, "empirical"))
        assert json.loads(path.read_text())["r_max"] == 2
        loaded = load_profile(str(path))
        assert list(loaded) == [1, 2]
        for r, stats in profile.items():
            for key in stats.weights:
                assert loaded[r].mass(key) == stats.mass(key)
            assert loaded[r].total_queries == 300
            assert tv(loaded[r], stats) == 0.0

    @pytest.mark.parametrize("obj, reason", [
        ({"radius": 1, "digits": 2, "degree_bound": 2, "ratio_bound": 1.0, "weights": {}},
         "KeyError('per_radius')"),
        ({"per_radius": [1, 2]}, "AttributeError"),
        ({"per_radius": {"one": {}}}, "ValueError"),
        ({"per_radius": {"1": {"radius": 1}}}, "KeyError('digits')"),
        ({"per_radius": {"1": {"radius": 1, "digits": 2, "degree_bound": 2,
                               "ratio_bound": 1.0, "weights": {"zz": 1.0}}}}, "ValueError"),
        ([1, 2], "TypeError"),
        # the counts are ints and the masses finite nonnegative numbers
        ({"per_radius": {"1": _stat(radius=1.9)}}, "ValueError('radius must be an integer, got 1.9')"),
        ({"per_radius": {"1": _stat(digits=True)}}, "ValueError('digits must be an integer, got True')"),
        ({"per_radius": {"1": _stat(total_queries=2.0)}},
         "ValueError('total_queries must be an integer, got 2.0')"),
        ({"per_radius": {"1": _stat(weights={"00": math.nan})}},
         "ValueError('masses must be finite nonnegative numbers, got nan')"),
        ({"per_radius": {"1": _stat(weights={"00": -5.0})}},
         "ValueError('masses must be finite nonnegative numbers, got -5.0')"),
        ({"per_radius": {"1": _stat(weights={"00": "0.5"})}},
         "ValueError(\"masses must be finite nonnegative numbers, got '0.5'\")"),
        # and no statistic holds more than all the mass
        ({"per_radius": {"1": _stat(weights={"00": 2**64})}},
         "ValueError('masses must sum to at most 1, got 1.8446744073709552e+19')"),
        ({"per_radius": {"1": _stat(weights={"00": 0.75, "01": 0.5})}},
         "ValueError('masses must sum to at most 1, got 1.25')"),
    ])
    def test_other_file_kinds_rejected(self, tmp_path, obj, reason):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        expected = f"{path} is not a statistics profile: {reason}"
        with pytest.raises(GraphError, match="^" + re.escape(expected)):
            load_profile(str(path))

    def test_float_error_in_the_sum_is_allowed(self):
        # a cycle's exact statistic has one key, of mass 1.0000000000000013
        stats = exact_stats(gen_cycle(60), 2, 2)
        assert sum(stats.weights.values()) > 1.0
        assert BallStatistics.from_json_dict(stats.to_json_dict()).weights == stats.weights

    def test_json_dict_round_trip(self, weighted_p3):
        stats = exact_stats(weighted_p3, 1, 3)
        again = BallStatistics.from_json_dict(stats.to_json_dict())
        assert again.weights == stats.weights
        assert again.total_queries == stats.total_queries


def _cold_sweep_graphs():
    """The three kinds of the benchmark's cold sweep: a grid with cyclic
    weighted balls, a heap tree on the tree path and a cubic graph with
    symmetric cyclic balls."""
    rng = np.random.default_rng(20261019)
    return {
        "grid": weighted_grid(10, 10, rng),
        "heap_tree": heap_tree(127, rng),
        "cubic": gen_random_regular(40, 3, seed=0),
    }


COLD_SWEEP_DIGESTS = {
    "grid": "50b3d25e3211a0bd6a21597c05aed94de8e568eea2bafae6a0f1656e13d15a5a",
    "heap_tree": "c523e7bda70a07641bccae173737706cd83ff24c23731f4e176d714c39683b77",
    "cubic": "6075142af520d8569260d9aeed0dd733fe187d8c2081988c9e9611530029bac3",
}


def test_cold_sweep_profiles_pinned():
    """Keys, key order and masses of stats_profile(G, 3, 2) on fresh graphs,
    computed before the canonical form was last made faster."""
    for name, G in _cold_sweep_graphs().items():
        profile = stats_profile(G, 3, 2)
        text = json.dumps({str(r): st.to_json_dict() for r, st in profile.items()}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == COLD_SWEEP_DIGESTS[name], name
