import math
import time

import numpy as np

import pytest

from rnlab import (
    BudgetExceeded,
    PropertySpec,
    ball_index,
    UnsupportedProperty,
    ball_violates,
    build_graph,
    cycle_key,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    gen_perturbed_union,
    observable_test,
    observation_depth,
)
from rnlab import distances
from rnlab.testers import default_budget, default_radius
from rnlab.testers import test_property as run_tester
from helpers import petersen_edges, random_tree, reference_test_property

FOREST = PropertySpec.forest()
BIPARTITE = PropertySpec.bipartite()
TRIANGLE_FREE = PropertySpec.h_free(3, [(0, 1), (1, 2), (0, 2)])


# graphs the tester is compared on: explicit ones, an explicit tree that
# carries its layer orbits, and an implicit layered tree
DIFFERENTIAL_GRAPHS = {
    "grid": lambda: build_graph(gen_grid(5, 6).edge_list(), [0.3 * (v % 3) for v in range(30)], d=4, K=2.0),
    "cycle": lambda: gen_cycle(7),
    "path": lambda: gen_path(30),
    "explicit_tree_with_orbits": lambda: gen_binary_tree(7, math.log(2), representation="explicit"),
    "implicit_tree": lambda: gen_binary_tree(11, 0.4, representation="implicit"),
}

# (property, epsilon, seed, radius, t)
DIFFERENTIAL_CALLS = [
    (FOREST, 0.3, 0, None, 2),
    (BIPARTITE, 0.25, 5, 2, 2),
    (FOREST, 0.5, 2**64 + 3, 1, 1),
    (BIPARTITE, 0.3, 7, None, 2),
    (TRIANGLE_FREE, 0.1, 11, 2, 2),
    (FOREST, 0.3, 1, None, 2),
]


def outcome_of(tester, G, call):
    """The verdict in full, then the ball index's keys and representative roots."""
    P, eps, seed, radius, t = call
    v = tester(G, P, eps, seed=seed, radius=radius, t=t)
    index = ball_index(G, v.params["radius"], t)
    return (v.verdict, v.violating_fraction, v.params, list(v.evidence.items()),
            list(index.keys), list(index.roots))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_GRAPHS))
class TestCountsMatchPerRootReference:
    """Per-type counts from one bincount over the sorted roots give the
    verdicts, evidence and index state of counting per distinct root."""

    def test_cold_index(self, name):
        make = DIFFERENTIAL_GRAPHS[name]
        for call in DIFFERENTIAL_CALLS:
            assert outcome_of(run_tester, make(), call) == outcome_of(
                reference_test_property, make(), call
            ), call

    def test_warm_index(self, name):
        ours, reference = DIFFERENTIAL_GRAPHS[name](), DIFFERENTIAL_GRAPHS[name]()
        for call in DIFFERENTIAL_CALLS + DIFFERENTIAL_CALLS[::-1]:
            assert outcome_of(run_tester, ours, call) == outcome_of(
                reference_test_property, reference, call
            ), call


def test_evidence_holds_python_values():
    # rnlab test JSON-encodes the evidence, which numpy scalars would not survive
    for make in DIFFERENTIAL_GRAPHS.values():
        G = make()
        for P, eps, seed, radius, t in DIFFERENTIAL_CALLS:
            v = run_tester(G, P, eps, seed=seed, radius=radius, t=t)
            assert v.evidence
            for key, (count, flag) in v.evidence.items():
                assert (type(key), type(count), type(flag)) == (str, int, bool)
            assert type(v.violating_fraction) is float


class TestBallViolates:
    def test_forest(self):
        assert not ball_violates(FOREST, 4, [(0, 1), (0, 2), (0, 3)])
        assert ball_violates(FOREST, 3, [(0, 1), (1, 2), (0, 2)])

    def test_bipartite(self):
        assert not ball_violates(BIPARTITE, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert ball_violates(BIPARTITE, 5, [(i, (i + 1) % 5) for i in range(5)])

    def test_h_free(self):
        assert ball_violates(TRIANGLE_FREE, 3, [(0, 1), (1, 2), (0, 2)])
        assert not ball_violates(TRIANGLE_FREE, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_two_colorable(self):
        two = PropertySpec.k_colorable(2)
        assert ball_violates(two, 3, [(0, 1), (1, 2), (0, 2)])
        assert not ball_violates(two, 3, [(0, 1), (1, 2)])

    def test_unsupported(self):
        with pytest.raises(UnsupportedProperty):
            ball_violates(PropertySpec(id="planar"), 2, [(0, 1)])


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestSearchNodeCap:
    """A ball whose predicate search gives up with BudgetExceeded past
    distances.SEARCH_NODE_CAP nodes leaves no flag behind.  The cap's
    boundary is in tests/test_budgets.py."""

    def test_ball_index_keeps_no_failed_flag(self, monkeypatch):
        three = PropertySpec.k_colorable(3)
        G = build_graph(K4, [0.0] * 4, d=3, K=1.0)
        index = ball_index(G, 1, 2)
        index.types(range(G.n))

        def violates(ball):
            return ball_violates(three, ball.n, ball.edges)

        monkeypatch.setattr(distances, "SEARCH_NODE_CAP", 3)
        for _ in range(2):
            with pytest.raises(BudgetExceeded):
                index.flags(three, violates)
        monkeypatch.undo()
        assert index.flags(three, violates).tolist() == [True]

    def test_failed_extension_stores_nothing(self, monkeypatch):
        # radius-1 types in order: an edge, a 3-vertex path, a 3-leaf star;
        # at a cap of 4 nodes the path's coloring search succeeds and the
        # star's, which takes 5, gives up
        three = PropertySpec.k_colorable(3)
        edges = [(0, 1), (2, 3), (3, 4), (5, 6), (5, 7), (5, 8)]
        G = build_graph(edges, [0.0] * 9, d=3, K=1.0)
        index = ball_index(G, 1, 2)
        checked = []

        def violates(ball):
            checked.append(ball.n)
            return ball_violates(three, ball.n, ball.edges)

        index.types([0])
        first = index.flags(three, violates)
        assert (first.tolist(), checked) == ([False], [2])
        index.types(range(G.n))
        monkeypatch.setattr(distances, "SEARCH_NODE_CAP", 4)
        del checked[:]
        with pytest.raises(BudgetExceeded):
            index.flags(three, violates)
        assert checked == [3, 4]
        monkeypatch.undo()
        # the path's flag was not kept: both new types are checked again
        del checked[:]
        assert index.flags(three, violates).tolist() == [False, False, False]
        assert checked == [3, 4] and first.tolist() == [False]


class TestDefaults:
    def test_radius_capped(self):
        assert default_radius(0.8) == 5
        assert default_radius(0.5) == 6
        assert default_radius(0.01) == 6

    def test_budget_clamped(self):
        assert default_budget(0.5) == 400
        assert default_budget(0.05) == 3200
        assert default_budget(0.01) == 4000

    def test_caps_hold_for_every_epsilon(self):
        """The caps are taken before rounding up, so an epsilon whose 4 / epsilon
        is infinite or whose square underflows gets them; wherever the rounded
        forms answered, the values are theirs."""
        def rounded_first(epsilon):
            return (min(math.ceil(4.0 / epsilon - 1e-9), 6),
                    max(400, min(4000, math.ceil(8.0 / epsilon**2))))

        sweep = np.concatenate([
            np.logspace(-323, 0, 20_000, endpoint=False),
            np.linspace(0.0, 1.0, 20_000, endpoint=False)[1:],
            [4 / k for k in range(5, 40)], [math.sqrt(8 / k) for k in range(9, 4100)],
        ])
        answered = 0
        for epsilon in sweep.tolist():
            got = default_radius(epsilon), default_budget(epsilon)
            assert got[0] <= 6 and 400 <= got[1] <= 4000, epsilon
            try:
                want = rounded_first(epsilon)
            except (OverflowError, ZeroDivisionError):
                assert got == (6, 4000), epsilon
                continue
            answered += 1
            assert got == want, epsilon
        assert 0 < answered < len(sweep)

    def test_observation_depth(self):
        assert observation_depth(0.2) == 11
        assert observation_depth(0.5) == 5
        assert observation_depth(2 / 3) == 4


class TestSampledTester:
    def test_members_always_accept(self, rng):
        for seed in range(5):
            for G in (
                gen_path(40),
                gen_grid(6, 6),
                gen_cycle(16),
                gen_binary_tree(7, math.log(2)),
            ):
                P = FOREST if G.edge_count < G.n else BIPARTITE
                v = run_tester(G, P, 0.3, seed=seed)
                assert v.accepted
                assert v.violating_fraction == 0.0

    def test_small_odd_cycle_rejected(self):
        for seed in range(5):
            v = run_tester(gen_cycle(6), FOREST, 0.5, seed=seed)
            assert v.verdict == "REJECT"
            assert v.violating_fraction == 1.0

    def test_far_from_bipartite_rejected(self):
        G = gen_disjoint_triangles(10)
        v = run_tester(G, BIPARTITE, 0.4, seed=1)
        assert v.verdict == "REJECT"
        assert v.violating_fraction == 1.0

    def test_huge_cycle_accepts_as_forest(self):
        # radius-6 balls of a 10000-cycle are paths; the tester cannot and
        # should not distinguish it from one
        v = run_tester(gen_cycle(10_000), FOREST, 0.2, seed=0)
        assert v.accepted

    def test_small_violating_mass_tolerated(self):
        # one triangle welded onto a long path: violating mass 3/103 sits
        # well under the rejection threshold of epsilon/4
        edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, 102)]
        G = build_graph(edges, [0.0] * 103, d=3, K=1.0)
        v = run_tester(G, FOREST, 0.8, seed=0, radius=1)
        assert v.accepted
        assert 0.0 < v.violating_fraction < 0.2

    def test_mixed_graph_evidence_distinguishes_roots(self):
        # the evidence table must separate cycle balls from path balls
        edges = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, 52)]
        G = build_graph(edges, [0.0] * 53, d=3, K=1.0)
        v = run_tester(G, FOREST, 0.5, seed=3, radius=1)
        flags = {flag for _, flag in v.evidence.values()}
        assert flags == {True, False}

    def test_deterministic_in_seed(self):
        a = run_tester(gen_cycle(9), FOREST, 0.3, seed=12)
        b = run_tester(gen_cycle(9), FOREST, 0.3, seed=12)
        assert a.verdict == b.verdict
        assert a.violating_fraction == b.violating_fraction
        assert a.evidence == b.evidence

    def test_recompute_matches_verdict(self, rng):
        graphs = [gen_cycle(7), gen_path(30), gen_disjoint_triangles(4)]
        for G in graphs:
            for P in (FOREST, BIPARTITE):
                v = run_tester(G, P, 0.4, seed=2)
                assert v.recompute() == v.verdict

    def test_evidence_counts_sum_to_budget(self):
        v = run_tester(gen_grid(5, 5), FOREST, 0.3, seed=0, budget=777)
        assert sum(c for c, _ in v.evidence.values()) == 777
        assert v.params["budget"] == 777

    def test_evidence_keys_sorted(self):
        v = run_tester(gen_path(60), FOREST, 0.3, seed=5)
        keys = list(v.evidence)
        assert keys == sorted(keys)

    def test_overrides_recorded(self, c6_uniform):
        v = run_tester(c6_uniform, FOREST, 0.5, seed=0, budget=500, radius=2, t=3)
        assert v.params["radius"] == 2
        assert v.params["t"] == 3
        assert v.params["threshold"] == pytest.approx(0.125)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            run_tester(gen_path(4), FOREST, 0.0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            run_tester(gen_path(4), FOREST, 0.3, budget=budget)
        assert run_tester(gen_path(4), FOREST, 0.3, budget=1).params["budget"] == 1

    def test_implicit_tree_accepts(self):
        T = gen_binary_tree(30, math.log(2), representation="implicit")
        v = run_tester(T, FOREST, 0.4, seed=0)
        assert v.accepted and v.violating_fraction == 0.0


class TestObservableTester:
    def test_short_cycle_rejected_as_forest(self):
        v = observable_test(gen_cycle(4), FOREST, 0.5)
        assert v.verdict == "REJECT"
        assert v.evidence[cycle_key(4)] is True

    def test_long_cycle_accepted_as_forest(self):
        for n in (12, 50, 100):
            v = observable_test(gen_cycle(n), FOREST, 0.2)
            assert v.accepted

    def test_boundary_cycles_rejected(self):
        for n in (3, 7, 10, 11):
            v = observable_test(gen_cycle(n), FOREST, 0.2)
            assert v.verdict == "REJECT"

    def test_large_perturbed_union_answers_in_seconds(self):
        # 40,200 vertices, mostly trees: the cycle check looks only within
        # the observation depth of each vertex, where a BFS over the whole
        # graph from every vertex ran for minutes
        G = gen_perturbed_union(200)
        t0 = time.perf_counter()
        v = observable_test(G, FOREST, 0.3)
        assert time.perf_counter() - t0 < 60.0
        assert v.verdict == "REJECT"
        assert v.evidence == {cycle_key(k): True for k in range(3, observation_depth(0.3) + 1)}

    def test_forest_accepted(self, rng):
        edges = random_tree(rng, 30)
        G = build_graph(edges, [0.0] * 30, d=6, K=1.0)
        assert observable_test(G, FOREST, 0.3).accepted

    def test_bipartite_mode_ignores_even_cycles(self):
        v = observable_test(gen_cycle(4), BIPARTITE, 0.5)
        assert v.accepted
        assert cycle_key(4) not in v.evidence

    def test_bipartite_mode_catches_odd_cycles(self):
        petersen = build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0)
        v = observable_test(petersen, BIPARTITE, 0.4)
        assert v.verdict == "REJECT"
        assert v.evidence[cycle_key(5)] is True

    def test_relabeling_invariance(self, rng):
        G = gen_cycle(9)
        perm = [int(v) for v in rng.permutation(9)]
        edges = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in G.edge_list()
        )
        H = build_graph(edges, [0.0] * 9, d=2, K=1.0)
        a = observable_test(G, FOREST, 0.25)
        b = observable_test(H, FOREST, 0.25)
        assert a.verdict == b.verdict
        assert a.evidence == b.evidence

    def test_evidence_covers_exactly_the_window(self):
        v = observable_test(gen_path(6), FOREST, 0.5)
        assert set(v.evidence) == {cycle_key(k) for k in range(3, 6)}
        w = observable_test(gen_path(6), BIPARTITE, 0.5)
        assert set(w.evidence) == {cycle_key(3), cycle_key(5)}

    def test_recompute(self):
        for G in (gen_cycle(4), gen_cycle(40)):
            v = observable_test(G, FOREST, 0.3)
            assert v.recompute() == v.verdict

    def test_unsupported_property(self):
        with pytest.raises(UnsupportedProperty):
            observable_test(gen_path(4), TRIANGLE_FREE, 0.3)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            observable_test(gen_path(4), FOREST, 1.0)
