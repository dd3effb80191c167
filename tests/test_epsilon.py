"""Every epsilon is read by one reader, and every size derived from it has
one rule: the default and first component bounds, the observation depth,
the cover spacing.  Each rule is checked against the formula it replaced,
kept in helpers.py, wherever the rule answers; past a cap, or for an epsilon
so small that 1/epsilon or 2/epsilon is infinite, it refuses or caps at once.
"""
import math
import time

import numpy as np
import pytest

from helpers import (
    reference_bound_ladder,
    reference_cycle_key,
    reference_default_bound,
    reference_observation_depth,
    reference_uniform_cover,
    scalar_find_weighted_partition,
)
from rnlab import (
    PartitionInfeasible,
    PropertySpec,
    UnsupportedFamily,
    build_graph,
    build_uniform_cover,
    cycle_key,
    find_weighted_partition,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_regular,
    observable_test,
    observation_depth,
)
from rnlab import partitions
from rnlab.graphs import TooLarge, check_epsilon
from rnlab.testers import MAX_OBSERVATION_DEPTH

TINY = [1e-200, 1e-300, 1e-310, 5e-324]
# a dense sweep of (0, 1), and the epsilons whose 1/epsilon or 2/epsilon sits
# on an integer or one ulp to either side of it
DENSE = sorted(
    {float(e) for e in np.linspace(0.0005, 0.9995, 1999)}
    | {math.nextafter(k / j, to)
       for k in (1, 2) for j in range(3, 200) for to in (0.0, k / j, 1.0)}
)


class TestReader:
    @pytest.mark.parametrize("epsilon", [5e-324, 1e-310, 0.5, math.nextafter(1.0, 0.0)])
    def test_accepts_the_open_interval(self, epsilon):
        assert check_epsilon(epsilon) == epsilon

    @pytest.mark.parametrize("epsilon", [0.0, -0.0, -1e-300, 1.0, 1.5, math.nan, math.inf,
                                         -math.inf])
    def test_refuses_the_rest(self, epsilon):
        with pytest.raises(ValueError) as e:
            check_epsilon(epsilon)
        assert type(e.value) is ValueError
        assert str(e.value) == f"epsilon must lie in (0, 1), got {epsilon}"


class TestComponentBounds:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 999])
    def test_default_bound_is_the_old_one_capped_at_n(self, n):
        for epsilon in DENSE:
            assert partitions._default_bound(n, epsilon) == min(
                reference_default_bound(epsilon), max(n, 1)), epsilon
        for epsilon in TINY + [0.0]:
            assert partitions._default_bound(n, epsilon) == max(n, 1)

    def test_ladder_is_the_old_one(self, monkeypatch):
        tried = []

        def refuse(plan, epsilon, K_target):
            tried.append(K_target)
            raise PartitionInfeasible("refused")

        monkeypatch.setattr(partitions._Plan, "certificate", refuse)
        for G in (gen_path(1), gen_path(5), gen_cycle(40), gen_grid(17, 18)):
            for epsilon in DENSE[::7] + TINY:
                del tried[:]
                with pytest.raises(PartitionInfeasible):
                    partitions.solve_pieces(G, epsilon, None)
                expected = [G.n] if epsilon in TINY else reference_bound_ladder(G.n, epsilon)
                assert tried == expected, (G.n, epsilon)

    def test_default_certificates_and_failures_unchanged(self):
        rng = np.random.default_rng(28)
        graphs = [gen_path(30), gen_cycle(25), gen_grid(5, 6), gen_random_regular(24, 3, seed=2)]
        graphs += [build_graph(G.edge_list(), rng.uniform(-0.3, 0.3, G.n).tolist(), d=G.d, K=2.0)
                   for G in graphs]
        kinds = {"cert": 0, "infeasible": 0}
        for G in graphs:
            for epsilon in DENSE[::40]:
                new = _outcome(find_weighted_partition, G, epsilon)
                assert new == _outcome(scalar_find_weighted_partition, G, epsilon), epsilon
                kinds["infeasible" if isinstance(new, tuple) else "cert"] += 1
            # the tiniest epsilons cut at the whole graph, as any bound past n does
            for epsilon in TINY:
                whole = scalar_find_weighted_partition(G, epsilon, G.n)
                assert find_weighted_partition(G, epsilon) == whole
        assert min(kinds.values()) > 20, kinds


def _outcome(find, *args):
    try:
        return find(*args)
    except (PartitionInfeasible, UnsupportedFamily) as e:
        return (type(e).__name__, str(e))


class TestObservationDepth:
    def test_old_depth_wherever_it_answers(self):
        answered = 0
        for epsilon in DENSE:
            try:
                s = observation_depth(epsilon)
            except TooLarge:
                assert reference_observation_depth(epsilon) >= MAX_OBSERVATION_DEPTH
                continue
            assert s == reference_observation_depth(epsilon) <= MAX_OBSERVATION_DEPTH
            answered += 1
        assert 0 < answered < len(DENSE)
        assert observation_depth(2.0 / (MAX_OBSERVATION_DEPTH - 1)) == MAX_OBSERVATION_DEPTH

    @pytest.mark.parametrize("epsilon", TINY + [0.019])
    def test_deep_observations_refused_at_once(self, epsilon):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"observation depth above {MAX_OBSERVATION_DEPTH}"):
            observable_test(gen_path(6), PropertySpec.forest(), epsilon)
        assert time.perf_counter() - start < 1.0

    def test_deepest_table_answers(self):
        v = observable_test(gen_path(6), PropertySpec.forest(), 0.02)
        assert v.accepted and v.params["depth"] == MAX_OBSERVATION_DEPTH == len(v.evidence) + 2


class TestCycleKeys:
    @pytest.mark.parametrize("k", [*range(3, 41), 50, 64])
    def test_one_root_gives_the_unrooted_key(self, k):
        assert cycle_key(k) == reference_cycle_key(k)


class TestUniformCovers:
    def test_covers_and_failures_unchanged(self):
        cases = [(gen_path(n), None) for n in (2, 3, 5, 8, 13, 21, 34)]
        cases += [(gen_cycle(n), None) for n in (3, 4, 7, 12, 20, 33)]
        cases += [(gen_grid(r, c), (r, c)) for r in (1, 2, 4, 7) for c in (1, 3, 6, 9)]
        epsilons = [0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6,
                    0.7, 0.8, 0.9, 0.99]
        answered = 0
        for G, dims in cases:
            for epsilon in epsilons:
                new = _outcome(build_uniform_cover, G, epsilon, dims)
                assert new == _outcome(reference_uniform_cover, G, epsilon, dims), (G.n, epsilon)
                answered += not isinstance(new, tuple)
        assert answered > 30

    @pytest.mark.parametrize("dims", [None, (3, 3)])
    @pytest.mark.parametrize("epsilon", TINY + [1e-12])
    def test_tiny_epsilon_fails_at_once(self, dims, epsilon):
        G = gen_grid(3, 3) if dims else gen_path(6)
        start = time.perf_counter()
        with pytest.raises(UnsupportedFamily, match="failed its own verifier"):
            build_uniform_cover(G, epsilon, grid_dims=dims)
        assert time.perf_counter() - start < 1.0

    def test_errors_keep_their_precedence(self):
        single = build_graph([], [0.0], d=2, K=1.0)
        assert build_uniform_cover(single, 1e-310).component_bound == 1
        with pytest.raises(UnsupportedFamily, match="needs a connected graph"):
            build_uniform_cover(build_graph([], [0.0, 0.0], d=2, K=1.0), 1e-310)
        with pytest.raises(UnsupportedFamily, match="grid dimensions do not match"):
            build_uniform_cover(gen_grid(3, 3), 1e-310, grid_dims=(2, 3))
        with pytest.raises(ValueError, match="epsilon must lie in"):
            build_uniform_cover(gen_grid(3, 3), 0.0, grid_dims=(2, 3))
