"""One-shot local rules and the partition-based estimators built on them.

Every vertex sees its decorated ball (truncated labels plus private random
bits) and decides membership from the canonical form alone, so outputs are
anonymous: isomorphic inputs with matching bit assignments give isomorphic
outputs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .balls import CanonicalDecoratedBall, canonicalize_decorated, extract_ball_with_map
from .graphs import GraphError, philox
from .partitions import PartitionInfeasible, find_weighted_partition, solve_pieces
from .solvers import component_mwis, matching_size


class RuleIncomplete(GraphError):
    pass


@dataclass(frozen=True)
class LocalRule:
    radius: int
    bits_per_vertex: int
    decide: Callable[[CanonicalDecoratedBall], bool]


def table_rule(radius: int, bits_per_vertex: int, table: dict[bytes, bool]) -> LocalRule:
    """Rule backed by an explicit manual; unknown decorated balls are errors."""

    def decide(ball: CanonicalDecoratedBall) -> bool:
        try:
            return table[ball.key]
        except KeyError:
            raise RuleIncomplete(
                f"no manual entry for decorated ball {ball.key.hex()}"
            ) from None

    return LocalRule(radius=radius, bits_per_vertex=bits_per_vertex, decide=decide)


def rank_rule(radius: int = 1, bits_per_vertex: int = 32) -> LocalRule:
    """Member iff the root's bit-string strictly beats every neighbor's.

    Adjacent winners are impossible, so the output is always independent.
    """

    def decide(ball: CanonicalDecoratedBall) -> bool:
        mine = ball.bits[0]
        return all(ball.bits[v] < mine for v in ball.root_neighbors())

    return LocalRule(radius=radius, bits_per_vertex=bits_per_vertex, decide=decide)


def draw_vertex_bits(n: int, k: int, seed: int) -> list[int]:
    """Private k-bit strings, one per vertex: the first word of the Philox
    stream keyed by the seed's low 64 bits and the vertex."""
    mask = (1 << k) - 1
    low = seed & (2**64 - 1)
    return [int(philox(low | v << 64).random_raw()) & mask for v in range(n)]


def run_local_rule(G, rule: LocalRule, t: int, seed: int, bits=None) -> frozenset:
    """Simultaneous one-round application of the rule at every vertex."""
    if bits is None:
        bits = draw_vertex_bits(G.n, rule.bits_per_vertex, seed)
    members = []
    for v in range(G.n):
        ball, vertex_map = extract_ball_with_map(G, v, rule.radius, t)
        local_bits = [bits[u] for u in vertex_map]
        decorated = canonicalize_decorated(ball, local_bits)
        if rule.decide(decorated):
            members.append(v)
    return frozenset(members)


def _solve_components(G, epsilon: float, solve) -> list:
    """solve(component, removed) for each component of G left by a
    partition at epsilon/2, in component order.

    One partition plan serves every component bound of the estimate, from
    ceil(2/epsilon) up to G.n (``partitions.solve_pieces``).  Raises
    PartitionInfeasible when no bound gives a partition whose components
    solve can finish, and ValueError unless 0 < epsilon < 1, before any
    bound is tried.  A TooLarge from reading the masses, as on a graph too
    large to list them, propagates before any bound is tried.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return solve_pieces(G, epsilon / 2.0, solve)


def local_independent_set(G, epsilon: float, seed: int = 0) -> tuple[frozenset, float]:
    """Independent set whose mass approximates the weighted independence
    number within epsilon whenever a partition certificate exists.

    Partition at epsilon/2, solve each small component exactly, take the
    union.  Components only shrink an optimal solution by the removed mass,
    so the defect is at most epsilon/2.  Component bounds escalate until the
    per-component solvers give out; after that a seeded greedy pass runs with
    an explicit warning and no accuracy claim.
    """
    J, value, guaranteed = independent_set_estimate(G, epsilon, seed=seed)
    if not guaranteed:
        warnings.warn(
            "partitioning failed at every component bound; "
            "greedy fallback carries no accuracy guarantee",
            stacklevel=2,
        )
    return J, value


def independent_set_estimate(G, epsilon: float, seed: int = 0) -> tuple[frozenset, float, bool]:
    """local_independent_set without the warning, plus whether the result
    carries the accuracy guarantee: False exactly when the greedy pass ran."""
    w = G.probabilities.tolist()
    adj = G.neighbor_lists()

    def solve(comp, removed):
        if not removed:
            # a component of G keeps all its neighbors
            return component_mwis(sorted(comp), adj, w)
        # a component's vertices keep exactly their neighbors inside it
        inside = {v: [u for u in adj[v] if u not in removed] for v in comp}
        return component_mwis(sorted(comp), inside, w)

    try:
        parts = _solve_components(G, epsilon, solve)
    except PartitionInfeasible:
        taken: set[int] = set()
        blocked: set[int] = set()
        for v in np.random.default_rng(seed).permutation(G.n).tolist():
            if v in blocked:
                continue
            taken.add(v)
            blocked.add(v)
            blocked.update(adj[v])
        J = frozenset(taken)
        return J, float(sum(w[v] for v in J)), False
    J = frozenset(v for part in parts for v in part)
    if any(u in J for v in J for u in adj[v]):
        raise AssertionError("component union is not independent")
    return J, float(sum(w[v] for v in J)), True


UNIFORM_TOLERANCE = 1e-9


def estimate_matching(G, epsilon: float, seed: int = 0) -> float:
    """Matching ratio estimate on uniform-weight graphs: partition at
    epsilon/2, match each component exactly, add up.

    The estimate is deterministic; seed is accepted for the signature shared
    with independent_set_estimate, and callers pass it.
    """
    if G.n == 0:
        raise GraphError("the graph has no vertices, so no matching ratio")
    # orbits preserve weights, so their representatives carry every weight
    reps = G.orbit_reps()
    roots = range(G.n) if reps is None else [rep for rep, _ in reps]
    lw = [G.log_weight(v) for v in roots]
    if max(lw) - min(lw) > UNIFORM_TOLERANCE:
        raise GraphError("matching estimation expects uniform weights")

    def solve(comp, removed):
        adj = G.neighbor_lists()
        pos = {v: i for i, v in enumerate(comp)}
        return matching_size(len(comp), [[pos[u] for u in adj[v] if u in pos] for v in comp])

    return sum(_solve_components(G, epsilon, solve)) / G.n
