"""Property testers: sampled violation-mass testing and the deterministic
observation-based decision.

The sampled tester is one-sided by construction: a violating ball is a
forbidden configuration sitting wholly inside the sampled radius, and members
of a subgraph-closed property contain none, ever.  Ball types and per-type
violation flags come from the graph's :class:`~rnlab.oracles.BallIndex`, so
repeated tests on one graph extract, canonicalize and check each ball type
once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# canonicalize is not called here; bench/layertrace.py wraps this name
from .balls import canonicalize
from .distances import PropertySpec, UnsupportedProperty, holds_on, n_epsilon_cycles
from .graphs import TooLarge, check_epsilon
from .oracles import RadonNikodymOracle, cycle_key, induced_cycle_lengths


@dataclass
class TestVerdict:
    verdict: str
    epsilon: float
    params: dict
    violating_fraction: float = 0.0
    evidence: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.verdict == "ACCEPT"

    def recompute(self) -> str:
        """Re-derive the verdict from stored evidence alone."""
        if self.params.get("mode") == "observable":
            reject = any(self.evidence.values())
            return "REJECT" if reject else "ACCEPT"
        budget = self.params["budget"]
        bad = sum(c for c, flag in self.evidence.values() if flag)
        frac = bad / budget
        return "REJECT" if frac > self.params["threshold"] else "ACCEPT"


def ball_violates(P: PropertySpec, n: int, edges) -> bool:
    """Does this ball contain a forbidden configuration for P?"""
    return not holds_on(P, n, edges)


# Both defaults take their cap before rounding up, so a tiny epsilon gets the
# cap: 4 / epsilon can be infinite and epsilon**2 can underflow to 0.
def default_radius(epsilon: float) -> int:
    return math.ceil(min(4.0 / epsilon - 1e-9, 6.0))


def default_budget(epsilon: float) -> int:
    return max(400, math.ceil(min(8.0 / max(epsilon**2, 1e-300), 4000.0)))


def test_property(
    G,
    P: PropertySpec,
    epsilon: float,
    seed: int = 0,
    budget: int = None,
    radius: int = None,
    t: int = 2,
) -> TestVerdict:
    """Sampled one-sided tester.

    REJECT iff the sampled fraction of violating balls exceeds epsilon/4.
    Members never produce a violating ball (subgraph-closed property, and the
    ball is an induced subgraph), so acceptance of members is certain.

    The verdict's params record the graph's ratio bound G.K, which reports
    and CLI output carry unchanged.
    """
    check_epsilon(epsilon)
    r = radius if radius is not None else default_radius(epsilon)
    c = budget if budget is not None else default_budget(epsilon)
    if c < 1:
        raise ValueError(f"query budget must be at least 1, got {c}")
    tau = epsilon / 4.0
    oracle = RadonNikodymOracle(G, r, t, seed=seed)
    index = oracle.index
    # the index picks the smallest root of each orbit, so the roots need no sort
    types = index.types(oracle.sample_roots(c))
    violating = index.flags(P, lambda ball: ball_violates(P, ball.n, ball.edges)).tolist()
    hexes = index.hex_keys()
    evidence = sorted(
        (hexes[i], (count, violating[i]))
        for i, count in enumerate(np.bincount(types).tolist())
        if count
    )
    bad = sum(count for _, (count, flag) in evidence if flag)
    frac = bad / c
    verdict = "REJECT" if frac > tau else "ACCEPT"
    return TestVerdict(
        verdict=verdict,
        epsilon=epsilon,
        params={
            "mode": "sampled",
            "property": P.id,
            "K": G.K,
            "radius": r,
            "t": t,
            "budget": c,
            "threshold": tau,
            "seed": seed,
        },
        violating_fraction=frac,
        evidence=dict(evidence),
    )


# the deepest observation: its evidence table holds a cycle key per length up to it
MAX_OBSERVATION_DEPTH = 101


def observation_depth(epsilon: float) -> int:
    """n_epsilon_cycles(epsilon) + 1, or TooLarge past MAX_OBSERVATION_DEPTH.
    2/epsilon meets the cap before it is rounded up, so an epsilon whose
    2/epsilon is huge, or infinite, is refused at once."""
    if 2.0 / epsilon > MAX_OBSERVATION_DEPTH - 1:
        raise TooLarge(f"observation depth above {MAX_OBSERVATION_DEPTH} at epsilon {epsilon}")
    return n_epsilon_cycles(epsilon) + 1


def observable_test(G, P: PropertySpec, epsilon: float) -> TestVerdict:
    """Deterministic decision from induced-cycle observations at depth s.

    Any graph whose every cycle is longer than s is within 2/(s-1) <= epsilon
    of forests for every bounded distribution (each long cycle has a cheap
    edge), so cycle observations up to s decide closeness in the
    distribution-free sense.
    """
    if P.id not in ("forest", "bipartite"):
        raise UnsupportedProperty(
            "observation-based testing covers forest and bipartite"
        )
    s = observation_depth(check_epsilon(epsilon))
    lengths = induced_cycle_lengths(G, s)
    # an odd cycle is what keeps a graph from being bipartite
    step = 2 if P.id == "bipartite" else 1
    entries = {cycle_key(k): k in lengths for k in range(3, s + 1, step)}
    reject = any(entries.values())
    return TestVerdict(
        verdict="REJECT" if reject else "ACCEPT",
        epsilon=epsilon,
        params={"mode": "observable", "property": P.id, "depth": s},
        violating_fraction=0.0,
        evidence=entries,
    )
