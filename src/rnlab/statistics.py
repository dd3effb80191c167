"""Distributions over labeled balls, their distances, and entropies.

A statistic maps canonical ball keys to probability mass.  Exact statistics
walk every vertex (or one representative per orbit, which is what makes
astronomically large layered trees tractable); empirical statistics count
oracle queries.  Both read ball types from the graph's
:class:`~rnlab.oracles.BallIndex` through ``BallIndex.types``, the one place
that maps a root to its ball type: a root (or orbit) typed before on the same
graph at the same (r, t) is not extracted again, and a raw ball seen before
is not canonicalized again; a full sweep's misses read the graph's one
``G.neighbor_lists()``.  Masses are summed per type id with
``bincount``, in sweep order or sorted-root order, and keys appear in the
order their types are first met there.

A profile, one statistic per radius 1..r_max, is the one file format:
:func:`profile_to_json` writes it and :func:`load_profile` reads it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# canonicalize is not called here; bench/layertrace.py wraps this name
from .balls import CanonicalBallKey, canonicalize, extract_ball
from .graphs import GraphError, open_input
from .oracles import BallIndex, RadonNikodymOracle, ball_index


class ParamMismatch(GraphError):
    pass


# float error allowed in a sum of masses that should be at most 1 (an exact
# statistic of a vertex-transitive graph has one key of mass about 1 + 1e-15)
SUM_SLACK = 1e-9


@dataclass
class BallStatistics:
    radius: int
    digits: int
    degree_bound: int
    ratio_bound: float
    weights: dict[CanonicalBallKey, float]
    total_queries: int = 0

    def mass(self, key: CanonicalBallKey) -> float:
        return self.weights.get(key, 0.0)

    def support_size(self) -> int:
        return len(self.weights)

    def check_compatible(self, other: "BallStatistics") -> None:
        if (self.radius, self.digits, self.degree_bound) != (
            other.radius,
            other.digits,
            other.degree_bound,
        ):
            raise ParamMismatch(
                "statistics computed with different radius/digits/degree"
            )

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "digits": self.digits,
            "degree_bound": self.degree_bound,
            "ratio_bound": self.ratio_bound,
            "total_queries": self.total_queries,
            "weights": {k.hex(): v for k, v in sorted(self.weights.items())},
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BallStatistics":
        """The statistic of a dict as ``to_json_dict`` writes it.  Raises
        ValueError unless radius, digits, degree_bound and total_queries are
        ints (a bool is not), every mass is a finite nonnegative number and
        the masses sum to at most 1 + SUM_SLACK."""
        counts = {name: obj[name] for name in ("radius", "digits", "degree_bound")}
        counts["total_queries"] = obj.get("total_queries", 0)
        for name, value in counts.items():
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        masses = obj["weights"]
        for v in masses.values():
            if type(v) not in (int, float) or not 0.0 <= v < math.inf:
                raise ValueError(f"masses must be finite nonnegative numbers, got {v!r}")
        # masses are nonnegative, so this bounds each of them too
        total = math.fsum(masses.values())
        if total > 1.0 + SUM_SLACK:
            raise ValueError(f"masses must sum to at most 1, got {total!r}")
        return cls(
            ratio_bound=float(obj["ratio_bound"]),
            weights={CanonicalBallKey(bytes.fromhex(k)): float(v) for k, v in masses.items()},
            **counts,
        )


MAX_EXACT_SWEEP = 5_000_000


def _key_weights(index: BallIndex, types: np.ndarray, masses: np.ndarray) -> dict:
    """Mass per canonical key, summed in input order, keys in the order their
    types first occur in ``types``."""
    totals = np.bincount(types, weights=masses)
    ids, first = np.unique(types, return_index=True)
    return {index.keys[i]: float(totals[i]) for i in ids[np.argsort(first)].tolist()}


def _sweep(G) -> tuple[np.ndarray, np.ndarray]:
    """Roots and masses of an exact sweep: one representative per orbit when
    the graph carries an orbit labeling, every vertex otherwise."""
    reps = G.orbit_reps()
    if reps is not None:
        roots = np.array([rep for rep, _ in reps], dtype=object)
        return roots, np.array([mass for _, mass in reps], dtype=np.float64)
    if G.n > MAX_EXACT_SWEEP:
        raise GraphError(f"exact sweep over {G.n} vertices refused; provide orbits")
    return np.arange(G.n), G.probabilities


def exact_stats(G, r: int, t: int) -> BallStatistics:
    """Exact ball statistic by full sweep, or by orbit representatives when
    the graph carries an orbit labeling."""
    roots, masses = _sweep(G)
    index = ball_index(G, r, t)
    return BallStatistics(
        radius=r,
        digits=t,
        degree_bound=G.d,
        ratio_bound=G.K,
        weights=_key_weights(index, index.types(roots), masses),
        total_queries=0,
    )


def empirical_stats(G, r: int, t: int, budget: int, seed: int = 0) -> BallStatistics:
    """Sampled ball statistic at radius r and t label digits from budget
    queries to the relative-weight oracle with this seed."""
    if budget < 1:
        raise ValueError(f"query budget must be at least 1, got {budget}")
    oracle = RadonNikodymOracle(G, r, t, seed=seed)
    roots = oracle.sample_roots(budget)
    # per root, not per type: masses summed root by root keep their float bits
    uniq, counts = np.unique(roots, return_counts=True)
    types = oracle.index.types(uniq)
    return BallStatistics(
        radius=r,
        digits=t,
        degree_bound=G.d,
        ratio_bound=G.K,
        weights=_key_weights(oracle.index, types, counts * (1.0 / budget)),
        total_queries=budget,
    )


def tv(a: BallStatistics, b: BallStatistics) -> float:
    """Total variation distance of two ball statistics; fsum makes it independent of key order."""
    a.check_compatible(b)
    keys = set(a.weights) | set(b.weights)
    return 0.5 * math.fsum(abs(a.mass(k) - b.mass(k)) for k in keys)


def statistical_distance(
    stats_a: dict[int, BallStatistics],
    stats_b: dict[int, BallStatistics],
    r_max: int,
) -> float:
    """Sum over radii 1..r_max of 2^-r times the TV distance at radius r."""
    if r_max < 1:
        raise ValueError(f"a statistical distance needs r_max >= 1, got {r_max}")
    total = 0.0
    for r in range(1, r_max + 1):
        if r not in stats_a or r not in stats_b:
            raise ParamMismatch(f"missing radius {r} in statistics profile")
        total += 2.0 ** (-r) * tv(stats_a[r], stats_b[r])
    return total


def stats_profile(G, r_max: int, t: int) -> dict[int, BallStatistics]:
    return {r: exact_stats(G, r, t) for r in range(1, r_max + 1)}


def empirical_profile(
    G, r_max: int, t: int, budget: int, seed: int = 0
) -> dict[int, BallStatistics]:
    return {r: empirical_stats(G, r, t, budget, seed) for r in range(1, r_max + 1)}


def vertex_entropy(G) -> float:
    """Shannon entropy of the vertex distribution, in nats."""
    reps = G.orbit_reps()
    if reps is not None:
        total = 0.0
        for rep, mass in reps:
            # log p(rep) from log-weights: p(rep) itself can underflow to 0
            # while its orbit keeps positive mass
            if mass > 0.0:
                total -= mass * (G.log_weight(rep) - G.log_z)
        return total
    p = G.probabilities
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def edge_entropy(G) -> float:
    """Expected log-ratio sum over the neighbors of a random vertex:
    sum_v p(v) * sum_{y ~ v} log(p(v)/p(y)).  Bounded by d*log(K)."""
    reps = G.orbit_reps()
    if reps is not None:
        total = 0.0
        for rep, mass in reps:
            lw_v = G.log_weight(rep)
            s = sum(lw_v - G.log_weight(y) for y in G.neighbors(rep))
            total += mass * s
        return total
    lw = G.log_weights
    src, dst = G.arcs()
    contrib = lw[src] - lw[dst]
    return float((G.probabilities[src] * contrib).sum())


def truncation_stability(G, r: int, t: int, threshold: float = 0.01):
    """Mass of balls whose t-digit labels disagree with their (t+1)-digit
    labels coarsened by one digit.  Such balls sit on a truncation boundary
    and their keys are unreliable at depth t.

    Returns (stable, boundary_mass).
    """
    roots, masses = _sweep(G)
    boundary_mass = 0.0
    for root, mass in zip(roots.tolist(), masses.tolist()):
        coarse = extract_ball(G, root, r, t)
        fine = extract_ball(G, root, r, t + 1)
        risky = any(
            c.scaled_value != f.scaled_value // 10
            for c, f in zip(coarse.labels, fine.labels)
        )
        if risky:
            boundary_mass += mass
    return boundary_mass <= threshold, boundary_mass


def profile_to_json(profile: dict[int, BallStatistics], mode: str) -> str:
    """A profile as its file holds it: the largest radius, the mode that
    made it ("exact" or "empirical") and each radius's statistic."""
    per_radius = {str(r): st.to_json_dict() for r, st in profile.items()}
    obj = {"r_max": max(profile, default=0), "mode": mode, "per_radius": per_radius}
    return json.dumps(obj, indent=1, sort_keys=True)


def load_profile(path) -> dict[int, BallStatistics]:
    """Read a profile file as profile_to_json writes it.  Raises GraphError
    for a path that cannot be opened, a file of any other kind, or one with
    a statistic that BallStatistics.from_json_dict cannot read."""
    with open_input(path) as fh:
        try:
            per_radius = json.load(fh)["per_radius"]
            return {int(r): BallStatistics.from_json_dict(st) for r, st in per_radius.items()}
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as e:
            raise GraphError(f"{path} is not a statistics profile: {e!r}") from None
