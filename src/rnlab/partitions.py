"""Removal certificates that break a graph into small components.

Constructors are heuristic (sphere cutting) and verifiers are exact and
independent, so a certificate is trusted only after re-checking the mass and
component bounds from scratch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import GraphError, components, walk_order

MASS_SLACK = 1e-9


class PartitionInfeasible(GraphError):
    pass


class UnsupportedFamily(GraphError):
    pass


@dataclass
class PartitionCertificate:
    removed: frozenset
    epsilon: float
    component_bound: int
    component_sizes: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "removed": sorted(self.removed),
            "epsilon": self.epsilon,
            "component_bound": self.component_bound,
            "component_sizes": list(self.component_sizes),
        }


@dataclass
class UniformCoverCertificate:
    covers: tuple[frozenset, ...]
    epsilon: float
    component_bound: int

    def to_json_dict(self) -> dict:
        return {
            "covers": [sorted(c) for c in self.covers],
            "epsilon": self.epsilon,
            "component_bound": self.component_bound,
        }


def removed_mass(G, removed) -> float:
    if not removed:
        return 0.0
    probs = G.probabilities
    return float(sum(probs[v] for v in removed))


def verify_weighted_partition(G, cert: PartitionCertificate) -> bool:
    """Exact re-check: mass of the removed set and all component sizes.
    A removed set naming anything but a vertex of G fails."""
    if not all(0 <= v < G.n for v in cert.removed):
        return False
    mass = removed_mass(G, cert.removed)
    if mass > cert.epsilon * (1.0 + MASS_SLACK) + 1e-15:
        return False
    return all(len(c) <= cert.component_bound for c in components(G, cert.removed))


def verify_uniform_cover(G, cert: UniformCoverCertificate) -> bool:
    """The three defining conditions: every cover is small in counting
    measure, every residual component is bounded, every vertex is covered
    rarely.  A cover naming anything but a vertex of G fails."""
    n = G.n
    L = len(cert.covers)
    if L == 0:
        return False
    frequency = [0] * n
    for cover in cert.covers:
        if len(cover) >= cert.epsilon * n and len(cover) > 0:
            return False
        if not all(0 <= v < n for v in cover):
            return False
        if any(len(c) > cert.component_bound for c in components(G, cover)):
            return False
        for v in cover:
            frequency[v] += 1
    return all(f < cert.epsilon * L for f in frequency)


SEED_TRIES = 4


def find_weighted_partition(G, epsilon: float, K_target: int = None) -> PartitionCertificate:
    """Sphere-cutting heuristic.

    Grow a BFS region from a seed inside an oversized component; among layer
    prefixes of at most K_target vertices, cut the bounding sphere with the
    smallest mass relative to the region it seals off.  Accepted cuts keep
    the running removed mass below epsilon because sealed regions are
    disjoint: sum p(S_i) <= epsilon * sum p(R_i) <= epsilon.

    K_target is a hint bounding how far a region may grow, not a promise
    about the result; the certificate records the bound actually achieved.
    The default ceil(1/epsilon) suits paths and mass-balanced trees.  Flat
    cycles need regions of about 2/epsilon vertices and grid interiors about
    8/epsilon^2, so pass a larger hint there; expanders fail at every hint
    small enough to be meaningful, which is the point.

    Every scan reads one list of the masses and the graph's one
    ``G.neighbor_lists()``, as ``components`` does.  The lists are read after
    ``G.probabilities``, so a graph too large to list its masses raises
    ``TooLarge`` before anything of size n is allocated.  Layer masses are
    summed once each, left to right.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if K_target is None:
        K_target = math.ceil(1.0 / epsilon)
    if K_target < 1:
        raise ValueError("component bound must be positive")
    n = G.n
    p = G.probabilities.tolist()
    adj = G.neighbor_lists()
    removed: set[int] = set()
    assigned = [False] * n
    component_sizes: list[int] = []

    # initial entries: the heaviest vertex of each component, the first in
    # visit order on ties
    entries = [max(comp, key=p.__getitem__) for comp in components(G)]

    def explore(seed: int):
        """BFS layers from seed until the prefix exceeds K_target or the
        component is exhausted.  Returns (layers, their masses, exhausted);
        every proper prefix of the layers holds at most K_target vertices."""
        layers = [[seed]]
        masses = [p[seed]]
        visited = {seed}
        total = 1
        while True:
            frontier = []
            mass = 0.0
            for v in layers[-1]:
                for w in adj[v]:
                    # removed vertices are assigned too
                    if w not in visited and not assigned[w]:
                        visited.add(w)
                        frontier.append(w)
                        mass += p[w]
            if not frontier:
                return layers, masses, True
            layers.append(frontier)
            masses.append(mass)
            total += len(frontier)
            if total > K_target:
                return layers, masses, False

    def carve(layers, masses, exhausted: bool) -> bool:
        """Seal off the best layer prefix of an explored ball.  A failing
        carve changes nothing, so its layers can seed the retries."""
        if exhausted:
            comp = [v for layer in layers for v in layer]
            for v in comp:
                assigned[v] = True
            component_sizes.append(len(comp))
            return True
        best_ratio, best_rho = None, None
        region_mass = 0.0
        for rho in range(len(layers) - 1):
            region_mass += masses[rho]
            ratio = masses[rho + 1] / region_mass if region_mass > 0 else math.inf
            if best_ratio is None or ratio < best_ratio:
                best_ratio, best_rho = ratio, rho
        if best_ratio > epsilon:
            return False
        region = [v for lay in layers[: best_rho + 1] for v in lay]
        sphere = layers[best_rho + 1]
        for v in region:
            assigned[v] = True
        for v in sphere:
            removed.add(v)
            assigned[v] = True
        component_sizes.append(len(region))
        for v in sphere:
            for w in adj[v]:
                if not assigned[w]:
                    entries.append(w)
        return True

    while entries:
        e = entries.pop()
        if assigned[e]:
            continue
        layers, masses, exhausted = explore(e)
        if carve(layers, masses, exhausted):
            continue
        # retry from the heaviest vertices of the sampled ball
        pool = sorted(
            (v for lay in layers for v in lay), key=lambda v: -p[v]
        )[:SEED_TRIES]
        if not any(v != e and carve(*explore(v)) for v in pool):
            raise PartitionInfeasible(
                f"no sphere of relative mass <= {epsilon} around vertex {e} "
                f"with regions of <= {K_target} vertices"
            )
    return PartitionCertificate(
        removed=frozenset(removed),
        epsilon=epsilon,
        component_bound=max(component_sizes, default=0),
        component_sizes=tuple(sorted(component_sizes)),
    )


def _detect_family(G) -> str:
    degs = [len(nbrs) for nbrs in G.neighbor_lists()]
    if G.n == 1:
        return "single"
    if len(components(G)) != 1:
        raise UnsupportedFamily("cover construction needs a connected graph")
    if all(d <= 2 for d in degs):
        if degs.count(1) == 2:
            return "path"
        if all(d == 2 for d in degs):
            return "cycle"
    raise UnsupportedFamily(
        "cover construction supports paths, cycles, and grids (pass grid_dims)"
    )


def build_uniform_cover(G, epsilon: float, grid_dims: tuple = None) -> UniformCoverCertificate:
    """Shift construction: with spacing m = ceil(2/epsilon), cover j removes
    positions congruent to j mod m along a traversal; grids use both axes."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    m = math.ceil(2.0 / epsilon - 1e-9)
    if grid_dims is not None:
        rows, cols = grid_dims
        if rows * cols != G.n:
            raise UnsupportedFamily("grid dimensions do not match the graph")
        covers = []
        for j1 in range(m):
            for j2 in range(m):
                cov = frozenset(
                    r * cols + c
                    for r in range(rows)
                    for c in range(cols)
                    if r % m == j1 or c % m == j2
                )
                covers.append(cov)
        bound = (m - 1) * (m - 1)
        cert = UniformCoverCertificate(
            covers=tuple(covers), epsilon=epsilon, component_bound=bound
        )
    else:
        family = _detect_family(G)
        if family == "single":
            return UniformCoverCertificate(
                covers=(frozenset(),), epsilon=epsilon, component_bound=1
            )
        # a path walks from its smaller end, a cycle from vertex 0
        start = 0
        if family == "path":
            start = min(v for v, nbrs in enumerate(G.neighbor_lists()) if len(nbrs) == 1)
        order = walk_order(G.neighbor_lists().__getitem__, start, G.n)
        covers = tuple(
            frozenset(order[pos] for pos in range(G.n) if pos % m == j)
            for j in range(m)
        )
        bound = max(
            (len(c) for cov in covers for c in components(G, cov)), default=0
        )
        cert = UniformCoverCertificate(
            covers=covers, epsilon=epsilon, component_bound=bound
        )
    if not verify_uniform_cover(G, cert):
        raise UnsupportedFamily(
            "shift construction failed its own verifier at this size/epsilon"
        )
    return cert
