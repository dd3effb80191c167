"""Removal certificates that break a graph into small components.

Constructors are heuristic (sphere cutting) and verifiers are exact and
independent, so a certificate is trusted only after re-checking the mass and
component bounds from scratch.

Weighted partitions are cut by the graph's one ``_Plan``:
``find_weighted_partition`` asks it for one component bound, and
``solve_pieces`` for each bound of the estimators' ladder, solving the
regions of the first usable one.  Every certificate or failure text is the
one a partition made from scratch at that epsilon and bound gives.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass

import numpy as np

from .distances import n_epsilon_cycles
from .graphs import GraphError, TooLarge, check_epsilon, components, walk_order

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


class _Plan:
    """Sphere-cutting partitions of one graph at any epsilon and component
    bound, from its mass list, its neighbor lists, the entry vertex of each
    component and the searches made while nothing is assigned.

    One is kept in the graph's derived-structure dict (``_plan``), so every
    partition and estimate of the graph shares it; it holds no reference to
    the graph.  Until a partition assigns a vertex, its searches start in
    the same empty graph as every other partition's, so a stored search
    serves every bound it reaches past.  A stored search is replaced, never
    changed, so threads need no lock: two that store a seed's search at
    once store equal ones.  Callers must not mutate its layers.
    """

    def __init__(self, G):
        # the masses are read first, so a graph too large to list them
        # raises TooLarge before anything of size n is allocated or cached
        self.p = G.probabilities.tolist()
        self.adj = G.neighbor_lists()
        # initial entries: the heaviest vertex of each component, the first
        # in visit order on ties
        self.entries = [max(comp, key=self.p.__getitem__) for comp in components(G)]
        # seed -> (layers, their masses, running vertex counts, exhausted)
        # of its search with nothing assigned
        self.first: dict[int, tuple] = {}

    def certificate(self, epsilon: float, K_target: int) -> tuple[PartitionCertificate, list]:
        """The partition whose regions grow to at most K_target vertices and
        its sealed regions, which are the components left by its removed
        set; or PartitionInfeasible naming the entry where no cut was found."""
        p, adj, first = self.p, self.adj, self.first
        # mark[w] < stamp: w is neither reached by the current search nor
        # assigned.  An entry costs at most SEED_TRIES + 1 searches and
        # assigns a vertex or ends the partition, so the stamps stay below
        # done, which marks the assigned vertices.
        mark = [0] * len(p)
        stamp = 0
        done = (SEED_TRIES + 1) * len(mark) + 1
        removed: set[int] = set()
        regions: list[list[int]] = []
        entries = self.entries.copy()

        def explore(seed: int):
            """BFS layers from seed until the prefix exceeds K_target or the
            component is exhausted.  Returns (layers, their masses,
            exhausted); every proper prefix of the layers holds at most
            K_target vertices."""
            nonlocal stamp
            # while nothing is assigned, a stored search that is exhausted
            # or reaches past K_target holds the answer as a prefix
            search = None if regions else first.get(seed)
            if search is not None and (search[3] or search[2][-1] > K_target):
                layers, masses, totals, _ = search
                if totals[-1] <= K_target:
                    return layers, masses, True
                cut = bisect_right(totals, K_target) + 1
                return layers[:cut], masses[:cut], False
            stamp += 1
            mark[seed] = stamp
            layers, masses, total = [[seed]], [p[seed]], 1
            while True:
                frontier = []
                mass = 0.0
                for v in layers[-1]:
                    for w in adj[v]:
                        if mark[w] < stamp:
                            mark[w] = stamp
                            frontier.append(w)
                            mass += p[w]
                if frontier:
                    layers.append(frontier)
                    masses.append(mass)
                    total += len(frontier)
                if not frontier or total > K_target:
                    break
            if not regions:
                first[seed] = (layers, masses, list(accumulate(map(len, layers))), not frontier)
            return layers, masses, not frontier

        def carve(layers, masses, exhausted: bool) -> bool:
            """Seal off the best layer prefix of an explored ball.  A failing
            carve changes nothing, so its layers can seed the retries."""
            if exhausted:
                region, sphere = [v for layer in layers for v in layer], []
            else:
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
                mark[v] = done
            for v in sphere:
                removed.add(v)
                mark[v] = done
            regions.append(region)
            for v in sphere:
                for w in adj[v]:
                    if mark[w] < done:
                        entries.append(w)
            return True

        while entries:
            e = entries.pop()
            if mark[e] == done:
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
        sizes = [len(region) for region in regions]
        return PartitionCertificate(
            removed=frozenset(removed),
            epsilon=epsilon,
            component_bound=max(sizes, default=0),
            component_sizes=tuple(sorted(sizes)),
        ), regions


def _plan(G) -> _Plan:
    """The graph's partition plan, built on first use."""
    return G.derived("partition_plan", lambda: _Plan(G))


def _default_bound(n: int, epsilon: float) -> int:
    """ceil(1/epsilon), or n (at least 1) once that is no smaller, as every
    bound past n cuts alike; 1/epsilon is taken only when it is below n."""
    return math.ceil(1.0 / epsilon) if epsilon * n > 1.0 else max(n, 1)


def find_weighted_partition(G, epsilon: float, K_target: int = None) -> PartitionCertificate:
    """Sphere-cutting heuristic at one component bound.

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

    This is the one-bound case of the plan ``solve_pieces`` climbs: the
    same searches and cuts, with one bound asked for.  A graph too large to
    list its masses raises ``TooLarge``.
    """
    check_epsilon(epsilon)
    if K_target is None:
        K_target = _default_bound(G.n, epsilon)
    if K_target < 1:
        raise ValueError("component bound must be positive")
    return _plan(G).certificate(epsilon, K_target)[0]


def solve_pieces(G, epsilon: float, solve) -> list:
    """solve(piece, removed) for each component left by the first usable
    partition at epsilon/2 (an estimate's ladder at accuracy epsilon), in
    component order; an epsilon ``check_epsilon`` refuses raises first.

    The component bounds climb from ceil(2/epsilon), doubling while below
    G.n, and end at G.n.  A bound is dropped when no partition is found
    there (PartitionInfeasible) or when solve gives out on one of its
    pieces (TooLarge); PartitionInfeasible naming the last failure is raised
    when every bound is dropped.  Every bound is cut on the graph's one
    plan, so the component scan, the entry picks and the first-carve layers
    of earlier estimates are reused.  The plan is reached before any bound
    is tried, so a TooLarge from reading the masses propagates at once,
    every time: nothing is cached for it.  The pieces are the partition's
    sealed regions, ordered by their smallest vertex as ``components``
    orders them.
    """
    check_epsilon(epsilon)
    plan = _plan(G)
    epsilon /= 2.0  # the partition's own, 0 for the smallest subnormal
    bounds = []
    k = _default_bound(G.n, epsilon)
    while k < G.n:
        bounds.append(k)
        k *= 2
    bounds.append(G.n)
    # the last failure's text; the exception itself would hold the plan
    # through its traceback
    last_error = None
    for K_target in bounds:
        try:
            cert, regions = plan.certificate(epsilon, K_target)
        except PartitionInfeasible as e:
            last_error = str(e)
            continue
        try:
            return [solve(piece, cert.removed) for piece in sorted(regions, key=min)]
        except TooLarge as e:
            last_error = str(e)
    raise PartitionInfeasible(
        f"no usable partition at any component bound: {last_error}"
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
    """Shift construction: with spacing m = n_epsilon_cycles(epsilon), cover
    j removes positions congruent to j mod m along a traversal; grids use
    both axes.  Cover 0 holds the first vertex and no cover is larger, so
    the verifier's size test runs on it before the others are built, and
    fails before m is taken when epsilon * n <= 1."""
    check_epsilon(epsilon)
    n = G.n
    failed = "shift construction failed its own verifier at this size/epsilon"
    if grid_dims is not None:
        rows, cols = grid_dims
        if rows * cols != n:
            raise UnsupportedFamily("grid dimensions do not match the graph")
    else:
        family = _detect_family(G)
        if family == "single":
            return UniformCoverCertificate(covers=(frozenset(),), epsilon=epsilon,
                                           component_bound=1)
    if epsilon * n <= 1.0:
        raise UnsupportedFamily(failed)
    m = n_epsilon_cycles(epsilon)
    if grid_dims is not None:
        # vertex r * cols + c lies in cover (j1, j2) when r % m == j1 or c % m == j2
        r, c = np.divmod(np.arange(n), cols)
        r, c = r % m, c % m
        if np.count_nonzero((r == 0) | (c == 0)) >= epsilon * n:
            raise UnsupportedFamily(failed)
        covers = tuple(
            frozenset(np.flatnonzero((r == j1) | (c == j2)).tolist())
            for j1 in range(m)
            for j2 in range(m)
        )
        bound = (m - 1) * (m - 1)
    else:
        # a path walks from its smaller end, a cycle from vertex 0
        start = 0
        if family == "path":
            start = min(v for v, nbrs in enumerate(G.neighbor_lists()) if len(nbrs) == 1)
        order = walk_order(G.neighbor_lists().__getitem__, start, n)
        if len(order[::m]) >= epsilon * n:
            raise UnsupportedFamily(failed)
        covers = tuple(frozenset(order[j::m]) for j in range(m))
        bound = max(
            (len(c) for cov in covers for c in components(G, cov)), default=0
        )
    cert = UniformCoverCertificate(covers=covers, epsilon=epsilon, component_bound=bound)
    if not verify_uniform_cover(G, cert):
        raise UnsupportedFamily(failed)
    return cert
