"""Removal certificates that break a graph into small components.

Constructors are heuristic (sphere cutting) and verifiers are exact and
independent, so a certificate is trusted only after re-checking the mass and
component bounds from scratch.

Weighted partitions come from a plan made once per graph.  The plan
reads the masses, the neighbor lists and the components once, picks one
entry vertex per component, and keeps the BFS layers that the searches of
an empty graph reach; it lives in the graph's derived-structure dict, so
every estimate and partition of the graph reuses it.  Over it, a per-epsilon
``_Plan`` cuts a partition for each component bound asked for with one
mark list.  ``find_weighted_partition`` asks it for one bound;
``solve_pieces`` climbs the estimators' ladder of bounds on one ``_Plan``.
Every certificate or failure text is the one a partition made from
scratch at that epsilon and bound gives.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass

from .graphs import GraphError, TooLarge, components, walk_order

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


class _GraphPlan:
    """The half of a partition plan that depends on the graph alone: the
    mass list, the neighbor lists, the components, the entry vertex of each
    component, and the BFS layers of every search made while nothing is
    assigned.

    One is kept in the graph's derived-structure dict, built on first use,
    so every partition and estimate of the graph shares it and it dies with
    the graph.  It holds no reference to the graph.  The layers of each seed
    are grown on demand, under a lock, and never change once grown; callers
    get prefixes and must not mutate them.
    """

    def __init__(self, G):
        # the masses are read first, so a graph too large to list them
        # raises TooLarge before anything of size n is allocated or cached
        self.p = G.probabilities.tolist()
        self.adj = G.neighbor_lists()
        self.components = components(G)
        # initial entries: the heaviest vertex of each component, the first
        # in visit order on ties
        self.entries = [max(comp, key=self.p.__getitem__) for comp in self.components]
        # seed -> [layers, their masses, running vertex counts, vertices
        # seen] of its BFS with nothing assigned; the seen set is dropped
        # once the component is exhausted, and the last layer is then empty
        self._first: dict[int, list] = {}
        self._lock = threading.Lock()

    def first_explore(self, seed: int, K_target: int):
        """explore(seed) while nothing is assigned: the seed's BFS layers up
        to the first prefix of more than K_target vertices."""
        p, adj = self.p, self.adj
        with self._lock:
            grown = self._first.get(seed)
            if grown is None:
                grown = self._first[seed] = [[[seed]], [p[seed]], [1], {seed}]
            layers, masses, totals, seen = grown
            while seen is not None and totals[-1] <= K_target:
                frontier = []
                mass = 0.0
                for v in layers[-1]:
                    for w in adj[v]:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                            mass += p[w]
                layers.append(frontier)
                masses.append(mass)
                totals.append(totals[-1] + len(frontier))
                if not frontier:
                    seen = grown[3] = None
            if totals[-1] <= K_target:
                return layers[:-1], masses[:-1], True
            cut = bisect_right(totals, K_target) + 1
            return layers[:cut], masses[:cut], False


class _Plan:
    """Sphere-cutting partitions of one graph at one epsilon, one for each
    component bound asked for.

    The masses, the neighbor lists, the components, their entry vertices
    and the searches made while nothing is assigned come from the graph's
    one ``_GraphPlan``, made once per graph.  Until a partition assigns its
    first vertex, each search it makes starts in the same empty graph as
    every other partition's, at any epsilon, so those searches are cut from
    the shared layers.  Later searches share this plan's one mark list:
    ``mark[w] < stamp`` means w is neither reached by the current search
    nor assigned.
    """

    def __init__(self, G, epsilon: float):
        self.epsilon = epsilon
        shared = G.derived("partition_plan", lambda: _GraphPlan(G))
        self.p, self.adj = shared.p, shared.adj
        self.components, self.entries = shared.components, shared.entries
        self.shared = shared
        self.mark = [0] * len(self.p)
        self.stamp = 0

    def certificate(self, K_target: int) -> PartitionCertificate:
        """The partition whose regions grow to at most K_target vertices,
        or PartitionInfeasible naming the entry where no cut was found."""
        epsilon, p, adj, mark = self.epsilon, self.p, self.adj, self.mark
        stamp = self.stamp
        # a search of this partition assigns a vertex or ends it, so its
        # stamps stay below done, which marks the assigned vertices; the
        # next partition's stamps start above it
        done = self.stamp = stamp + (SEED_TRIES + 1) * len(mark) + 1
        removed: set[int] = set()
        component_sizes: list[int] = []
        entries = self.entries.copy()
        fresh = True  # nothing is assigned yet

        def explore(seed: int):
            """BFS layers from seed until the prefix exceeds K_target or the
            component is exhausted.  Returns (layers, their masses,
            exhausted); every proper prefix of the layers holds at most
            K_target vertices."""
            nonlocal stamp
            if fresh:
                return self.shared.first_explore(seed, K_target)
            stamp += 1
            mark[seed] = stamp
            layers = [[seed]]
            masses = [p[seed]]
            total = 1
            while True:
                frontier = []
                mass = 0.0
                for v in layers[-1]:
                    for w in adj[v]:
                        if mark[w] < stamp:
                            mark[w] = stamp
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
            nonlocal fresh
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
            component_sizes.append(len(region))
            for v in sphere:
                for w in adj[v]:
                    if mark[w] < done:
                        entries.append(w)
            fresh = False
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
        return PartitionCertificate(
            removed=frozenset(removed),
            epsilon=epsilon,
            component_bound=max(component_sizes, default=0),
            component_sizes=tuple(sorted(component_sizes)),
        )


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
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if K_target is None:
        K_target = math.ceil(1.0 / epsilon)
    if K_target < 1:
        raise ValueError("component bound must be positive")
    return _Plan(G, epsilon).certificate(K_target)


def solve_pieces(G, epsilon: float, solve) -> list:
    """solve(piece, removed) for each component left by the first usable
    partition at epsilon, in component order.

    The component bounds climb from ceil(1/epsilon), doubling while below
    G.n, and end at G.n.  A bound is dropped when no partition is found
    there (PartitionInfeasible) or when solve gives out on one of its
    pieces (TooLarge); PartitionInfeasible naming the last failure is raised
    when every bound is dropped.  All bounds share one ``_Plan`` over the
    plan made once per graph, so the component scan, the entry picks and
    the first-carve layers of earlier estimates are reused.  The plan is
    reached before any bound is tried, so a TooLarge from reading the
    masses propagates at once, every time: nothing is cached for it.  The
    pieces are the plan's own components, shared with every caller, when
    a partition removes nothing; solve must not mutate them.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    plan = _Plan(G, epsilon)
    bounds = []
    k = math.ceil(1.0 / epsilon)
    while k < G.n:
        bounds.append(k)
        k *= 2
    bounds.append(G.n)
    # the last failure's text; the exception itself would hold the plan
    # through its traceback
    last_error = None
    for K_target in bounds:
        try:
            cert = plan.certificate(K_target)
        except PartitionInfeasible as e:
            last_error = str(e)
            continue
        pieces = components(G, cert.removed) if cert.removed else plan.components
        try:
            return [solve(piece, cert.removed) for piece in pieces]
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
