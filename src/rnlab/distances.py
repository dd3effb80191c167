"""Edit distances, distance to a property, and the distribution-free worst case.

Everything here is a truth oracle at desk scale: exact minimization over
bijections, over edge-deletion subsets, or over the probability polytope via
an exact-rational LP.  These values calibrate the samplers and testers.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (
    Budget,
    GraphError,
    TooLarge,
    WeightedGraph,
    adjacency,
    check_ratio_bound,
    two_coloring,
)
from .simplex import solve_lp


class SizeMismatch(GraphError):
    pass


class VertexSetMismatch(GraphError):
    pass


class UnsupportedProperty(GraphError):
    pass


@dataclass(frozen=True)
class PropertySpec:
    """A graph property closed under subgraphs and disjoint unions."""

    id: str
    forbidden: Optional[tuple[int, tuple[tuple[int, int], ...]]] = None
    colors: Optional[int] = None

    @staticmethod
    def forest() -> "PropertySpec":
        return PropertySpec(id="forest")

    @staticmethod
    def bipartite() -> "PropertySpec":
        return PropertySpec(id="bipartite")

    @staticmethod
    def h_free(n: int, edges) -> "PropertySpec":
        """Graphs with no copy of H, the graph on vertices 0..n-1 with the
        given edges.  A self-loop or an endpoint outside 0..n-1 is a
        ValueError: no search for a copy would check such an edge."""
        if n < 0:
            raise ValueError(f"the forbidden graph needs a vertex count of at least 0, got {n}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"forbidden edge {u}-{v} is a self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"forbidden edge {u}-{v} has an endpoint outside 0..{n - 1}")
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return PropertySpec(id="h_free", forbidden=(n, canon))

    @staticmethod
    def k_colorable(k: int) -> "PropertySpec":
        if k < 1:
            raise ValueError("need at least one color")
        return PropertySpec(id="k_colorable", colors=k)


def _cycle_edges(n: int, edges) -> list:
    """Kruskal pass over edges in the given order: the edges that close a
    cycle with those kept before them."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    rejected = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rejected.append((u, v))
        else:
            parent[ru] = rv
    return rejected


# nodes of the backtracking predicates, and sets distance_to_property pushes
SEARCH_NODE_CAP = 2_000_000
DELETION_PUSH_CAP = 500_000


def _has_subgraph_copy(n: int, edges, hn: int, hedges) -> bool:
    """Backtracking search for a (not necessarily induced) copy of H."""
    if hn > n:
        return False
    adj = adjacency(n, edges)
    hadj = adjacency(hn, hedges)
    # map H vertices in an order that keeps the partial image connected
    order = sorted(range(hn), key=lambda v: -len(hadj[v]))
    assign = [-1] * hn
    used = [False] * n
    budget = Budget(SEARCH_NODE_CAP, f"subgraph search exceeded its node cap of {SEARCH_NODE_CAP}")

    def place(i: int) -> bool:
        budget.spend()
        if i == hn:
            return True
        hv = order[i]
        anchors = [assign[u] for u in hadj[hv] if assign[u] != -1]
        candidates = (
            [g for g in adj[anchors[0]] if all(g in adj[a] for a in anchors[1:])]
            if anchors
            else range(n)
        )
        for g in candidates:
            if used[g]:
                continue
            used[g] = True
            assign[hv] = g
            if place(i + 1):
                return True
            used[g] = False
            assign[hv] = -1
        return False

    return place(0)


def _is_k_colorable(n: int, edges, k: int) -> bool:
    """Backtracking k-coloring."""
    adj = adjacency(n, edges)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    colors = [-1] * n
    budget = Budget(SEARCH_NODE_CAP, f"coloring search exceeded its node cap of {SEARCH_NODE_CAP}")

    def go(i: int) -> bool:
        budget.spend()
        if i == n:
            return True
        v = order[i]
        banned = {colors[u] for u in adj[v] if colors[u] != -1}
        for c in range(k):
            if c in banned:
                continue
            colors[v] = c
            if go(i + 1):
                return True
            colors[v] = -1
            if colors.count(c) == 0:
                break  # first use of a fresh color; deeper colors are symmetric
        return False

    return go(0)


def holds_on(P: PropertySpec, n: int, edges) -> bool:
    if P.id == "forest":
        return not _cycle_edges(n, edges)
    if P.id == "bipartite":
        return two_coloring(adjacency(n, edges).__getitem__, range(n)) is not None
    if P.id == "h_free":
        hn, hedges = P.forbidden
        return not _has_subgraph_copy(n, edges, hn, hedges)
    if P.id == "k_colorable":
        return _is_k_colorable(n, edges, P.colors)
    raise UnsupportedProperty(P.id)


def is_member(G, P: PropertySpec) -> bool:
    return holds_on(P, G.n, G.edge_list())


MAX_BIJECTION_VERTICES = 9
MAX_DELETION_EDGES = 24
MAX_LP_EDGES = 16


def edit_distance_uniform(G: WeightedGraph, H: WeightedGraph) -> float:
    """Minimum |E(G) delta E(H')| over relabelings H' of H, divided by d*n."""
    if G.n != H.n:
        raise SizeMismatch(f"{G.n} vs {H.n} vertices")
    if G.n > MAX_BIJECTION_VERTICES:
        raise TooLarge("exact bijection search limited to 9 vertices")
    if G.d != H.d:
        raise SizeMismatch("degree bounds differ")
    n = G.n
    g_edges = set(G.edge_list())
    h_edges = list(H.edge_list())
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in h_edges}
        diff = len(g_edges ^ mapped)
        if best is None or diff < best:
            best = diff
            if best == 0:
                break
    return best / (G.d * n)


def edge_mass(G, u: int, v: int) -> float:
    return G.p(u) + G.p(v)


def weighted_edit_distance(Gp: WeightedGraph, Hq: WeightedGraph) -> float:
    """Total endpoint-mass of edges in the symmetric difference; both graphs
    must live on the same vertex set."""
    if Gp.n != Hq.n:
        raise VertexSetMismatch(f"{Gp.n} vs {Hq.n} vertices")
    ge = set(Gp.edge_list())
    he = set(Hq.edge_list())
    total = 0.0
    for u, v in ge - he:
        total += edge_mass(Gp, u, v)
    for u, v in he - ge:
        total += edge_mass(Hq, u, v)
    return total


def _forest_distance(G) -> tuple[float, tuple]:
    """Max-weight spanning forest: keep heavy edges, delete the rest."""
    edges = sorted(G.edge_list(), key=lambda e: -edge_mass(G, *e))
    deleted = _cycle_edges(G.n, edges)
    return sum(edge_mass(G, *e) for e in deleted), tuple(sorted(deleted))


def distance_to_property(Gp, P: PropertySpec, return_witness: bool = False):
    """Cheapest edge-deletion set whose removal lands in P, measured in
    endpoint mass.

    Deletion-only search is exact for subgraph-closed P: if some (H, q) in P
    beats it, dropping H's added edges stays in P (subgraph-closed) and only
    removes terms from the cost, so a deletion-only H is at least as good.
    Raises ``BudgetExceeded`` past ``DELETION_PUSH_CAP`` pushed sets."""
    if P.id == "forest":
        dist, witness = _forest_distance(Gp)
        return (dist, witness) if return_witness else dist
    if P.id not in ("bipartite", "h_free", "k_colorable"):
        raise UnsupportedProperty(P.id)
    edges = list(Gp.edge_list())
    m = len(edges)
    if m > MAX_DELETION_EDGES:
        raise TooLarge(f"{m} edges; exact search limited to {MAX_DELETION_EDGES}")
    n = Gp.n
    order = sorted(range(m), key=lambda i: edge_mass(Gp, *edges[i]))
    costs = [edge_mass(Gp, *edges[order[i]]) for i in range(m)]
    # best-first over deletion subsets, extended by edges after the last index
    # a subset is pushed only by itself minus its largest index, so never twice
    heap: list[tuple[float, int, frozenset]] = [(0.0, -1, frozenset())]
    budget = Budget(DELETION_PUSH_CAP, f"deletion search pushed more than {DELETION_PUSH_CAP} sets")
    while heap:
        weight, last, dele = heapq.heappop(heap)
        kept = [edges[order[i]] for i in range(m) if i not in dele]
        if holds_on(P, n, kept):
            witness = tuple(sorted(edges[order[i]] for i in dele))
            return (weight, witness) if return_witness else weight
        budget.spend(m - last - 1)
        for j in range(last + 1, m):
            heapq.heappush(heap, (weight + costs[j], j, dele | {j}))
    raise UnsupportedProperty(f"{P.id}: no deletion set reaches the property")


def _minimal_deletion_sets(n: int, edges, P: PropertySpec) -> list[frozenset]:
    """Inclusion-minimal valid deletion sets.  Validity is monotone for
    subgraph-closed P, so minimality is checked by single-edge puts-back."""
    m = len(edges)
    if holds_on(P, n, edges):
        return [frozenset()]
    minimal = []
    for bits in range(1, 1 << m):
        dele = frozenset(i for i in range(m) if bits >> i & 1)
        kept = [edges[i] for i in range(m) if i not in dele]
        if not holds_on(P, n, kept):
            continue
        is_minimal = True
        for i in dele:
            restored = kept + [edges[i]]
            if holds_on(P, n, restored):
                is_minimal = False
                break
        if is_minimal:
            minimal.append(dele)
    return minimal


def absolute_distance(G, P: PropertySpec, K: float, exact: bool = False):
    """Worst case of distance_to_property over every K-bounded distribution.

    The inner minimum runs over deletion sets; restricting to inclusion-
    minimal ones loses nothing.  The sup over the probability polytope of the
    resulting piecewise-linear concave function is a max-min LP solved
    exactly over rationals.  Raises GraphError for a K that
    check_ratio_bound refuses.
    """
    check_ratio_bound(K)
    edges = list(G.edge_list())
    m = len(edges)
    if m > MAX_LP_EDGES:
        raise TooLarge(f"{m} edges; LP formulation limited to {MAX_LP_EDGES}")
    if P.id not in ("forest", "bipartite", "h_free", "k_colorable"):
        raise UnsupportedProperty(P.id)
    n = G.n
    sets = _minimal_deletion_sets(n, edges, P)
    if sets == [frozenset()]:
        return (Fraction(0), [Fraction(1, n)] * n) if exact else 0.0
    Kf = Fraction(K)
    # variables: p_0..p_{n-1}, z; maximize z
    objective = [0] * n + [1]
    A_ub: list[list] = []
    b_ub: list = []
    for u, v in edges:
        row = [0] * (n + 1)
        row[u], row[v] = 1, -Kf
        A_ub.append(row)
        b_ub.append(0)
        row = [0] * (n + 1)
        row[v], row[u] = 1, -Kf
        A_ub.append(row)
        b_ub.append(0)
    for dele in sets:
        row = [0] * (n + 1)
        for i in dele:
            u, v = edges[i]
            row[u] -= 1
            row[v] -= 1
        row[n] = 1
        A_ub.append(row)
        b_ub.append(0)
    A_eq = [[1] * n + [0]]
    b_eq = [1]
    value, x = solve_lp(objective, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    if exact:
        return value, x[:n]
    return float(value)


def absolute_distance_grid_check(G, P: PropertySpec, K: float, steps: int) -> float:
    """Lower bound on absolute_distance by brute force over distributions
    with probabilities i/steps.  Used to cross-check the LP from below.

    Works on the integer numerators a: p(u) > K p(v) exactly when
    a_u * K.den > K.num * a_v, and the one division by steps comes last."""
    check_ratio_bound(K)
    edges = list(G.edge_list())
    n = G.n
    sets = _minimal_deletion_sets(n, edges, P)
    Kf = Fraction(K)
    num, den = Kf.numerator, Kf.denominator
    best = 0
    for comp in itertools.combinations(range(steps + n - 1), n - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + n - 2 - prev)
        if any(
            parts[u] * den > num * parts[v] or parts[v] * den > num * parts[u]
            for u, v in edges
        ):
            continue
        inner = min(
            sum(parts[edges[i][0]] + parts[edges[i][1]] for i in dele) for dele in sets
        )
        best = max(best, inner)
    return float(Fraction(best, steps))


def n_epsilon_cycles(epsilon: float) -> int:
    """Smallest cycle length that is epsilon-close to forests in the
    distribution-free sense: absolute distance of C_n is 2/n."""
    return math.ceil(2.0 / epsilon - 1e-9)
