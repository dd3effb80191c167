"""Shared brute-force oracles and graph factories for the test suite.

Everything here is deliberately naive: permutation search for isomorphism,
subset enumeration for optima.  Slow and obviously correct beats fast.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import combinations, permutations

import numpy as np

from rnlab import (
    DegreeExceeded,
    DuplicateEdge,
    GraphError,
    LayeredBinaryTree,
    RatioBoundViolated,
    SelfLoop,
    build_graph,
    gen_grid,
)
from rnlab import balls
from rnlab.balls import (
    CanonicalBallKey,
    CanonicalDecoratedBall,
    FixedPointLabel,
    LabeledBall,
    _encode_ordered,
    _label_bytes,
    _ranks,
    _relabel,
    unrooted_key,
)
from rnlab.generators import REGULAR_TRIES, SPECTRAL_GAP, InvalidSize
from rnlab.graphs import (
    RATIO_SLACK,
    BudgetExceeded,
    TooLarge,
    adjacency,
    bfs,
    components,
)
from rnlab.partitions import SEED_TRIES, PartitionCertificate, PartitionInfeasible
from rnlab.solvers import component_mwis, is_independent, matching_size
from rnlab.statistics import BallStatistics, _sweep

LN2 = math.log(2.0)

GIRTH8_CUBIC_EDGES = [
    (0, 5), (0, 10), (0, 25), (1, 6), (1, 28), (1, 38), (2, 11), (2, 23),
    (2, 39), (3, 28), (3, 33), (3, 37), (4, 10), (4, 14), (4, 37), (5, 8),
    (5, 9), (6, 18), (6, 25), (7, 14), (7, 27), (7, 32), (8, 11), (8, 35),
    (9, 29), (9, 32), (10, 21), (11, 28), (12, 19), (12, 20), (12, 37),
    (13, 21), (13, 31), (13, 38), (14, 39), (15, 20), (15, 29), (15, 38),
    (16, 18), (16, 34), (16, 39), (17, 22), (17, 26), (17, 32), (18, 26),
    (19, 26), (19, 35), (20, 36), (21, 22), (22, 23), (23, 36), (24, 25),
    (24, 27), (24, 36), (27, 30), (29, 34), (30, 31), (30, 33), (31, 35),
    (33, 34),
]
GIRTH8_CUBIC_N = 40


def ball_from_parts(n, edges, root, labels) -> LabeledBall:
    """Build a LabeledBall over an arbitrary connected graph: BFS depths from
    the root, vertices renumbered in BFS order, labels carried along."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    pos = {root: 0}
    order = [root]
    depths = [0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in sorted(adj[v]):
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
                depths.append(depths[pos[v]] + 1)
    assert len(order) == n, "ball graphs must be connected"
    new_edges = sorted(
        (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges
    )
    return LabeledBall(
        radius=max(depths),
        depths=tuple(depths),
        edges=tuple(new_edges),
        labels=tuple(labels[v] for v in order),
    )


def permuted_ball(ball: LabeledBall, perm) -> LabeledBall:
    """Relabel non-root vertices by perm (perm[0] must be 0)."""
    assert perm[0] == 0
    n = ball.n
    depths = [0] * n
    labels = [None] * n
    for old in range(n):
        depths[perm[old]] = ball.depths[old]
        labels[perm[old]] = ball.labels[old]
    edges = sorted(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in ball.edges
    )
    return LabeledBall(
        radius=ball.radius,
        depths=tuple(depths),
        edges=tuple(edges),
        labels=tuple(labels),
    )


def balls_isomorphic(a: LabeledBall, b: LabeledBall) -> bool:
    """Root-, label-, and adjacency-preserving isomorphism by backtracking."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    n = a.n
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for u, v in a.edges:
        adj_a[u].add(v)
        adj_a[v].add(u)
    for u, v in b.edges:
        adj_b[u].add(v)
        adj_b[v].add(u)
    sig_a = [(a.depths[v], a.labels[v], len(adj_a[v])) for v in range(n)]
    sig_b = [(b.depths[v], b.labels[v], len(adj_b[v])) for v in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig_a[v] != sig_b[w]:
                continue
            ok = True
            for u in range(v):
                if (u in adj_a[v]) != (mapping[u] in adj_b[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    if a.depths[0] != b.depths[0] or a.labels[0] != b.labels[0]:
        return False
    mapping[0] = 0
    used[0] = True
    return extend(1)


def unlabeled_isomorphic(n, edges_a, edges_b) -> bool:
    """Plain graph isomorphism on a shared vertex count, by permutations."""
    set_a = {tuple(sorted(e)) for e in edges_a}
    set_b = {tuple(sorted(e)) for e in edges_b}
    if len(set_a) != len(set_b):
        return False
    for perm in permutations(range(n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in set_a}
        if mapped == set_b:
            return True
    return False


def random_bounded_graph(rng: np.random.Generator, n: int, d: int, K: float,
                         edge_factor: float = 1.2, uniform: bool = False):
    """Random simple graph with max degree d and weights valid for K.

    Log-weights are drawn inside an interval of width ln K, so every edge
    satisfies the ratio bound no matter where it lands.
    """
    target = int(edge_factor * n)
    degree = [0] * n
    edges = set()
    tries = 0
    while len(edges) < target and tries < 20 * target:
        tries += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges or degree[u] >= d or degree[v] >= d:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    if uniform:
        lw = [0.0] * n
    else:
        lw = rng.uniform(0.0, math.log(K), size=n).tolist() if K > 1 else [0.0] * n
    return build_graph(sorted(edges), lw, d=d, K=K)


def weighted_grid(rows: int, cols: int, rng: np.random.Generator):
    """A grid whose vertices weigh 2, 3 or 4, drawn from rng: cyclic balls
    with tied and distinct labels."""
    grid = gen_grid(rows, cols)
    w = rng.choice([2, 3, 4], size=grid.n)
    return build_graph(grid.edge_list(), [math.log(x) for x in w], d=4, K=2.0)


def heap_tree(n: int, rng: np.random.Generator):
    """The binary heap tree on n vertices (v's parent is (v - 1) // 2) with
    log-weights uniform in [-0.5, 0.5], drawn from rng."""
    lw = rng.uniform(-0.5, 0.5, size=n).tolist()
    return build_graph([((v - 1) // 2, v) for v in range(1, n)], lw, d=3, K=3.0)


def random_tree(rng: np.random.Generator, n: int, d: int = 4):
    """Random labeled tree with degree cap d (falls back to a path edge)."""
    edges = []
    degree = [0] * n
    for v in range(1, n):
        while True:
            u = int(rng.integers(v))
            if degree[u] < d - 1 or (u == 0 and degree[u] < d):
                break
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return edges


def reweighted(G, rng: np.random.Generator, K: float):
    """Same topology, fresh random weights valid for K."""
    lw = rng.uniform(0.0, math.log(K), size=G.n).tolist()
    return build_graph(G.edge_list(), lw, d=G.d, K=K)


def brute_force_min_deletion(n, edges, holds) -> frozenset:
    """Smallest edge set whose removal satisfies the predicate (by size)."""
    edges = [tuple(sorted(e)) for e in edges]
    for k in range(len(edges) + 1):
        for drop in combinations(edges, k):
            kept = [e for e in edges if e not in set(drop)]
            if holds(n, kept):
                return frozenset(drop)
    raise AssertionError("property unreachable by deletions")


def brute_force_min_mass_deletion(G, holds):
    """Cheapest deletion set by endpoint mass, over all edge subsets."""
    edges = G.edge_list()
    best, best_set = None, None
    for k in range(len(edges) + 1):
        for drop in combinations(edges, k):
            kept = [e for e in edges if e not in set(drop)]
            if holds(G.n, kept):
                mass = sum(G.p(u) + G.p(v) for u, v in drop)
                if best is None or mass < best:
                    best, best_set = mass, frozenset(drop)
    return best, best_set


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def same_graph(a, b) -> bool:
    """Equal vertex count, bounds, edges in CSR order and log-weights."""
    return (
        a.n == b.n
        and a.d == b.d
        and a.K == b.K
        and np.array_equal(a.edge_array(), b.edge_array())
        and np.array_equal(a.log_weights, b.log_weights)
    )


def path_key(k: int) -> str:
    """The hex unrooted key of the path on k vertices."""
    return unrooted_key(k, [(i, i + 1) for i in range(k - 1)]).hex()


def reference_connected_classes(s: int, d: int) -> set[bytes]:
    """Keys of the connected graphs with <= s vertices and max degree <= d,
    grown one vertex (joined to any subset of the vertices with room) or one
    edge at a time: the vertex growth alone reaches every class, so this
    searches far more children than it needs."""
    seen = {unrooted_key(1, [])}
    shape_keys: dict[tuple, bytes] = {}
    frontier = [(1, ())]
    while frontier:
        nxt = []
        for n, edges in frontier:
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            children = []
            if n < s:
                for mask in range(1, 1 << n):
                    t = [v for v in range(n) if mask >> v & 1]
                    if len(t) <= d and all(deg[v] < d for v in t):
                        children.append((n + 1, tuple(sorted(edges + tuple((v, n) for v in t)))))
            es = set(edges)
            for u, v in combinations(range(n), 2):
                if (u, v) not in es and deg[u] < d and deg[v] < d:
                    children.append((n, tuple(sorted(edges + ((u, v),)))))
            for child in children:
                key = shape_keys.get(child)
                if key is None:
                    key = shape_keys[child] = unrooted_key(*child)
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        frontier = nxt
    return seen


def reference_odd_girth(G) -> float:
    """Shortest odd cycle of G by networkx: the shortest path from (v, 0) to
    (v, 1) in the bipartite double cover, over all v; inf when bipartite."""
    import networkx as nx  # a test dependency, and the demos import this module too

    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edge_list())
    cover = nx.tensor_product(g, nx.complete_graph(2))
    best = math.inf
    for v in range(G.n):
        dist = nx.single_source_shortest_path_length(cover, (v, 0))
        best = min(best, dist.get((v, 1), math.inf))
    return best


def gen_layered_weights(G, root: int, mode: str, beta: float = 0.0):
    """G with weights replaced by a function of BFS distance from the root.

    Modes: "exp_beta" gives a layer-k vertex weight exp(-beta*k);
    "inverse_sphere" gives weight 1/|S_k| where S_k is the k-th BFS sphere,
    so every sphere carries equal mass.  The ratio bound is recomputed as
    the minimal valid one.  Raises GraphError when some vertex is
    unreachable from the root.
    """
    order, depths, _ = bfs(G.neighbors, root)
    if len(order) < G.n:
        raise GraphError("layered weights need every vertex reachable from the root")
    dist = np.empty(G.n, dtype=np.int64)
    dist[order] = depths
    if mode == "exp_beta":
        lw = (-beta * dist).astype(np.float64)
    elif mode == "inverse_sphere":
        sizes = np.bincount(dist)
        lw = -np.log(sizes[dist].astype(np.float64))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    edges = G.edge_array()
    max_diff = float(np.abs(lw[edges[:, 0]] - lw[edges[:, 1]]).max(initial=0.0))
    return build_graph(edges, lw, d=G.d, K=max(math.exp(max_diff), 1.0))


def exact_matching(G) -> float:
    """Matching ratio |M| / n of a maximum matching."""
    return matching_size(G.n, G.neighbor_lists()) / G.n


def exhaustive_mwis(verts: list[int], adj, w) -> list[int]:
    """Maximum-weight independent set by enumerating every subset (<= 16
    vertices); ties go to the first subset in mask order."""
    k = len(verts)
    if k > 16:
        raise TooLarge("exhaustive enumeration limited to 16 vertices")
    pos = {v: i for i, v in enumerate(verts)}
    masks = [0] * k
    for v in verts:
        for u in adj[v]:
            masks[pos[v]] |= 1 << pos[u]
    best_val, best_mask = -1.0, 0
    for mask in range(1 << k):
        ok = True
        val = 0.0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if masks[i] & mask:
                ok = False
                break
            val += w[verts[i]]
            m &= m - 1
        if ok and val > best_val:
            best_val, best_mask = val, mask
    return [verts[i] for i in range(k) if best_mask >> i & 1]


def scalar_build_graph(edge_list, log_weights, d, K):
    """The CSR arrays (indptr, indices) that build_graph assembles, by the
    one-edge-at-a-time loop it replaced: the reference for its checks,
    their order and their messages."""
    lw = np.asarray(log_weights, dtype=np.float64)
    n = len(lw)
    seen: set[tuple[int, int]] = set()
    us: list[int] = []
    vs: list[int] = []
    log_k = math.log(K) * (1.0 + RATIO_SLACK) + RATIO_SLACK
    for e in edge_list:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a vertex outside [0, {n})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} appears twice")
        seen.add(key)
        diff = abs(float(lw[u]) - float(lw[v]))
        if diff > log_k:
            raise RatioBoundViolated(
                f"edge {key} has weight ratio exp({diff:.6g}) > K={K}"
            )
        us.append(u)
        vs.append(v)

    deg = np.zeros(n, dtype=np.int64)
    for u, v in zip(us, vs):
        deg[u] += 1
        deg[v] += 1
    if n and int(deg.max(initial=0)) > d:
        worst = int(np.argmax(deg))
        raise DegreeExceeded(f"vertex {worst} has degree {int(deg[worst])} > d={d}")

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.zeros(len(us) * 2, dtype=np.int64)
    fill = indptr[:-1].copy()
    for u, v in zip(us, vs):
        indices[fill[u]] = v
        fill[u] += 1
        indices[fill[v]] = u
        fill[v] += 1
    for v in range(n):
        seg = indices[indptr[v] : indptr[v + 1]]
        seg.sort()
    return indptr, indices


def count_neighbor_list_builds(G) -> list:
    """A list that grows by one entry each time G builds its neighbor lists,
    counted through a wrapper set on the instance."""
    builds = []
    real = G._list_neighbors

    def counted():
        builds.append(1)
        return real()

    G._list_neighbors = counted
    return builds


def scalar_find_weighted_partition(G, epsilon, K_target=None):
    """find_weighted_partition as it was before it read neighbor lists:
    one G.neighbors call per visit and numpy masses summed per layer, each
    sphere twice.  The reference for its certificates and its messages."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if K_target is None:
        K_target = math.ceil(1.0 / epsilon)
    if K_target < 1:
        raise ValueError("component bound must be positive")
    n = G.n
    probs = G.probabilities
    removed: set[int] = set()
    assigned = [False] * n
    component_sizes: list[int] = []
    entries = [max(comp, key=probs.__getitem__) for comp in components(G)]

    def explore(seed):
        layers = [[seed]]
        visited = {seed}
        total = 1
        while True:
            frontier = []
            for v in layers[-1]:
                for w in G.neighbors(v):
                    if w not in visited and not assigned[w] and w not in removed:
                        visited.add(w)
                        frontier.append(w)
            if not frontier:
                return layers, True
            layers.append(frontier)
            total += len(frontier)
            if total > K_target:
                return layers, False

    def carve(layers, exhausted):
        if exhausted:
            comp = [v for layer in layers for v in layer]
            for v in comp:
                assigned[v] = True
            component_sizes.append(len(comp))
            return True
        best_ratio, best_rho = None, None
        region_mass, region_size = 0.0, 0
        for rho in range(len(layers) - 1):
            region_mass += float(sum(probs[v] for v in layers[rho]))
            region_size += len(layers[rho])
            if region_size > K_target:
                break
            sphere_mass = float(sum(probs[v] for v in layers[rho + 1]))
            ratio = sphere_mass / region_mass if region_mass > 0 else math.inf
            if best_ratio is None or ratio < best_ratio:
                best_ratio, best_rho = ratio, rho
        if best_ratio is None or best_ratio > epsilon:
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
            for w in G.neighbors(v):
                if not assigned[w]:
                    entries.append(w)
        return True

    while entries:
        e = entries.pop()
        if assigned[e]:
            continue
        layers, exhausted = explore(e)
        if carve(layers, exhausted):
            continue
        pool = sorted(
            (v for lay in layers for v in lay), key=lambda v: -probs[v]
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


def reference_bound_ladder(n: int, epsilon: float) -> list[int]:
    """The component bounds an estimate at epsilon tries, in order: ceil(2/epsilon),
    doubling while below n, then n."""
    bounds = []
    k = math.ceil(2.0 / epsilon)
    while k < n:
        bounds.append(k)
        k *= 2
    bounds.append(n)
    return bounds


def reference_solve_components(G, epsilon, solve) -> list:
    """The estimators' bound ladder as a loop of separate partitions: one
    scalar_find_weighted_partition at epsilon/2 per bound, each from scratch.
    The reference for solve_pieces."""
    last_error = None
    for K_target in reference_bound_ladder(G.n, epsilon):
        try:
            cert = scalar_find_weighted_partition(G, epsilon / 2.0, K_target)
        except PartitionInfeasible as e:
            last_error = e
            continue
        try:
            return [solve(comp, cert.removed) for comp in components(G, cert.removed)]
        except TooLarge as e:
            last_error = e
    raise PartitionInfeasible(f"no usable partition at any component bound: {last_error}")


def reference_independent_set_estimate(G, epsilon, seed=0) -> tuple[frozenset, float, bool]:
    """independent_set_estimate over the reference ladder: each component's
    neighbors copied out of G.neighbors, and the value summed from numpy
    masses."""
    probs = G.probabilities
    w = probs.tolist()

    def solve(comp, removed):
        inside = {v: [u for u in G.neighbors(v) if u not in removed] for v in comp}
        return component_mwis(sorted(comp), inside, w)

    try:
        parts = reference_solve_components(G, epsilon, solve)
    except PartitionInfeasible:
        taken, blocked = set(), set()
        for v in np.random.default_rng(seed).permutation(G.n).tolist():
            if v not in blocked:
                taken.add(v)
                blocked.add(v)
                blocked.update(G.neighbors(v))
        J = frozenset(taken)
        return J, float(sum(probs[v] for v in J)), False
    J = frozenset(v for part in parts for v in part)
    assert is_independent(G, J)
    return J, float(sum(probs[v] for v in J)), True


def reference_estimate_matching(G, epsilon) -> float:
    """estimate_matching over the reference ladder, on a uniform graph."""
    def solve(comp, removed):
        pos = {v: i for i, v in enumerate(comp)}
        return matching_size(len(comp), [[pos[u] for u in G.neighbors(v) if u in pos] for v in comp])

    return sum(reference_solve_components(G, epsilon, solve)) / G.n


def reference_tree_perm(depths, adj, decorations):
    """The tree-ball order as it was computed before children came from the
    edges: children filtered from the sorted adjacency lists."""
    n = len(depths)
    children = [[w for w in adj[v] if depths[w] == depths[v] + 1] for v in range(n)]
    cert = [None] * n
    for v in sorted(range(n), key=lambda v: -depths[v]):
        parts = sorted(cert[c] for c in children[v])
        cert[v] = b"(" + decorations[v] + b"".join(parts) + b")"
    perm = [0] * n
    counter = 0
    stack = [0]
    while stack:
        v = stack.pop()
        perm[v] = counter
        counter += 1
        stack.extend(sorted(children[v], key=lambda c: cert[c], reverse=True))
    return perm


class ReferenceRefinementSearch:
    """The refinement search as it was before refinement kept its cells:
    every round ranks (color, sorted neighbor colors) over all vertices and
    a last full round confirms that nothing split.  Same pruning, budget and
    branching order; the reference for perms, keys, leaf counts and the
    automorphisms found."""

    MAX_LEAVES = 200_000

    def __init__(self, depths, edges, adj, decorations):
        self.n = len(depths)
        self.depths = depths
        self.edges = edges
        self.adj = adj
        self.deco = decorations
        self.best = None
        self.best_perm = None
        self.automorphisms = []
        self.leaves = 0

    def _refine(self, colors):
        while max(colors) + 1 < self.n:
            refined = _ranks(
                [(colors[v], tuple(sorted(colors[w] for w in self.adj[v]))) for v in range(self.n)]
            )
            if refined == colors:
                break
            colors = refined
        return colors

    def run(self):
        initial = [(self.depths[v], len(self.adj[v]), self.deco[v]) for v in range(self.n)]
        self._descend(self._refine(_ranks(initial)), ())
        return self.best_perm, self.best

    def _orbit(self, seeds, prefix):
        fixing = [a for a in self.automorphisms if all(a[p] == p for p in prefix)]
        orbit = set(seeds)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            for a in fixing:
                if a[v] not in orbit:
                    orbit.add(a[v])
                    stack.append(a[v])
        return orbit

    def _descend(self, colors, prefix):
        fresh = max(colors) + 1
        if fresh == self.n:
            self.leaves += 1
            if self.leaves > self.MAX_LEAVES:
                raise BudgetExceeded("canonical search exceeded its leaf budget")
            code = _encode_ordered(colors, self.edges, self.deco)
            if self.best is None or code < self.best:
                self.best = code
                self.best_perm = colors
            elif code == self.best:
                best_inv = sorted(range(self.n), key=self.best_perm.__getitem__)
                self.automorphisms.append([best_inv[c] for c in colors])
            return
        cells = [[] for _ in range(fresh)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        explored = []
        for v in next(cell for cell in cells if len(cell) > 1):
            if self.automorphisms and v in self._orbit(explored, prefix):
                continue
            explored.append(v)
            child = list(colors)
            child[v] = fresh
            self._descend(self._refine(child), prefix + (v,))


def reference_canonical_form(ball: LabeledBall, decorations):
    """(perm, key, search) by the reference tree order or search; search is
    None for trees."""
    adj = adjacency(ball.n, ball.edges)
    if ball.is_tree():
        perm = reference_tree_perm(ball.depths, adj, decorations)
        return perm, CanonicalBallKey(b"T" + _encode_ordered(perm, ball.edges, decorations)), None
    search = ReferenceRefinementSearch(ball.depths, ball.edges, adj, decorations)
    perm, code = search.run()
    return perm, CanonicalBallKey(b"G" + code), search


def reference_canonicalize_decorated(ball: LabeledBall, bits) -> CanonicalDecoratedBall:
    deco = [_label_bytes(lab) + b"#%d" % bits[i] for i, lab in enumerate(ball.labels)]
    perm, key, _ = reference_canonical_form(ball, deco)
    inv = sorted(range(ball.n), key=perm.__getitem__)
    return CanonicalDecoratedBall(
        depths=tuple(ball.depths[v] for v in inv),
        edges=tuple(_relabel(perm, ball.edges)),
        labels=tuple(ball.labels[v] for v in inv),
        bits=tuple(int(bits[v]) for v in inv),
        key=key,
    )


def reference_exact_stats(G, r: int, t: int) -> BallStatistics:
    """exact_stats with no ball index: the ball at every sweep root is
    extracted and canonicalized afresh, masses are added with ``+=`` in
    sweep order (the bits ``bincount`` gives), and keys are ordered by where
    they first occur."""
    roots, masses = _sweep(G)
    weights: dict[CanonicalBallKey, float] = {}
    for root, mass in zip(roots.tolist(), masses.tolist()):
        key = balls.canonicalize(balls.extract_ball(G, root, r, t))
        weights[key] = weights.get(key, 0.0) + mass
    return BallStatistics(r, t, G.d, G.K, weights)


def reference_alias_tables(probs) -> tuple[np.ndarray, np.ndarray]:
    """(prob, alias) of Walker's method as AliasSampler built it before it
    kept the current large entry in a local: one small and one large entry
    popped per step, and the large one pushed back onto whichever list its
    remaining mass puts it in."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    scaled = (probs * (n / probs.sum())).tolist()
    prob = [1.0] * n
    alias = list(range(n))
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    return np.array(prob, dtype=np.float64), np.array(alias, dtype=np.int64)


def reference_vertex_bits(n: int, k: int, seed: int) -> list[int]:
    """draw_vertex_bits by numpy's own keyed Philox: key words [seed, v],
    typed uint64 (a plain list holding a word of 2^63 or more converts
    through float64 and loses its low bits)."""
    mask = (1 << k) - 1
    return [
        int(np.random.Philox(key=np.array([seed & (2**64 - 1), v], dtype=np.uint64)).random_raw(1)[0])
        & mask
        for v in range(n)
    ]


def reference_pick(prob, alias, word_index, word_coin) -> np.ndarray:
    """Alias picks as AliasSampler made them before it kept its table scaled
    to raw words: each word divided by 2^64, the index word times n and
    floored, the coin word compared against prob."""
    n = len(prob)
    u = np.asarray(word_index, dtype=np.uint64) / float(2**64)
    idx = np.minimum((u * n).astype(np.int64), n - 1)
    coin = np.asarray(word_coin, dtype=np.uint64) / float(2**64)
    return np.where(coin < prob[idx], idx, alias[idx])


def reference_roots(G, words) -> np.ndarray:
    """Roots drawn from raw words by reference_alias_tables and
    reference_pick: a vertex of an explicit graph, or on a layered tree a
    layer and then an offset within it, in exact Python integers."""
    from rnlab.oracles import WORDS_PER_QUERY

    w0, w1, w2 = (words[i::WORDS_PER_QUERY] for i in range(3))
    if isinstance(G, LayeredBinaryTree):
        layers = reference_pick(*reference_alias_tables(G.layer_masses), w0, w1)
        return np.array(
            [(1 << k) - 1 + w % (1 << k) for k, w in zip(layers.tolist(), w2.tolist())],
            dtype=np.int64,
        )
    return reference_pick(*reference_alias_tables(G.probabilities), w0, w1)


def reference_test_property(G, P, epsilon, seed=0, budget=None, radius=None, t=2):
    """test_property as it counted per distinct root: numpy's keyed Philox
    advanced to the first query, roots from the reference alias tables and
    picks, np.unique over the roots, float bincount weights, a second
    np.unique over the type ids, and the predicate evaluated on each type's
    representative ball."""
    from rnlab.oracles import WORDS_PER_QUERY, ball_index
    from rnlab.testers import TestVerdict, ball_violates, default_budget, default_radius

    r = radius if radius is not None else default_radius(epsilon)
    c = budget if budget is not None else default_budget(epsilon)
    tau = epsilon / 4.0
    index = ball_index(G, r, t)
    bg = np.random.Philox(key=seed)
    roots = reference_roots(G, bg.random_raw(WORDS_PER_QUERY * c))
    uniq, counts = np.unique(roots, return_counts=True)
    types = index.types(uniq)
    reps = (balls.extract_ball(G, root, r, t) for root in index.roots)
    violating = np.array([ball_violates(P, ball.n, ball.edges) for ball in reps], dtype=bool)
    per_type = np.bincount(types, weights=counts, minlength=len(violating))
    bad = int(per_type[violating].sum())
    evidence = {
        index.keys[i].hex(): (int(per_type[i]), bool(violating[i]))
        for i in np.unique(types).tolist()
    }
    frac = bad / c
    return TestVerdict(
        verdict="REJECT" if frac > tau else "ACCEPT",
        epsilon=epsilon,
        params={"mode": "sampled", "property": P.id, "K": G.K, "radius": r, "t": t,
                "budget": c, "threshold": tau, "seed": seed},
        violating_fraction=frac,
        evidence=dict(sorted(evidence.items())),
    )


class _Dinic:
    """Blocking-flow max flow over Python integers with an edge-list
    residual network, the bipartite solver's network before it kept only
    outer residuals and middle flows."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for e in self.head[v]:
                u = self.to[e]
                if self.cap[e] > 0 and level[u] < 0:
                    level[u] = level[v] + 1
                    dq.append(u)
        return level

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self.levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: list[int] = []
            v = s
            while True:
                if v == t:
                    pushed = min(self.cap[e] for e in path)
                    total += pushed
                    retreat = None
                    for i, e in enumerate(path):
                        self.cap[e] -= pushed
                        self.cap[e ^ 1] += pushed
                        if self.cap[e] == 0 and retreat is None:
                            retreat = i
                    del path[retreat:]
                    v = s if not path else self.to[path[-1]]
                    continue
                advanced = False
                while it[v] < len(self.head[v]):
                    e = self.head[v][it[v]]
                    u = self.to[e]
                    if self.cap[e] > 0 and level[u] == level[v] + 1:
                        path.append(e)
                        v = u
                        advanced = True
                        break
                    it[v] += 1
                if advanced:
                    continue
                if v == s:
                    break
                level[v] = -1
                v = self.to[path.pop() ^ 1]


def reference_bipartite_mwis(verts, adj, w, color) -> list:
    """The bipartite MWIS by Dinic's algorithm on the full network, left ->
    right arcs bounded by WEIGHT_SCALE * (k + 2): the reference for the
    chosen list, ties and order included."""
    from rnlab.solvers import WEIGHT_SCALE

    pos = {v: i for i, v in enumerate(verts)}
    k = len(verts)
    source, sink = k, k + 1
    big = WEIGHT_SCALE * (k + 2)
    net = _Dinic(k + 2)
    for v in verts:
        scaled = max(1, int(round(w[v] * WEIGHT_SCALE)))
        if color[v] == 0:
            net.add_edge(source, pos[v], scaled)
        else:
            net.add_edge(pos[v], sink, scaled)
    for v in verts:
        if color[v] == 0:
            for u in adj[v]:
                net.add_edge(pos[v], pos[u], big)
    net.max_flow(source, sink)
    level = net.levels(source)
    return [
        v for v in verts
        if (color[v] == 0 and level[pos[v]] >= 0) or (color[v] == 1 and level[pos[v]] < 0)
    ]


def reference_algebraic_connectivity(G) -> float:
    """algebraic_connectivity by the edge loop that filled the Laplacian
    before it was filled from the arcs."""
    n = G.n
    L = np.zeros((n, n))
    for u, v in G.edge_list():
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    return float(np.linalg.eigvalsh(L)[1])


def reference_random_regular(n: int, d: int, seed: int):
    """gen_random_regular with its own check of each pairing: a set of
    edges, filled pair by pair, that rejects a self-loop or a repeat before
    build_graph sees the pairing."""
    if n * d % 2 != 0:
        raise InvalidSize(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise InvalidSize(f"regular degree {d} needs more than {n} vertices")
    rng = np.random.default_rng(seed)
    for _ in range(REGULAR_TRIES):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edge_set: set[tuple[int, int]] = set()
        ok = True
        for a, b in stubs.reshape(-1, 2):
            a, b = int(a), int(b)
            if a == b:
                ok = False
                break
            e = (a, b) if a < b else (b, a)
            if e in edge_set:
                ok = False
                break
            edge_set.add(e)
        if not ok:
            continue
        G = build_graph(sorted(edge_set), [0.0] * n, d=d, K=1.0)
        if len(components(G)) > 1:
            continue
        if reference_algebraic_connectivity(G) > SPECTRAL_GAP:
            return G
    raise GraphError(
        f"no {d}-regular graph on {n} vertices with spectral gap > {SPECTRAL_GAP} "
        f"found in {REGULAR_TRIES} tries"
    )


def reference_grid(rows: int, cols: int):
    """gen_grid by the loop over cells that listed its edges one by one."""
    if rows < 1 or cols < 1:
        raise InvalidSize(f"grid needs positive dimensions, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return build_graph(edges, [0.0] * (rows * cols), d=4, K=1.0)


def reference_perturbed_union(n: int, profile: str = "uniform", seed: int = 0):
    """gen_perturbed_union from edge lists of Python tuples, on
    reference_random_regular."""
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    H = reference_random_regular(n, 3, seed=seed)
    n_path = n * n
    edges = [(i, i + 1) for i in range(n_path - 1)]
    for u, v in H.edge_list():
        edges.append((n_path + u, n_path + v))
    edges.append((n_path - 1, n_path))
    if profile == "uniform":
        return build_graph(edges, [0.0] * (n_path + n), d=4, K=1.0)
    return build_graph(edges, [0.0] * n_path + [math.log(n)] * n, d=4, K=float(n))


def reference_grid_covers(rows: int, cols: int, m: int) -> tuple:
    """The covers of build_uniform_cover on the rows x cols grid at spacing
    m, by a loop over every cell of every cover."""
    return tuple(
        frozenset(
            r * cols + c for r in range(rows) for c in range(cols) if r % m == j1 or c % m == j2
        )
        for j1 in range(m)
        for j2 in range(m)
    )
