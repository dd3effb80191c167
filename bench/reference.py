"""Reference answers computed without rnlab.

Everything here works from the benchmark's own edge lists and weights with
networkx, exact rationals and textbook dynamic programs, so a check that
compares an rnlab output against these functions does not share code with
the program under test.
"""
from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx


def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def probabilities(weights) -> list:
    """Normalized vertex distribution; exact when the weights are Fractions."""
    exact = all(isinstance(w, Fraction) for w in weights)
    total = sum(weights) if exact else math.fsum(weights)
    return [w / total for w in weights]


def exp_weights(log_weights) -> list[float]:
    m = max(log_weights)
    return [math.exp(x - m) for x in log_weights]


def violating_mass(g: nx.Graph, probs, r: int, prop: str) -> float:
    """Mass of roots whose radius-r ball breaks the property."""
    test = nx.is_forest if prop == "forest" else nx.is_bipartite
    bad = [v for v in g if not test(nx.ego_graph(g, v, radius=r))]
    if not bad:
        return 0.0
    if len(bad) == g.number_of_nodes():
        return 1.0
    return math.fsum(probs[v] for v in bad)


def _labeled_ball(g: nx.Graph, weights, v: int, r: int, t: int, exact: bool) -> nx.Graph:
    """Ego graph with each vertex labelled (depth, floor(10^t p(y)/p(v)));
    the floor is exact for Fraction weights."""
    depth = nx.single_source_shortest_path_length(g, v, cutoff=r)
    ball = g.subgraph(depth).copy()
    for y in ball:
        ratio = weights[y] / weights[v] if exact else math.exp(weights[y] - weights[v])
        ball.nodes[y]["a"] = f"{depth[y]}:{math.floor(ratio * 10**t)}"
    return ball


def ball_class_masses(g: nx.Graph, weights, r: int, t: int, roots=None, root_mass=None) -> list[float]:
    """Sorted masses of the root-preserving, label-preserving isomorphism
    classes of radius-r balls.

    weights are Fractions (exact labels) or float log-weights.  Classes are
    bucketed by a Weisfeiler-Lehman hash of the (depth, label) attributes and
    split by VF2 inside each bucket; the root is the only depth-0 vertex, so
    VF2 with that attribute fixes it.  roots/root_mass restrict the sweep to
    representatives that stand for a known share of the mass.
    """
    exact = all(isinstance(w, Fraction) for w in weights)
    if roots is None:
        roots = list(g)
        probs = probabilities(weights if exact else exp_weights(weights))
        root_mass = {v: probs[v] for v in roots}
    match = lambda a, b: a["a"] == b["a"]  # noqa: E731
    buckets: dict[str, list[list]] = {}
    for v in roots:
        ball = _labeled_ball(g, weights, v, r, t, exact)
        h = nx.weisfeiler_lehman_graph_hash(ball, node_attr="a", iterations=3)
        classes = buckets.setdefault(h, [])
        for cls in classes:
            if nx.is_isomorphic(cls[0], ball, node_match=match):
                cls[1].append(root_mass[v])
                break
        else:
            classes.append([ball, [root_mass[v]]])
    masses = []
    for classes in buckets.values():
        for _, ms in classes:
            masses.append(float(sum(ms)) if exact else math.fsum(ms))
    return sorted(masses)


def _forest_mwis(g: nx.Graph, w) -> float:
    """Maximum-weight independent set of a forest by the take/skip DP."""
    best = 0.0
    seen: set = set()
    for root in g:
        if root in seen:
            continue
        order = list(nx.dfs_preorder_nodes(g, root))
        seen.update(order)
        parent = {root: None}
        for u, v in nx.dfs_edges(g, root):
            parent[v] = u
        take = {v: w[v] for v in order}
        skip = {v: 0.0 for v in order}
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                take[p] += skip[v]
                skip[p] += max(take[v], skip[v])
        best += max(take[root], skip[root])
    return best


def mwis_value(g: nx.Graph, w) -> float:
    """Exact weighted independence number for forests, graphs with one
    cycle through vertex 0, and bipartite graphs (by minimum cut)."""
    m, n = g.number_of_edges(), g.number_of_nodes()
    if nx.is_forest(g):
        return _forest_mwis(g, w)
    if m == n and nx.is_connected(g):
        v0 = 0
        without = g.copy()
        without.remove_node(v0)
        closed = g.copy()
        closed.remove_nodes_from([v0, *g.neighbors(v0)])
        return max(_forest_mwis(without, w), w[v0] + _forest_mwis(closed, w))
    left, _ = nx.bipartite.sets(g)
    flow = nx.DiGraph()
    for v in g:
        if v in left:
            flow.add_edge("s", v, capacity=w[v])
            for u in g.neighbors(v):
                flow.add_edge(v, u)  # no capacity attribute: infinite
        else:
            flow.add_edge(v, "t", capacity=w[v])
    cut, _ = nx.minimum_cut(flow, "s", "t")
    return math.fsum(w[v] for v in g) - cut


def matching_ratio(g: nx.Graph) -> float:
    return len(nx.max_weight_matching(g, maxcardinality=True)) / g.number_of_nodes()


def is_independent(edges, chosen) -> bool:
    s = set(chosen)
    return not any(u in s and v in s for u, v in edges)


def component_sizes_without(g: nx.Graph, removed) -> list[int]:
    rest = g.subgraph(set(g) - set(removed))
    return [len(c) for c in nx.connected_components(rest)]


def sampling_bound(classes: int, queries: int, delta: float) -> float:
    """Hoeffding plus a union bound: with probability at least 1 - delta every
    class frequency lies within this distance of its mass."""
    return math.sqrt(math.log(2.0 * classes / delta) / (2.0 * queries))


def sorted_within(freqs, masses, bound: float) -> bool:
    """Compare class frequencies and masses without knowing which key is which
    class: sorting both (missing classes count as 0) can only shrink the
    largest per-class deviation."""
    k = max(len(freqs), len(masses))
    a = sorted(list(freqs) + [0.0] * (k - len(freqs)))
    b = sorted(list(masses) + [0.0] * (k - len(masses)))
    return all(abs(x - y) <= bound for x, y in zip(a, b))
