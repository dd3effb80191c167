"""Exact combinatorial solvers used as ground truth and inside estimators.

Maximum matching is the classic augmenting-path algorithm with blossom
contraction, started from a greedy maximal matching.  Maximum-weight
independent set dispatches per component: dynamic programs on forests and
cycles, a minimum-cut reduction on bipartite components, and
branch-and-bound for small general components.

The bipartite reduction finds a maximum flow by phases of augmenting paths
over a search tree grown from every left vertex with source residual, after
a greedy push.  Its answer does not depend on which maximum flow it finds:
for fixed integer capacities, the vertices reachable from the source in the
residual network are the same for every maximum flow, the source side of the
minimal minimum cut (Picard and Queyranne, 1980).
"""
from __future__ import annotations

from collections import deque

from .graphs import Budget, TooLarge, components, two_coloring, walk_order

MAX_MATCHING_VERTICES = 200
MAX_BRANCH_VERTICES = 45
BRANCH_NODE_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Maximum matching with blossom contraction.
# ---------------------------------------------------------------------------


def maximum_matching(n: int, adj: list[list[int]]) -> list[int]:
    """match[v] = partner of v or -1; exact for n <= 200."""
    if n > MAX_MATCHING_VERTICES:
        raise TooLarge(f"matching solver limited to {MAX_MATCHING_VERTICES} vertices")
    match = [-1] * n
    # greedy start; the augmenting search below is exact from any matching
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break
    parent = [-1] * n
    base = list(range(n))
    inqueue = [False] * n

    def lca(a: int, b: int) -> int:
        marked = [False] * n
        while True:
            a = base[a]
            marked[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if marked[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> int:
        nonlocal parent, base, inqueue
        parent = [-1] * n
        base = list(range(n))
        inqueue = [False] * n
        queue = deque([root])
        inqueue[root] = True
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract the blossom
                    b = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, b, to, in_blossom)
                    mark_path(to, b, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = b
                            if not inqueue[i]:
                                inqueue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not inqueue[match[to]]:
                        inqueue[match[to]] = True
                        queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] != -1:
            continue
        to = find_augmenting(v)
        while to != -1:
            pv = parent[to]
            nxt = match[pv]
            match[to] = pv
            match[pv] = to
            to = nxt
    return match


def matching_size(n: int, adj: list[list[int]]) -> int:
    match = maximum_matching(n, adj)
    return sum(1 for v in range(n) if match[v] != -1) // 2


# ---------------------------------------------------------------------------
# Maximum-weight independent set, per-component dispatch.
# ---------------------------------------------------------------------------


def _path_mwis(order: list, w) -> tuple[float, list]:
    """DP along a path given its vertices in path order; returns the value
    and the chosen vertices, last first."""
    k = len(order)
    if k == 0:
        return 0.0, []
    take = [0.0] * k
    skip = [0.0] * k
    take[0] = w[order[0]]
    for i in range(1, k):
        take[i] = w[order[i]] + skip[i - 1]
        skip[i] = max(take[i - 1], skip[i - 1])
    chosen = []
    i = k - 1
    while i >= 0:
        if take[i] > skip[i]:
            chosen.append(order[i])
            i -= 2
        else:
            i -= 1
    return max(take[k - 1], skip[k - 1]), chosen


def _walk_mwis(order: list, w, cyclic: bool) -> tuple[float, list]:
    """DP along a path, or a cycle when cyclic, given its vertices in walk
    order and w[v] for each; returns the value and the chosen vertices."""
    if not cyclic:
        return _path_mwis(order, w)
    # case A: exclude order[0]
    val_a, pick_a = _path_mwis(order[1:], w)
    # case B: include order[0], exclude its two cycle neighbors
    val_b, pick_b = _path_mwis(order[2 : len(order) - 1], w)
    val_b += w[order[0]]
    if val_b > val_a:
        return val_b, [order[0]] + pick_b
    return val_a, pick_a


def _forest_mwis(verts: list[int], adj, w) -> list[int]:
    chosen: list[int] = []
    seen = set()
    for root in verts:
        if root in seen:
            continue
        order = [root]
        par = {root: -1}
        seen.add(root)
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for u in adj[v]:
                if u not in par:
                    par[u] = v
                    seen.add(u)
                    order.append(u)
        dp_in = {v: w[v] for v in order}
        dp_out = {v: 0.0 for v in order}
        for v in reversed(order):
            if par[v] != -1:
                dp_in[par[v]] += dp_out[v]
                dp_out[par[v]] += max(dp_in[v], dp_out[v])
        stack = [(root, dp_in[root] > dp_out[root])]
        while stack:
            v, inside = stack.pop()
            if inside:
                chosen.append(v)
            for u in adj[v]:
                if par.get(u) != v:
                    continue
                if inside:
                    stack.append((u, False))
                else:
                    stack.append((u, dp_in[u] > dp_out[u]))
    return chosen


def _cycle_mwis(verts: list[int], adj, w) -> list[int]:
    order = walk_order(adj.__getitem__, verts[0], len(verts))
    return _walk_mwis(order, w, cyclic=True)[1]


WEIGHT_SCALE = 10**12


def _bipartite_mwis(verts: list[int], adj, w, color) -> list[int]:
    """The complement of a minimum-weight vertex cover, read off a maximum
    flow on integer-scaled weights; chosen vertices in verts order.

    The network runs source -> left -> right -> sink, with the scaled weights
    on the outer arcs and the left -> right arcs unbounded.  A left -> right
    arc carries at most its tail's source capacity, so no finite bound above
    every scaled weight would ever bind.  The residual network is kept as
    three lists: the source residual of each left vertex, the sink residual
    of each right vertex and the flow on each left -> right arc, which is
    also the residual of its reverse.
    """
    left = [v for v in verts if color[v] == 0]
    right = [v for v in verts if color[v] == 1]
    rpos = {v: i for i, v in enumerate(right)}

    def scaled(v):
        return max(1, int(round(w[v] * WEIGHT_SCALE)))

    src = [scaled(v) for v in left]
    snk = [scaled(v) for v in right]
    # arc e runs from left tail[e] to right head[e]
    tail: list[int] = []
    head: list[int] = []
    out: list[list[int]] = []
    into: list[list[int]] = [[] for _ in right]
    for l, v in enumerate(left):
        arcs = []
        for u in adj[v]:
            r = rpos[u]
            into[r].append(len(head))
            arcs.append(len(head))
            tail.append(l)
            head.append(r)
        out.append(arcs)
    # greedy start: push what fits along source -> l -> r -> sink
    flow = [0] * len(head)
    for l, arcs in enumerate(out):
        for e in arcs:
            r = head[e]
            push = min(src[l], snk[r])
            if push:
                flow[e] = push
                src[l] -= push
                snk[r] -= push
    while True:
        # one search tree from every left vertex with source residual;
        # lpar/rpar hold the arc a vertex was reached by, -1 if unreached
        lpar = [-1] * len(left)
        rpar = [-1] * len(right)
        queue = [l for l in range(len(left)) if src[l]]
        for l in queue:
            lpar[l] = -2
        ends = []
        for l in queue:  # the queue grows as it is scanned
            for e in out[l]:
                r = head[e]
                if rpar[r] != -1:
                    continue
                rpar[r] = e
                if snk[r]:
                    ends.append(r)
                for back in into[r]:
                    if flow[back] and lpar[tail[back]] == -1:
                        lpar[tail[back]] = back
                        queue.append(tail[back])
        if not ends:
            break
        # augment along the tree path to every end; earlier paths of the
        # phase may have used up a later path's bottleneck
        for r in ends:
            path = []
            bottleneck = snk[r]
            e = rpar[r]
            while True:
                path.append(e)
                back = lpar[tail[e]]
                if back == -2:
                    break
                bottleneck = min(bottleneck, flow[back])
                path.append(back)
                e = rpar[head[back]]
            bottleneck = min(bottleneck, src[tail[e]])
            if not bottleneck:
                continue
            src[tail[e]] -= bottleneck
            snk[r] -= bottleneck
            # path alternates forward arcs (even) and undone arcs (odd)
            for i, e in enumerate(path):
                flow[e] += -bottleneck if i & 1 else bottleneck
    # the last search reached exactly the source side of the minimum cut
    reached = {left[l] for l in range(len(left)) if lpar[l] != -1}
    reached.update(right[r] for r in range(len(right)) if rpar[r] != -1)
    return [v for v in verts if (color[v] == 0) == (v in reached)]


def _branch_mwis(verts: list[int], adj, w) -> list[int]:
    """Branch on a maximum-degree vertex; split connected parts and finish
    degree-<=2 remainders (disjoint paths and cycles) by the path DP."""
    k = len(verts)
    if k > MAX_BRANCH_VERTICES:
        raise TooLarge(f"branch and bound limited to {MAX_BRANCH_VERTICES} vertices")
    pos = {v: i for i, v in enumerate(verts)}
    masks = [0] * k
    for v in verts:
        for u in adj[v]:
            masks[pos[v]] |= 1 << pos[u]
    weights = [w[v] for v in verts]
    budget = Budget(BRANCH_NODE_CAP, "branch and bound node cap exceeded")

    def sparse_solve(cmask: int) -> tuple[float, int]:
        """Connected mask whose vertices all have degree <= 2 inside it."""
        bits = []
        m = cmask
        while m:
            bits.append((m & -m).bit_length() - 1)
            m &= m - 1
        start = None
        for i in bits:
            if (masks[i] & cmask).bit_count() <= 1:
                start = i
                break
        cyclic = start is None
        if cyclic:
            start = bits[0]
        order = [start]
        prev = -1
        while True:
            nxt = masks[order[-1]] & cmask
            if prev >= 0:
                nxt &= ~(1 << prev)
            if order[0] != order[-1]:
                nxt &= ~(1 << order[0])
            if nxt == 0 or len(order) == len(bits):
                break
            prev = order[-1]
            order.append((nxt & -nxt).bit_length() - 1)
        val, chosen = _walk_mwis(order, weights, cyclic)
        chosen_mask = 0
        for i in chosen:
            chosen_mask |= 1 << i
        return val, chosen_mask

    def solve(mask: int) -> tuple[float, int]:
        if mask == 0:
            return 0.0, 0
        budget.spend()
        comp = mask & -mask
        frontier = comp
        while frontier:
            grow = 0
            m = frontier
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                grow |= masks[i] & mask & ~comp
            comp |= grow
            frontier = grow
        if comp != mask:
            val_a, set_a = solve(comp)
            val_b, set_b = solve(mask ^ comp)
            return val_a + val_b, set_a | set_b
        pivot = -1
        maxdeg = -1
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (masks[i] & mask).bit_count()
            if deg > maxdeg:
                maxdeg, pivot = deg, i
        if maxdeg <= 2:
            return sparse_solve(mask)
        take_val, take_set = solve(mask & ~(masks[pivot] | (1 << pivot)))
        take_val += weights[pivot]
        take_set |= 1 << pivot
        skip_val, skip_set = solve(mask & ~(1 << pivot))
        if take_val >= skip_val:
            return take_val, take_set
        return skip_val, skip_set

    _, best_set = solve((1 << k) - 1)
    return [verts[i] for i in range(k) if best_set >> i & 1]


def component_mwis(verts: list[int], adj, w) -> list[int]:
    """Exact solver for one connected component."""
    k = len(verts)
    edge_count = sum(len(adj[v]) for v in verts) // 2
    if edge_count == 0:
        return list(verts)
    if edge_count == k - 1:
        return _forest_mwis(verts, adj, w)
    if edge_count == k and all(len(adj[v]) == 2 for v in verts):
        return _cycle_mwis(verts, adj, w)
    color = two_coloring(adj.__getitem__, verts)
    if color is not None:
        return _bipartite_mwis(verts, adj, w, color)
    return _branch_mwis(verts, adj, w)


def exact_weighted_mis(G) -> tuple[frozenset, float]:
    """Maximum-probability-weight independent set, exact.

    Splits into components and dispatches: forests and single cycles by
    dynamic programming, bipartite components by minimum cut, anything else
    by branch and bound up to 45 vertices.
    """
    n = G.n
    probs = G.probabilities
    w = {v: float(probs[v]) for v in range(n)}
    chosen: list[int] = []
    for comp in components(G):
        chosen.extend(component_mwis(sorted(comp), G.neighbor_lists(), w))
    chosen_set = frozenset(chosen)
    if not is_independent(G, chosen_set):
        raise AssertionError("solver produced a dependent set")
    return chosen_set, float(sum(w[v] for v in chosen_set))


def is_independent(G, S) -> bool:
    S = set(S)
    for v in S:
        for u in G.neighbors(v):
            if u in S:
                return False
    return True
