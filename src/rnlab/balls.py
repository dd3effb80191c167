"""Labeled balls around a root vertex and their canonical forms.

A ball of radius r around x is the subgraph induced on all vertices within
graph distance r of x, with each vertex y carrying the relative weight
p(y)/p(x) truncated to t decimal digits.  Truncation is floor, never
rounding: pi at depth 2 becomes 3.14.  Canonical keys are byte strings such
that two balls get equal keys exactly when a root-preserving,
label-preserving isomorphism exists between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .graphs import Budget, GraphError, TooLarge, adjacency, bfs

# Relative slack applied before flooring.  Ratios are evaluated through
# exp() of float log-weight differences, so a ratio that is exactly 2 in
# exact arithmetic can arrive as 1.9999999999999984; without the slack the
# truncated label would oscillate between 1.99 and 2.00 across otherwise
# identical vertices.  Values genuinely below a decimal boundary by more
# than ~1e-12 relative are unaffected.
TRUNCATION_GUARD = 1e-12


class FixedPointLabel(NamedTuple):
    scaled_value: int
    scale_digits: int


def truncate_label(value: float, t: int) -> FixedPointLabel:
    """Floor a nonnegative ratio to t decimal digits.  Raises TooLarge when
    the scaled ratio overflows a float (10**t alone does past t = 308)."""
    if t < 0:
        raise ValueError(f"digit count must be nonnegative, got {t}")
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"ratio must be finite and nonnegative, got {value}")
    try:
        scaled = value * (10 ** t)
        return FixedPointLabel(math.floor(scaled + scaled * TRUNCATION_GUARD + TRUNCATION_GUARD), t)
    except OverflowError:
        raise TooLarge(f"ratio {value} at {t} label digits overflows a float") from None


@dataclass(frozen=True)
class LabeledBall:
    """Rooted labeled ball with local vertex ids 0..n-1, root = 0; edges
    are sorted (low, high) pairs."""

    radius: int
    depths: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[FixedPointLabel, ...]

    @property
    def n(self) -> int:
        return len(self.depths)

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


def extract_ball(G, x: int, r: int, t: int, *, adj=None) -> LabeledBall:
    """BFS ball of radius r around x with floor-truncated relative labels.

    Labels come from exp of log-weight differences against the root, so the
    root label is exactly 1.  Reads G only through the graph protocol (``n``,
    ``neighbors`` returning lists of ints, ``log_weight``), so explicit
    graphs and implicitly represented ones serve alike; a caller that holds
    ``G.neighbor_lists()`` passes them as ``adj``, and neighbors are read
    from there instead.  Raises GraphError when x is not a vertex of G.
    """
    return extract_ball_with_map(G, x, r, t, adj=adj)[0]


def extract_ball_with_map(G, x: int, r: int, t: int, *, adj=None) -> tuple[LabeledBall, tuple]:
    """extract_ball plus the original vertex ids in ball order (root first)."""
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if not 0 <= x < G.n:
        raise GraphError(f"root {x} is not a vertex of a graph on {G.n} vertices")
    neighbors = G.neighbors if adj is None else adj.__getitem__
    order, depths, local = bfs(neighbors, x, r)
    edges = []
    for iv, v in enumerate(order):
        for w in neighbors(v):
            iw = local.get(w)
            if iw is not None and iv < iw:
                edges.append((iv, iw))
    edges.sort()
    lw_root = G.log_weight(x)
    # a label depends only on the vertex's log-weight, which balls often repeat
    label_of: dict[float, FixedPointLabel] = {}
    labels = []
    for v in order:
        lw = G.log_weight(v)
        label = label_of.get(lw)
        if label is None:
            label = label_of[lw] = truncate_label(math.exp(lw - lw_root), t)
        labels.append(label)
    ball = LabeledBall(radius=r, depths=tuple(depths), edges=tuple(edges), labels=tuple(labels))
    return ball, tuple(order)


@dataclass(frozen=True)
class CanonicalBallKey:
    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def __lt__(self, other: "CanonicalBallKey") -> bool:
        return self.data < other.data


# ---------------------------------------------------------------------------
# Canonical ordering machinery.
#
# _canonical_form is the one entry: it picks a canonical vertex order and
# serializes the ball under it, with prefix T for trees and G otherwise.
# Tree-shaped balls use the classic sorted-subtree encoding, which is linear
# and immune to the large automorphism groups of regular trees; it reads
# each vertex's children straight off the sorted edge list, and only balls
# with cycles build adjacency lists.  Those go through iterative partition
# refinement seeded by (depth, degree, label) followed by a backtracking
# search that takes the lexicographically least encoding over all discrete
# refinements.  Refinement keeps the color classes as cells in color order
# and re-splits only the cells with more than one vertex, which gives the
# colors that ranking every vertex each round gives.  The search skips
# subtrees that an automorphism it has already found maps onto an explored
# one (see _RefinementSearch); those hold the same codes, so the least
# encoding does not change.  Both routes are complete invariants on their
# domain, and the tree test is itself isomorphism-invariant, so keys remain
# well defined.
# ---------------------------------------------------------------------------


def _relabel(perm, edges) -> list[tuple[int, int]]:
    """Edges mapped through old id -> perm[old id], as sorted (low, high) pairs."""
    return sorted(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in edges
    )


def _ranks(items: list) -> list[int]:
    """Each item's rank among the distinct items: contiguous ints from 0."""
    rank = {s: i for i, s in enumerate(sorted(set(items)))}
    return [rank[s] for s in items]


def _encode_ordered(perm: Sequence[int], edges, decorations) -> bytes:
    """Serialize a ball under the vertex order old id -> perm[old id]."""
    ordered: list = [None] * len(perm)
    for old, new in enumerate(perm):
        ordered[new] = decorations[old]
    return b"".join(
        [b"%d|" % len(perm), b"|".join(ordered)]
        + [b";%d,%d" % e for e in _relabel(perm, edges)]
    )


def _tree_perm(depths, edges, decorations) -> list[int]:
    """Canonical order for a tree ball: preorder with children sorted by
    their recursively computed subtree certificates.  Every edge of a tree
    ball joins a vertex to one a level deeper, so the sorted edges list each
    vertex's children in ascending id, which orders tied children."""
    n = len(depths)
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if depths[u] < depths[v]:
            children[u].append(v)
        else:
            children[v].append(u)
    cert: list[Optional[bytes]] = [None] * n
    # Process vertices deepest-first so child certificates exist; leaves,
    # most of a tree's vertices, skip the sorts.
    for v in sorted(range(n), key=depths.__getitem__, reverse=True):
        kids = children[v]
        if kids:
            cert[v] = b"(" + decorations[v] + b"".join(sorted([cert[c] for c in kids])) + b")"
        else:
            cert[v] = b"(" + decorations[v] + b")"
    perm = [0] * n
    counter = 0
    stack = [0]
    while stack:
        v = stack.pop()
        perm[v] = counter
        counter += 1
        kids = children[v]
        if kids:
            stack.extend(sorted(kids, key=cert.__getitem__, reverse=True))
    return perm


class _RefinementSearch:
    """Individualization-refinement search for the minimum encoding.

    Colorings are contiguous ranks 0..k-1 throughout, so a discrete one is
    itself the vertex order old id -> color.  Each coloring travels with its
    cells: cells[c] lists the vertices of color c in ascending id, which is
    the order the search branches in.

    Two leaves with equal codes differ by an automorphism of the ball, which
    the search records.  Before a node branches on a vertex of its target
    cell, it skips the vertex if the recorded automorphisms that fix every
    vertex individualized on the way to the node map an explored sibling
    onto it (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    Refinement is isomorphism-invariant, so such an automorphism carries the
    explored subtree onto the skipped one leaf by leaf, code for code.  The
    skipped subtree comes later in the search order, so neither the least
    code nor the first leaf that reaches it changes, and keys are the ones
    the unpruned search gives.
    """

    MAX_LEAVES = 200_000

    def __init__(self, depths, edges, adj, decorations):
        self.n = len(depths)
        self.depths = depths
        self.edges = edges
        self.adj = adj
        self.deco = decorations
        self.best: Optional[bytes] = None
        self.best_perm: Optional[list[int]] = None
        self.automorphisms: list[list[int]] = []
        msg = f"canonical search exceeded its leaf budget of {self.MAX_LEAVES}"
        self.budget = Budget(self.MAX_LEAVES, msg)

    def _refine(
        self, colors: list[int], cells: list[list[int]]
    ) -> tuple[list[int], list[list[int]]]:
        """Split cells by their vertices' sorted neighbor colors until
        nothing splits; returns colors and cells, both updated in place.

        Each round splits every multi-vertex cell where it stands into
        groups in the order of their neighbor colors: the ranks of (color,
        sorted neighbor colors) over all vertices, since those sort by
        color first.  Member lists are replaced, never changed, so a child
        coloring may share them with its parent.
        """
        adj = self.adj
        n = self.n
        while len(cells) < n:
            first = None
            # split from the last cell back, so earlier positions stay valid
            for c in range(len(cells) - 1, -1, -1):
                cell = cells[c]
                if len(cell) == 1:
                    continue
                groups: dict[tuple, list[int]] = {}
                for v in cell:
                    groups.setdefault(tuple(sorted([colors[w] for w in adj[v]])), []).append(v)
                if len(groups) > 1:
                    cells[c : c + 1] = [groups[sig] for sig in sorted(groups)]
                    first = c
            if first is None:
                break
            for c in range(first, len(cells)):
                for v in cells[c]:
                    colors[v] = c
        return colors, cells

    def run(self) -> tuple[list[int], bytes]:
        colors = _ranks([(self.depths[v], len(self.adj[v]), self.deco[v]) for v in range(self.n)])
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        self._descend(*self._refine(colors, cells), ())
        assert self.best_perm is not None and self.best is not None
        return self.best_perm, self.best

    def _orbit(self, seeds: list[int], prefix: tuple[int, ...]) -> set[int]:
        """The seeds' orbit under the recorded automorphisms fixing the prefix."""
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

    def _descend(self, colors: list[int], cells: list[list[int]], prefix: tuple[int, ...]) -> None:
        fresh = len(cells)
        if fresh == self.n:
            self.budget.spend()
            code = _encode_ordered(colors, self.edges, self.deco)
            if self.best is None or code < self.best:
                self.best = code
                self.best_perm = colors
            elif code == self.best:
                best_inv = sorted(range(self.n), key=self.best_perm.__getitem__)
                self.automorphisms.append([best_inv[c] for c in colors])
            return
        at = next(c for c, cell in enumerate(cells) if len(cell) > 1)
        target = cells[at]
        explored: list[int] = []
        for v in target:
            if self.automorphisms and v in self._orbit(explored, prefix):
                continue
            explored.append(v)
            # individualize v: it leaves its cell for a new last one
            child_colors = list(colors)
            child_colors[v] = fresh
            child_cells = list(cells)
            child_cells[at] = [w for w in target if w != v]
            child_cells.append([v])
            self._descend(*self._refine(child_colors, child_cells), prefix + (v,))


def _canonical_form(
    ball: LabeledBall, decorations: list[bytes]
) -> tuple[list[int], CanonicalBallKey]:
    """Canonical vertex order (old id -> new id) and the key it serializes to."""
    if ball.is_tree():
        perm = _tree_perm(ball.depths, ball.edges, decorations)
        return perm, CanonicalBallKey(b"T" + _encode_ordered(perm, ball.edges, decorations))
    adj = adjacency(ball.n, ball.edges)
    perm, code = _RefinementSearch(ball.depths, ball.edges, adj, decorations).run()
    return perm, CanonicalBallKey(b"G" + code)


def _label_bytes(lab: FixedPointLabel) -> bytes:
    return b"%d/%d" % (lab.scaled_value, lab.scale_digits)


def canonicalize(ball: LabeledBall) -> CanonicalBallKey:
    return _canonical_form(ball, [_label_bytes(lab) for lab in ball.labels])[1]


@dataclass(frozen=True)
class CanonicalDecoratedBall:
    """A ball plus per-vertex bit-strings, relabeled into canonical order.

    Local rules receive this object; vertex 0 is the root and every field is
    invariant under isomorphisms of the decorated input, so a rule reading it
    cannot depend on vertex identity.
    """

    depths: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[FixedPointLabel, ...]
    bits: tuple[int, ...]
    key: CanonicalBallKey

    @property
    def n(self) -> int:
        return len(self.depths)

    def root_neighbors(self) -> list[int]:
        return [v for u, v in self.edges if u == 0]


def canonicalize_decorated(ball: LabeledBall, bits: Sequence[int]) -> CanonicalDecoratedBall:
    if len(bits) != ball.n:
        raise ValueError("one bit-string per ball vertex required")
    deco = [_label_bytes(lab) + b"#%d" % bits[i] for i, lab in enumerate(ball.labels)]
    perm, key = _canonical_form(ball, deco)
    inv = sorted(range(ball.n), key=perm.__getitem__)
    return CanonicalDecoratedBall(
        depths=tuple(ball.depths[v] for v in inv),
        edges=tuple(_relabel(perm, ball.edges)),
        labels=tuple(ball.labels[v] for v in inv),
        bits=tuple(int(bits[v]) for v in inv),
        key=key,
    )


_UNIT = FixedPointLabel(1, 0)


def rooted_ball_view(n: int, edges: Sequence[tuple[int, int]], root: int) -> LabeledBall:
    """Treat a connected unlabeled graph as a ball rooted at the given vertex."""
    order, depths, pos = bfs(adjacency(n, edges).__getitem__, root)
    if len(order) != n:
        raise ValueError("rooted_ball_view requires a connected graph")
    return LabeledBall(
        radius=max(depths),
        depths=tuple(depths),
        edges=tuple(_relabel(pos, edges)),
        labels=(_UNIT,) * n,
    )


def unrooted_key(n: int, edges: Sequence[tuple[int, int]], transitive: bool = False) -> bytes:
    """Canonical key of an unlabeled connected graph: minimum over root
    choices of the rooted key with unit labels.  Used by observation tables.
    Set transitive for a vertex-transitive graph: its rooted key is the same
    at every root, so only vertex 0 is tried."""
    best: Optional[bytes] = None
    for root in range(1 if transitive else n):
        key = canonicalize(rooted_ball_view(n, edges, root)).data
        if best is None or key < best:
            best = key
    assert best is not None
    return b"U" + best
