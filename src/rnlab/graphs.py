"""Bounded-degree graphs carrying vertex log-weights with a bounded edge ratio.

A weighted graph here is a finite simple graph with maximum degree at most d
together with a probability distribution on its vertices, stored as
unnormalized log-weights.  The distribution is constrained so that the ratio
p(u)/p(v) across every edge {u, v} lies in [1/K, K].  Probabilities are always
derived from the log-weights through a log-sum-exp normalizer, so graphs with
astronomically many vertices stay representable as long as the weights have a
closed form.

Both graph classes, the explicit :class:`WeightedGraph` and the implicit
:class:`LayeredBinaryTree`, answer one query protocol: ``n``, ``d``, ``K``,
``neighbors(v)``, ``neighbor_lists()``, ``adjacent(x, y)``, ``log_weight(v)``,
``p(v)``, ``probabilities``, the orbit queries (``orbit_reps``,
``orbit_ids``, ``orbit_count``), ``roots_from_words`` and ``materialize()``.
``neighbors(v)`` returns a fresh list of Python ints: ascending on explicit
graphs, parent first (then the children) on the tree.  ``neighbor_lists()``
returns a list whose entry v equals ``neighbors(v)``, in the same order.  It
is built once per graph and kept on it, like the alias table, so every call
returns the same lists and no caller may mutate them; whole-graph scans read
it instead of asking for each vertex's neighbors one call at a time.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import operator
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

# Multiplicative slack used when validating edge ratios.  Log-weights are
# floats, so a ratio intended to sit exactly at the bound K can land one or
# two ulps above it.
RATIO_SLACK = 1e-9


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class DegreeExceeded(GraphError):
    pass


class RatioBoundViolated(GraphError):
    pass


class NotAdjacent(GraphError):
    pass


class TooLarge(GraphError):
    """An operation was asked to materialize or search beyond its size cap."""


class BudgetExceeded(TooLarge):
    """A search spent more than its :class:`Budget`: ``MAX_LEAVES`` of
    ``balls._RefinementSearch``, or ``SEARCH_NODE_CAP``, ``DELETION_PUSH_CAP``,
    ``BRANCH_NODE_CAP``, ``SUBSET_CAP``, ``CYCLE_STEP_CAP`` or ``CLASS_KEY_CAP``."""


class Budget:
    """The work one exponential search may do: ``spend(k)`` adds k to
    ``used`` and raises ``BudgetExceeded(message)`` once it passes cap."""

    __slots__ = ("cap", "message", "used")

    def __init__(self, cap: int, message: str):
        self.cap, self.message, self.used = cap, message, 0

    def spend(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.cap:
            raise BudgetExceeded(self.message)


def _log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


_TWO64 = float(2**64)
_WORD = 2**64 - 1
# seeds key Philox streams, whose keys are 128-bit words
SEED_LIMIT = 2**128


@functools.cache
def _key_type() -> type:
    """The seed-sequence class of keyed streams.  It is made on first use,
    so that importing rnlab does not import numpy.random: that costs about
    12 ms and 1.4 MB, and commands that draw nothing need none of it."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """The seed sequence of a keyed stream: its state is the key's two words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"a Philox key is 2 uint64 words, but numpy asked for {n_words} {np.dtype(dtype)}"
                )
            return self.words

    return Key


def philox(key: int, counter: int = 0) -> np.random.Philox:
    """The Philox stream with this 128-bit key, at this 4-word block counter.

    Its words equal ``Philox(key=key)`` after ``advance(counter)``, but no OS
    entropy is drawn: ``Philox(key=...)`` first builds a ``SeedSequence()``
    from OS entropy and then discards it.  This relies on numpy's
    ``numpy.random.bit_generator.ISeedSequence`` interface: a bit generator
    given one as its seed asks ``generate_state(2, np.uint64)`` for the key
    and takes the start counter from its ``counter`` argument.  Any other
    request raises, so a numpy change fails loudly instead of changing the
    stream.
    """
    key = operator.index(key)
    if not 0 <= key < SEED_LIMIT:
        raise ValueError("key must be positive and less than 2**128.")
    words = np.array([key & _WORD, key >> 64], dtype=np.uint64)
    return np.random.Philox(_key_type()(words), counter=counter)


class AliasSampler:
    """Walker alias table over a finite distribution, fed by raw 64-bit words.

    ``prob`` and ``alias`` are the table.  ``pick`` reads it scaled to raw
    words: the step ``n / 2**64`` and the thresholds ``prob * 2**64`` are
    kept once.  Its picks equal those of ``floor(n * (word / 2**64))``
    compared as ``coin / 2**64 < prob`` bit for bit: scaling by 2^64 or
    2^-64 is exact, and each form converts a word to float64 once and rounds
    ``word * n * 2**-64`` once.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=np.float64)
        n = len(probs)
        scaled = probs * (n / probs.sum())
        small = np.flatnonzero(scaled < 1.0).tolist()
        large = np.flatnonzero(scaled >= 1.0).tolist()
        # the loop runs on Python lists: indexing numpy scalars costs more,
        # and float arithmetic gives the same bits either way
        scaled = scaled.tolist()
        prob = [1.0] * n
        alias = list(range(n))
        if small and large:
            # Walker's pairing, popping one small and one large entry per
            # step; the current large entry l and its mass stay in locals
            # while they are at least 1, and once below 1 they are the next
            # small entry
            s = small.pop()
            s_mass = scaled[s]
            l = large.pop()
            l_mass = scaled[l]
            while True:
                prob[s] = s_mass
                alias[s] = l
                l_mass = l_mass - (1.0 - s_mass)
                if l_mass < 1.0:
                    if not large:
                        break
                    s, s_mass = l, l_mass
                    l = large.pop()
                    l_mass = scaled[l]
                else:
                    if not small:
                        break
                    s = small.pop()
                    s_mass = scaled[s]
        self.prob = np.array(prob, dtype=np.float64)
        self.alias = np.array(alias, dtype=np.int64)
        self.n = n
        self._step = n / _TWO64
        self._prob_words = self.prob * _TWO64

    def pick(self, word_index: np.ndarray, word_coin: np.ndarray) -> np.ndarray:
        idx = (word_index * self._step).astype(np.int64)
        # a word rounding up to 2^64 lands on n
        np.minimum(idx, self.n - 1, out=idx)
        return np.where(word_coin < self._prob_words[idx], idx, self.alias[idx])


class _GraphProtocol:
    """Base of both graph classes, holding what their shared protocol
    defines once.

    Subclasses provide ``neighbors(v)``, a fresh list of Python ints (no
    numpy scalars), and the rest of the queries in the module docstring.
    ``adjacent`` and ``neighbor_lists`` are defined here from ``neighbors``.
    ``derived`` keeps structures derived from the immutable graph (its
    neighbor lists, its alias table, its orbit index, its ball indexes and
    its partition plan), built on first use and stored on the graph so they
    die with it.  None holds a strong reference to the graph, so a dropped
    graph is freed by reference counting, without the cyclic collector.  A
    build that raises stores nothing.
    """

    def adjacent(self, x: int, y: int) -> bool:
        return y in self.neighbors(x)

    def neighbor_lists(self) -> list[list[int]]:
        """Entry v equals neighbors(v), in the same order.  Built once per
        graph and shared by every caller, so callers must not mutate it."""
        return self.derived("neighbor_lists", self._list_neighbors)

    def _list_neighbors(self) -> list[list[int]]:
        return [self.neighbors(v) for v in range(self.n)]

    def derived(self, key, build):
        value = self._derived.get(key)
        if value is None:
            # setdefault keeps the first of two concurrent builds
            value = self._derived.setdefault(key, build())
        return value


class WeightedGraph(_GraphProtocol):
    """Explicit graph in CSR form with per-vertex log-weights.

    Instances are immutable; build them through :func:`build_graph` which
    validates degrees, simplicity and the edge ratio bound.

    Both graph classes share one query protocol (see the module docstring).
    ``neighbors(v)`` lists the neighbors of v in ascending order;
    ``roots_from_words`` turns raw 64-bit words into roots drawn by the
    vertex distribution; ``orbit_ids``/``orbit_count`` number the vertex
    orbits densely (every vertex is its own orbit when none are known); and
    ``materialize()`` returns the graph itself.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        log_weights: np.ndarray,
        degree_bound: int,
        ratio_bound: float,
        orbit_labels: Optional[np.ndarray] = None,
    ):
        self._indptr = indptr
        self._indices = indices
        self.log_weights = log_weights
        self.d = int(degree_bound)
        self.K = float(ratio_bound)
        self._orbit_labels = orbit_labels
        for arr in (self._indptr, self._indices, self.log_weights):
            arr.setflags(write=False)
        self._derived: dict = {}

    @property
    def n(self) -> int:
        return len(self.log_weights)

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending order, as a fresh list."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]].tolist()

    def _list_neighbors(self) -> list[list[int]]:
        """neighbors(v) for every v, sliced from one conversion of the CSR."""
        flat = self._indices.tolist()
        bounds = self._indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def log_weight(self, v: int) -> float:
        return float(self.log_weights[v])

    @property
    def log_z(self) -> float:
        """Log of the total weight; an empty graph has none, and no vertex
        distribution."""
        return self.derived("log_z", self._total_log_weight)

    def _total_log_weight(self) -> float:
        if self.n == 0:
            raise GraphError("the graph has no vertices, so no vertex distribution")
        return _log_sum_exp(self.log_weights)

    @property
    def probabilities(self) -> np.ndarray:
        """Vertex distribution as a dense, read-only array summing to 1 up
        to float error."""
        return self.derived("probabilities", self._distribution)

    def _distribution(self) -> np.ndarray:
        p = np.exp(self.log_weights - self.log_z)
        p.setflags(write=False)
        return p

    def p(self, v: int) -> float:
        return float(self.probabilities[v])

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Tail and head of every directed arc, in CSR order: by tail, then
        by head."""
        return np.repeat(np.arange(self.n), np.diff(self._indptr)), self._indices

    def edge_array(self) -> np.ndarray:
        """Every edge once as a row (u, v) with u < v, in CSR order: an
        (m, 2) int64 array."""
        tails, heads = self.arcs()
        up = tails < heads
        return np.column_stack((tails[up], heads[up]))

    def edge_list(self) -> list[tuple[int, int]]:
        """The rows of edge_array() as tuples of Python ints."""
        return list(map(tuple, self.edge_array().tolist()))

    # Vertex orbits under weight-preserving automorphisms, when the
    # constructor knows them.  Statistics use these to collapse identical
    # neighborhoods; correctness is cross-checked against the generic path.
    def orbit_reps(self) -> Optional[list[tuple[int, float]]]:
        if self._orbit_labels is None:
            return None
        _, first, dense = self._orbit_index()
        masses = np.bincount(dense, weights=self.probabilities)
        return list(zip(first.tolist(), masses.tolist()))

    @property
    def orbit_count(self) -> int:
        return self.n if self._orbit_labels is None else len(self._orbit_index()[1])

    def orbit_ids(self, vertices) -> np.ndarray:
        """Dense orbit id of each vertex; id k is the orbit of orbit_reps()[k]."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if self._orbit_labels is None:
            return vertices
        return self._orbit_index()[2][vertices]

    def _orbit_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted labels, first vertex of each label, dense id of each vertex."""
        return self.derived(
            "orbits",
            lambda: np.unique(self._orbit_labels, return_index=True, return_inverse=True),
        )

    def roots_from_words(self, w0: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Roots drawn by the vertex distribution: w0 and w1 feed the alias
        table; w2 is unused here and offsets roots within a layer on trees."""
        sampler = self.derived("alias", lambda: AliasSampler(self.probabilities))
        return sampler.pick(w0, w1)

    def materialize(self) -> "WeightedGraph":
        """The explicit form of this graph, which is the graph itself."""
        return self

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "K": self.K,
            "edges": self.edge_array().tolist(),
            "log_weights": self.log_weights.tolist(),
        }

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, d={self.d}, K={self.K}, m={self.edge_count})"


_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_edge_array(edge_list) -> np.ndarray:
    """The edges as an (m, 2) int64 array.

    Lists, tuples and arrays are converted as they are; any other iterable
    is listed first.  Raises GraphError unless every entry is a pair of
    integer ids that fit in int64: floats, strings and bools are rejected,
    not truncated or parsed.
    """
    if not isinstance(edge_list, (list, tuple, np.ndarray)):
        edge_list = list(edge_list)
    try:
        # numpy infers the dtype: int64 for Python ints, float64 or object
        # once one id is a float or outside int64
        edges = np.asarray(edge_list)
    except ValueError as e:
        raise GraphError(f"edges must be pairs of int64 vertex ids: {e}") from None
    if edges.shape == (0,):
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must be pairs of vertex ids, got an array of shape {edges.shape}")
    if edges.dtype.kind not in "iu" and edges.size:
        raise GraphError(f"edges must be pairs of int64 vertex ids, got {edges.dtype} entries")
    # an unsigned id above the int64 maximum would wrap to a negative one
    if edges.dtype.kind == "u" and edges.size and edges.max() > _INT64_MAX:
        raise GraphError(
            f"edges must be pairs of int64 vertex ids, got id {int(edges.max())} > {_INT64_MAX}"
        )
    edges = edges.astype(np.int64, copy=False)
    if not isinstance(edge_list, np.ndarray):
        # numpy reads a bool among ints as 0 or 1, so only the pairs holding
        # those can hide one (flat position // 2 is the pair)
        for i in (np.flatnonzero((edges == 0) | (edges == 1)) // 2).tolist():
            if any(isinstance(x, (bool, np.bool_)) for x in edge_list[i]):
                raise GraphError(
                    f"edges must be pairs of int64 vertex ids, got {edge_list[i]!r} at edge {i}"
                )
    return edges


def check_ratio_bound(K: float) -> None:
    """Raise GraphError unless K is a ratio bound: finite and at least 1."""
    if not math.isfinite(K):
        raise GraphError(f"ratio bound must be finite, got {K}")
    if K < 1.0:
        raise GraphError(f"ratio bound must be at least 1, got {K}")


def build_graph(
    edge_list: Iterable[Sequence[int]],
    log_weights: Sequence[float],
    d: int,
    K: float,
    orbit_labels: Optional[np.ndarray] = None,
) -> WeightedGraph:
    """Validate and assemble a WeightedGraph.

    ``edge_list`` holds pairs of vertex ids: a list or tuple of pairs, an
    (m, 2) integer array, or any iterable of pairs such as a generator.  An
    entry that is not a pair, or an id that does not fit in int64, raises
    GraphError.

    Raises SelfLoop, DuplicateEdge, DegreeExceeded or RatioBoundViolated when
    the input breaks the corresponding constraint, and GraphError for an id
    outside [0, n) or a K that check_ratio_bound refuses.  The edge checks
    report the first failing edge in list order; within one edge they check
    self-loop, range, duplicate (raised at the second occurrence, in either
    orientation) and then the ratio.  The degree check follows the edge
    checks.  K = 1 is accepted and means the distribution is constant across
    every connected component.
    """
    lw = np.asarray(log_weights, dtype=np.float64)
    n = len(lw)
    if d < 1:
        raise GraphError(f"degree bound must be positive, got {d}")
    check_ratio_bound(K)
    if not np.all(np.isfinite(lw)):
        raise GraphError("log-weights must be finite")

    edges = _as_edge_array(edge_list)
    m = len(edges)
    # the first self-loop or out-of-range edge; the other checks look only
    # at the edges before it, which are all in range
    bad = (edges[:, 0] == edges[:, 1]) | ((edges < 0) | (edges >= n)).any(axis=1)
    first = int(np.argmax(bad)) if bad.any() else m
    u, v = edges[:first, 0], edges[:first, 1]
    # both arcs of every edge, packed as tail * n + head: sorted, they are
    # the CSR order, and a repeated edge shows as a repeated arc
    arcs = np.empty(2 * first, dtype=np.int64)
    np.multiply(u, n, out=arcs[:first])
    arcs[:first] += v
    np.multiply(v, n, out=arcs[first:])
    arcs[first:] += u
    arcs.sort()
    dup = first
    if (arcs[1:] == arcs[:-1]).any():
        # the second occurrence of an edge, in either orientation
        _, once = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        repeat = np.ones(first, dtype=bool)
        repeat[once] = False
        dup = int(np.argmax(repeat))
    log_k = math.log(K) * (1.0 + RATIO_SLACK) + RATIO_SLACK
    gaps = lw[u]
    gaps -= lw[v]
    steep = np.abs(gaps, out=gaps) > log_k
    # the first failing edge; the checks below name its first failure
    i = min(first, dup, int(np.argmax(steep)) if steep.any() else first)
    if i < m:
        a, b = int(edges[i, 0]), int(edges[i, 1])
        if a == b:
            raise SelfLoop(f"self-loop at vertex {a}")
        if i == first:
            raise GraphError(f"edge ({a}, {b}) references a vertex outside [0, {n})")
        key = (min(a, b), max(a, b))
        if i == dup:
            raise DuplicateEdge(f"edge {key} appears twice")
        diff = abs(float(lw[a]) - float(lw[b]))
        raise RatioBoundViolated(f"edge {key} has weight ratio exp({diff:.6g}) > K={K}")

    deg = np.bincount(edges.reshape(-1), minlength=n)
    if int(deg.max(initial=0)) > d:
        worst = int(np.argmax(deg))
        raise DegreeExceeded(f"vertex {worst} has degree {int(deg[worst])} > d={d}")

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    arcs %= n
    return WeightedGraph(indptr, arcs, lw, d, K, orbit_labels=orbit_labels)


def ratio(G, x: int, y: int) -> float:
    """Discrete derivative p(y)/p(x) across the edge {x, y}."""
    if not G.adjacent(x, y):
        raise NotAdjacent(f"vertices {x} and {y} are not adjacent")
    return math.exp(G.log_weight(y) - G.log_weight(x))


def walk_log_ratio(G, walk, closed: bool = False) -> float:
    """Log of the edge-label product along a walk; closed appends the wrap
    edge from the last vertex back to the first.

    Heads and tails of a closed walk carry the same log-weight multiset, so
    summing both sides in sorted order cancels bit-exactly: the label product
    around any cycle is exactly one, not merely close to it.
    """
    walk = [int(v) for v in walk]
    if len(walk) < 2:
        return 0.0
    pairs = list(zip(walk, walk[1:]))
    if closed:
        pairs.append((walk[-1], walk[0]))
    for x, y in pairs:
        if not G.adjacent(x, y):
            raise NotAdjacent(f"walk step {x} -> {y} is not an edge")
    heads = sorted(G.log_weight(y) for _, y in pairs)
    tails = sorted(G.log_weight(x) for x, _ in pairs)
    return sum(heads) - sum(tails)


def cycle_ratio_product(G, cycle) -> float:
    """Product of directed edge labels around a cycle; exactly 1.0."""
    return math.exp(walk_log_ratio(G, cycle, closed=True))


def components(G, removed=()) -> list[list[int]]:
    """Connected components of G after deleting the removed vertices.

    Components come in order of their smallest vertex, each listing its
    vertices in the order a stack scan visits them.  Only ``G.n`` and the
    graph's one ``G.neighbor_lists()`` are used, so both graph classes are
    served.  A removed id outside ``range(G.n)`` raises ``GraphError``.
    """
    # read first: a graph too large to list raises here, before n is allocated
    adj = G.neighbor_lists()
    n = G.n
    seen = [False] * n
    for v in removed:
        if not 0 <= v < n:
            raise GraphError(f"removed vertex {v} is not in the graph (n={n})")
        seen[v] = True
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def adjacency(n: int, edges) -> list[list[int]]:
    """Neighbor lists, each sorted, of the graph on vertices 0..n-1 with the
    given edges."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def bfs(neighbors, root, radius=None) -> tuple[list, list[int], dict]:
    """Breadth-first scan from root, expanding no vertex at depth radius.

    Returns the FIFO visit order (neighbors taken in listed order), the depth
    of each vertex in that order, and each vertex's position in the order.
    ``neighbors`` maps a vertex to a list of its neighbors, so
    ``G.neighbors`` of either graph class and
    ``adjacency(n, edges).__getitem__`` serve alike.
    """
    order = [root]
    depths = [0]
    pos = {root: 0}
    # the growing order and depths lists are the FIFO queue
    for v, dist in zip(order, depths):
        # depths never decrease along the order, so every later vertex
        # also sits at the radius
        if dist == radius:
            break
        for w in neighbors(v):
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
                depths.append(dist + 1)
    return order, depths, pos


def two_coloring(neighbors, vertices) -> Optional[dict]:
    """Proper 2-coloring of everything reachable from the given vertices,
    by depth parity of bfs scans; None when no such coloring exists."""
    color: dict = {}
    for s in vertices:
        if s not in color:
            order, depths, _ = bfs(neighbors, s)
            color.update(zip(order, (dist & 1 for dist in depths)))
    for v, c in color.items():
        for w in neighbors(v):
            if color[w] == c:
                return None
    return color


def walk_order(neighbors, start, count: int) -> list:
    """The first count vertices of a walk along a path or cycle from start
    that never steps straight back; the first step takes the first listed
    neighbor.  Raises ``GraphError`` when the walk ends before count."""
    order = [start]
    prev = None
    while len(order) < count:
        v = order[-1]
        nxt = next((w for w in neighbors(v) if w != prev), None)
        if nxt is None:
            raise GraphError(f"walk from {start} reached {len(order)} of {count} vertices")
        order.append(nxt)
        prev = v
    return order


# the first vertex 2^k - 1 of each heap layer k an int64 id can reach
_LAYER_STARTS = np.array([(1 << k) - 1 for k in range(64)], dtype=np.int64)


# the largest |beta| whose ratio bound exp(|beta|) is a finite float
MAX_BETA = math.log(sys.float_info.max)


class LayeredBinaryTree(_GraphProtocol):
    """Complete binary tree with per-layer weights, stored implicitly.

    Vertices use heap indexing: root 0, children of v are 2v+1 and 2v+2,
    layer k occupies [2^k - 1, 2^(k+1) - 1).  Weight of a layer-k vertex is
    exp(-beta * k).  Answers the same query protocol as WeightedGraph
    without materializing the vertex set, so depth 100 is fine;
    ``neighbors(v)`` lists the parent first, then the two children.  A
    list over every vertex raises ``TooLarge`` past ``LISTABLE_DEPTH``.
    """

    LISTABLE_DEPTH = 22

    def __init__(self, depth: int, beta: float):
        if depth < 1:
            raise GraphError(f"depth must be positive, got {depth}")
        self.depth = int(depth)
        self.beta = float(beta)
        if not abs(self.beta) <= MAX_BETA:
            raise GraphError(f"beta must be finite with |beta| <= {MAX_BETA:.6g}, got {beta}")
        self.n = (1 << self.depth) - 1
        self.d = 3
        self.K = max(math.exp(abs(self.beta)), 1.0)
        ks = np.arange(self.depth, dtype=np.float64)
        layer_log_mass = ks * math.log(2.0) - self.beta * ks
        self.log_z = _log_sum_exp(layer_log_mass)
        masses = np.exp(layer_log_mass - self.log_z)
        masses.setflags(write=False)
        self.layer_masses = masses
        self._derived: dict = {}

    @property
    def edge_count(self) -> int:
        return self.n - 1

    def layer(self, v: int) -> int:
        return (v + 1).bit_length() - 1

    def layer_start(self, k: int) -> int:
        return (1 << k) - 1

    def neighbors(self, v: int) -> list[int]:
        out = []
        if v > 0:
            out.append((v - 1) // 2)
        if self.layer(v) < self.depth - 1:
            out.extend((2 * v + 1, 2 * v + 2))
        return out

    def _list_neighbors(self) -> list[list[int]]:
        if self.depth > self.LISTABLE_DEPTH:
            raise TooLarge(f"refusing to list the neighbors of 2^{self.depth} - 1 vertices")
        return super()._list_neighbors()

    def log_weight(self, v: int) -> float:
        return -self.beta * self.layer(v)

    def p(self, v: int) -> float:
        return math.exp(self.log_weight(v) - self.log_z)

    def orbit_reps(self) -> list[tuple[int, float]]:
        return [(self.layer_start(k), float(self.layer_masses[k])) for k in range(self.depth)]

    @property
    def orbit_count(self) -> int:
        return self.depth

    def orbit_ids(self, vertices) -> np.ndarray:
        """Layer of each vertex.  Integer arrays are placed among the layer
        starts 2^k - 1 by one search; anything else, such as the object
        arrays of roots past 2^63 in deep sweeps, goes vertex by vertex in
        exact Python integers."""
        vertices = np.asarray(vertices)
        if vertices.dtype.kind != "i":
            return np.array([self.layer(int(v)) for v in vertices], dtype=np.int64)
        return np.searchsorted(_LAYER_STARTS, vertices, side="right").astype(np.int64) - 1

    @property
    def probabilities(self) -> np.ndarray:
        """Per-vertex distribution, for trees small enough to materialize."""
        if self.depth > self.LISTABLE_DEPTH:
            raise TooLarge(f"refusing to list 2^{self.depth} - 1 vertex masses")
        ks = range(self.depth)
        per_layer = [math.exp(-self.beta * k - self.log_z) for k in ks]
        return np.repeat(per_layer, [1 << k for k in ks])

    def roots_from_words(self, w0: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Roots drawn by the vertex distribution: a layer from the alias
        table over layer masses (w0, w1), then a uniform offset within it (w2)."""
        if self.n >= 2**62:
            raise GraphError("sampling supports at most 2^62 vertices")
        sampler = self.derived("alias", lambda: AliasSampler(self.layer_masses))
        layers = sampler.pick(w0, w1)
        sizes = np.int64(1) << layers.astype(np.int64)
        offsets = (w2 % sizes.astype(np.uint64)).astype(np.int64)
        return (sizes - 1) + offsets

    def materialize(self) -> WeightedGraph:
        """Explicit copy for small depths; primarily used to cross-check."""
        if self.depth > self.LISTABLE_DEPTH:
            raise TooLarge(f"refusing to materialize 2^{self.depth} - 1 vertices")
        children = np.arange(1, self.n)
        edges = np.column_stack(((children - 1) // 2, children))
        ks = np.arange(self.depth)
        layers = np.repeat(ks, 1 << ks)
        return build_graph(edges, -self.beta * layers, d=3, K=self.K, orbit_labels=layers)

    def __repr__(self) -> str:
        return f"LayeredBinaryTree(depth={self.depth}, beta={self.beta})"


def as_int(value) -> int:
    """int(value) for a parameter given from outside the program, except
    that a bool or a float with a fractional part raises ValueError instead
    of being read as 0, 1 or its truncation."""
    if isinstance(value, bool) or (
        isinstance(value, float) and math.isfinite(value) and not value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector; as a decorator, until the function's locals
    are freed.  Collection is process-global: a pause ending on another thread
    resumes it early, costing only speed; one that finds it off leaves it off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def graph_to_json(G: WeightedGraph) -> str:
    """JSON text, keys sorted, made with the collector paused (see load_graph)."""
    return json.dumps(G.to_json_dict(), sort_keys=True)


def graph_from_json_dict(obj: dict) -> WeightedGraph:
    """The graph of a dict as ``to_json_dict`` writes it.  Raises GraphError
    unless n and d are ints, K is a number, edges is a list and log_weights
    is a list of numbers; a bool counts as none of these."""
    for name, kinds, what in (
        ("n", int, "an integer"),
        ("d", int, "an integer"),
        ("K", (int, float), "a number"),
        ("edges", list, "a list"),
        ("log_weights", list, "a list of numbers"),
    ):
        value = obj[name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise GraphError(f"graph field {name} must be {what}, got {value!r}")
    n, lw = obj["n"], obj["log_weights"]
    # the JSON number types, exactly: bool is a subclass of int
    if not {type(x) for x in lw} <= {int, float}:
        raise GraphError("graph field log_weights must be a list of numbers")
    if len(lw) != n:
        raise GraphError(f"n={n} but {len(lw)} log-weights")
    return build_graph(obj["edges"], lw, d=obj["d"], K=float(obj["K"]))


def save_graph(G: WeightedGraph, path) -> None:
    """Write graph_to_json(G), made with the collector paused, to path."""
    with open(path, "w") as fh:
        fh.write(graph_to_json(G))


def open_input(path):
    """The file at path, opened to read text.  Raises GraphError when it
    cannot be opened: a missing file, a directory, no permission."""
    try:
        return open(path)
    except OSError as e:
        raise GraphError(f"cannot read {path}: {e.strerror}") from None


@_collector_paused()
def load_graph(path) -> WeightedGraph:
    """Read a graph file as save_graph writes it.  Raises GraphError for a
    path that cannot be opened, or a file of any other kind: text that is
    not JSON, JSON that is not an object with n, d, K, edges and
    log_weights, or one whose fields have the wrong types (see
    graph_from_json_dict).  Parsed JSON has a list per edge and no cycles,
    so the collector is paused until those lists are freed."""
    fields = ("n", "d", "K", "edges", "log_weights")
    with open_input(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:  # not JSON, or not text
            raise GraphError(f"{path} is not a graph file: {e}") from None
    if not (isinstance(obj, dict) and obj.keys() >= set(fields)):
        raise GraphError(f"{path} is not a graph file: it needs {', '.join(fields)}")
    return graph_from_json_dict(obj)
