"""Sampling and observation oracles, and the per-graph ball-type index.

The relative-weight oracle samples a root by the hidden vertex distribution
and returns its radius-r ball with truncated relative labels.  Query i always
draws from a fixed 4-word block of a counter-based random stream, so batches
can be produced in parallel or replayed one index at a time with identical
results.  The stream is Philox keyed by the seed; a call builds it at its
first query's counter and draws no OS entropy (:func:`rnlab.graphs.philox`).

A ball's type (its canonical key) is fixed by the graph, so the work of
finding it is done once per graph: :class:`BallIndex` maps each root (each
orbit, where the graph knows its orbits) to a dense type id and is kept on
the graph object.  The tester, the exact and empirical statistics, the
oracle and ``rnlab sample`` all read types through it.
"""
from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from collections import Counter, deque
from typing import Callable

import numpy as np

from . import balls
from .balls import CanonicalBallKey, LabeledBall, extract_ball, truncate_label, unrooted_key
from .graphs import Budget, GraphError, philox

WORDS_PER_QUERY = 4
CLASS_KEY_CAP = 10_000
# counts observe's n single vertices, but never raises on them
SUBSET_CAP = 500_000
CYCLE_STEP_CAP = 2_000_000


class BallIndex:
    """Ball types of one graph at radius r and label depth t, filled lazily.

    What it caches: a dense type id per queried root, stored per orbit when
    the graph knows its orbits (per vertex otherwise); one canonical key and
    one representative root per type (the smallest root, among those of the
    call that found the type, of its first orbit); a raw-ball -> type memo,
    so a ball seen before is never canonicalized again; the hex string of
    each key (:meth:`hex_keys`); and per-type predicate flags, keyed by the
    predicate's spec (a frozen ``PropertySpec`` for the tester), as one
    read-only bool array per spec.

    Lifetime: one index per (graph, r, t), created by :func:`ball_index` on
    first use and kept in the graph's derived-structure dict, so it lives
    exactly as long as the graph object.  Nothing is filled eagerly: exact
    sweeps read neither the hex strings nor the flags, so they pay nothing
    for them.

    Memory: one int32 per vertex or orbit, one key, one root and one hex
    string per type, one bool per type and spec, and one memo entry per
    distinct raw ball; the memo is dropped once every vertex or orbit has
    its type.  The representative ball of a type is re-extracted at its
    root when a predicate first needs it: keeping a ball object per type
    keeps its label objects alive, which on cold sweeps doubled the garbage
    collector's runs.

    :meth:`types` is the one fill path, for exact sweeps and sampled
    lookups alike.  A miss extracts the ball at the smallest root of each
    orbit still without a type and canonicalizes it; an entry is stored
    only after both succeed, so a lookup that raises (``BudgetExceeded``
    past ``balls._RefinementSearch.MAX_LEAVES`` canonical leaves, say)
    raises again next time.  Fills hold the index's lock and are
    idempotent, so concurrent callers see the same type ids.
    """

    def __init__(self, G, r: int, t: int):
        if r < 0 or t < 0:
            raise ValueError(f"ball radius and label digits must be nonnegative, got r={r}, t={t}")
        # a weak reference: the graph owns the index, and without a cycle
        # the graph is freed by reference counting as soon as it is dropped
        self._graph = weakref.ref(G)
        self.r = int(r)
        self.t = int(t)
        self.keys: list[CanonicalBallKey] = []
        self.roots: list[int] = []
        self._type_of_orbit = np.full(G.orbit_count, -1, dtype=np.int32)
        self._remaining = G.orbit_count
        self._type_of_raw: dict[tuple, int] = {}
        self._type_of_key: dict[CanonicalBallKey, int] = {}
        self._hexes: list[str] = []
        self._flags: dict[object, np.ndarray] = {}
        self._lock = threading.RLock()

    def _graph_or_raise(self):
        G = self._graph()
        if G is None:
            raise GraphError("the graph of this ball index has been freed")
        return G

    def types(self, roots) -> np.ndarray:
        """Type id of the ball at each root.  When the roots are every vertex
        (an exact sweep), misses read neighbors from the graph's
        ``G.neighbor_lists()``; otherwise from ``G.neighbors``, so sampled
        lookups never build those lists."""
        G = self._graph_or_raise()
        orbits = G.orbit_ids(roots)
        types = self._type_of_orbit[orbits]
        missing = types < 0
        if missing.any():
            # listing every vertex's neighbors pays off only when every vertex is a root
            adj = G.neighbor_lists() if len(roots) == G.n else None
            with self._lock:
                fill = self._type_of_orbit
                # one root per orbit without a type, its smallest: ordered
                # by root, an orbit's first occurrence is its smallest root
                todo_roots = np.asarray(roots)[missing]
                by_root = np.argsort(todo_roots)
                todo, first = np.unique(orbits[missing][by_root], return_index=True)
                reps = todo_roots[by_root[first]]
                for orbit, root in zip(todo.tolist(), reps.tolist()):
                    if fill[orbit] < 0:  # another thread may have typed it
                        # extract_ball is this module's global and canonicalize
                        # is looked up on balls at call time, so wrappers
                        # installed on either module see every miss
                        ball = extract_ball(G, root, self.r, self.t, adj=adj)
                        # stored only once canonicalization has succeeded
                        fill[orbit] = self._type_of(ball, root)
                        self._remaining -= 1
                if self._remaining == 0:
                    # every orbit has its type, so no later call reads the
                    # memo: free it, as a full sweep ends
                    self._type_of_raw.clear()
                types = fill[orbits]
        return types

    def _type_of(self, ball: LabeledBall, root: int) -> int:
        raw = (ball.depths, ball.edges, ball.labels)
        tid = self._type_of_raw.get(raw)
        if tid is None:
            key = balls.canonicalize(ball)
            tid = self._type_of_key.get(key)
            if tid is None:
                tid = len(self.keys)
                self.keys.append(key)
                self.roots.append(root)
                self._type_of_key[key] = tid
            self._type_of_raw[raw] = tid
        return tid

    def hex_keys(self) -> list[str]:
        """``keys[i].hex()`` for every type known so far, each computed once.
        The list is the index's own: callers must not mutate it."""
        hexes = self._hexes
        if len(hexes) < len(self.keys):
            with self._lock:
                hexes.extend(key.hex() for key in self.keys[len(hexes):])
        return hexes

    def flags(self, spec, predicate: Callable[[LabeledBall], bool]) -> np.ndarray:
        """predicate(representative ball) for every type known so far,
        evaluated once per (spec, type); spec names the predicate.  The
        array is read-only and rebuilt only when types were added since it
        was built; a predicate that raises stores nothing."""
        done = self._flags.get(spec)
        if done is not None and len(done) == len(self.roots):
            return done
        G = self._graph_or_raise()
        with self._lock:
            done = self._flags.get(spec)
            known = [] if done is None else done.tolist()
            for root in self.roots[len(known):]:
                known.append(bool(predicate(extract_ball(G, root, self.r, self.t))))
            done = np.array(known, dtype=bool)
            done.setflags(write=False)
            self._flags[spec] = done
            return done


def ball_index(G, r: int, t: int) -> BallIndex:
    """The graph's BallIndex at (r, t), created on first use."""
    return G.derived(("balls", int(r), int(t)), lambda: BallIndex(G, r, t))


def _raw_words(seed: int, start_query: int, count: int) -> np.ndarray:
    # the Philox counter counts 4-word blocks, not words
    return philox(seed, WORDS_PER_QUERY * start_query // 4).random_raw(WORDS_PER_QUERY * count)


class RadonNikodymOracle:
    """Samples roots by the vertex distribution and serves labeled balls.

    Works on any graph with the sampling protocol (``roots_from_words``):
    explicit graphs draw vertices from an alias table, implicitly represented
    layered trees draw a layer and then a uniform index within it.  The alias
    table and the ball index belong to the graph, so oracles are cheap.
    Each :meth:`sample_roots` call reads a Philox stream keyed by the seed,
    started at its first query's counter, and draws no OS entropy.
    """

    def __init__(self, G, r: int, t: int, seed: int = 0):
        self.G = G
        self.r = int(r)
        self.t = int(t)
        self.seed = int(seed)
        self.index = ball_index(G, r, t)

    def sample_roots(self, count: int, start_query: int = 0) -> np.ndarray:
        """Roots for queries [start_query, start_query + count)."""
        if start_query < 0:
            raise ValueError(f"queries are numbered from 0, got start_query={start_query}")
        if count < 0:
            raise ValueError(f"query count must be nonnegative, got count={count}")
        words = _raw_words(self.seed, start_query, count)
        return self.G.roots_from_words(
            words[0::WORDS_PER_QUERY], words[1::WORDS_PER_QUERY], words[2::WORDS_PER_QUERY]
        )

    def query(self, index: int) -> LabeledBall:
        root = int(self.sample_roots(1, start_query=index)[0])
        return self.ball_at(root)

    def ball_at(self, root: int) -> LabeledBall:
        return extract_ball(self.G, root, self.r, self.t)


def uniform_query(G, r: int, rng: np.random.Generator, t: int = 2) -> LabeledBall:
    """Classical oracle: uniform root, all labels forced to 1.00."""
    n = G.n
    if n >= 2**62:
        raise GraphError("sampling supports at most 2^62 vertices")
    if n == 0:
        raise GraphError("the graph has no vertices to sample")
    root = int(rng.integers(0, n))
    ball = extract_ball(G, root, r, t)
    unit = truncate_label(1.0, t)
    return LabeledBall(
        radius=ball.radius,
        depths=ball.depths,
        edges=ball.edges,
        labels=(unit,) * ball.n,
    )


# ---------------------------------------------------------------------------
# Observation tables: which connected graphs with at most s vertices occur as
# induced subgraphs.
# ---------------------------------------------------------------------------


@dataclass
class ObservationTable:
    depth: int
    degree_bound: int
    entries: dict[str, bool]


def cycle_key(k: int) -> str:
    return unrooted_key(k, [(i, (i + 1) % k) for i in range(k)], transitive=True).hex()


def enumerate_connected_classes(s: int, d: int) -> dict[bytes, tuple[int, tuple]]:
    """All isomorphism classes of connected graphs with <= s vertices and max
    degree <= d, by canonical key, each with one (n, edges) representative.

    Each class on n vertices grows by one new vertex joined to every set of
    1..d vertices of degree below d.  That reaches every class (McKay, J.
    Algorithms 26, 1998): removing a leaf of a BFS tree leaves a connected
    graph whose degrees are at most d, and below d at the leaf's neighbors.
    Raises ``BudgetExceeded`` past ``CLASS_KEY_CAP`` keys, one per new shape.
    """
    if s < 1:
        raise ValueError("depth must be at least 1")
    budget = Budget(CLASS_KEY_CAP, f"more than {CLASS_KEY_CAP} class keys at depth {s}, degree {d}")
    start = (1, ())
    seen: dict[bytes, tuple[int, tuple]] = {unrooted_key(1, []): start}
    # a child is reached from many parents: one key per shape, for this call
    shape_keys: dict[tuple, bytes] = {}
    generation = [start]
    for n in range(1, s):
        grown = []
        for _, edges in generation:
            deg = Counter(itertools.chain.from_iterable(edges))
            open_ = [v for v in range(n) if deg[v] < d]
            for k in range(1, min(d, len(open_)) + 1):
                for attach in itertools.combinations(open_, k):
                    child = (n + 1, tuple(sorted(edges + tuple((v, n) for v in attach))))
                    key = shape_keys.get(child)
                    if key is None:
                        budget.spend()
                        key = shape_keys[child] = unrooted_key(*child)
                    if key not in seen:
                        seen[key] = child
                        grown.append(child)
        generation = grown
    return seen


def _connected_induced_keys(G, s: int) -> set[bytes]:
    found: set[bytes] = set()
    # subsets of the same shape share their key: one key per shape, per call
    shape_keys: dict[tuple, bytes] = {}
    adj = G.neighbor_lists()
    queue = deque(frozenset((v,)) for v in range(G.n))
    visited = set(queue)
    budget = Budget(SUBSET_CAP - G.n, "induced subgraph enumeration exceeded its cap")
    while queue:
        S = queue.popleft()
        verts = sorted(S)
        pos = {v: i for i, v in enumerate(verts)}
        edges = tuple(
            (pos[u], pos[v]) for u in verts for v in adj[u] if v in S and u < v
        )
        shape = (len(verts), edges)
        key = shape_keys.get(shape)
        if key is None:
            key = shape_keys[shape] = unrooted_key(*shape)
        found.add(key)
        if len(S) < s:
            for u in verts:
                for w in adj[u]:
                    if w not in S:
                        S2 = S | {w}
                        if S2 not in visited:
                            budget.spend()
                            visited.add(S2)
                            queue.append(S2)
    return found


def observe(G, s: int) -> ObservationTable:
    """Exact observing oracle: for every connected class H with <= s vertices
    and max degree <= d, report whether H occurs in G as an induced subgraph.
    Raises ``BudgetExceeded`` past ``CLASS_KEY_CAP`` keys or ``SUBSET_CAP`` subsets."""
    # a degree bound past s - 1 changes no class on <= s vertices
    classes = enumerate_connected_classes(s, G.d)
    present = _connected_induced_keys(G, s)
    entries = {key.hex(): key in present for key in classes}
    return ObservationTable(depth=s, degree_bound=G.d, entries=entries)


# ---------------------------------------------------------------------------
# Exact cycle observations.
# ---------------------------------------------------------------------------


def _shortest_cycle(G, limit: float, odd: bool) -> float:
    """Length of the shortest cycle (odd cycle, when odd is set) if it is at
    most limit, else inf.

    A BFS of radius ceil(limit/2) from every vertex, the bounded form of
    Itai & Rodeh (SIAM J. Comput. 7(4), 1978).  A non-tree edge vw, counted
    from its end nearer the root, closes a walk of depth[v] + depth[w] + 1
    steps through a cycle no longer than that, and a BFS from a vertex of a
    shortest cycle closes it at its length g within radius ceil(g/2).  With
    odd set only edges joining two vertices of equal depth count: each
    closes an odd walk of 2 * depth + 1 steps, so an odd cycle no longer,
    and a shortest odd cycle has no shortcut, so a BFS from any of its
    vertices reaches both ends of its far edge at equal depth.  A vertex at
    depth best/2 or more closes nothing shorter than best.
    """
    radius = math.ceil(limit / 2) if limit < math.inf else math.inf
    best = math.inf
    adj = G.neighbor_lists()
    for root in range(G.n):
        depth = {root: 0}
        dq = deque([root])
        while dq:
            v = dq.popleft()
            dv = depth[v]
            if 2 * dv >= best or dv >= radius:
                continue
            for w in adj[v]:
                dw = depth.get(w)
                if dw is None:
                    depth[w] = dv + 1
                    dq.append(w)
                elif dw == dv or (dw > dv and not odd):
                    best = min(best, dv + dw + 1)
    return best if best <= limit else math.inf


def girth(G, limit: float = math.inf) -> float:
    """Length of the shortest cycle when it is at most limit, else inf (so
    always inf on forests)."""
    return _shortest_cycle(G, limit, odd=False)


def odd_girth(G) -> float:
    """Length of the shortest odd cycle, or inf when bipartite."""
    return _shortest_cycle(G, math.inf, odd=True)


def induced_cycle_lengths(G, s: int) -> set[int]:
    """Lengths (<= s) of induced cycles in G, by DFS over induced paths.

    The minimal vertex of each cycle anchors the search and the orientation
    is fixed by requiring the second path vertex to be smaller than the
    closing vertex, so each cycle is found once.  Raises ``BudgetExceeded``
    past ``CYCLE_STEP_CAP`` extended paths."""
    if girth(G, s) > s:
        return set()
    lengths: set[int] = set()
    budget = Budget(CYCLE_STEP_CAP, "induced cycle search exceeded its step cap")
    adj = G.neighbor_lists()

    def extend(path: list[int], banned: set[int]) -> None:
        budget.spend()
        root = path[0]
        for u in adj[path[-1]]:
            if u <= root or u in banned:
                continue
            if len(path) == 1:
                extend(path + [u], banned | {u})
                continue
            around = adj[u]
            if any(x in around for x in path[1:-1]):
                continue
            if root in around:
                if path[1] < u:
                    lengths.add(len(path) + 1)
                continue
            if len(path) + 1 < s:
                extend(path + [u], banned | {u})

    for v in range(G.n):
        extend([v], {v})
    return lengths
