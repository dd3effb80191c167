"""Graph families used throughout the lab.

All generators emit graphs that pass build_graph validation, record the
minimal valid ratio bound K, and are bit-reproducible given a seed.
"""
from __future__ import annotations

import math

import numpy as np

from .graphs import (
    DuplicateEdge,
    GraphError,
    LayeredBinaryTree,
    SelfLoop,
    WeightedGraph,
    as_int,
    build_graph,
    components,
)

LN2 = math.log(2.0)


class InvalidSize(GraphError):
    pass


# Depth at which gen_binary_tree switches to the implicit representation.
MATERIALIZE_DEPTH = 16


def gen_binary_tree(depth: int, beta: float, representation: str = "auto"):
    """Binary tree with depth layers; a layer-k vertex weighs exp(-beta*k).

    Layer k holds 2^k vertices, so layer mass is proportional to
    exp(k*(ln 2 - beta)): the distribution is uniform across layers exactly
    at beta = ln 2, leaf-heavy below it and root-heavy above it.  Returns an
    explicit WeightedGraph for small depths and an implicit
    LayeredBinaryTree beyond MATERIALIZE_DEPTH (or per the representation
    argument).  Both expose the same query surface.
    """
    if depth < 1:
        raise InvalidSize(f"depth must be positive, got {depth}")
    tree = LayeredBinaryTree(depth, beta)
    if representation == "implicit":
        return tree
    if representation == "explicit":
        return tree.materialize()
    if representation != "auto":
        raise ValueError(f"unknown representation {representation!r}")
    return tree.materialize() if depth <= MATERIALIZE_DEPTH else tree


def gen_orbit_tree(depth: int) -> WeightedGraph:
    """Truncated 3-regular tree whose weights realize a boundary flow.

    Every internal vertex sees exactly one neighbor at weight ratio 2 and
    two at ratio 1/2; log-weights are ln 2 times a level function that
    decreases along a distinguished ray from the root.  The truncation keeps
    vertices within graph distance `depth` of the root, so the root's
    radius-`depth` ball is untruncated.
    """
    if depth < 1:
        raise InvalidSize(f"depth must be positive, got {depth}")
    levels = [0]
    edges: list[tuple[int, int]] = []
    queue: list[tuple[int, int, int, str]] = [(0, 0, 0, "root")]
    head = 0
    while head < len(queue):
        v, level, dist, kind = queue[head]
        head += 1
        if dist >= depth:
            continue
        if kind in ("root", "chain"):
            chain = len(levels)
            levels.append(level - 1)
            edges.append((v, chain))
            queue.append((chain, level - 1, dist + 1, "chain"))
            down_count = 2 if kind == "root" else 1
        else:
            down_count = 2
        for _ in range(down_count):
            w = len(levels)
            levels.append(level + 1)
            edges.append((v, w))
            queue.append((w, level + 1, dist + 1, "down"))
    lw = [-LN2 * lev for lev in levels]
    return build_graph(edges, lw, d=3, K=2.0)


def gen_path(n: int, d: int = 2) -> WeightedGraph:
    if n < 1:
        raise InvalidSize(f"path needs at least 1 vertex, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_graph(edges, [0.0] * n, d=d, K=1.0)


def gen_cycle(n: int, d: int = 2) -> WeightedGraph:
    if n < 3:
        raise InvalidSize(f"cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(edges, [0.0] * n, d=d, K=1.0)


def gen_grid(rows: int, cols: int) -> WeightedGraph:
    if rows < 1 or cols < 1:
        raise InvalidSize(f"grid needs positive dimensions, got {rows}x{cols}")
    ids = np.arange(rows * cols).reshape(rows, cols)
    across = np.column_stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()))
    down = np.column_stack((ids[:-1].ravel(), ids[1:].ravel()))
    return build_graph(np.concatenate((across, down)), np.zeros(rows * cols), d=4, K=1.0)


def gen_disjoint_triangles(k: int, d: int = 2) -> WeightedGraph:
    """k disjoint triangles, uniform weights: every ball of every radius sees
    a cycle, so the graph is maximally far from forests locally."""
    if k < 1:
        raise InvalidSize(f"need at least 1 triangle, got {k}")
    edges = []
    for i in range(k):
        a = 3 * i
        edges.extend([(a, a + 1), (a + 1, a + 2), (a, a + 2)])
    return build_graph(edges, [0.0] * (3 * k), d=d, K=1.0)


def gen_theta_graph(arm_lengths: tuple[int, int, int] = (2, 3, 4)) -> WeightedGraph:
    """Two hub vertices joined by three internally disjoint paths."""
    edges = []
    counter = 2
    for length in arm_lengths:
        if length < 1:
            raise InvalidSize("theta arms need at least one edge segment")
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, counter))
            prev = counter
            counter += 1
        edges.append((prev, 1))
    return build_graph(edges, [0.0] * counter, d=3, K=1.0)


def algebraic_connectivity(G: WeightedGraph) -> float:
    """Second-smallest eigenvalue of the graph Laplacian (dense, n <= 3000)."""
    n = G.n
    if n > 3000:
        raise GraphError("algebraic connectivity check is dense-only (n <= 3000)")
    tails, heads = G.arcs()
    L = np.zeros((n, n))
    L[tails, heads] = -1.0
    np.fill_diagonal(L, np.bincount(tails, minlength=n))
    return float(np.linalg.eigvalsh(L)[1])


# gen_random_regular draws at most REGULAR_TRIES pairings, and keeps the first
# whose Laplacian spectral gap exceeds SPECTRAL_GAP
SPECTRAL_GAP = 0.1
REGULAR_TRIES = 300


def gen_random_regular(n: int, d: int, seed: int) -> WeightedGraph:
    """Random d-regular graph via the pairing model, resampled until simple
    and until the Laplacian spectral gap exceeds SPECTRAL_GAP."""
    if n * d % 2 != 0:
        raise InvalidSize(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise InvalidSize(f"regular degree {d} needs more than {n} vertices")
    rng = np.random.default_rng(seed)
    for _ in range(REGULAR_TRIES):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        try:
            G = build_graph(stubs.reshape(-1, 2), np.zeros(n), d=d, K=1.0)
        except (SelfLoop, DuplicateEdge):
            continue
        if len(components(G)) > 1:
            continue
        if algebraic_connectivity(G) > SPECTRAL_GAP:
            return G
    raise GraphError(
        f"no {d}-regular graph on {n} vertices with spectral gap > {SPECTRAL_GAP} "
        f"found in {REGULAR_TRIES} tries"
    )


def gen_perturbed_union(n: int, profile: str = "uniform", seed: int = 0) -> WeightedGraph:
    """Path on n^2 vertices joined to a random 3-regular graph on n vertices
    by a single bridge edge.

    Profiles: "uniform" spreads mass evenly; "adversarial" puts half of the
    total mass on the dense part, uniformly within it, which forces the
    recorded ratio bound up to K = n (the bridge edge carries the jump).
    """
    if n < 4:
        raise InvalidSize(f"need n >= 4, got {n}")
    H = gen_random_regular(n, 3, seed=seed)
    n_path = n * n
    path = np.arange(n_path - 1)
    bridge = [(n_path - 1, n_path)]
    edges = np.concatenate((np.column_stack((path, path + 1)), H.edge_array() + n_path, bridge))
    total = n_path + n
    if profile == "uniform":
        lw = [0.0] * total
        K = 1.0
    elif profile == "adversarial":
        lw = [0.0] * n_path + [math.log(n)] * n
        K = float(n)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return build_graph(edges, lw, d=4, K=K)


# each family's call on its --param dict and the seed; an int parameter goes
# through as_int, so a bool or a fraction is refused rather than truncated
_FAMILIES = {
    "binary_tree": lambda p, seed: gen_binary_tree(
        as_int(p["depth"]), float(p.get("beta", LN2)),
        representation=p.get("representation", "auto")),
    "orbit_tree": lambda p, seed: gen_orbit_tree(as_int(p["depth"])),
    "path": lambda p, seed: gen_path(as_int(p["n"]), d=as_int(p.get("d", 2))),
    "cycle": lambda p, seed: gen_cycle(as_int(p["n"]), d=as_int(p.get("d", 2))),
    "grid": lambda p, seed: gen_grid(as_int(p["rows"]), as_int(p["cols"])),
    "random_regular": lambda p, seed: gen_random_regular(
        as_int(p["n"]), as_int(p.get("d", 3)), seed=seed),
    "perturbed_union": lambda p, seed: gen_perturbed_union(
        as_int(p["n"]), profile=p.get("profile", "uniform"), seed=seed),
    "disjoint_triangles": lambda p, seed: gen_disjoint_triangles(
        as_int(p["k"]), d=as_int(p.get("d", 2))),
    "theta": lambda p, seed: gen_theta_graph(tuple(as_int(a) for a in p.get("arms", [2, 3, 4]))),
}


def build_from_spec(family: str, params: dict, seed: int):
    """The graph of the named family with these parameters and seed.  Raises
    GraphError for an unknown family or a parameter that is missing or
    cannot be read as its type."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown generator family {family!r}")
    try:
        return _FAMILIES[family](params, seed)
    except GraphError:
        raise
    except KeyError as e:
        raise GraphError(f"family {family!r} needs parameter {e.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise GraphError(f"bad parameter for family {family!r}: {e}") from None
