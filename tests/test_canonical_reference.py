"""The canonical form against the reference kept in helpers: the refinement
search that ranked every vertex on every round and the tree order filtered
from adjacency lists.  Key bytes, perms, leaf counts, the automorphisms the
search finds and decorated balls must all be the ones the reference gives."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ball_from_parts,
    heap_tree,
    petersen_edges,
    random_bounded_graph,
    reference_canonical_form,
    reference_canonicalize_decorated,
    weighted_grid,
)
from rnlab import (
    FixedPointLabel,
    build_graph,
    canonicalize,
    canonicalize_decorated,
    extract_ball,
    gen_binary_tree,
    gen_grid,
    gen_random_regular,
)
from rnlab import balls
from rnlab.graphs import adjacency

LN2 = math.log(2.0)


def _tied(G, levels):
    """G's edges with log-weights ln 2 * (v mod levels): many tied labels."""
    lw = [LN2 * (v % levels) for v in range(G.n)]
    return build_graph(G.edge_list(), lw, d=G.d, K=2.0 ** (levels - 1))


GRAPHS = {
    "weighted_grid": lambda: weighted_grid(6, 6, np.random.default_rng(1)),
    "heap_tree": lambda: heap_tree(63, np.random.default_rng(2)),
    "binary_tree": lambda: gen_binary_tree(5, LN2),
    "cubic": lambda: gen_random_regular(20, 3, seed=1),
    "cubic_tied": lambda: _tied(gen_random_regular(16, 3, seed=2), 2),
    "grid_tied": lambda: _tied(gen_grid(5, 5), 3),
    "random_bounded": lambda: random_bounded_graph(np.random.default_rng(3), 30, 4, 3.0),
    "random_bounded_uniform": lambda: random_bounded_graph(
        np.random.default_rng(4), 30, 4, 1.0, uniform=True
    ),
    "petersen": lambda: build_graph(petersen_edges(), [0.0] * 10, d=3, K=1.0),
}

UNIT_T1 = FixedPointLabel(10, 1)


def _cone(n, edges):
    """A root joined to every vertex of a graph on n vertices."""
    return ball_from_parts(n + 1, edges + [(v, n) for v in range(n)], n, [UNIT_T1] * (n + 1))


HEXAGON_TRIANGLES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                     (6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
PRISM_K33 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)] + [
    (i, j) for i in (6, 7, 8) for j in (9, 10, 11)
]


def assert_same_as_reference(ball, bits):
    deco = [balls._label_bytes(lab) for lab in ball.labels]
    perm, key = balls._canonical_form(ball, deco)
    ref_perm, ref_key, ref_search = reference_canonical_form(ball, deco)
    assert key.data == ref_key.data
    assert perm == ref_perm
    assert canonicalize(ball).data == ref_key.data
    if ref_search is not None:
        search = balls._RefinementSearch(ball.depths, ball.edges, adjacency(ball.n, ball.edges), deco)
        assert search.run() == (ref_search.best_perm, ref_search.best)
        assert search.budget.used == ref_search.leaves
        assert search.automorphisms == ref_search.automorphisms
    assert canonicalize_decorated(ball, bits) == reference_canonicalize_decorated(ball, bits)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_root_matches_reference(name):
    G = GRAPHS[name]()
    for x in range(G.n):
        for r in (0, 1, 2, 3):
            ball = extract_ball(G, x, r, 2)
            assert_same_as_reference(ball, [(5 * i + x) % 3 for i in range(ball.n)])


@pytest.mark.parametrize("edges", [HEXAGON_TRIANGLES, PRISM_K33], ids=["hexagon_triangles", "prism_k33"])
def test_cones_match_reference(edges):
    # the searches reach leaves with different codes
    ball = _cone(12, edges)
    assert_same_as_reference(ball, [0] * ball.n)
    assert_same_as_reference(ball, [v % 2 for v in range(ball.n)])


LEVELS = (0.0, math.log(2.0), math.log(3.0))


@st.composite
def balls_and_bits(draw):
    """A ball of a small random graph of maximum degree 4, trees and cyclic
    balls alike, with up to three label levels, and bits for it."""
    n = draw(st.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges, degree = set(), [0] * n
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []:
        if (u, v) not in edges and degree[u] < 4 and degree[v] < 4:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    levels = draw(st.integers(1, 3))
    lw = [LEVELS[draw(st.integers(0, levels - 1))] for _ in range(n)]
    G = build_graph(sorted(edges), lw, d=4, K=3.0)
    ball = extract_ball(G, draw(st.integers(0, n - 1)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    bits = draw(st.lists(st.integers(0, 2), min_size=ball.n, max_size=ball.n))
    return ball, bits


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(balls_and_bits())
def test_random_balls_match_reference(case):
    assert_same_as_reference(*case)
