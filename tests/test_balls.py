import hashlib
import math
import random
from itertools import permutations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ball_from_parts, balls_isomorphic, path_key, permuted_ball
from rnlab import (
    CanonicalBallKey,
    FixedPointLabel,
    GraphError,
    LabeledBall,
    LayeredBinaryTree,
    RadonNikodymOracle,
    TooLarge,
    build_graph,
    canonicalize,
    canonicalize_decorated,
    cycle_key,
    extract_ball,
    extract_ball_with_map,
    gen_binary_tree,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_orbit_tree,
    gen_path,
    gen_random_regular,
    gen_theta_graph,
    observe,
    truncate_label,
)
from rnlab import balls
from rnlab.balls import rooted_ball_view, unrooted_key
from rnlab.graphs import adjacency

LN2 = math.log(2.0)


class TestTruncateLabel:
    def test_pi_two_digits(self):
        lab = truncate_label(math.pi, 2)
        assert lab == FixedPointLabel(314, 2)

    def test_exact_decimal(self):
        assert truncate_label(2.0, 3) == FixedPointLabel(2000, 3)

    def test_repeating_decimal(self):
        assert truncate_label(1 / 3, 2) == FixedPointLabel(33, 2)

    def test_floor_not_round(self):
        assert truncate_label(0.999, 2) == FixedPointLabel(99, 2)
        assert truncate_label(1.099, 1) == FixedPointLabel(10, 1)

    def test_guard_absorbs_float_dust(self):
        # exp(ln 2) may come out a hair under 2; the label must still read 2.00
        val = math.exp(2 * math.log(2.0)) / 2.0
        assert truncate_label(val, 2) == FixedPointLabel(200, 2)

    def test_zero_digits(self):
        assert truncate_label(7.9, 0) == FixedPointLabel(7, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            truncate_label(-0.5, 2)
        with pytest.raises(ValueError):
            truncate_label(1.0, -1)

    def test_overflow_is_a_typed_error(self):
        # 10**308 fits a float and 5 * 10**308 does not; 10**309 never does.
        # A label that fits keeps its bits: 10**308, slack included, floored
        assert truncate_label(1.0, 308) == FixedPointLabel(int(1e308 + 1e308 * 1e-12), 308)
        with pytest.raises(TooLarge, match=r"^ratio 5\.0 at 308 label digits overflows a float$"):
            truncate_label(5.0, 308)
        for value in (0.0, 1.0):
            with pytest.raises(TooLarge, match=rf"^ratio {value} at 309 label digits"):
                truncate_label(value, 309)


class TestExtractBall:
    def test_radius_zero(self, c6_uniform):
        ball = extract_ball(c6_uniform, 3, 0, 2)
        assert ball.n == 1
        assert ball.labels == (FixedPointLabel(100, 2),)

    def test_uniform_path_center(self):
        G = gen_path(5)
        ball = extract_ball(G, 2, 1, 2)
        assert ball.n == 3
        assert sorted(ball.edges) == [(0, 1), (0, 2)]
        assert all(lab == FixedPointLabel(100, 2) for lab in ball.labels)

    def test_critical_tree_interior_labels(self, critical_tree):
        ball = extract_ball(critical_tree, 1, 1, 2)
        assert ball.n == 4
        labels = sorted(lab.scaled_value for lab in ball.labels[1:])
        assert labels == [50, 50, 200]
        assert ball.labels[0] == FixedPointLabel(100, 2)

    def test_root_label_exactly_one(self, rng):
        from helpers import random_bounded_graph

        G = random_bounded_graph(rng, 25, d=4, K=4.0)
        for v in (0, 5, 24):
            assert extract_ball(G, v, 2, 3).labels[0] == FixedPointLabel(1000, 3)

    def test_depths_are_bfs_distances(self):
        G = gen_cycle(8)
        ball = extract_ball(G, 0, 3, 2)
        assert ball.n == 7
        assert sorted(ball.depths) == [0, 1, 1, 2, 2, 3, 3]

    def test_ball_includes_cross_edges(self):
        G = gen_cycle(4)
        ball = extract_ball(G, 0, 2, 2)
        # radius 2 sees the whole square, including the far edge
        assert ball.n == 4
        assert len(ball.edges) == 4
        assert not ball.is_tree()

    def test_map_returns_original_ids(self):
        G = gen_path(7)
        ball, vmap = extract_ball_with_map(G, 3, 2, 2)
        assert vmap[0] == 3
        assert set(vmap) == {1, 2, 3, 4, 5}
        assert len(vmap) == ball.n

    @pytest.mark.parametrize(
        "G, root",
        [
            (gen_path(5), -1),  # would wrap to the last vertex's CSR offset
            (gen_path(5), 5),
            (gen_path(5), 7),
            (LayeredBinaryTree(3, LN2), -1),
            (LayeredBinaryTree(3, LN2), 7),
            (LayeredBinaryTree(3, LN2), 99),  # heap children 199, 200 are no vertices
            (LayeredBinaryTree(70, LN2), 2**70 - 1),
            (LayeredBinaryTree(70, LN2), 2**70),
        ],
        ids=["path-neg", "path-n", "path-7", "tree3-neg", "tree3-n", "tree3-99",
             "tree70-n", "tree70-2^70"],
    )
    def test_roots_outside_the_graph_rejected(self, G, root):
        with pytest.raises(GraphError, match="not a vertex"):
            extract_ball(G, root, 2, 2)
        with pytest.raises(GraphError, match="not a vertex"):
            extract_ball_with_map(G, root, 0, 2)
        with pytest.raises(GraphError, match="not a vertex"):
            RadonNikodymOracle(G, 2, 2).ball_at(root)

    def test_last_vertices_accepted(self):
        assert extract_ball_with_map(gen_path(5), 4, 1, 2)[1] == (4, 3)
        v = 2**70 - 2
        assert extract_ball_with_map(LayeredBinaryTree(70, LN2), v, 1, 2)[1] == (v, (v - 1) // 2)


class TestCanonicalize:
    def test_permutation_invariance(self):
        G = gen_binary_tree(4, LN2)
        ball = extract_ball(G, 1, 2, 2)
        key = canonicalize(ball)
        sampler = random.Random(11)
        for _ in range(20):
            perm = [0] + sampler.sample(range(1, ball.n), ball.n - 1)
            assert canonicalize(permuted_ball(ball, perm)) == key

    def test_root_position_matters(self):
        star = [(0, 1), (0, 2), (0, 3)]
        unit = [FixedPointLabel(100, 2)] * 4
        at_center = ball_from_parts(4, star, 0, unit)
        at_leaf = ball_from_parts(4, star, 1, unit)
        assert canonicalize(at_center) != canonicalize(at_leaf)

    def test_labels_distinguish(self):
        edges = [(0, 1), (0, 2)]
        one = FixedPointLabel(100, 2)
        half = FixedPointLabel(50, 2)
        a = ball_from_parts(3, edges, 0, [one, one, one])
        b = ball_from_parts(3, edges, 0, [one, one, half])
        assert canonicalize(a) != canonicalize(b)

    def test_tree_and_cycle_prefixes_disjoint(self):
        tree_ball = extract_ball(gen_path(5), 2, 1, 2)
        cycle_ball = extract_ball(gen_cycle(4), 0, 2, 2)
        assert canonicalize(tree_ball).data[:1] == b"T"
        assert canonicalize(cycle_ball).data[:1] == b"G"

    def test_key_ordering_and_hex(self):
        k1 = CanonicalBallKey(b"Ta")
        k2 = CanonicalBallKey(b"Tb")
        assert k1 < k2
        assert k1.hex() == b"Ta".hex()

    def test_completeness_small_sweep(self):
        # every pair of <=5-vertex labeled balls: equal keys iff isomorphic
        _completeness_sweep(max_n=5)


def _atlas_classes(max_n):
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n < 1 or n > max_n:
            continue
        if n > 1 and not nx.is_connected(g):
            continue
        yield n, [tuple(sorted(e)) for e in g.edges()]


def _automorphisms(n, edges):
    eset = {tuple(sorted(e)) for e in edges}
    autos = []
    for perm in permutations(range(n)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in eset} == eset:
            autos.append(perm)
    return autos


LABEL_CHOICES = (
    FixedPointLabel(50, 2),
    FixedPointLabel(100, 2),
    FixedPointLabel(200, 2),
)
ROOT_LABEL = FixedPointLabel(100, 2)


def _completeness_sweep(max_n):
    """Exhaustive soundness check of the canonical key.

    Within one unlabeled isomorphism class, two (root, labeling) choices give
    isomorphic balls exactly when an automorphism carries one to the other;
    across classes no isomorphism exists.  So the canonical key is complete
    iff, per class, the key partition of (root, labeling) pairs equals the
    automorphism-orbit partition, and keys never collide across classes.
    """
    seen_keys: dict = {}
    for class_id, (n, edges) in enumerate(_atlas_classes(max_n)):
        autos = _automorphisms(n, edges)
        orbit_of: dict = {}
        key_of_orbit: dict = {}
        for root in range(n):
            for labs in product(LABEL_CHOICES, repeat=n - 1):
                labels = list(labs)
                labels.insert(root, ROOT_LABEL)
                pair = (root, tuple(labels))
                if pair not in orbit_of:
                    orbit = frozenset(
                        (perm[root], tuple(labels[_inv(perm, i)] for i in range(n)))
                        for perm in autos
                    )
                    for member in orbit:
                        orbit_of[member] = orbit
                ball = ball_from_parts(n, edges, root, labels)
                key = canonicalize(ball)
                orbit = orbit_of[pair]
                if orbit in key_of_orbit:
                    # isomorphic balls must agree
                    assert key_of_orbit[orbit] == key, (n, edges, pair)
                else:
                    key_of_orbit[orbit] = key
                owner = seen_keys.get(key)
                if owner is None:
                    seen_keys[key] = (class_id, orbit)
                else:
                    # non-isomorphic balls must not collide
                    assert owner == (class_id, orbit), (n, edges, pair)


def _inv(perm, i):
    return perm.index(i)


class TestDecoratedBalls:
    def test_bits_travel_with_vertices(self):
        G = gen_path(5)
        ball, vmap = extract_ball_with_map(G, 2, 1, 2)
        deco = canonicalize_decorated(ball, [10, 20, 30])
        assert sorted(deco.bits) == [10, 20, 30]
        assert deco.bits[0] == 10  # root keeps its bits at index 0
        assert deco.depths[0] == 0

    def test_distinct_bits_change_key(self):
        G = gen_path(3)
        ball = extract_ball(G, 0, 1, 2)
        a = canonicalize_decorated(ball, [1, 2])
        b = canonicalize_decorated(ball, [1, 3])
        assert a.key != b.key

    def test_wrong_bit_count_rejected(self):
        ball = extract_ball(gen_path(3), 0, 1, 2)
        with pytest.raises(ValueError):
            canonicalize_decorated(ball, [1, 2, 3])

    def test_root_neighbors(self):
        ball = extract_ball(gen_path(5), 2, 1, 2)
        deco = canonicalize_decorated(ball, [0, 0, 0])
        assert len(deco.root_neighbors()) == 2
        assert deco.root_neighbors() == [v for v in range(deco.n) if (0, v) in deco.edges]


class TestUnrootedKey:
    def test_cycle_key_invariant_under_rotation(self):
        base = [(i, (i + 1) % 5) for i in range(5)]
        rot = [((i + 2) % 5, (i + 3) % 5) for i in range(5)]
        assert unrooted_key(5, base) == unrooted_key(5, rot)

    def test_path_vs_star(self):
        path = [(0, 1), (1, 2), (2, 3)]
        star = [(0, 1), (0, 2), (0, 3)]
        assert unrooted_key(4, path) != unrooted_key(4, star)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            rooted_ball_view(4, [(0, 1), (2, 3)], 0)


class TestBruteForceOracleSelfCheck:
    def test_oracle_agrees_with_permuted_copies(self):
        ball = extract_ball(gen_binary_tree(4, LN2), 1, 2, 2)
        for perm in permutations(range(1, ball.n)):
            full = [0] + list(perm)
            assert balls_isomorphic(ball, permuted_ball(ball, full))

    def test_oracle_rejects_different_shapes(self):
        a = extract_ball(gen_path(5), 2, 2, 2)
        b = extract_ball(gen_cycle(5), 0, 2, 2)
        assert not balls_isomorphic(a, b)


def _twin_chain(layers):
    """Layers of two vertices, each joined to both vertices of the next layer
    (K2,2 blocks), rooted at a vertex of the first layer.  The two vertices of
    every later layer swap independently: 2**(layers - 1) automorphisms fix
    the root."""
    edges = [(2 * i + a, 2 * i + 2 + b) for i in range(layers - 1) for a in (0, 1) for b in (0, 1)]
    return rooted_ball_view(2 * layers, edges, 0)


SYMMETRIC_BALLS = {
    "twin_chain": lambda: _twin_chain(19),
    # a unicyclic ball of 45 vertices
    "random_regular": lambda: extract_ball(gen_random_regular(1000, 3, seed=3), 0, 4, 2),
}


class TestSymmetricBalls:
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_BALLS))
    def test_search_prunes_automorphic_branches(self, name, monkeypatch):
        # Branching on every vertex of each target cell runs past the default
        # budget of 200,000 leaves on both balls.  The pruned search visits
        # 19; a budget of one leaf per vertex leaves room for renumberings
        # that find the automorphisms in another order.
        ball = SYMMETRIC_BALLS[name]()
        monkeypatch.setattr(balls._RefinementSearch, "MAX_LEAVES", ball.n)
        key = canonicalize(ball)
        assert key.data[:1] == b"G"
        sampler = random.Random(5)
        for _ in range(5):
            perm = [0] + sampler.sample(range(1, ball.n), ball.n - 1)
            assert canonicalize(permuted_ball(ball, perm)) == key

    def test_pruning_waits_for_the_first_automorphism(self):
        # the 6-cycle ball's reflection (ball ids are in BFS order) shows only
        # at its second leaf
        ball = extract_ball(gen_cycle(6), 0, 3, 2)
        deco = [balls._label_bytes(lab) for lab in ball.labels]
        search = balls._RefinementSearch(ball.depths, ball.edges, adjacency(ball.n, ball.edges), deco)
        search.run()
        assert search.budget.used == 2
        assert search.automorphisms == [[0, 2, 1, 4, 3, 5]]


# Small random cyclic balls: a cycle through the root of 3 to 6 vertices, a
# radius that keeps it whole, and random extra edges of maximum degree 4.
LABEL_LEVELS = (0.0, math.log(2.0), math.log(3.0))


@st.composite
def cyclic_balls(draw):
    cycle = draw(st.integers(3, 6))
    n = draw(st.integers(cycle, 10))
    edges = {(i, i + 1) for i in range(cycle - 1)} | {(0, cycle - 1)}
    degree = [2] * cycle + [0] * (n - cycle)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=16)):
        if (u, v) not in edges and degree[u] < 4 and degree[v] < 4:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    levels = draw(st.sampled_from([1, 2, 3]))
    lw = [LABEL_LEVELS[draw(st.integers(0, levels - 1))] for _ in range(n)]
    G = build_graph(sorted(edges), lw, d=4, K=3.0)
    root = draw(st.integers(0, cycle - 1))
    r = draw(st.integers(cycle // 2, 3))
    ball = extract_ball(G, root, r, 1)
    assert not ball.is_tree()
    return ball


@st.composite
def ball_pairs(draw):
    """Two cyclic balls and, for b a copy of a, the renumbering perm taking
    a's vertex v to b's vertex perm[v] (None for independent balls).  A copy
    has, sometimes, one non-root label changed."""
    a = draw(cyclic_balls())
    how = draw(st.sampled_from(["independent", "renumbered", "relabeled"]))
    if how == "independent":
        return a, draw(cyclic_balls()), None
    labels = list(a.labels)
    if how == "relabeled":
        v = draw(st.integers(1, a.n - 1))
        labels[v] = draw(st.sampled_from(sorted(set(a.labels) | {FixedPointLabel(5, 1)})))
    b = LabeledBall(radius=a.radius, depths=a.depths, edges=a.edges, labels=tuple(labels))
    perm = [0] + draw(st.permutations(range(1, a.n)))
    return a, permuted_ball(b, perm), perm


def _attributed(ball, bits):
    g = nx.Graph()
    for v in range(ball.n):
        g.add_node(v, tag=(v == 0, ball.depths[v], ball.labels[v], bits[v]))
    g.add_edges_from(ball.edges)
    return g


def _isomorphic(a, bits_a, b, bits_b):
    return nx.vf2pp_is_isomorphic(_attributed(a, bits_a), _attributed(b, bits_b), node_label="tag")


class TestAgainstNetworkx:
    """Equal keys exactly when networkx finds a root-, depth- and
    label-preserving isomorphism (and a bit-preserving one when decorated)."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(ball_pairs())
    def test_keys_match_isomorphism(self, pair):
        a, b, _ = pair
        same = _isomorphic(a, [0] * a.n, b, [0] * b.n)
        assert (canonicalize(a) == canonicalize(b)) == same

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ball_pairs(), st.data())
    def test_decorated_keys_match_isomorphism(self, pair, data):
        a, b, perm = pair
        bits_a = data.draw(st.lists(st.integers(0, 3), min_size=a.n, max_size=a.n))
        bits_b = data.draw(st.lists(st.integers(0, 3), min_size=b.n, max_size=b.n))
        if perm is not None and data.draw(st.booleans()):
            # the copy's vertices keep their bits, except perhaps one
            for v in range(a.n):
                bits_b[perm[v]] = bits_a[v]
            if data.draw(st.booleans()):
                bits_b[data.draw(st.integers(0, b.n - 1))] ^= 1
        same = _isomorphic(a, bits_a, b, bits_b)
        da = canonicalize_decorated(a, bits_a)
        db = canonicalize_decorated(b, bits_b)
        assert (da.key == db.key) == same
        if same:
            assert (da.depths, da.edges, da.labels, da.bits) == (db.depths, db.edges, db.labels, db.bits)


# ---------------------------------------------------------------------------
# Pinned keys.  The digests below were computed before the canonical-form
# code was last restructured; any change to key bytes, decorated balls or
# unrooted keys breaks them.  One digest per graph family, so a failure names
# the family, plus a few literal keys that show what changed.
# ---------------------------------------------------------------------------


UNIT_T1 = FixedPointLabel(10, 1)


def _tied(G, levels):
    """G's edges with log-weights ln 2 * (v mod levels): many tied labels."""
    lw = [LN2 * (v % levels) for v in range(G.n)]
    return build_graph(G.edge_list(), lw, d=G.d, K=2.0 ** (levels - 1))


CORPUS = {
    "grid": lambda: [gen_grid(4, 5), gen_grid(3, 7)],
    "cycle": lambda: [gen_cycle(7), gen_cycle(12)],
    "path": lambda: [gen_path(6)],
    "theta": lambda: [gen_theta_graph((2, 3, 4))],
    "triangles": lambda: [gen_disjoint_triangles(2)],
    "binary_tree": lambda: [gen_binary_tree(4, 0.5), gen_binary_tree(5, LN2)],
    "orbit_tree": lambda: [gen_orbit_tree(3)],
    "cubic": lambda: [
        gen_random_regular(12, 3, seed=1),
        gen_random_regular(16, 3, seed=2),
        gen_random_regular(20, 3, seed=3),
    ],
}

PINNED_DIGESTS = {
    "grid": "dba257a384f5422f6725a400c0bed9d82a2b2ee09a8036b868f43d4331611269",
    "cycle": "55b3a236e94334e10c9b5e6ec96819a99d8ea46b54b7f31f185ac3c6782eb51d",
    "path": "d29f2e6a9f9cbb7c36caeb0ac4c42e9732732ee6d4e2d62d89211c5c9802023d",
    "theta": "932c465331043811163f0160d5b08850437ebd9cb509550de6ef47211e3e745d",
    "triangles": "c07008fa9ab7402cb078c12bcc12ea867d49830a997c8ce3ad9374152dbfe797",
    "binary_tree": "34a7bd22efb31cc73f0bda51a057b9b2c9e7f9d0cb367094374fbbfe7d7322a3",
    "orbit_tree": "640f2d0cdccddf1787f55b91c3fe83456e8dcd13c08a4281214c6f1aebbd230d",
    "cubic": "80adf6f0e16c96779bacdfe27eeb01e5ddccb4d75e458f48463983c137dc5c86",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _corpus_lines(family):
    """Every root of every graph in the family, with its own weights and
    with two- and three-level tied weights: keys at r 1-3 and t 1-2, and the
    decorated ball at r 2, t 1."""
    for base in CORPUS[family]():
        for G in (base, _tied(base, 2), _tied(base, 3)):
            for x in range(G.n):
                for r in (1, 2, 3):
                    for t in (1, 2):
                        yield canonicalize(extract_ball(G, x, r, t)).hex()
                ball = extract_ball(G, x, 2, 1)
                d = canonicalize_decorated(ball, [(7 * i + x) % 3 for i in range(ball.n)])
                labels = [lab.scaled_value for lab in d.labels]
                yield repr((d.key.hex(), d.depths, d.edges, labels, d.bits))


class TestPinnedKeys:
    @pytest.mark.parametrize("family", sorted(CORPUS))
    def test_family_digest(self, family):
        assert _digest(_corpus_lines(family)) == PINNED_DIGESTS[family]

    def test_unrooted_digest(self):
        lines = [path_key(k) for k in range(1, 8)] + [cycle_key(k) for k in range(3, 8)]
        lines.append(repr(sorted(observe(gen_theta_graph((2, 3, 4)), 4).entries.items())))
        assert _digest(lines) == "82c8cd38aa27c48213c6e0f18817093d8001e7a12a934788c8a5a461a0c11dfe"

    def test_literal_keys(self):
        grid = canonicalize(extract_ball(gen_grid(4, 5), 6, 2, 1)).data
        assert grid == (
            b"G11|10/1|10/1|10/1|10/1|10/1|10/1|10/1|10/1|10/1|10/1|10/1"
            b";0,1;0,2;0,3;0,10;1,6;1,7;2,4;2,7;2,9;3,5;3,8;3,9;6,10;8,10"
        )
        tree = canonicalize(extract_ball(gen_binary_tree(4, 0.5), 1, 2, 2)).data
        assert tree == (
            b"T9|100/2|164/2|100/2|60/2|36/2|36/2|60/2|36/2|36/2"
            b";0,1;0,3;0,6;1,2;3,4;3,5;6,7;6,8"
        )
        assert bytes.fromhex(path_key(4)) == b"UT4|1/0|1/0|1/0|1/0;0,1;0,3;1,2"
        assert bytes.fromhex(cycle_key(5)) == b"UG5|1/0|1/0|1/0|1/0|1/0;0,1;0,4;1,2;2,3;3,4"

    def test_search_with_inequivalent_leaves(self):
        # A root joined to every vertex of C6 + 2 C3, or of a prism + K3,3:
        # refinement cannot split the first layer, the search reaches leaves
        # with different codes, and the key is the least of them.
        def cone(n, edges):
            return canonicalize(
                ball_from_parts(n + 1, edges + [(v, n) for v in range(n)], n, [UNIT_T1] * (n + 1))
            ).data

        hexagon_triangles = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                             (6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
        assert cone(12, hexagon_triangles) == (
            b"G13" + b"|10/1" * 13
            + b";0,1;0,2;0,3;0,4;0,5;0,6;0,7;0,8;0,9;0,10;0,11;0,12"
            b";1,2;1,10;2,3;3,9;4,9;4,10;5,8;5,11;6,7;6,12;7,12;8,11"
        )
        prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        k33 = [(i, j) for i in (6, 7, 8) for j in (9, 10, 11)]
        assert cone(12, prism + k33) == (
            b"G13" + b"|10/1" * 13
            + b";0,1;0,2;0,3;0,4;0,5;0,6;0,7;0,8;0,9;0,10;0,11;0,12"
            b";1,2;1,10;1,11;2,8;2,9;3,4;3,5;3,12;4,7;4,12;5,6;5,7;6,7;6,12"
            b";8,10;8,11;9,10;9,11"
        )

    def test_literal_decorated_ball(self):
        ball = extract_ball(gen_theta_graph((2, 3, 4)), 0, 2, 1)
        d = canonicalize_decorated(ball, [i % 2 for i in range(ball.n)])
        assert d.key.data == (
            b"G7|10/1#0|10/1#0|10/1#1|10/1#1|10/1#0|10/1#0|10/1#1"
            b";0,1;0,2;0,3;1,6;2,4;3,5;5,6"
        )
        assert d.depths == (0, 1, 1, 1, 2, 2, 2)
        assert d.edges == ((0, 1), (0, 2), (0, 3), (1, 6), (2, 4), (3, 5), (5, 6))
        assert d.labels == (FixedPointLabel(10, 1),) * 7
        assert d.bits == (0, 0, 1, 1, 0, 0, 1)
