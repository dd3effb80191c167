"""The four benchmark workloads.

Each workload builds its inputs and reference answers from the seed in
``setup``, runs one fixed round of rnlab calls in ``op`` and checks that
round's outputs in ``check``.  Calls go through module attributes
(``rnlab.testers.test_property`` and so on) so the tracer's wrappers are
the ones called.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import networkx as nx
import numpy as np

import rnlab.cli
import rnlab.graphs
import rnlab.local
import rnlab.partitions
import rnlab.statistics
import rnlab.testers
from rnlab.distances import PropertySpec

import reference as ref

LN2 = math.log(2.0)


class CheckFailed(Exception):
    """An output is wrong: the op fails and the run is not correct."""


class Unguaranteed(Exception):
    """An output carries no accuracy guarantee: the op fails."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols), ordering="sorted")
    return sorted(g.edges())


def heap_tree_edges(depth: int) -> list[tuple[int, int]]:
    """Binary tree with `depth` layers in heap order (children 2v+1, 2v+2)."""
    return sorted(nx.balanced_tree(2, depth - 1).edges())


def heap_layer(v: int) -> int:
    return (v + 1).bit_length() - 1


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int):
    return [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)]


@dataclass
class Input:
    """One graph as the benchmark knows it: edges, log-weights, bounds."""

    n: int
    edges: list
    log_weights: list
    d: int
    K: float
    exact_weights: list = None  # Fractions, when the weights are rational
    nx: nx.Graph = field(init=False)

    def __post_init__(self):
        self.nx = ref.nx_graph(self.n, self.edges)

    def build(self, perm=None):
        """The rnlab graph, with vertex v renamed perm[v] when perm is given."""
        edges, lw = self.edges, self.log_weights
        if perm is not None:
            edges = [(perm[u], perm[v]) for u, v in edges]
            lw = [0.0] * self.n
            for v, x in enumerate(self.log_weights):
                lw[perm[v]] = x
        return rnlab.graphs.build_graph(edges, lw, d=self.d, K=self.K)

    def probs(self) -> list:
        if self.exact_weights is not None:
            return [float(p) for p in ref.probabilities(self.exact_weights)]
        return ref.probabilities(ref.exp_weights(self.log_weights))


def uniform_input(n, edges, d) -> Input:
    return Input(n, edges, [0.0] * n, d, 1.0)


class Workload:
    """setup(seed, seconds, workdir) -> state; op(state, i) -> output;
    check(state, i, output) raises CheckFailed or Unguaranteed."""

    name: str

    def max_ops(self, state) -> float:
        """How many ops the inputs built in set-up allow."""
        return math.inf


# ---------------------------------------------------------------------------
# tester_repeat
# ---------------------------------------------------------------------------


class TesterRepeat(Workload):
    name = "tester_repeat"
    max_radius = 6  # the tester caps its radius at 6

    def setup(self, seed: int, seconds: float, workdir: str) -> dict:
        F, B = PropertySpec.forest(), PropertySpec.bipartite()
        tree_lw = [-LN2 * heap_layer(v) for v in range(31)]
        triangles = [(3 * i + a, 3 * i + b) for i in range(8) for a, b in ((0, 1), (1, 2), (0, 2))]
        # (input, property, epsilon, member): criterion-6 members at 0.3 and
        # far instances at 0.25
        specs = [
            (uniform_input(40, path_edges(40), 2), F, 0.3, True),
            (Input(31, heap_tree_edges(5), tree_lw, 3, 2.0), F, 0.3, True),
            (uniform_input(36, grid_edges(6, 6), 4), B, 0.3, True),
            (uniform_input(16, cycle_edges(16), 2), B, 0.3, True),
            (uniform_input(5, cycle_edges(5), 2), F, 0.25, False),
            (uniform_input(6, cycle_edges(6), 2), F, 0.25, False),
            (uniform_input(24, triangles, 2), F, 0.25, False),
            (uniform_input(24, triangles, 2), B, 0.25, False),
        ]
        corpus = []
        for inp, P, eps, member in specs:
            probs = inp.probs()
            masses = {
                r: ref.violating_mass(inp.nx, probs, r, P.id)
                for r in range(1, self.max_radius + 1)
            }
            for r, m in masses.items():
                if m not in (0.0, 1.0):
                    raise RuntimeError(f"reference mass {m} at r={r} is not 0 or 1")
            corpus.append((inp.build(), P, eps, member, masses))
        return {"seed": seed, "corpus": corpus}

    def op(self, state, i):
        s = op_seed(state["seed"], i)
        return [
            rnlab.testers.test_property(G, P, eps, seed=s)
            for G, P, eps, _, _ in state["corpus"]
        ]

    def check(self, state, i, verdicts) -> None:
        for (G, P, eps, member, masses), v in zip(state["corpus"], verdicts):
            r, budget = v.params["radius"], v.params["budget"]
            expect(r in masses, f"radius {r} outside 1..{self.max_radius}")
            mass = masses[r]
            expect(v.violating_fraction == mass,
                   f"{P.id}: violating fraction {v.violating_fraction} != reference {mass}")
            counts = [c for c, _ in v.evidence.values()]
            expect(sum(counts) == budget, f"evidence counts sum to {sum(counts)}, budget {budget}")
            bad = sum(c for c, flag in v.evidence.values() if flag)
            expect(bad / budget == v.violating_fraction, "flagged evidence disagrees with fraction")
            expect(v.recompute() == v.verdict, "recompute() disagrees with the verdict")
            expected = "REJECT" if mass > eps / 4.0 else "ACCEPT"
            expect(v.verdict == expected, f"{P.id}: verdict {v.verdict}, expected {expected}")
            expect(v.accepted == member, f"{P.id}: member={member} but verdict {v.verdict}")


# ---------------------------------------------------------------------------
# stats_sweep
# ---------------------------------------------------------------------------


class StatsSweep(Workload):
    name = "stats_sweep"
    r_max = 3
    digits = 2
    variants = 4  # distinct inputs of each kind per seed
    # Fresh graph objects are built for this many ops per second of run; a
    # run whose pool runs out ends early and reports what it measured.
    pool_rate = 20

    def _inputs(self, seed: int) -> list[list[Input]]:
        rng = np.random.default_rng([seed, 2])
        kinds = []
        grids = []
        edges = grid_edges(10, 10)
        for _ in range(self.variants):
            w = [Fraction(int(x)) for x in rng.choice([2, 3, 4], size=100)]
            grids.append(Input(100, edges, [math.log(x) for x in w], 4, 2.0, exact_weights=w))
        kinds.append(grids)
        trees = []
        edges = heap_tree_edges(7)
        for _ in range(self.variants):
            lw = [float(x) for x in rng.uniform(-0.5, 0.5, size=127)]
            trees.append(Input(127, edges, lw, 3, 3.0))
        kinds.append(trees)
        # The cubic graphs do not depend on the seed: canonicalizing their
        # symmetric cyclic balls costs up to 3x more on one random cubic graph
        # than on another, which would make a run's figures follow the seed.
        cubics = []
        for k in range(self.variants):
            g = nx.random_regular_graph(3, 40, seed=k)
            cubics.append(uniform_input(40, sorted(tuple(sorted(e)) for e in g.edges()), 3))
        kinds.append(cubics)
        return kinds

    def setup(self, seed: int, seconds: float, workdir: str) -> dict:
        kinds = self._inputs(seed)
        refs = []
        for inputs in kinds:
            per_kind = []
            for inp in inputs:
                weights = inp.exact_weights if inp.exact_weights is not None else inp.log_weights
                per_kind.append({
                    r: ref.ball_class_masses(inp.nx, weights, r, self.digits)
                    for r in range(1, self.r_max + 1)
                })
            refs.append(per_kind)
        # Each op's graphs also carry their own vertex numbering, so an op
        # shares neither graph objects nor vertex ids with an earlier op; the
        # sorted class masses do not depend on the numbering.
        rng = np.random.default_rng([seed, 5])
        pool_ops = int(math.ceil(seconds * self.pool_rate)) + 1
        pool = [
            [inp.build(rng.permutation(inp.n).tolist())
             for inp in (inputs[i % self.variants] for inputs in kinds)]
            for i in range(pool_ops)
        ]
        return {"refs": refs, "pool": pool}

    def max_ops(self, state) -> int:
        return len(state["pool"])

    def op(self, state, i):
        graphs = state["pool"][i]
        state["pool"][i] = None  # every op gets graph objects nothing has used
        return [rnlab.statistics.stats_profile(G, r_max=self.r_max, t=self.digits) for G in graphs]

    def check(self, state, i, profiles) -> None:
        for kind, profile in enumerate(profiles):
            want = state["refs"][kind][i % self.variants]
            expect(sorted(profile) == list(range(1, self.r_max + 1)), "profile radii")
            for r, st in profile.items():
                expect((st.radius, st.digits) == (r, self.digits), "statistics parameters")
                masses = sorted(st.weights.values())
                expect(abs(math.fsum(masses) - 1.0) <= 1e-9, f"masses sum to {math.fsum(masses)}")
                expect(len(masses) == len(want[r]),
                       f"kind {kind} r={r}: {len(masses)} classes, reference {len(want[r])}")
                worst = max(abs(a - b) for a, b in zip(masses, want[r]))
                expect(worst <= 1e-12, f"kind {kind} r={r}: class mass off by {worst:.3g}")


# ---------------------------------------------------------------------------
# estimate_partition
# ---------------------------------------------------------------------------


class EstimatePartition(Workload):
    name = "estimate_partition"
    epsilons = (0.05, 0.1)
    variants = 8
    matching_eps = 0.1
    partition_n = 2000
    partition_eps = 0.1
    # weights within a factor 4 of each other: a sphere of two vertices
    # around a path region of k vertices has relative mass at most 8/k, so
    # regions of 100 vertices always admit a cut at epsilon 0.1
    partition_k_target = 100

    def setup(self, seed: int, seconds: float, workdir: str) -> dict:
        rng = np.random.default_rng([seed, 3])
        bases = [
            (120, path_edges(120), 2),
            (121, cycle_edges(121), 2),
            (127, heap_tree_edges(7), 3),
            (144, grid_edges(12, 12), 4),
        ]
        weighted = []
        for _ in range(self.variants):
            row = []
            for n, edges, d in bases:
                lw = [float(x) for x in rng.uniform(-LN2, LN2, size=n)]
                inp = Input(n, edges, lw, d, 4.0)
                probs = inp.probs()
                row.append((inp, inp.build(), probs, ref.mwis_value(inp.nx, probs)))
            weighted.append(row)
        matching = []
        for inp in (uniform_input(144, grid_edges(12, 12), 4), uniform_input(121, cycle_edges(121), 2)):
            matching.append((inp.build(), ref.matching_ratio(inp.nx)))
        partition = []
        n = self.partition_n
        for _ in range(2):
            lw = [float(x) for x in rng.uniform(-LN2, LN2, size=n)]
            inp = Input(n, path_edges(n), lw, 2, 4.0)
            partition.append((inp, inp.build(), inp.probs()))
        return {"seed": seed, "weighted": weighted, "matching": matching, "partition": partition}

    def op(self, state, i):
        s = op_seed(state["seed"], i)
        sets = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _, G, _, _ in state["weighted"][i % self.variants]:
                for eps in self.epsilons:
                    sets.append(rnlab.local.local_independent_set(G, eps, seed=s))
        ratios = [rnlab.local.estimate_matching(G, self.matching_eps, seed=s) for G, _ in state["matching"]]
        _, G, _ = state["partition"][i % 2]
        cert = rnlab.partitions.find_weighted_partition(G, self.partition_eps, self.partition_k_target)
        verified = rnlab.partitions.verify_weighted_partition(G, cert)
        return {"sets": sets, "warnings": [str(w.message) for w in caught],
                "ratios": ratios, "cert": cert, "verified": verified}

    def check(self, state, i, out) -> None:
        if out["warnings"]:
            raise Unguaranteed("; ".join(out["warnings"]))
        k = 0
        for inp, _, probs, opt in state["weighted"][i % self.variants]:
            for eps in self.epsilons:
                J, value = out["sets"][k]
                k += 1
                expect(ref.is_independent(inp.edges, J), f"n={inp.n}: returned set is not independent")
                mass = math.fsum(probs[v] for v in J)
                expect(abs(mass - value) <= 1e-9, f"n={inp.n}: reported {value}, set mass {mass}")
                expect(mass <= opt + 1e-9, f"n={inp.n}: mass {mass} above the optimum {opt}")
                expect(opt - mass < eps, f"n={inp.n} eps={eps}: mass {mass}, optimum {opt}")
        for (_, exact), got in zip(state["matching"], out["ratios"]):
            expect(got <= exact + 1e-12, f"matching ratio {got} above the maximum {exact}")
            expect(exact - got <= self.matching_eps, f"matching ratio {got}, maximum {exact}")
        inp, _, probs = state["partition"][i % 2]
        cert = out["cert"]
        eps = self.partition_eps
        expect(out["verified"], "verify_weighted_partition rejected the certificate")
        expect(cert.epsilon == eps, f"certificate for epsilon {cert.epsilon}, asked {eps}")
        removed = math.fsum(probs[v] for v in cert.removed)
        expect(removed <= eps * (1 + 1e-9) + 1e-15, f"removed mass {removed} > {eps}")
        sizes = ref.component_sizes_without(inp.nx, cert.removed)
        expect(max(sizes) <= cert.component_bound,
               f"component of {max(sizes)} vertices, bound {cert.component_bound}")
        expect(sum(sizes) + len(cert.removed) == inp.n, "components do not cover the rest")


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------


class CliOneshot(Workload):
    name = "cli_oneshot"
    rungs = 10_000  # circular ladder: 20,000 vertices, 30,000 edges
    # Weights repeat every 5 rungs (rungs is a multiple of 5).  The pattern
    # does not depend on the seed, which only drives the queries: how much
    # symmetry the balls have sets the canonicalization cost, and a pattern
    # drawn per seed would make the figures follow the seed.
    pattern = ((1, 2, 3, 3, 2), (2, 1, 1, 3, 3))
    period = 5
    radius = 2
    digits = 2
    queries = 300
    delta = 1e-9

    def setup(self, seed: int, seconds: float, workdir: str) -> dict:
        L, P = self.rungs, self.period
        pattern = [[Fraction(x) for x in side] for side in self.pattern]

        def ladder(L):
            edges = [(i, i + 1) if i + 1 < L else (0, L - 1) for i in range(L)]
            edges += [(L + a, L + b) for a, b in edges]
            edges += [(i, L + i) for i in range(L)]
            w = [pattern[side][i % P] for side in (0, 1) for i in range(L)]
            return edges, w

        edges, w = ladder(L)
        G = rnlab.graphs.build_graph(edges, [math.log(x) for x in w], d=3, K=3.0)
        path = os.path.join(workdir, "ladder.json")
        rnlab.graphs.save_graph(G, path)
        # Rung translations by multiples of the period are automorphisms, so a
        # vertex's ball depends only on (side, position mod period).  The
        # classes are found on a short ladder with the same local structure.
        small = 4 * P
        s_edges, s_w = ladder(small)
        reps = [side * small + j for side in (0, 1) for j in range(P)]
        total = sum(pattern[0]) + sum(pattern[1])
        rep_mass = {v: s_w[v] / total for v in reps}
        masses = ref.ball_class_masses(ref.nx_graph(2 * small, s_edges), s_w, self.radius,
                                       self.digits, roots=reps, root_mass=rep_mass)
        bound = ref.sampling_bound(len(masses), self.queries, self.delta)
        return {"seed": seed, "graph": path, "out": os.path.join(workdir, "sample.jsonl"),
                "masses": masses, "bound": bound}

    def op(self, state, i):
        return rnlab.cli.main([
            "sample", "--graph", state["graph"], "--r", str(self.radius), "--t", str(self.digits),
            "--queries", str(self.queries), "--seed", str(op_seed(state["seed"], i)),
            "--out", state["out"],
        ])

    def check(self, state, i, code) -> None:
        expect(code == 0, f"exit code {code}")
        with open(state["out"]) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        self.check_counts(state, {row["key"]: row["count"] for row in rows}, len(rows))

    def check_counts(self, state, counts: dict, rows: int) -> None:
        expect(len(counts) == rows, "a key is listed twice")
        expect(sum(counts.values()) == self.queries,
               f"counts sum to {sum(counts.values())}, asked {self.queries}")
        expect(len(counts) <= len(state["masses"]),
               f"{len(counts)} keys but {len(state['masses'])} ball classes")
        freqs = [c / self.queries for c in counts.values()]
        expect(ref.sorted_within(freqs, state["masses"], state["bound"]),
               f"key frequencies {sorted(freqs)} outside {state['bound']:.3f} of {state['masses']}")


WORKLOADS = {w.name: w for w in (TesterRepeat(), StatsSweep(), EstimatePartition(), CliOneshot())}
