import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import rnlab
import rnlab.balls
from rnlab import (
    ball_index,
    build_graph,
    canonicalize,
    gen_cycle,
    gen_disjoint_triangles,
    gen_grid,
    gen_path,
    gen_random_regular,
    load_graph,
    observe,
    save_graph,
    uniform_query,
)
from rnlab import cli
from rnlab.cli import build_parser, main


@pytest.fixture
def graph_file(tmp_path):
    def save(G, name="g.json"):
        path = tmp_path / name
        save_graph(G, str(path))
        return str(path)

    return save


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestGen:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc, _ = run(capsys, ["gen", "--family", "cycle", "--param", "n=9", "--out", str(out)])
        assert rc == 0
        G = load_graph(str(out))
        assert G.n == 9 and G.edge_count == 9

    def test_prints_json_without_out(self, capsys):
        rc, out = run(capsys, ["gen", "--family", "path", "--param", "n=4"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["n"] == 4

    def test_implicit_tree_materialized(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc, _ = run(
            capsys,
            [
                "gen", "--family", "binary_tree",
                "--param", "depth=4", "--param", "beta=0.0",
                "--out", str(out),
            ],
        )
        assert rc == 0
        assert load_graph(str(out)).n == 15

    def test_seed_changes_random_family(self, capsys):
        _, a = run(capsys, ["gen", "--family", "random_regular",
                            "--param", "n=12", "--param", "d=3", "--seed", "1"])
        _, b = run(capsys, ["gen", "--family", "random_regular",
                            "--param", "n=12", "--param", "d=3", "--seed", "2"])
        assert a != b

    def test_bad_param_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "path", "--param", "n8"])

    def test_missing_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen"])
        assert e.value.code == 2


class TestSample:
    def test_counts_sum_to_queries(self, graph_file, capsys):
        g = graph_file(gen_path(20))
        rc, out = run(capsys, ["sample", "--graph", g, "--queries", "60", "--r", "1"])
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert sum(r["count"] for r in rows) == 60
        assert all(set(r) == {"key", "count"} for r in rows)

    def test_reproducible_per_seed(self, graph_file, capsys):
        from rnlab import gen_binary_tree

        g = graph_file(gen_binary_tree(5, 0.7, representation="explicit"))
        _, a = run(capsys, ["sample", "--graph", g, "--queries", "200", "--seed", "5"])
        _, b = run(capsys, ["sample", "--graph", g, "--queries", "200", "--seed", "5"])
        _, c = run(capsys, ["sample", "--graph", g, "--queries", "200", "--seed", "6"])
        assert a == b
        assert a != c

    def test_uniform_oracle(self, graph_file, capsys):
        g = graph_file(gen_cycle(12))
        rc, out = run(
            capsys,
            ["sample", "--graph", g, "--oracle", "uniform", "--queries", "30"],
        )
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert sum(r["count"] for r in rows) == 30

    @staticmethod
    def _grid_with_weights():
        # non-uniform weights, which the uniform oracle must ignore
        G = gen_grid(4, 5)
        return build_graph(G.edge_list(), [0.1 * (v % 3) for v in range(G.n)], d=4, K=2.0)

    def test_uniform_output_pinned(self, graph_file, tmp_path, capsys):
        g = graph_file(self._grid_with_weights())
        out = tmp_path / "o.txt"
        argv = ["sample", "--graph", g, "--oracle", "uniform", "--r", "2",
                "--queries", "300", "--seed", "3", "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        data = out.read_bytes()
        assert [json.loads(line)["count"] for line in data.splitlines()] == [56, 29, 62, 128, 25]
        # computed before the uniform oracle tallied balls ahead of canonicalizing
        assert hashlib.sha256(data).hexdigest() == (
            "cd8c289273ed14cdf3e921ea6862e59f1fb08622f8ee286a9b8098dd1fef3897"
        )

    def test_uniform_canonicalizes_each_distinct_ball_once(self, graph_file, capsys, monkeypatch):
        G = self._grid_with_weights()
        g = graph_file(G)
        calls = []

        def counting(ball):
            calls.append(ball)
            return canonicalize(ball)

        monkeypatch.setattr(rnlab.balls, "canonicalize", counting)
        run(capsys, ["sample", "--graph", g, "--oracle", "uniform", "--r", "2",
                     "--queries", "300", "--seed", "3"])
        rng = np.random.Generator(np.random.Philox(key=3))
        distinct = {uniform_query(G, 2, rng, t=2) for _ in range(300)}
        assert len(distinct) == 15
        assert len(calls) == len(distinct) and set(calls) == distinct


    @pytest.mark.parametrize("family, params, oracle, digest", [
        ("grid", ["rows=5", "cols=7"], "rn",
         "07d06b59905a452941c828441a50e6fc12c5183335d1235f0c9a8d66e03c56d2"),
        ("grid", ["rows=5", "cols=7"], "uniform",
         "b90c78de3912685144944d06c65e49351f9e48693e2e2afc7eafd1e41df70994"),
        ("binary_tree", ["depth=7", "beta=0.69"], "rn",
         "0ee00780e6fc90ab727c801bd40861919d4eb6474544f1e7f9b777f7087ed5df"),
        ("binary_tree", ["depth=7", "beta=0.69"], "uniform",
         "5dfc3688937e1d233ac5572f69eb062a3304fa592600dbd2566ae81171195c2f"),
    ])
    def test_output_files_pinned(self, tmp_path, capsys, family, params, oracle, digest):
        # computed when both oracles built numpy's Philox(key=seed) and the
        # rn oracle counted per distinct root
        g, out = tmp_path / "g.json", tmp_path / "s.jsonl"
        run(capsys, ["gen", "--family", family, *(a for p in params for a in ("--param", p)),
                     "--out", str(g)])
        argv = ["sample", "--graph", str(g), "--oracle", oracle, "--queries", "300",
                "--seed", "5", "--out", str(out)]
        assert run(capsys, argv) == (0, "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


    def test_index_filled_as_by_distinct_roots(self, capsys, monkeypatch):
        # an explicit tree with layer orbits: each type's representative is
        # the smallest sampled root of its orbit
        def make():
            return rnlab.gen_binary_tree(8, 0.69, representation="explicit")

        G, reference = make(), make()
        monkeypatch.setattr(cli, "load_graph", lambda path: G)
        run(capsys, ["sample", "--graph", "g.json", "--queries", "300", "--seed", "5"])
        roots = rnlab.RadonNikodymOracle(reference, 2, 2, seed=5).sample_roots(300)
        ball_index(reference, 2, 2).types(np.unique(roots))
        ours, theirs = ball_index(G, 2, 2), ball_index(reference, 2, 2)
        assert (ours.keys, ours.roots) == (theirs.keys, theirs.roots)


class TestStats:
    def test_exact_profile_file(self, graph_file, tmp_path, capsys):
        g = graph_file(gen_cycle(10))
        out = tmp_path / "stats.json"
        rc, _ = run(capsys, ["stats", "--graph", g, "--rmax", "2", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["mode"] == "exact"
        assert set(obj["per_radius"]) == {"1", "2"}
        for st in obj["per_radius"].values():
            assert st["weights"] and abs(sum(st["weights"].values()) - 1.0) < 1e-9
            assert st["degree_bound"] == 2

    @pytest.mark.parametrize("name", ["path", "grid", "weighted_tree"])
    def test_exact_file_matches_per_radius_stats(self, name, graph_file, tmp_path, capsys):
        """The exact profile file holds the bytes of a per-radius loop over
        exact_stats, which the command ran before it went through
        stats_profile."""
        if name == "path":
            G = gen_path(25)
        elif name == "grid":
            G = gen_grid(6, 7)
        else:
            edges = [(v, 2 * v + c) for v in range(31) for c in (1, 2)]
            lw = np.random.default_rng(4).uniform(-0.5, 0.5, size=63)
            G = build_graph(edges, lw, d=3, K=float(np.exp(1.0)))
        g = graph_file(G)
        out = tmp_path / "stats.json"
        rc, _ = run(capsys, ["stats", "--graph", g, "--rmax", "3", "--t", "2", "--out", str(out)])
        assert rc == 0
        G = load_graph(g)
        per_radius = {str(r): rnlab.exact_stats(G, r, 2).to_json_dict() for r in (1, 2, 3)}
        expected = {"r_max": 3, "mode": "exact", "per_radius": per_radius}
        assert out.read_text() == json.dumps(expected, indent=1, sort_keys=True) + "\n"

    def test_empirical_mode(self, graph_file, capsys):
        g = graph_file(gen_path(15))
        rc, out = run(
            capsys,
            ["stats", "--graph", g, "--mode", "empirical", "--rmax", "1",
             "--queries", "200", "--seed", "3"],
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["mode"] == "empirical"
        assert obj["per_radius"]["1"]["total_queries"] == 200

    def test_empirical_mode_rejects_zero_queries(self, graph_file, capsys):
        g = graph_file(gen_path(15))
        with pytest.raises(SystemExit) as e:
            main(["stats", "--graph", g, "--mode", "empirical", "--queries", "0"])
        assert e.value.code == 2
        assert "--mode empirical needs --queries of at least 1" in capsys.readouterr().err


class TestNegativeCounts:
    """Negative radii, label depths and query counts are usage errors of
    sample and stats (exit code 2), caught before any work is done; zero
    passes parsing."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--r", "-1"], ["sample", "--t", "-2"], ["sample", "--queries", "-5"],
        ["stats", "--rmax", "-1"], ["stats", "--t", "-1"],
        ["stats", "--mode", "empirical", "--queries", "-3"],
    ])
    def test_rejected_at_parsing(self, argv, graph_file, capsys):
        g = graph_file(gen_path(6))
        with pytest.raises(SystemExit) as e:
            main(argv + ["--graph", g])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be nonnegative, got {argv[-1]}" in err

    def test_non_numbers_keep_the_int_message(self, graph_file, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sample", "--graph", graph_file(gen_path(6)), "--r", "two"])
        assert e.value.code == 2
        assert "argument --r: invalid int value: 'two'" in capsys.readouterr().err

    def test_zero_passes(self, graph_file, capsys):
        g = graph_file(gen_path(6))
        assert run(capsys, ["sample", "--graph", g, "--queries", "0", "--r", "0", "--t", "0"]) == (0, "\n")
        rc, out = run(capsys, ["stats", "--graph", g, "--rmax", "0", "--t", "0"])
        assert rc == 0 and json.loads(out)["per_radius"] == {}


class TestDistance:
    def test_property_distance_with_witness(self, graph_file, capsys):
        g = graph_file(gen_cycle(8))
        rc, out = run(capsys, ["distance", "--graph", g, "--property", "forest"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["distance"] == pytest.approx(0.25)
        assert len(obj["witness_deletion_set"]) == 1

    def test_dist_alias(self, graph_file, capsys):
        g = graph_file(gen_cycle(8))
        rc, out = run(capsys, ["dist", "--graph", g, "--property", "forest"])
        assert rc == 0
        assert json.loads(out)["distance"] == pytest.approx(0.25)

    def test_absolute_distance(self, graph_file, capsys):
        g = graph_file(gen_cycle(5))
        rc, out = run(
            capsys,
            ["distance", "--graph", g, "--property", "bipartite",
             "--absolute", "--K", "3"],
        )
        assert rc == 0
        assert json.loads(out)["absolute_distance"] == pytest.approx(0.4)

    @pytest.mark.parametrize("K, message", [
        ("nan", "ratio bound must be finite, got nan"),
        ("inf", "ratio bound must be finite, got inf"),
        ("0.5", "ratio bound must be at least 1, got 0.5"),
        ("-1", "ratio bound must be at least 1, got -1.0"),
    ])
    def test_absolute_distance_ratio_bound_outside_one_to_infinity(self, K, message, graph_file,
                                                                  tmp_path, capsys):
        argv = ["distance", "--graph", graph_file(gen_cycle(5)), "--property", "bipartite",
                "--absolute", "--K", K]
        assert json_error(capsys, argv, tmp_path / "d.json") == {"error": "GraphError", "message": message}

    def test_h_free_forbidden_syntax(self, graph_file, capsys):
        g = graph_file(gen_disjoint_triangles(3))
        rc, out = run(
            capsys,
            ["distance", "--graph", g, "--property", "h_free",
             "--forbidden", "3:0-1,1-2,0-2"],
        )
        assert rc == 0
        assert json.loads(out)["distance"] == pytest.approx(2 / 3)

    def test_stats_file_pair(self, graph_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, ["stats", "--graph", graph_file(gen_path(30), "p.json"),
                     "--rmax", "2", "--out", str(a)])
        run(capsys, ["stats", "--graph", graph_file(gen_cycle(30), "c.json"),
                     "--rmax", "2", "--out", str(b)])
        rc, out = run(
            capsys,
            ["distance", "--stats-a", str(a), "--stats-b", str(b), "--rmax", "2"],
        )
        assert rc == 0
        d = json.loads(out)["statistical_distance"]
        assert 0.0 < d < 0.5

    @pytest.mark.parametrize("rmax", ["0", "-1"])
    def test_no_radius_rejected_at_parsing(self, tmp_path, capsys, rmax):
        with pytest.raises(SystemExit) as e:
            main(["distance", "--stats-a", str(tmp_path / "a.json"),
                  "--stats-b", str(tmp_path / "b.json"), "--rmax", rmax])
        assert e.value.code == 2
        assert f"argument --rmax: must be at least 1, got {rmax}" in capsys.readouterr().err

    @pytest.mark.parametrize("other, rmax, message", [
        ("b", "2", "statistics computed with different radius/digits/degree"),
        ("a", "3", "missing radius 3 in statistics profile"),
    ])
    def test_incompatible_profiles_are_a_json_error(self, graph_file, tmp_path, capsys,
                                                    other, rmax, message):
        """A grid profile (d=4) against a binary-tree profile (d=3), and a
        radius the profiles do not hold."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, ["stats", "--graph", graph_file(gen_grid(4, 4), "g.json"),
                     "--rmax", "2", "--out", str(a)])
        run(capsys, ["stats", "--graph", graph_file(rnlab.gen_binary_tree(5, 0.4), "t.json"),
                     "--rmax", "2", "--out", str(b)])
        out = tmp_path / "d.json"
        argv = ["distance", "--stats-a", str(a), "--stats-b", str(tmp_path / f"{other}.json"),
                "--rmax", rmax]
        rc, printed = run(capsys, argv)
        assert rc == 1
        assert json.loads(printed) == {"error": "ParamMismatch", "message": message}
        assert run(capsys, argv + ["--out", str(out)]) == (1, "")
        assert json.loads(out.read_text()) == {"error": "ParamMismatch", "message": message}

    def test_needs_some_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["distance"])

    def test_unknown_property_name(self, graph_file, capsys):
        g = graph_file(gen_path(4))
        with pytest.raises(SystemExit):
            main(["distance", "--graph", g, "--property", "planar"])

    def test_k_colorable_needs_colors(self, graph_file, capsys):
        g = graph_file(gen_path(4))
        with pytest.raises(SystemExit):
            main(["distance", "--graph", g, "--property", "k_colorable"])


class TestPartition:
    def test_feasible_certificate(self, graph_file, capsys):
        g = graph_file(gen_path(100))
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.2"])
        assert rc == 0
        cert = json.loads(out)
        assert cert["epsilon"] == 0.2
        assert cert["removed"]
        assert cert["component_bound"] >= 1

    def test_infeasible_exit_code(self, graph_file, capsys):
        g = graph_file(gen_cycle(200))
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.05"])
        assert rc == 1
        assert json.loads(out)["error"] == "PartitionInfeasible"

    def test_k_target_hint_rescues(self, graph_file, capsys):
        g = graph_file(gen_cycle(200))
        rc, _ = run(
            capsys,
            ["partition", "--graph", g, "--epsilon", "0.05", "--k-target", "41"],
        )
        assert rc == 0

    def test_cover_mode(self, graph_file, capsys):
        g = graph_file(gen_path(40))
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.5", "--cover"])
        assert rc == 0
        cert = json.loads(out)
        assert cert["covers"] and cert["component_bound"] >= 1

    def test_cover_grid_dims(self, graph_file, capsys):
        g = graph_file(gen_grid(12, 12))
        rc, out = run(
            capsys,
            ["partition", "--graph", g, "--epsilon", "0.5", "--cover",
             "--grid-dims", "12,12"],
        )
        assert rc == 0

    def test_cover_unsupported(self, graph_file, capsys):
        star = build_graph([(0, i) for i in range(1, 6)], [0.0] * 6, d=5, K=1.0)
        g = graph_file(star)
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.3", "--cover"])
        assert rc == 1
        assert json.loads(out)["error"] == "UnsupportedFamily"


class TestEstimate:
    def test_independence(self, graph_file, capsys):
        g = graph_file(gen_path(50))
        rc, out = run(
            capsys,
            ["estimate", "--what", "independence", "--graph", g, "--epsilon", "0.2"],
        )
        assert rc == 0
        obj = json.loads(out)
        assert 0.4 <= obj["value"] <= 0.5 + 1e-9
        assert obj["witness_size"] >= 20
        assert obj["guaranteed"] is True

    def test_independence_greedy_fallback_is_not_guaranteed(self, graph_file, capsys):
        # no partition certificate exists on this expander at epsilon 0.2
        g = graph_file(gen_random_regular(60, 3, seed=1))
        rc, out = run(
            capsys,
            ["estimate", "--what", "independence", "--graph", g, "--epsilon", "0.2"],
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["guaranteed"] is False
        assert obj["witness_size"] > 0

    def test_matching(self, graph_file, capsys):
        g = graph_file(gen_cycle(60))
        rc, out = run(
            capsys,
            ["estimate", "--what", "matching", "--graph", g, "--epsilon", "0.2"],
        )
        assert rc == 0
        assert 0.4 <= json.loads(out)["value"] <= 0.5 + 1e-9

    def test_matching_infeasible_exit_code(self, graph_file, capsys):
        g = graph_file(gen_random_regular(300, 3, seed=0))
        rc, out = run(
            capsys,
            ["estimate", "--what", "matching", "--graph", g, "--epsilon", "0.2"],
        )
        assert rc == 1
        assert json.loads(out)["error"] == "PartitionInfeasible"

    def test_matching_non_uniform_weights_is_a_json_error(self, tmp_path, capsys):
        g = tmp_path / "tree.json"
        rc, _ = run(
            capsys,
            ["gen", "--family", "binary_tree", "--param", "depth=8",
             "--param", "beta=0.69", "--out", str(g)],
        )
        assert rc == 0
        rc, out = run(
            capsys,
            ["estimate", "--what", "matching", "--graph", str(g), "--epsilon", "0.1"],
        )
        assert rc == 1
        assert json.loads(out) == {
            "error": "GraphError",
            "message": "matching estimation expects uniform weights",
        }


def _pin_corpus() -> dict:
    """Small fixed graphs for the pinned outputs: weighted and uniform, with
    partitions that cut, that fail at some bounds and that fail at all."""
    grid = gen_grid(10, 10)
    return {
        "wpath": build_graph([(v, v + 1) for v in range(79)],
                             [0.3 * ((7 * v) % 5) for v in range(80)], d=2, K=4.0),
        "wgrid": build_graph(grid.edge_list(), [0.2 * ((3 * v) % 4) for v in range(100)],
                             d=4, K=2.0),
        "path": gen_path(40),
        "grid": gen_grid(8, 8),
        "cycle": gen_cycle(60),
        "long_cycle": gen_cycle(200),
        "cubic": gen_random_regular(60, 3, seed=1),
        "big_cubic": gen_random_regular(300, 3, seed=0),
        "triangles": gen_disjoint_triangles(3),
    }


# graph files that fail to load, each with its own error class
_BAD_GRAPH_FILES = {
    "dup_edge": {"n": 3, "d": 2, "K": 1.0, "edges": [[0, 1], [1, 0]], "log_weights": [0.0] * 3},
    "self_loop": {"n": 3, "d": 2, "K": 1.0, "edges": [[0, 1], [2, 2]], "log_weights": [0.0] * 3},
    "ratio_violated": {"n": 3, "d": 2, "K": 2.0, "edges": [[0, 1], [1, 2]],
                       "log_weights": [0.0, 0.0, 1.0]},
}

# statistics profiles for the distance between two of them: (graph, --rmax, --t)
_PIN_PROFILES = {"cycle_stats": ("cycle", 2, 2), "path_stats": ("path", 2, 2),
                 "grid_stats": ("grid", 2, 2), "grid_stats_t1": ("grid", 2, 1)}


PINNED = [
    (["partition", "wpath", "--epsilon", "0.2"],
     "be7fe0b1520ac2d54437f3378bf68d88d0172ea8477bcb8d61e4da7e128d3f0f"),
    (["partition", "wgrid", "--epsilon", "0.3", "--k-target", "40"],
     "8137421f4bdbfa428d0af1cbcfc81462a5bd6b67dd74679a7e280a9575231ce8"),
    (["partition", "wpath", "--epsilon", "0.1", "--k-target", "25"],
     "4c1e127665a75c3fdf39d93bf9c4f5f4d740661e66fc103c85c9c2d54930a244"),
    (["partition", "long_cycle", "--epsilon", "0.05"],
     "ee5b90dabce535501ddcbdaabbd4d7a53cbe82504cd9c5b38aef6f7d1b09706f"),
    (["partition", "path", "--epsilon", "0.3", "--cover"],
     "3911255771faab7116c7b9b85f533068409b00d17bc7520be3c9c385ed00aead"),
    (["partition", "grid", "--epsilon", "0.5", "--cover", "--grid-dims", "8,8"],
     "ea188cc9027f886ab3746e087d41591b014994ecabb42706fe9f3a4e796dad21"),
    (["estimate", "wgrid", "--what", "independence", "--epsilon", "0.3", "--seed", "2"],
     "c81825c19d6ac03c6fa518adf567b6e061839001e09739b0df015ccde2640d90"),
    (["estimate", "wpath", "--what", "independence", "--epsilon", "0.1"],
     "b07050204abd7e464f5f44a6140db6e9bcff14c15598980e46f8f808575a0886"),
    (["estimate", "cubic", "--what", "independence", "--epsilon", "0.2", "--seed", "4"],
     "c57faf31da79d9a546cb518cb9ff6d4a538b775692ffd46c6fd569cc0e27299e"),
    (["estimate", "grid", "--what", "matching", "--epsilon", "0.3"],
     "25cf9c052392e4db2cb47612326a81ad96ae998a40ffcc36041950ddc8119079"),
    (["estimate", "cycle", "--what", "matching", "--epsilon", "0.2"],
     "07b1f33dcf72e02030f67220f373cd19ea1bd7c4bbf824ac31a2ce0c1c82cdfb"),
    (["estimate", "big_cubic", "--what", "matching", "--epsilon", "0.2"],
     "ddeafa7cd8976fef5ea738b03257715795cbba1436a91afe791351de470e9823"),
    # every other subcommand, and one typed error of each
    (["gen", "--family", "binary_tree", "--param", "depth=5", "--param", "beta=0.4"],
     "98fcc9e71e6ac19a867e2fd0c5c055245f14481c6281dc7dafc9e0df3de98389"),
    (["gen", "--family", "orbit_tree", "--param", "depth=4"],
     "707eddb68369622adcec0217ccbc2906bea058f5ca3259fe332c1f88e0f0ecc3"),
    (["gen", "--family", "path", "--param", "n=12"],
     "774385cd128a908739da4cd037892e701b0c53971d4312814294570c0d8a34dc"),
    (["gen", "--family", "cycle", "--param", "n=12", "--param", "d=3"],
     "47d5361716a58e061ab5b9b62c27cc388c3c5c0617b5b480d88e5b08f4f49b33"),
    (["gen", "--family", "grid", "--param", "rows=3", "--param", "cols=4"],
     "47c854496b04b89058d14972a3ca0f28cbcbbd5e55634e2b2047e6c3d2609e57"),
    (["gen", "--family", "random_regular", "--param", "n=12", "--seed", "3"],
     "b8e7f071cd58d16f0ffe94518b38dad4a6348e714de70e351ab2060d2cefed48"),
    (["gen", "--family", "perturbed_union", "--param", "n=4", "--param", "profile=adversarial",
      "--seed", "2"],
     "14bcaea397de06a92cac0162f4de4f7decb3ad90a89d41fdd22336ce5be33392"),
    (["gen", "--family", "disjoint_triangles", "--param", "k=3"],
     "aae2c305436631291e773c85cf5a7332e50eab9d40297cd8e1f65fe6f3daa955"),
    (["gen", "--family", "theta", "--param", "arms=[1,2,3]"],
     "552d0b8aed42023f5f50f6d163d67a4c94fd87af4ff36a08310e292256927b2b"),
    (["gen", "--family", "path", "--param", "n=4", "--param", "d=1"],
     "6e89ef917471c6bf9dcae0c8acd3e69ca988388cdbd9235dfa978ce4c80535a7"),
    (["sample", "grid", "--oracle", "rn", "--queries", "200", "--seed", "4"],
     "ff93e61c0867fc49d2b2d5cdd8bb342b3b1b894fc8aa3def7281f1ce4667bd1d"),
    (["sample", "wpath", "--oracle", "uniform", "--queries", "200", "--seed", "4"],
     "77bf187f5b0c809790008de0c3fbe47a9dc10bc7b007284112e0320c66dfef9e"),
    (["sample", "dup_edge", "--queries", "5"],
     "33f02a265eca49529fa2309d6e610d89866a40388a4eea67a1e51fd62367ab7e"),
    (["stats", "cycle", "--rmax", "2"],
     "aeb2e7b99e05e740d494c1d5e23f46fbe847b8a0764e28dedb287442d5901159"),
    (["stats", "wgrid", "--mode", "empirical", "--rmax", "2", "--queries", "300", "--seed", "6"],
     "36b88caebe05dbc99f3a4d521a6a4cea3b66a604780436a6a3cbb47c5056bef6"),
    (["stats", "self_loop"],
     "431802ec55caab9ab71d9723a1b713ae5b480b11701b322a03b5a178829e79b4"),
    (["test", "wpath", "--property", "forest", "--epsilon", "0.3", "--seed", "1"],
     "0ab6bb6cc3f1d6b94a4f69bf28920516c1ad907d19712402b2429b30d079c9e6"),
    (["test", "cubic", "--property", "bipartite", "--epsilon", "0.3", "--seed", "1"],
     "7581a03e28b3cef08e103d8634ab68bd3ed2bccc26ba05d239c5e6233df58c99"),
    (["test", "cycle", "--property", "h_free", "--forbidden", "3:0-1,1-2", "--epsilon", "0.3"],
     "12a32c393aba127ec2a0be9a9c11b5495da9f2e41c96d16ff502e05ab37d50ad"),
    (["test", "grid", "--property", "k_colorable", "--colors", "2", "--epsilon", "0.3"],
     "3ce56fad6faa2c72023cf28d8d5e8ec58ee1957cbec440f16dce2678b006d2d6"),
    (["test", "cubic", "--property", "bipartite", "--observable", "--epsilon", "0.3"],
     "1c362cdb23d0a95567b81189adefe74a08db45977f2c9e2b29dca2fb9cd8ca10"),
    (["test", "grid", "--property", "k_colorable", "--observable", "--colors", "3",
      "--epsilon", "0.3"],
     "fad44fe47fc2be3a497931c4229dbaf0d11c2bdfa428c5dc97ccc63083b90c9d"),
    (["observe", "cubic", "--s", "3"],
     "9a93a8c023fcaa31dd875f189fe8308465715a0eef2b15d4bbcb84d0e0f53c55"),
    (["observe", "ratio_violated", "--s", "2"],
     "9909d630e39730cabab554d8c891dcd02221d90c9cdcfdc9a74c85b184479064"),
    (["distance", "wpath", "--property", "forest"],
     "fde679af093aff43d54db1aad5abb14ed08b30b83680b0ac76db9949f8a27253"),
    (["distance", "triangles", "--property", "h_free", "--forbidden", "3:0-1,1-2,0-2"],
     "3dbedbbde89e6a48edee400647e2b61541e1b169180059cf421615cf6920f780"),
    (["distance", "triangles", "--property", "bipartite", "--absolute", "--K", "3"],
     "2063073a354feef680aa94f654e5ca5674fcb8cbf8c4ad409642b5f819910f95"),
    (["distance", "--stats-a", "@cycle_stats", "--stats-b", "@path_stats", "--rmax", "2"],
     "ce84975b1063e86f39d403385f7b4ce62bc1b084409fbfdaad0586644c0598fd"),
    (["distance", "--stats-a", "@grid_stats", "--stats-b", "@grid_stats_t1", "--rmax", "2"],
     "bf912db4fc01572abce6bae86de3ded8b0e3cbd8fad7b4398370aa5a0de29213"),
    (["distance", "grid", "--property", "bipartite", "--absolute"],
     "63592df8e78d7acad9cd15af853cd1425af2f509f2ec3fd1a0a8b81fafadb185"),
    (["scenario", "--name", "phase_transition", "--param", "depth=6", "--param", "budget=200",
      "--param", "betas=[0.0, 0.69]"],
     "742b721e552250a6efbba7f940ed2ada11937ef361ac19d0e11bc3572b6edd61"),
    (["scenario", "--name", "convergence_to_orbit_tree", "--param", "depths=[5, 6]",
      "--param", "radius=2"],
     "b1d138fa856874e1eecb42f4559f498bdb126e318d0c139f756ca9ee3feb266c"),
    (["scenario", "--name", "estimator_error_curve",
      "--param", 'instances=[["path", 20], ["grid", 4]]', "--param", "epsilons=[0.2]"],
     "a9ef8a5aab852d573b86a5236b38ed969cbfc2b8d9bb7c25ed9dcf259021e31e"),
    (["scenario", "--name", "perturbation_sensitivity", "--param", "sizes=[4]",
      "--param", "r_max=2"],
     "cee5d7faa5930ce366cf1603109db8e537cd6f455fd48b4ca18d2d4f6b714de0"),
    (["scenario", "--name", "tester_calibration", "--param", "trials=3",
      "--param", "epsilon=0.3"],
     "2a453e79126ba25eaf4d831c3a05c53473a0cfa26bb7c0c19a52220ffa23b817"),
    (["scenario", "--name", "entropy_sweep", "--param", "depths=[5, 10]"],
     "91982ce98db562706bb3323a763263480b3af750de7614a3cfc4d6c34b69c2ad"),
    (["scenario", "--name", "phase_transition", "--param", "budget=0"],
     "c60b47ab869834169fe522b06eec8eea09d483f65b110f04cdffb011b9a03932"),
]


def _pin_id(argv) -> str:
    """The command, the graph and two more words when the second word names
    a graph of the corpus; the whole command line otherwise."""
    if argv[1].startswith("-"):
        return " ".join(argv)
    return " ".join(argv[:2] + argv[3:5])


class TestPinnedOutputs:
    """sha256 of the --out file of every subcommand on a fixed corpus, and of
    the JSON error object of one typed error of each.  The partition and
    estimate digests were computed before the estimators' bound ladder
    shared one partition plan, the rest before the plan was shared by every
    estimate of a graph: outputs stay byte for byte.

    A second word that names a graph of the corpus is passed as --graph; a
    word "@name" is the path of the statistics profile of that name."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pins")
        paths = {}
        for name, G in _pin_corpus().items():
            paths[name] = str(d / f"{name}.json")
            save_graph(G, paths[name])
        for name, obj in _BAD_GRAPH_FILES.items():
            paths[name] = str(d / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(obj))
        for name, (graph, rmax, t) in _PIN_PROFILES.items():
            paths["@" + name] = str(d / f"{name}.json")
            main(["stats", "--graph", paths[graph], "--rmax", str(rmax), "--t", str(t),
                  "--out", paths["@" + name]])
        return paths

    @pytest.mark.parametrize("argv, digest", PINNED, ids=[_pin_id(a) for a, _ in PINNED])
    def test_output_file(self, argv, digest, files, tmp_path, capsys):
        out = tmp_path / "out.json"
        if argv[1] in files:
            argv = [argv[0], "--graph", files[argv[1]], *argv[2:]]
        argv = [files.get(a, a) if a.startswith("@") else a for a in argv]
        code = main([*argv, "--out", str(out)])
        # a scenario prints the path of its report
        assert capsys.readouterr().out == (f"{out}\n" if argv[0] == "scenario" and code == 0 else "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestTest:
    def test_member_accepts_exit_0(self, graph_file, capsys):
        g = graph_file(gen_path(30))
        rc, out = run(
            capsys,
            ["test", "--graph", g, "--property", "forest", "--epsilon", "0.3"],
        )
        assert rc == 0
        assert json.loads(out)["verdict"] == "ACCEPT"

    def test_reject_exit_3(self, graph_file, capsys):
        g = graph_file(gen_cycle(6))
        rc, out = run(
            capsys,
            ["test", "--graph", g, "--property", "forest", "--epsilon", "0.5"],
        )
        assert rc == 3
        obj = json.loads(out)
        assert obj["verdict"] == "REJECT"
        assert obj["violating_fraction"] == 1.0

    @pytest.mark.parametrize("epsilon", ["1e-160", "1e-170", "5e-324"])
    def test_tiny_epsilon_takes_the_capped_defaults(self, epsilon, graph_file, capsys):
        # 8 / epsilon**2 is infinite at 1e-160 and divides by zero below
        rc, out = run(capsys, ["test", "--graph", graph_file(gen_cycle(6)), "--property", "forest",
                               "--epsilon", epsilon])
        assert rc == 3
        assert {k: json.loads(out)["params"][k] for k in ("budget", "radius")} == {
            "budget": 4000, "radius": 6}

    def test_observable_mode(self, graph_file, capsys):
        g = graph_file(gen_cycle(4))
        rc, out = run(
            capsys,
            ["test", "--graph", g, "--property", "forest", "--epsilon", "0.5",
             "--observable"],
        )
        assert rc == 3
        assert json.loads(out)["params"]["mode"] == "observable"

    def test_colors_property(self, graph_file, capsys):
        g = graph_file(gen_cycle(5))
        rc, _ = run(
            capsys,
            ["test", "--graph", g, "--property", "k_colorable", "--colors", "2",
             "--epsilon", "0.5"],
        )
        assert rc == 3

    def test_search_past_its_node_cap_is_a_json_error(self, graph_file, capsys, monkeypatch):
        # every ball of K4 is K4, and its 3-coloring search takes 4 nodes
        k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = graph_file(build_graph(k4, [0.0] * 4, d=3, K=1.0))
        monkeypatch.setattr(rnlab.distances, "SEARCH_NODE_CAP", 3)
        rc, out = run(
            capsys,
            ["test", "--graph", g, "--property", "k_colorable", "--colors", "3",
             "--epsilon", "0.5"],
        )
        assert rc == 1
        assert json.loads(out) == {
            "error": "BudgetExceeded",
            "message": "coloring search exceeded its node cap of 3",
        }


class TestObserve:
    def test_matches_library_table(self, graph_file, capsys):
        G = gen_cycle(5)
        g = graph_file(G)
        rc, out = run(capsys, ["observe", "--graph", g, "--s", "5"])
        assert rc == 0
        obj = json.loads(out)
        table = observe(G, 5)
        assert obj["depth"] == 5
        assert obj["degree_bound"] == table.degree_bound
        assert obj["entries"] == {k: v for k, v in sorted(table.entries.items())}

    @pytest.mark.parametrize("s", ["0", "-1"])
    def test_depth_below_one_rejected_at_parsing(self, graph_file, capsys, s):
        with pytest.raises(SystemExit) as e:
            main(["observe", "--graph", graph_file(gen_grid(3, 3)), "--s", s])
        assert e.value.code == 2
        assert f"argument --s: must be at least 1, got {s}" in capsys.readouterr().err


class TestScenario:
    def test_name_with_params(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc, printed = run(
            capsys,
            ["scenario", "--name", "entropy_sweep", "--param", "depths=[25]",
             "--threads", "2", "--out", str(out)],
        )
        assert rc == 0
        assert printed.strip() == str(out)
        assert len(out.read_text().splitlines()) == 1

    def test_config_file_and_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "r.jsonl"
        cfg.write_text(json.dumps({
            "scenario": "phase_transition",
            "params": {"depth": 6, "budget": 400, "betas": [0.0]},
            "seed": 2,
            "output_path": str(out),
            "threads": 2,
        }))
        csv_path = tmp_path / "r.csv"
        rc, _ = run(capsys, ["scenario", "--config", str(cfg), "--csv", str(csv_path)])
        assert rc == 0
        assert out.exists() and csv_path.exists()

    def test_needs_name_or_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario"])

    def test_unknown_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "nope"}')
        expected = {"error": "GraphError", "message": "unknown scenario 'nope'"}
        for argv in (["scenario", "--name", "nope"], ["scenario", "--config", str(cfg)]):
            assert json_error(capsys, argv, tmp_path / "r.jsonl") == expected

    def test_config_fields_default_to_options(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "entropy_sweep", "params": {"depths": [25]}}))
        seen = []
        monkeypatch.setattr(cli, "run_scenario", lambda c: seen.append(c) or c.output_path)
        out = str(tmp_path / "r.jsonl")
        assert run(capsys, ["scenario", "--config", str(cfg), "--seed", "4", "--threads", "2",
                            "--out", out]) == (0, out + "\n")
        assert seen == [cli.ExperimentConfig("entropy_sweep", {"depths": [25]}, 4, out, 2)]


class TestScenarioConfigErrors:
    """A config file of the wrong kind or with a mistyped field is a JSON
    error object with exit code 1, not a traceback."""

    @pytest.fixture
    def files(self, graph_file, tmp_path, capsys):
        g = graph_file(gen_grid(4, 4))
        sample = str(tmp_path / "s.jsonl")
        run(capsys, ["sample", "--graph", g, "--queries", "50", "--out", sample])
        return {"graph": g, "sample": sample}

    def test_graph_file_as_config(self, files, tmp_path, capsys):
        argv = ["scenario", "--config", files["graph"]]
        assert json_error(capsys, argv, tmp_path / "r.jsonl") == {
            "error": "GraphError",
            "message": f"{files['graph']} is not a scenario config: it needs a scenario",
        }

    def test_sample_output_as_config(self, files, tmp_path, capsys):
        argv = ["scenario", "--config", files["sample"]]
        obj = json_error(capsys, argv, tmp_path / "r.jsonl")
        assert obj["error"] == "GraphError"
        assert obj["message"].startswith(f"{files['sample']} is not a scenario config: Extra data")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", " is not a scenario config: it needs a scenario"),
        ('{"params": {}}', " is not a scenario config: it needs a scenario"),
        ('{"scenario": 3}', ": scenario must be a string, got 3"),
        ('{"scenario": "entropy_sweep", "params": [25]}', ": params must be an object, got [25]"),
        ('{"scenario": "entropy_sweep", "seed": "3"}', ": seed must be an integer in [0, 2^128), got '3'"),
        ('{"scenario": "entropy_sweep", "seed": -1}', ": seed must be an integer in [0, 2^128), got -1"),
        ('{"scenario": "entropy_sweep", "seed": true}', ": seed must be an integer in [0, 2^128), got True"),
        ('{"scenario": "entropy_sweep", "threads": 1.5}', ": threads must be an integer of at least 1, got 1.5"),
        ('{"scenario": "entropy_sweep", "threads": 0}', ": threads must be an integer of at least 1, got 0"),
        ('{"scenario": "entropy_sweep", "output_path": 7}', ": output_path must be a string, got 7"),
    ])
    def test_mistyped_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        obj = json_error(capsys, ["scenario", "--config", str(cfg)], tmp_path / "r.jsonl")
        assert obj == {"error": "GraphError", "message": f"{cfg}{message}"}


def json_error(capsys, argv, out):
    """The error object main reports for argv: printed with exit code 1, and
    the same object written to --out with nothing printed."""
    rc, printed = run(capsys, argv)
    assert rc == 1
    obj = json.loads(printed)
    assert run(capsys, argv + ["--out", str(out)]) == (1, "")
    assert json.loads(out.read_text()) == obj
    return obj


class TestErrorBoundary:
    """main is the one error path: a GraphError from any command, a file of
    the wrong kind included, becomes {"error", "message"} with exit code 1."""

    @pytest.fixture
    def files(self, graph_file, tmp_path, capsys):
        g = graph_file(gen_grid(4, 4))
        paths = {"graph": g, "profile": str(tmp_path / "p.json"), "sample": str(tmp_path / "s.jsonl"),
                 "single": str(tmp_path / "single.json")}
        run(capsys, ["stats", "--graph", g, "--rmax", "2", "--out", paths["profile"]])
        run(capsys, ["sample", "--graph", g, "--queries", "50", "--out", paths["sample"]])
        with open(paths["single"], "w") as fh:
            json.dump(rnlab.exact_stats(load_graph(g), 2, 2).to_json_dict(), fh)
        return paths

    def test_single_statistic_is_not_a_profile(self, files, tmp_path, capsys):
        argv = ["distance", "--stats-a", files["single"], "--stats-b", files["profile"], "--rmax", "2"]
        assert json_error(capsys, argv, tmp_path / "d.json") == {
            "error": "GraphError",
            "message": f"{files['single']} is not a statistics profile: KeyError('per_radius')",
        }

    def test_sample_output_is_not_a_profile(self, files, tmp_path, capsys):
        argv = ["distance", "--stats-a", files["profile"], "--stats-b", files["sample"], "--rmax", "2"]
        obj = json_error(capsys, argv, tmp_path / "d.json")
        assert obj["error"] == "GraphError"
        assert obj["message"].startswith(
            f"{files['sample']} is not a statistics profile: JSONDecodeError('Extra data"
        )

    def test_infinite_count_in_a_profile(self, files, tmp_path, capsys):
        bad = tmp_path / "inf.json"
        bad.write_text(Path(files["profile"]).read_text().replace(
            '"total_queries": 0', '"total_queries": Infinity', 1))
        argv = ["distance", "--stats-a", str(bad), "--stats-b", files["profile"], "--rmax", "2"]
        assert json_error(capsys, argv, tmp_path / "d.json") == {
            "error": "GraphError",
            "message": f"{bad} is not a statistics profile: "
                       "ValueError('total_queries must be an integer, got inf')",
        }

    @pytest.mark.parametrize("mass, shown", [("NaN", "nan"), ("-5.0", "-5.0")])
    def test_mass_that_is_not_a_probability(self, mass, shown, files, tmp_path, capsys):
        # a NaN mass printed a distance of NaN, which is not JSON; -5.0 one above 1
        text = Path(files["profile"]).read_text()
        bad = tmp_path / "mass.json"
        bad.write_text(re.sub(r'("weights": \{\s*"[0-9a-f]+": )[-0-9.e]+', rf"\g<1>{mass}", text, count=1))
        argv = ["distance", "--stats-a", str(bad), "--stats-b", files["profile"], "--rmax", "2"]
        assert json_error(capsys, argv, tmp_path / "d.json") == {
            "error": "GraphError",
            "message": f"{bad} is not a statistics profile: "
                       f"ValueError('masses must be finite nonnegative numbers, got {shown}')",
        }

    def test_stats_file_is_not_a_graph(self, files, tmp_path, capsys):
        argv = ["sample", "--graph", files["profile"], "--queries", "5"]
        assert json_error(capsys, argv, tmp_path / "s.jsonl") == {
            "error": "GraphError",
            "message": f"{files['profile']} is not a graph file: it needs n, d, K, edges, log_weights",
        }

    def test_bool_vertex_id(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "d": 1, "K": 1, "edges": [[0, true]], "log_weights": [0, 0]}')
        argv = ["sample", "--graph", str(path), "--queries", "5"]
        assert json_error(capsys, argv, tmp_path / "s.jsonl") == {
            "error": "GraphError",
            "message": "edges must be pairs of int64 vertex ids, got [0, True] at edge 0",
        }

    def test_label_digits_past_a_float(self, tmp_path, capsys):
        # 10**309 overflows a float, so no ratio has a label at 309 digits
        g = tmp_path / "g.json"
        run(capsys, ["gen", "--family", "grid", "--param", "rows=3", "--param", "cols=3",
                     "--out", str(g)])
        argv = ["sample", "--graph", str(g), "--r", "2", "--t", "309", "--queries", "5",
                "--seed", "1"]
        assert json_error(capsys, argv, tmp_path / "s.jsonl") == {
            "error": "TooLarge",
            "message": "ratio 1.0 at 309 label digits overflows a float",
        }

    @pytest.mark.parametrize("argv, G, message", [
        # run at the default caps, each in a few seconds
        (["observe", "--s", "40"], gen_grid(3, 3),
         "more than 10000 class keys at depth 40, degree 4"),
        (["distance", "--property", "bipartite"], gen_disjoint_triangles(8),
         "deletion search pushed more than 500000 sets"),
    ], ids=["observe", "distance"])
    def test_search_past_its_budget(self, graph_file, capsys, argv, G, message):
        rc = main(argv + ["--graph", graph_file(G)])
        out, err = capsys.readouterr()
        assert (rc, json.loads(out), err) == (1, {"error": "BudgetExceeded", "message": message}, "")

    def test_error_of_a_command_without_a_handler(self, files, tmp_path, capsys):
        argv = ["test", "--graph", files["graph"], "--observable", "--property", "k_colorable",
                "--colors", "3", "--epsilon", "0.3"]
        assert json_error(capsys, argv, tmp_path / "t.json") == {
            "error": "UnsupportedProperty",
            "message": "observation-based testing covers forest and bipartite",
        }


class TestPaths:
    """An input path that cannot be opened is a JSON error with exit code 1;
    an --out or --csv path that cannot be written is named on stderr, with
    exit code 2."""

    @pytest.mark.parametrize("argv, bad", [
        (["stats", "--graph", "MISSING"], "MISSING"),
        (["distance", "--stats-a", "MISSING", "--stats-b", "PROFILE"], "MISSING"),
        (["distance", "--stats-a", "PROFILE", "--stats-b", "MISSING"], "MISSING"),
        (["scenario", "--config", "MISSING"], "MISSING"),
        (["sample", "--graph", "DIR"], "DIR"),
    ], ids=["stats", "distance-a", "distance-b", "scenario", "sample-directory"])
    def test_input_that_cannot_be_opened(self, argv, bad, graph_file, tmp_path, capsys):
        paths = {"MISSING": str(tmp_path / "nowhere" / "x.json"), "DIR": str(tmp_path),
                 "PROFILE": str(tmp_path / "p.json")}
        run(capsys, ["stats", "--graph", graph_file(gen_path(4)), "--out", paths["PROFILE"]])
        reason = {"MISSING": "No such file or directory", "DIR": "Is a directory"}[bad]
        argv = [paths.get(a, a) for a in argv]
        assert json_error(capsys, argv, tmp_path / "out.json") == {
            "error": "GraphError", "message": f"cannot read {paths[bad]}: {reason}",
        }

    @pytest.mark.parametrize("argv", [
        ["sample", "--graph", "G", "--queries", "5", "--out", "BAD"],
        ["gen", "--family", "path", "--param", "n=4", "--out", "BAD"],
        ["scenario", "--name", "entropy_sweep", "--param", "depths=[5]", "--out", "BAD"],
        ["scenario", "--name", "entropy_sweep", "--param", "depths=[5]", "--out", "REPORT",
         "--csv", "BAD"],
        ["stats", "--graph", "BAD", "--out", "BAD"],
    ], ids=["sample", "gen", "scenario-report", "scenario-csv", "error-object"])
    def test_output_that_cannot_be_written(self, argv, graph_file, tmp_path, capsys):
        bad = str(tmp_path / "nowhere" / "x")
        paths = {"G": graph_file(gen_path(4)), "BAD": bad, "REPORT": str(tmp_path / "r.jsonl")}
        with pytest.raises(SystemExit) as e:
            main([paths.get(a, a) for a in argv])
        assert e.value.code == 2
        assert f"rnlab: error: cannot write {bad}: No such file or directory" in capsys.readouterr().err


class TestBadParams:
    """A --param that names no family, or that is missing or of the wrong
    type, is a JSON error with exit code 1."""

    @pytest.mark.parametrize("argv, message", [
        (["--family", "nope"], "unknown generator family 'nope'"),
        (["--family", "path"], "family 'path' needs parameter 'n'"),
        (["--family", "path", "--param", "n=abc"],
         "bad parameter for family 'path': invalid literal for int() with base 10: 'abc'"),
        (["--family", "binary_tree", "--param", "depth=3", "--param", "representation=bogus"],
         "bad parameter for family 'binary_tree': unknown representation 'bogus'"),
        (["--family", "theta", "--param", "arms=5"],
         "bad parameter for family 'theta': 'int' object is not iterable"),
        (["--family", "path", "--param", "n=3.9"],
         "bad parameter for family 'path': expected an integer, got 3.9"),
        (["--family", "path", "--param", "n=true"],
         "bad parameter for family 'path': expected an integer, got True"),
    ], ids=["family", "missing", "not-an-int", "representation", "arms", "fraction", "bool"])
    def test_gen(self, argv, message, tmp_path, capsys):
        obj = json_error(capsys, ["gen", *argv], tmp_path / "g.json")
        assert obj == {"error": "GraphError", "message": message}

    @pytest.mark.parametrize("param, message", [
        ("depth=abc", "invalid literal for int() with base 10: 'abc'"),
        ("betas=5", "'int' object is not iterable"),
    ], ids=["depth", "betas"])
    def test_scenario(self, param, message, tmp_path, capsys):
        argv = ["scenario", "--name", "phase_transition", "--param", param]
        obj = json_error(capsys, argv, tmp_path / "r.jsonl")
        assert obj == {
            "error": "GraphError", "message": f"bad params for scenario 'phase_transition': {message}",
        }

    @pytest.mark.parametrize("name, param, message", [
        ("phase_transition", "budget=-1", "budget must be at least 1, got -1"),
        ("phase_transition", "budget=0", "budget must be at least 1, got 0"),
        ("estimator_error_curve", 'instances=[["zzz", 3]]', "unknown estimator family 'zzz'"),
    ], ids=["negative-budget", "zero-budget", "family"])
    def test_scenario_values_out_of_range(self, name, param, message, tmp_path, capsys):
        argv = ["scenario", "--name", name, "--param", param, "--param", "epsilons=[0.3]"]
        obj = json_error(capsys, argv, tmp_path / "r.jsonl")
        assert obj == {"error": "GraphError", "message": f"bad params for scenario '{name}': {message}"}

    @pytest.mark.parametrize("name, param, message", [
        ("estimator_error_curve", "epsilons=[1.5]", "epsilon must lie in (0, 1), got 1.5"),
        ("tester_calibration", "trials=0", "trials must be at least 1, got 0"),
        ("tester_calibration", "epsilon=0", "epsilon must lie in (0, 1), got 0.0"),
        ("perturbation_sensitivity", "r_max=0", "r_max must be at least 1, got 0"),
        ("entropy_sweep", "depths=[2.5]", "expected an integer, got 2.5"),
        ("entropy_sweep", "depths=[true]", "expected an integer, got True"),
        ("entropy_sweep", "beta=NaN", "beta must be a finite number, got nan"),
        ("phase_transition", "betas=[Infinity]", "beta must be a finite number, got inf"),
        ("convergence_to_orbit_tree", "radius=-1", "radius must be at least 0, got -1"),
    ])
    def test_scenario_refused_before_any_row(self, name, param, message, tmp_path, capsys,
                                             monkeypatch):
        # with two threads a row runs only in the pool, and there is none
        monkeypatch.setattr(rnlab.scenarios, "ThreadPoolExecutor", None)
        argv = ["scenario", "--name", name, "--param", param, "--threads", "2"]
        obj = json_error(capsys, argv, tmp_path / "r.jsonl")
        assert obj == {"error": "GraphError", "message": f"bad params for scenario '{name}': {message}"}


NO_DISTRIBUTION = {"error": "GraphError", "message": "the graph has no vertices, so no vertex distribution"}


class TestEmptyGraph:
    """A graph file with no vertices loads. Every command that needs the
    vertex distribution reports a JSON error; the structural ones answer."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0, "d": 1, "K": 1, "edges": [], "log_weights": []}')
        return str(path)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["sample"], NO_DISTRIBUTION),
            (["sample", "--oracle", "uniform"],
             {"error": "GraphError", "message": "the graph has no vertices to sample"}),
            (["stats", "--rmax", "1"], NO_DISTRIBUTION),
            (["stats", "--rmax", "1", "--mode", "empirical"], NO_DISTRIBUTION),
            (["test", "--property", "forest", "--epsilon", "0.5"], NO_DISTRIBUTION),
            (["partition", "--epsilon", "0.3"], NO_DISTRIBUTION),
            (["partition", "--epsilon", "0.3", "--cover"],
             {"error": "UnsupportedFamily", "message": "cover construction needs a connected graph"}),
            (["estimate", "--what", "independence", "--epsilon", "0.3"], NO_DISTRIBUTION),
            (["estimate", "--what", "matching", "--epsilon", "0.3"],
             {"error": "GraphError", "message": "the graph has no vertices, so no matching ratio"}),
        ],
        ids=["sample", "sample-uniform", "stats", "stats-empirical", "test", "partition",
             "partition-cover", "estimate-independence", "estimate-matching"],
    )
    def test_json_error(self, empty, argv, expected, tmp_path, capsys):
        argv = argv[:1] + ["--graph", empty] + argv[1:]
        assert json_error(capsys, argv, tmp_path / "out.json") == expected

    def test_structural_commands_answer(self, empty, capsys):
        rc, out = run(capsys, ["test", "--graph", empty, "--property", "forest", "--epsilon", "0.5",
                               "--observable"])
        assert rc == 0 and json.loads(out)["verdict"] == "ACCEPT"
        rc, out = run(capsys, ["observe", "--graph", empty, "--s", "2"])
        assert rc == 0 and json.loads(out)["depth"] == 2
        rc, out = run(capsys, ["distance", "--graph", empty, "--property", "forest"])
        assert (rc, json.loads(out)) == (0, {"distance": 0, "witness_deletion_set": []})
        rc, out = run(capsys, ["distance", "--graph", empty, "--property", "forest", "--absolute"])
        assert (rc, json.loads(out)) == (0, {"absolute_distance": 0.0, "K": 2.0})


class TestUsageErrors:
    """Usage errors exit with code 2, whether argparse finds them or the
    command does after parsing."""

    @pytest.mark.parametrize("argv", [
        ["partition", "--graph", "G"], ["estimate", "--what", "matching", "--graph", "G"],
        ["test", "--graph", "G", "--property", "forest"],
    ])
    @pytest.mark.parametrize("epsilon", ["0", "-1", "1", "1.5", "nan", "inf", "-inf"])
    def test_epsilon_outside_the_unit_interval(self, argv, epsilon, graph_file, capsys):
        argv = [graph_file(gen_grid(4, 4)) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv + [f"--epsilon={epsilon}"])
        assert e.value.code == 2
        assert f"argument --epsilon: must lie in (0, 1), got {float(epsilon)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--graph", "G"],
        ["test", "--graph", "G", "--property", "forest", "--epsilon", "0.3"],
        ["stats", "--graph", "G", "--mode", "empirical"],
        ["gen", "--family", "random_regular", "--param", "n=8"],
        ["estimate", "--what", "independence", "--graph", "G", "--epsilon", "0.3"],
        ["scenario", "--name", "entropy_sweep"],
    ])
    @pytest.mark.parametrize("seed, message", [
        ("-1", "must be nonnegative, got -1"),
        (str(2**128), f"must be less than 2^128, got {2**128}"),
        ("1.5", "invalid int value: '1.5'"),
    ])
    def test_seed_outside_128_bits(self, argv, seed, message, graph_file, capsys):
        argv = [graph_file(gen_path(4)) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv + ["--seed", seed])
        assert e.value.code == 2
        assert f"argument --seed: {message}" in capsys.readouterr().err

    def test_largest_seed_accepted(self, graph_file, capsys):
        argv = ["sample", "--graph", graph_file(gen_path(4)), "--queries", "5", "--seed", str(2**128 - 1)]
        rc, out = run(capsys, argv)
        assert rc == 0 and sum(json.loads(line)["count"] for line in out.splitlines()) == 5

    def test_epsilon_that_is_not_a_number(self, graph_file, capsys):
        with pytest.raises(SystemExit) as e:
            main(["partition", "--graph", graph_file(gen_path(4)), "--epsilon", "half"])
        assert e.value.code == 2
        assert "argument --epsilon: invalid float value: 'half'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["distance", "--graph", "G", "--property", "forest"],
        ["partition", "--graph", "G", "--epsilon", "0.5"],
        ["observe", "--graph", "G", "--s", "2"],
    ])
    def test_no_seed_where_nothing_is_random(self, argv, graph_file, capsys):
        argv = [graph_file(gen_path(4)) if a == "G" else a for a in argv]
        assert run(capsys, argv)[0] == 0
        with pytest.raises(SystemExit) as e:
            main(argv + ["--seed", "1"])
        assert e.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "path", "--param", "n8"], "bad --param 'n8', expected key=value"),
        (["distance"], "need either --stats-a/--stats-b or --graph/--property"),
        (["distance", "--graph", "G", "--property", "planar"], "unknown property 'planar'"),
        (["distance", "--graph", "G", "--property", "k_colorable"], "k_colorable needs --colors"),
        (["distance", "--graph", "G", "--property", "h_free"], "h_free needs --forbidden"),
        (["scenario"], "need --name or --config"),
    ])
    def test_found_after_parsing(self, argv, message, graph_file, capsys):
        argv = [graph_file(gen_path(4)) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert f"rnlab: error: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, message", [
        (["partition", "--graph", "G", "--epsilon", "0.3", "--k-target", "0"],
         "argument --k-target: must be at least 1, got 0"),
        (["partition", "--graph", "G", "--epsilon", "0.3", "--k-target", "-3"],
         "argument --k-target: must be at least 1, got -3"),
        (["partition", "--graph", "G", "--epsilon", "0.3", "--cover", "--grid-dims", "3"],
         "argument --grid-dims: expected ROWS,COLS, got '3'"),
        (["partition", "--graph", "G", "--epsilon", "0.3", "--cover", "--grid-dims", "x,4"],
         "argument --grid-dims: invalid int value: 'x'"),
        (["partition", "--graph", "G", "--epsilon", "0.3", "--cover", "--grid-dims", "3,4,5"],
         "argument --grid-dims: expected ROWS,COLS, got '3,4,5'"),
        (["partition", "--graph", "G", "--epsilon", "0.3", "--cover", "--grid-dims", "2,0"],
         "argument --grid-dims: must be at least 1, got 0"),
        (["test", "--graph", "G", "--property", "k_colorable", "--epsilon", "0.3",
          "--colors", "-1"], "argument --colors: must be at least 1, got -1"),
        (["test", "--graph", "G", "--property", "k_colorable", "--epsilon", "0.3",
          "--colors", "0"], "argument --colors: must be at least 1, got 0"),
        (["distance", "--graph", "G", "--property", "k_colorable", "--colors", "0"],
         "argument --colors: must be at least 1, got 0"),
        (["scenario", "--name", "entropy_sweep", "--threads", "0"],
         "argument --threads: must be at least 1, got 0"),
        (["scenario", "--name", "entropy_sweep", "--threads", "-4"],
         "argument --threads: must be at least 1, got -4"),
    ])
    def test_counts_below_one(self, argv, message, graph_file, capsys):
        argv = [graph_file(gen_grid(2, 2)) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rnlab ") and f"rnlab {argv[0]}: error: {message}\n" in err


    @pytest.mark.parametrize("command", [
        ["test", "--epsilon", "0.3"], ["distance"],
    ])
    @pytest.mark.parametrize("forbidden, message", [
        ("x:0-1", "invalid int value: 'x'"),
        ("3:0-x", "invalid int value: 'x'"),
        ("3:0-1,", "expected an edge u-v, got ''"),
        ("3:0-5", "forbidden edge 0-5 has an endpoint outside 0..2"),
        ("3:0-0", "forbidden edge 0-0 is a self-loop"),
    ])
    def test_bad_forbidden_graph(self, command, forbidden, message, graph_file, capsys):
        # a self-loop was never checked by the copy search, so a path, which
        # has no loop, was rejected as if it held a copy
        argv = [command[0], "--graph", graph_file(gen_path(5)), "--property", "h_free",
                f"--forbidden={forbidden}", *command[1:]]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rnlab ")
        assert f"rnlab {argv[0]}: error: argument --forbidden: {message}\n" in err


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_start_from_the_defaults(self, graph_file, capsys):
        # --param appends to a list: a second call must not see the first's
        run(capsys, ["gen", "--family", "path", "--param", "n=3", "--param", "d=3"])
        rc, out = run(capsys, ["gen", "--family", "path", "--param", "n=5"])
        assert rc == 0 and json.loads(out)["n"] == 5 and json.loads(out)["d"] == 2
        g = graph_file(gen_path(6))
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.5", "--k-target", "3"])
        assert rc == 0 and json.loads(out)["component_bound"] <= 3
        rc, out = run(capsys, ["partition", "--graph", g, "--epsilon", "0.5"])
        assert rc == 0 and json.loads(out)["component_bound"] == 2
        namespaces = [build_parser().parse_args(["gen", "--family", "path"]) for _ in range(2)]
        assert namespaces[0] is not namespaces[1] and namespaces[0].param is None


def _args_read(fn) -> set[str]:
    """Every name that fn reads as args.<name>."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's parser by name, aliases included."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def unread_options(parser: argparse.ArgumentParser) -> list[str]:
    """Options of a subcommand that neither its cmd_* function nor main reads."""
    commands = {}
    for name, p in subcommands(parser).items():  # an alias maps to its command's parser
        commands.setdefault(p, name)
    in_main = _args_read(cli.main)
    return [
        f"{name} {action.option_strings[0]}"
        for p, name in commands.items()
        for action in p._actions
        if action.dest != "help" and action.dest not in _args_read(p.get_default("fn")) | in_main
    ]


class TestOptions:
    def test_every_option_is_read(self):
        assert unread_options(build_parser()) == []

    def test_check_catches_an_unread_option(self):
        # a parser of its own: the process's one parser must not change
        parser = build_parser.__wrapped__()
        subcommands(parser)["observe"].add_argument("--seed", type=int, default=0)
        subcommands(parser)["dist"].add_argument("--verbose", action="store_true")
        assert unread_options(parser) == ["distance --verbose", "observe --seed"]


class TestModuleEntryPoint:
    """``python -m rnlab`` from a source checkout, with only src/ on the path."""

    def _run(self, *argv, hashseed=None, flags=()):
        env = dict(os.environ, PYTHONPATH=str(Path(rnlab.__file__).parents[1]))
        if hashseed is not None:
            env["PYTHONHASHSEED"] = hashseed
        return subprocess.run(
            [sys.executable, *flags, "-m", "rnlab", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_help(self):
        proc = self._run("--help")
        assert proc.returncode == 0, proc.stderr
        assert "sample" in proc.stdout

    def test_closed_stdout_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(rnlab.__file__).parents[1]))
        # the reader is gone before the command writes its 0.7 MB graph
        proc = subprocess.Popen(
            [sys.executable, "-m", "rnlab", "gen", "--family", "path", "--param", "n=50000"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")

    def test_dev_mode_gen_and_sample_are_quiet(self, tmp_path):
        # -X dev -W error turns an unclosed file or any other warning into output
        graph, counts = tmp_path / "path.json", tmp_path / "counts.jsonl"
        for argv in (["gen", "--family", "path", "--param", "n=20000", "--out", str(graph)],
                     ["sample", "--graph", str(graph), "--queries", "50", "--out", str(counts)]):
            proc = self._run(*argv, flags=("-X", "dev", "-W", "error"))
            assert (proc.returncode, proc.stderr) == (0, "")
        assert load_graph(graph).n == 20000 and counts.read_text()

    def test_distance_same_under_any_hash_seed(self, tmp_path):
        # ball keys are bytes, whose hash order differs from process to process
        files = []
        for family, params in (("binary_tree", ["depth=6", "beta=0.3"]),
                               ("random_regular", ["n=40", "d=3"])):
            graph, stats = str(tmp_path / f"{family}.json"), str(tmp_path / f"{family}.stats")
            params = [arg for p in params for arg in ("--param", p)]
            assert main(["gen", "--family", family, *params, "--seed", "3", "--out", graph]) == 0
            assert main(["stats", "--graph", graph, "--rmax", "2", "--out", stats]) == 0
            files.append(stats)
        argv = ["distance", "--stats-a", files[0], "--stats-b", files[1], "--rmax", "2"]
        outputs = {self._run(*argv, hashseed=seed).stdout for seed in ("0", "2")}
        assert len(outputs) == 1 and json.loads(outputs.pop())["statistical_distance"] > 0.7

    def test_exit_code_passes_through(self, graph_file):
        proc = self._run("test", "--graph", graph_file(gen_cycle(6)),
                         "--property", "forest", "--epsilon", "0.5")
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "REJECT"
