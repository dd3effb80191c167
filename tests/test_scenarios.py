import json
import math

import pytest

from rnlab.scenarios import (
    ExperimentConfig,
    interior_ball_mass,
    report_to_csv,
    run_scenario,
    scenario_report_lines,
)

LN2 = math.log(2.0)


def rows_of(cfg):
    return [json.loads(line) for line in scenario_report_lines(cfg)]


class TestInteriorBallMass:
    def test_counts_unclipped_layers(self):
        # layers r .. depth-1-r see the full three-regular labeled ball
        assert interior_ball_mass(12, 2) == pytest.approx(8 / 12, abs=1e-12)
        assert interior_ball_mass(20, 3) == pytest.approx(14 / 20, abs=1e-12)

    def test_radius_one(self):
        assert interior_ball_mass(10, 1) == pytest.approx(0.8, abs=1e-12)


class TestPhaseTransition:
    def test_flat_weights_pile_on_leaves(self):
        cfg = ExperimentConfig(
            "phase_transition", {"depth": 8, "budget": 2000, "betas": [0.0]}, seed=3
        )
        (row,) = rows_of(cfg)
        assert abs(row["leaf_fraction"] - 128 / 255) < 0.05
        assert row["tv_to_exact"] < 0.1

    def test_critical_weights_spread_evenly(self):
        cfg = ExperimentConfig(
            "phase_transition", {"depth": 8, "budget": 2000, "betas": [LN2]}, seed=3
        )
        (row,) = rows_of(cfg)
        assert abs(row["leaf_fraction"] - 1 / 8) < 0.05
        assert abs(row["top6_mass"] - 6 / 8) < 0.05


class TestConvergenceToOrbitTree:
    def test_interior_mass_above_bound(self):
        cfg = ExperimentConfig(
            "convergence_to_orbit_tree", {"depths": [10, 14], "radius": 2}, seed=0
        )
        rows = rows_of(cfg)
        assert [r["depth"] for r in rows] == [10, 14]
        for row in rows:
            assert row["interior_mass"] >= row["lower_bound"]
            assert row["interior_mass"] == pytest.approx(
                1.0 - 4 / row["depth"], abs=1e-9
            )


class TestEstimatorErrorCurve:
    def test_errors_within_guarantee(self):
        cfg = ExperimentConfig(
            "estimator_error_curve",
            {"instances": [["path", 12], ["cycle", 13]], "epsilons": [0.5]},
            seed=2,
        )
        for row in rows_of(cfg):
            assert row["i_app"] <= row["i_exact"] + 1e-9
            assert row["error"] <= row["epsilon"] / 2 + 1e-9


class TestPerturbationSensitivity:
    def test_adversarial_profile_is_farther(self):
        cfg = ExperimentConfig(
            "perturbation_sensitivity", {"sizes": [8], "r_max": 2}, seed=0
        )
        rows = {r["profile"]: r for r in rows_of(cfg)}
        assert rows["uniform"]["d_s_to_path"] < rows["adversarial"]["d_s_to_path"]
        for r in rows.values():
            assert isinstance(r["partition_feasible_at_0.05"], bool)


class TestTesterCalibration:
    def test_members_accept_far_graphs_reject(self):
        cfg = ExperimentConfig(
            "tester_calibration", {"trials": 10, "epsilon": 0.3}, seed=1
        )
        rows = {r["graph"]: r for r in rows_of(cfg)}
        assert rows["member_path"]["accept_rate"] == 1.0
        assert rows["member_tree"]["accept_rate"] == 1.0
        assert rows["far_triangles"]["accept_rate"] == 0.0
        assert rows["far_odd_cycle"]["accept_rate"] == 0.0


class TestEntropySweep:
    def test_edge_entropy_approaches_beta(self):
        cfg = ExperimentConfig("entropy_sweep", {"depths": [25, 50]}, seed=0)
        rows = rows_of(cfg)
        for row in rows:
            want = (1.0 - 1.0 / row["depth"]) * LN2
            assert row["edge_entropy"] == pytest.approx(want, abs=1e-9)
            assert abs(row["edge_entropy"] - row["limit"]) < 1.0 / row["depth"] + 1e-9

    def test_heavy_weights_on_deep_trees(self):
        # at beta 8 the deep layers' vertices have p(v) = 0 in floats; the
        # entropy is the same at every depth, as the mass sits at the top
        cfg = ExperimentConfig("entropy_sweep", {"depths": [25, 100], "beta": 8.0}, seed=0)
        assert [row["vertex_entropy"] for row in rows_of(cfg)] == [0.006042156017] * 2


class TestReportMechanics:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_report_lines(ExperimentConfig("frobnicate"))

    def test_thread_count_does_not_change_report(self):
        params = {"depth": 8, "budget": 1500, "betas": [0.0, 0.3, LN2]}
        base = scenario_report_lines(
            ExperimentConfig("phase_transition", params, seed=7, threads=1)
        )
        for threads in (2, 4):
            again = scenario_report_lines(
                ExperimentConfig("phase_transition", params, seed=7, threads=threads)
            )
            assert again == base

    def test_rows_sorted_and_reruns_identical(self):
        cfg = ExperimentConfig("entropy_sweep", {"depths": [50, 25, 100]}, seed=0)
        lines = scenario_report_lines(cfg)
        assert lines == sorted(lines)
        assert lines == scenario_report_lines(cfg)

    def test_run_scenario_writes_report(self, tmp_path):
        out = tmp_path / "report.jsonl"
        cfg = ExperimentConfig(
            "entropy_sweep", {"depths": [25]}, seed=0, output_path=str(out)
        )
        path = run_scenario(cfg)
        assert path == str(out)
        assert out.read_text().splitlines() == scenario_report_lines(cfg)

    def test_csv_projection_keeps_every_field(self, tmp_path):
        import csv

        out = tmp_path / "report.jsonl"
        cfg = ExperimentConfig(
            "phase_transition",
            {"depth": 6, "budget": 500, "betas": [0.0, LN2]},
            seed=1,
            output_path=str(out),
        )
        run_scenario(cfg)
        csv_path = report_to_csv(str(out), str(tmp_path / "report.csv"))
        with open(csv_path) as fh:
            got = list(csv.DictReader(fh))
        want = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert set(g) == set(w)
            for k, v in w.items():
                assert g[k] == str(v)
