"""Canned experiments emitting JSON-lines reports.

Each scenario expands into independent row tasks; tasks may run on any number
of worker threads, and rows are sorted by their serialized form before
writing, so reports are byte-identical across thread counts.

Threads do not speed these rows up: they are pure Python and hold the
interpreter lock, so ``tester_calibration`` took 0.19 s on 1 thread and
0.32 s on 2 (2 CPUs, Python 3.11.7).  The thread count exists so that a
report can be checked not to depend on the order its rows finish in.
"""
from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import generators as gen
from .balls import canonicalize, extract_ball
from .distances import PropertySpec
from .graphs import SEED_LIMIT, GraphError, as_int, build_graph, check_epsilon, open_input
from .local import local_independent_set
from .oracles import RadonNikodymOracle
from .partitions import PartitionInfeasible, find_weighted_partition
from .solvers import exact_weighted_mis
from .statistics import (
    edge_entropy,
    exact_stats,
    statistical_distance,
    stats_profile,
    vertex_entropy,
)
from .testers import test_property

LN2 = math.log(2.0)


@dataclass
class ExperimentConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str = "report.jsonl"
    # Worker threads for the row tasks.  Rows hold the interpreter lock, so
    # more threads are no faster; the value only varies the order rows
    # finish in, which must not change the report.
    threads: int = 1


def load_config(
    path, *, seed: int = 0, output_path: str = "report.jsonl", threads: int = 1
) -> ExperimentConfig:
    """Read a scenario config: a JSON object with a ``scenario`` name and
    optional ``params``, ``seed``, ``output_path`` and ``threads``; missing
    fields take the keyword values.  Raises GraphError for a path that
    cannot be opened, a file of any other kind or a field it gives with the
    wrong type (a bool is not an int)."""
    with open_input(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as e:  # not JSON, or not text
            raise GraphError(f"{path} is not a scenario config: {e}") from None
    if not (isinstance(raw, dict) and "scenario" in raw):
        raise GraphError(f"{path} is not a scenario config: it needs a scenario")
    fields = {"params": {}, "seed": seed, "output_path": output_path, "threads": threads} | raw
    checks = {
        "scenario": (lambda v: isinstance(v, str), "a string"),
        "params": (lambda v: isinstance(v, dict), "an object"),
        "seed": (lambda v: _is_int(v) and 0 <= v < SEED_LIMIT, "an integer in [0, 2^128)"),
        "output_path": (lambda v: isinstance(v, str), "a string"),
        "threads": (lambda v: _is_int(v) and v >= 1, "an integer of at least 1"),
    }
    for name, (ok, what) in checks.items():
        if name in raw and not ok(raw[name]):
            raise GraphError(f"{path}: {name} must be {what}, got {raw[name]!r}")
    return ExperimentConfig(**{name: fields[name] for name in checks})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Readers of scenario params.  A scenario reads every param while it builds
# its row tasks, so a bad one is refused before any row runs.
def _count(value, name: str, least: int) -> int:
    """An int param of at least least; as_int refuses a bool or a fraction."""
    value = as_int(value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _real(value, name: str) -> float:
    """A finite float param; a bool is refused rather than read as 0 or 1."""
    number = float(value)
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


# label digits of the balls interior_ball_mass compares
INTERIOR_DIGITS = 2


def interior_ball_mass(depth: int, radius: int) -> float:
    """Mass of vertices of the critical layered tree whose ball matches the
    interior ball of the limiting orbit tree."""
    star = gen.gen_orbit_tree(radius + 1)
    target = canonicalize(extract_ball(star, 0, radius, INTERIOR_DIGITS))
    tree = gen.gen_binary_tree(depth, LN2, representation="implicit")
    stats = exact_stats(tree, radius, INTERIOR_DIGITS)
    return stats.mass(target)


def _phase_row(depth: int, beta: float, budget: int, seed: int) -> dict:
    tree = gen.gen_binary_tree(depth, beta, representation="implicit")
    oracle = RadonNikodymOracle(tree, r=0, t=2, seed=seed)
    roots = oracle.sample_roots(budget)
    layers = np.frexp(roots.astype(np.float64) + 1.0)[1] - 1
    counts = np.bincount(layers, minlength=depth)
    exact = tree.layer_masses
    empirical = counts / budget
    tv_dist = 0.5 * float(np.abs(empirical - exact).sum())
    return {
        "scenario": "phase_transition",
        "seed": seed,
        "beta": round(beta, 12),
        "depth": depth,
        "budget": budget,
        "tv_to_exact": round(tv_dist, 12),
        "leaf_fraction": round(float(empirical[-1]), 12),
        "top6_mass": round(float(empirical[:6].sum()), 12),
    }


def scenario_phase_transition(params: dict, seed: int) -> list[Callable[[], dict]]:
    depth = _count(params.get("depth", 16), "depth", 1)
    budget = _count(params.get("budget", 50_000), "budget", 1)
    betas = params.get("betas", [0.0, 0.3, LN2, 1.0, 2.0])
    return [
        (lambda b=_real(b, "beta"): _phase_row(depth, b, budget, seed)) for b in betas
    ]


def scenario_convergence_to_orbit_tree(params: dict, seed: int) -> list[Callable[[], dict]]:
    depths = [_count(n, "depth", 1) for n in params.get("depths", [10, 14, 18, 22])]
    radius = _count(params.get("radius", 3), "radius", 0)

    def row(n: int) -> dict:
        mass = interior_ball_mass(n, radius)
        return {
            "scenario": "convergence_to_orbit_tree",
            "seed": seed,
            "depth": n,
            "radius": radius,
            "interior_mass": round(mass, 12),
            "lower_bound": round(1.0 - 8.0 / n, 12),
        }

    return [(lambda n=n: row(n)) for n in depths]


_ESTIMATOR_FAMILIES = {
    "path": gen.gen_path,
    "cycle": gen.gen_cycle,
    "grid": lambda size: gen.gen_grid(size, size),
    "tree": lambda size: gen.gen_binary_tree(size, 0.0, representation="explicit"),
}


def _estimator_row(kind: str, size: int, epsilon: float, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    base = _ESTIMATOR_FAMILIES[kind](size)
    lw = rng.uniform(-LN2, LN2, size=base.n)
    G = build_graph(base.edge_array(), lw, d=base.d, K=4.0)
    _, i_app = local_independent_set(G, epsilon, seed=seed)
    _, i_exact = exact_weighted_mis(G)
    return {
        "scenario": "estimator_error_curve",
        "seed": seed,
        "family": kind,
        "size": size,
        "epsilon": epsilon,
        "i_app": round(i_app, 12),
        "i_exact": round(i_exact, 12),
        "error": round(abs(i_exact - i_app), 12),
    }


def scenario_estimator_error_curve(params: dict, seed: int) -> list[Callable[[], dict]]:
    instances = params.get(
        "instances", [["path", 120], ["cycle", 121], ["tree", 6], ["grid", 10]]
    )
    epsilons = params.get("epsilons", [0.05, 0.1, 0.2])
    epsilons = [check_epsilon(_real(e, "epsilon")) for e in epsilons]
    for kind, _ in instances:
        if str(kind) not in _ESTIMATOR_FAMILIES:
            raise GraphError(f"unknown estimator family {kind!r}")
    return [
        (
            lambda kind=str(kind), size=_count(size, "size", 1), e=e: _estimator_row(
                kind, size, e, seed
            )
        )
        for kind, size in instances
        for e in epsilons
    ]


def _perturbation_row(n: int, profile: str, r_max: int, seed: int) -> dict:
    J = gen.gen_perturbed_union(n, profile=profile, seed=seed)
    path = gen.gen_path(n * n, d=4)
    d_s = statistical_distance(
        stats_profile(J, r_max, t=2), stats_profile(path, r_max, t=2), r_max
    )
    try:
        find_weighted_partition(J, 0.05)
        feasible = True
    except PartitionInfeasible:
        feasible = False
    return {
        "scenario": "perturbation_sensitivity",
        "seed": seed,
        "n": n,
        "profile": profile,
        "r_max": r_max,
        "d_s_to_path": round(d_s, 12),
        "partition_feasible_at_0.05": feasible,
    }


def scenario_perturbation_sensitivity(params: dict, seed: int) -> list[Callable[[], dict]]:
    sizes = [_count(n, "size", 4) for n in params.get("sizes", [8, 16])]
    r_max = _count(params.get("r_max", 3), "r_max", 1)
    return [
        (lambda n=n, p=p: _perturbation_row(n, p, r_max, seed))
        for n in sizes
        for p in ("uniform", "adversarial")
    ]


def _calibration_row(name: str, G, epsilon: float, trials: int, seed: int) -> dict:
    forest = PropertySpec.forest()
    accepts = 0
    for i in range(trials):
        v = test_property(G, forest, epsilon, seed=seed + i)
        accepts += 1 if v.accepted else 0
    return {
        "scenario": "tester_calibration",
        "seed": seed,
        "graph": name,
        "property": "forest",
        "epsilon": epsilon,
        "trials": trials,
        "accept_rate": round(accepts / trials, 12),
    }


def scenario_tester_calibration(params: dict, seed: int) -> list[Callable[[], dict]]:
    trials = _count(params.get("trials", 60), "trials", 1)
    epsilon = check_epsilon(_real(params.get("epsilon", 0.2), "epsilon"))
    corpus = {
        "member_path": lambda: gen.gen_path(60),
        "member_tree": lambda: gen.gen_binary_tree(5, LN2),
        "far_triangles": lambda: gen.gen_disjoint_triangles(8),
        "far_odd_cycle": lambda: gen.gen_cycle(5),
    }
    return [
        (
            lambda name=name, make=make: _calibration_row(
                name, make(), epsilon, trials, seed
            )
        )
        for name, make in corpus.items()
    ]


def _entropy_row(depth: int, beta: float, seed: int) -> dict:
    tree = gen.gen_binary_tree(depth, beta, representation="implicit")
    return {
        "scenario": "entropy_sweep",
        "seed": seed,
        "depth": depth,
        "beta": round(beta, 12),
        "edge_entropy": round(edge_entropy(tree), 12),
        "vertex_entropy": round(vertex_entropy(tree), 12),
        "limit": round(beta, 12),
    }


def scenario_entropy_sweep(params: dict, seed: int) -> list[Callable[[], dict]]:
    depths = [_count(n, "depth", 1) for n in params.get("depths", [25, 50, 100])]
    beta = _real(params.get("beta", LN2), "beta")
    return [(lambda n=n: _entropy_row(n, beta, seed)) for n in depths]


SCENARIOS = {
    "phase_transition": scenario_phase_transition,
    "convergence_to_orbit_tree": scenario_convergence_to_orbit_tree,
    "estimator_error_curve": scenario_estimator_error_curve,
    "perturbation_sensitivity": scenario_perturbation_sensitivity,
    "tester_calibration": scenario_tester_calibration,
    "entropy_sweep": scenario_entropy_sweep,
}


def scenario_report_lines(cfg: ExperimentConfig) -> list[str]:
    """Run all row tasks (possibly on several threads) and return the sorted
    serialized rows."""
    if cfg.scenario not in SCENARIOS:
        raise GraphError(f"unknown scenario {cfg.scenario!r}")
    try:
        tasks = SCENARIOS[cfg.scenario](cfg.params, cfg.seed)
    except (TypeError, ValueError, OverflowError) as e:  # a param of the wrong type or range
        raise GraphError(f"bad params for scenario {cfg.scenario!r}: {e}") from None
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(lambda task: task(), tasks))
    else:
        rows = [task() for task in tasks]
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


def run_scenario(cfg: ExperimentConfig) -> str:
    """Execute the scenario and write the JSON-lines report."""
    lines = scenario_report_lines(cfg)
    with open(cfg.output_path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return cfg.output_path


def report_to_csv(jsonl_path: str, csv_path: str) -> str:
    """Lossless projection of a JSON-lines report to CSV."""
    rows = []
    with open(jsonl_path) as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    keys: list[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    keys.sort()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return csv_path
