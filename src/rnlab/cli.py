"""Command-line front end.

Subcommands: gen, sample, stats, distance, partition, estimate, test,
observe, scenario.  Those that draw randomness (all but distance, partition
and observe) take --seed and are reproducible bit for bit.  Exit codes: 0
done; 1 a GraphError, which ``main`` reports as ``{"error": <class name>,
"message": ...}`` on stdout or in the --out file; 2 a usage error, or an
--out or --csv path that cannot be written, reported on stderr; 3 a REJECT
from ``rnlab test``; 141 stdout closed by its reader (as in
``rnlab test ... | head``), with nothing on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

import numpy as np

from .distances import PropertySpec, absolute_distance, distance_to_property
from .generators import build_from_spec
from .graphs import (SEED_LIMIT, GraphError, check_epsilon, graph_to_json, load_graph, philox,
                     save_graph)
from .local import estimate_matching, independent_set_estimate
from .oracles import RadonNikodymOracle, observe, uniform_query
from .partitions import build_uniform_cover, find_weighted_partition
from .scenarios import ExperimentConfig, load_config, report_to_csv, run_scenario
from .statistics import (
    empirical_profile,
    load_profile,
    profile_to_json,
    statistical_distance,
    stats_profile,
)
from .testers import observable_test, test_property

EXIT_REJECT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command killed by it


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        key, _, raw = pair.partition("=")
        if not _:
            raise argparse.ArgumentError(None, f"bad --param {pair!r}, expected key=value")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _count(text: str, least: int = 0) -> int:
    """An argparse type: a nonnegative integer, so a negative radius, label
    depth or query count is a usage error (exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        rule = "nonnegative" if least == 0 else f"at least {least}"
        raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
    return value


def _seed(text: str) -> int:
    """An argparse type: an integer in [0, 2^128), the keys of the Philox
    streams seeds select, so a negative or longer seed is a usage error."""
    value = _count(text)
    if value >= SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be less than 2^128, got {value}")
    return value


def _positive(text: str) -> int:
    """An argparse type: an integer of at least 1, so a statistical distance
    over no radius, an observation depth, a component bound or a color
    count below 1 is a usage error."""
    return _count(text, least=1)


def _grid_dims(text: str) -> tuple[int, int]:
    """An argparse type: ``ROWS,COLS``, two integers of at least 1."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected ROWS,COLS, got {text!r}")
    return _positive(parts[0]), _positive(parts[1])


def _forbidden(text: str) -> PropertySpec:
    """An argparse type: ``n:u-v,u-v,...``, the h_free property of the
    graph on vertices 0..n-1 with those edges, each joining two distinct
    vertices.  A malformed field, an empty edge item, a self-loop or an
    endpoint outside 0..n-1 is a usage error (exit code 2)."""
    head, _, rest = text.partition(":")
    edges = []
    for item in rest.split(",") if rest else ():
        u, dash, v = item.partition("-")
        if not dash:
            raise argparse.ArgumentTypeError(f"expected an edge u-v, got {item!r}")
        edges.append((_count(u), _count(v)))
    try:
        return PropertySpec.h_free(_count(head), edges)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _epsilon(text: str) -> float:
    """An argparse type: a float strictly between 0 and 1, so an accuracy
    outside (0, 1), nan and inf included, is a usage error (exit code 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return check_epsilon(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _write(text: str, path: str | None) -> None:
    """text and a newline, written to the file at path or else printed."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, path: str | None) -> None:
    _write(json.dumps(obj, indent=1, sort_keys=True), path)


def _property_from_name(name: str, forbidden: PropertySpec | None,
                        colors: int | None) -> PropertySpec:
    if name == "forest":
        return PropertySpec.forest()
    if name == "bipartite":
        return PropertySpec.bipartite()
    if name == "h_free":
        if forbidden is None:
            raise argparse.ArgumentError(None, "h_free needs --forbidden n:u-v,u-v,...")
        return forbidden
    if name == "k_colorable":
        if colors is None:
            raise argparse.ArgumentError(None, "k_colorable needs --colors")
        return PropertySpec.k_colorable(colors)
    raise argparse.ArgumentError(None, f"unknown property {name!r}")


def cmd_gen(args) -> int:
    G = build_from_spec(args.family, _parse_params(args.param), args.seed).materialize()
    if args.out:
        save_graph(G, args.out)
    else:
        print(graph_to_json(G))
    return 0


def cmd_sample(args) -> int:
    G = load_graph(args.graph)
    if args.oracle == "rn":
        oracle = RadonNikodymOracle(G, args.r, args.t, seed=args.seed)
        # the index picks the smallest root of each orbit, so the roots need no sort
        types = oracle.index.types(oracle.sample_roots(args.queries))
        hexes = oracle.index.hex_keys()
        counts = {hexes[i]: c for i, c in enumerate(np.bincount(types).tolist()) if c}
    else:
        from .balls import canonicalize

        rng = np.random.Generator(philox(args.seed))
        counts = Counter()
        tally = Counter(uniform_query(G, args.r, rng, t=args.t) for _ in range(args.queries))
        for ball, c in tally.items():
            counts[canonicalize(ball).hex()] += c
    lines = (json.dumps({"key": k, "count": c}, sort_keys=True) for k, c in sorted(counts.items()))
    _write("\n".join(lines), args.out)
    return 0


def cmd_stats(args) -> int:
    if args.mode == "empirical" and args.queries < 1:
        raise argparse.ArgumentError(None, "--mode empirical needs --queries of at least 1")
    G = load_graph(args.graph)
    if args.mode == "exact":
        profile = stats_profile(G, args.rmax, args.t)
    else:
        profile = empirical_profile(G, args.rmax, args.t, args.queries, args.seed)
    _write(profile_to_json(profile, args.mode), args.out)
    return 0


def cmd_distance(args) -> int:
    if args.stats_a and args.stats_b:
        a, b = load_profile(args.stats_a), load_profile(args.stats_b)
        _emit({"statistical_distance": statistical_distance(a, b, args.rmax)}, args.out)
        return 0
    if not args.graph or not args.property:
        raise argparse.ArgumentError(None, "need either --stats-a/--stats-b or --graph/--property")
    G = load_graph(args.graph)
    P = _property_from_name(args.property, args.forbidden, args.colors)
    if args.absolute:
        value = absolute_distance(G, P, K=args.K)
        _emit({"absolute_distance": value, "K": args.K}, args.out)
    else:
        value, witness = distance_to_property(G, P, return_witness=True)
        _emit(
            {"distance": value, "witness_deletion_set": [list(e) for e in witness]},
            args.out,
        )
    return 0


def cmd_partition(args) -> int:
    G = load_graph(args.graph)
    if args.cover:
        cert = build_uniform_cover(G, args.epsilon, grid_dims=args.grid_dims)
    else:
        cert = find_weighted_partition(G, args.epsilon, K_target=args.k_target)
    _emit(cert.to_json_dict(), args.out)
    return 0


def cmd_estimate(args) -> int:
    G = load_graph(args.graph)
    if args.what == "independence":
        J, value, guaranteed = independent_set_estimate(G, args.epsilon, seed=args.seed)
        _emit({"value": value, "witness_size": len(J), "guaranteed": guaranteed}, args.out)
    else:
        _emit({"value": estimate_matching(G, args.epsilon, seed=args.seed)}, args.out)
    return 0


def cmd_test(args) -> int:
    G = load_graph(args.graph)
    P = _property_from_name(args.property, args.forbidden, args.colors)
    if args.observable:
        verdict = observable_test(G, P, args.epsilon)
    else:
        verdict = test_property(G, P, args.epsilon, seed=args.seed)
    _emit(
        {
            "verdict": verdict.verdict,
            "violating_fraction": verdict.violating_fraction,
            "params": verdict.params,
            "evidence": {str(k): v for k, v in verdict.evidence.items()},
        },
        args.out,
    )
    return EXIT_REJECT if verdict.verdict == "REJECT" else 0


def cmd_observe(args) -> int:
    G = load_graph(args.graph)
    table = observe(G, args.s)
    _emit(
        {
            "depth": table.depth,
            "degree_bound": table.degree_bound,
            "entries": dict(sorted(table.entries.items())),
        },
        args.out,
    )
    return 0


def cmd_scenario(args) -> int:
    defaults = {
        "seed": args.seed, "output_path": args.out or "report.jsonl", "threads": args.threads,
    }
    if args.config:
        cfg = load_config(args.config, **defaults)
    elif args.name:
        cfg = ExperimentConfig(scenario=args.name, params=_parse_params(args.param), **defaults)
    else:
        raise argparse.ArgumentError(None, "need --name or --config")
    path = run_scenario(cfg)
    if args.csv:
        report_to_csv(path, args.csv)
    print(path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="rnlab",
        description="Sampling, statistics, and testing on weighted bounded-degree graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, seed=True):
        """--out and the command's function; --seed where it draws randomness."""
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    common(p, cmd_gen)

    p = sub.add_parser("sample", help="draw oracle queries, count ball keys")
    p.add_argument("--graph", required=True)
    p.add_argument("--oracle", choices=["rn", "uniform"], default="rn")
    p.add_argument("--r", type=_count, default=2)
    p.add_argument("--t", type=_count, default=2)
    p.add_argument("--queries", type=_count, default=1000)
    common(p, cmd_sample)

    p = sub.add_parser("stats", help="ball statistics profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--rmax", type=_count, default=3)
    p.add_argument("--t", type=_count, default=2)
    p.add_argument("--queries", type=_count, default=10_000)
    common(p, cmd_stats)

    p = sub.add_parser("distance", aliases=["dist"], help="statistical or property distance")
    p.add_argument("--stats-a", dest="stats_a")
    p.add_argument("--stats-b", dest="stats_b")
    p.add_argument("--rmax", type=_positive, default=3)
    p.add_argument("--graph")
    p.add_argument("--property")
    p.add_argument("--forbidden", type=_forbidden, metavar="N:U-V,...")
    p.add_argument("--colors", type=_positive)
    p.add_argument("--absolute", action="store_true")
    p.add_argument("--K", type=float, default=2.0)
    common(p, cmd_distance, seed=False)

    p = sub.add_parser("partition", help="hyperfinite removal certificates")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--k-target", dest="k_target", type=_positive, default=None)
    p.add_argument("--cover", action="store_true")
    p.add_argument("--grid-dims", dest="grid_dims", type=_grid_dims, metavar="ROWS,COLS")
    common(p, cmd_partition, seed=False)

    p = sub.add_parser("estimate", help="independence or matching estimators")
    p.add_argument("--what", choices=["independence", "matching"], required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    common(p, cmd_estimate)

    p = sub.add_parser("test", help="property tester (exit 3 on REJECT)")
    p.add_argument("--graph", required=True)
    p.add_argument("--property", required=True)
    p.add_argument("--forbidden", type=_forbidden, metavar="N:U-V,...")
    p.add_argument("--colors", type=_positive)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--observable", action="store_true")
    common(p, cmd_test)

    p = sub.add_parser("observe", help="induced-subgraph observation table")
    p.add_argument("--graph", required=True)
    p.add_argument("--s", type=_positive, required=True)
    common(p, cmd_observe, seed=False)

    p = sub.add_parser("scenario", help="run a canned experiment")
    p.add_argument("--name")
    p.add_argument("--config")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--csv")
    p.add_argument("--threads", type=_positive, default=1,
                   help="worker threads for row tasks; rows hold the interpreter "
                        "lock, so this is no faster, but the report must not change")
    common(p, cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            code = args.fn(args)
        except argparse.ArgumentError as e:  # a usage error found after parsing
            parser.error(str(e))
        except GraphError as e:
            _emit({"error": type(e).__name__, "message": str(e)}, args.out)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; pointing it at os.devnull leaves the
        # interpreter's last flush nothing to fail on, so no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as e:
        # input files are opened by readers that raise GraphError, so this
        # is an output path that cannot be written
        parser.error(f"cannot write {e.filename}: {e.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
