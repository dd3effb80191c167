"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions in the module namespace
where their callers look them up, records a span per call (name, parent,
start, end) and derives self time by subtracting the time of nested traced
calls.  Nothing inside ``src/`` changes; ``uninstall`` puts every original
back.  Counters are bumped at the same boundaries.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

import rnlab.balls
import rnlab.cli
import rnlab.graphs
import rnlab.local
import rnlab.oracles
import rnlab.partitions
import rnlab.statistics
import rnlab.testers

# Spans are kept for this many ops at the start of a run; later ops only
# feed the aggregates, so a long traced run stays small in memory.
SPAN_OPS = 3
# Distinct canonical keys are counted over this many ops at the start of a
# run, so that calls per key does not grow with how many ops a run fits.
KEY_WINDOW_OPS = 50


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(float)  # at reference speed, see end_op
        self._op_self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []
        self.op = -1
        self.ops = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._window_keys: set[bytes] = set()
        self._window_canon_calls = 0
        self._patches: list[tuple] = []

    # -- op boundaries -------------------------------------------------------
    def begin_op(self, index: int) -> None:
        self.op = index
        self.ops += 1

    def end_op(self, scale: float = 1.0) -> None:
        """Fold the op's self times in, scaled like the op's latency."""
        for name, ns in self._op_self_ns.items():
            self.self_ns[name] += ns * scale
        self._op_self_ns.clear()

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name, fn, on_call=None, on_result=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = on_call(args, kwargs) if on_call else name
            span_id = self._next_span
            self._next_span += 1
            parent = self._stack[-1][1] if self._stack else None
            frame = [0, span_id]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                dt = t1 - t0
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[span_name] += 1
                self._op_self_ns[span_name] += dt - frame[0]
                if self.ops <= SPAN_OPS:
                    self.spans.append((self.op, span_id, parent, span_name, t0, t1))
            if on_result:
                on_result(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def install(self) -> None:
        O = rnlab.oracles.RadonNikodymOracle
        # graphs: the CLI binds load_graph; graph_from_json_dict binds build_graph
        self._patch(rnlab.cli, "load_graph", "graphs.load_graph")
        self._patch(rnlab.graphs, "build_graph", "graphs.build_graph")
        # oracles: one class object, bound by testers, statistics and the CLI
        self._patch(O, "__init__", "oracles.init")
        self._patch(O, "sample_roots", "oracles.sample_roots", on_result=self._count_queries)
        self._patch(O, "ball_at", "oracles.ball_at")
        # balls: extract_ball is bound by oracles and statistics; canonicalize
        # by testers and statistics, and imported from rnlab.balls inside
        # the CLI's sample command at call time
        for mod in (rnlab.oracles, rnlab.statistics):
            self._patch(mod, "extract_ball", "balls.extract_ball", on_result=self._count_ball)
        for mod in (rnlab.testers, rnlab.statistics, rnlab.balls):
            self._patch(mod, "canonicalize", "balls.canonicalize",
                        on_call=self._canon_kind, on_result=self._count_key)
        # testers
        self._patch(rnlab.testers, "test_property", "testers.test_property")
        self._patch(rnlab.testers, "ball_violates", "testers.ball_violates")
        # statistics: stats_profile binds exact_stats in its own module
        self._patch(rnlab.statistics, "exact_stats", "statistics.exact_stats",
                    on_result=self._count_support)
        # partitions: bound by local and called by the benchmark
        for mod in (rnlab.local, rnlab.partitions):
            self._patch(mod, "find_weighted_partition", "partitions.find_weighted_partition",
                        on_error=self._count_infeasible)
        self._patch(rnlab.partitions, "verify_weighted_partition", "partitions.verify")
        # solvers: bound by local
        self._patch(rnlab.local, "component_mwis", "solvers.component_mwis")
        self._patch(rnlab.local, "matching_size", "solvers.matching_size")
        # local and cli entry points, called by the benchmark
        self._patch(rnlab.local, "local_independent_set", "local.local_independent_set")
        self._patch(rnlab.local, "estimate_matching", "local.estimate_matching")
        self._patch(rnlab.cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counter hooks -------------------------------------------------------
    def _count_queries(self, args, kwargs, result) -> None:
        self.counters["oracles.queries"] += len(result)

    def _count_ball(self, args, kwargs, ball) -> None:
        self.counters["balls.ball_vertices"] += ball.n

    @staticmethod
    def _canon_kind(args, kwargs) -> str:
        ball = args[0] if args else kwargs["ball"]
        return "balls.canonicalize_tree" if ball.is_tree() else "balls.canonicalize_cyclic"

    def _count_key(self, args, kwargs, key) -> None:
        if self.ops <= KEY_WINDOW_OPS:
            self._window_canon_calls += 1
            self._window_keys.add(key.data)

    def _count_support(self, args, kwargs, stats) -> None:
        self.counters["statistics.support_size"] += stats.support_size()

    def _count_infeasible(self, exc) -> None:
        if isinstance(exc, rnlab.partitions.PartitionInfeasible):
            self.counters["partitions.infeasible"] += 1

    # -- report --------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures per op (times in ms of self time)."""
        ops = max(self.ops, 1)

        def ms(name):
            return self.self_ns[name] / 1e6 / ops

        def per_op(count):
            return count / ops

        canon_calls = self.calls["balls.canonicalize_tree"] + self.calls["balls.canonicalize_cyclic"]
        keys = len(self._window_keys)
        return {
            "graphs.load_graph_ms": (ms("graphs.load_graph"), "ms/op"),
            "graphs.build_graph_ms": (ms("graphs.build_graph"), "ms/op"),
            "graphs.build_graph_calls": (per_op(self.calls["graphs.build_graph"]), "count/op"),
            "oracles.init_ms": (ms("oracles.init"), "ms/op"),
            "oracles.sample_roots_ms": (ms("oracles.sample_roots"), "ms/op"),
            "oracles.queries": (per_op(self.counters["oracles.queries"]), "count/op"),
            "oracles.ball_at_calls": (per_op(self.calls["oracles.ball_at"]), "count/op"),
            "balls.extract_ball_ms": (ms("balls.extract_ball"), "ms/op"),
            "balls.extract_ball_calls": (per_op(self.calls["balls.extract_ball"]), "count/op"),
            "balls.ball_vertices": (per_op(self.counters["balls.ball_vertices"]), "count/op"),
            "balls.canonicalize_tree_ms": (ms("balls.canonicalize_tree"), "ms/op"),
            "balls.canonicalize_cyclic_ms": (ms("balls.canonicalize_cyclic"), "ms/op"),
            "balls.canonicalize_calls": (per_op(canon_calls), "count/op"),
            "balls.distinct_keys": (float(keys), "count"),
            "balls.canonicalize_per_key": (self._window_canon_calls / keys if keys else 0.0, "calls/key"),
            "testers.test_property_ms": (ms("testers.test_property"), "ms/op"),
            "testers.ball_violates_ms": (ms("testers.ball_violates"), "ms/op"),
            "testers.ball_violates_calls": (per_op(self.calls["testers.ball_violates"]), "count/op"),
            "statistics.exact_stats_ms": (ms("statistics.exact_stats"), "ms/op"),
            "statistics.support_size": (per_op(self.counters["statistics.support_size"]), "count/op"),
            "partitions.find_weighted_partition_ms": (ms("partitions.find_weighted_partition"), "ms/op"),
            "partitions.find_calls": (per_op(self.calls["partitions.find_weighted_partition"]), "count/op"),
            "partitions.infeasible": (per_op(self.counters["partitions.infeasible"]), "count/op"),
            "partitions.verify_ms": (ms("partitions.verify"), "ms/op"),
            "solvers.component_mwis_ms": (ms("solvers.component_mwis"), "ms/op"),
            "solvers.component_mwis_calls": (per_op(self.calls["solvers.component_mwis"]), "count/op"),
            "solvers.matching_size_ms": (ms("solvers.matching_size"), "ms/op"),
            "local.local_independent_set_ms": (ms("local.local_independent_set"), "ms/op"),
            "local.estimate_matching_ms": (ms("local.estimate_matching"), "ms/op"),
            "cli.main_ms": (ms("cli.main"), "ms/op"),
        }

    def dump(self) -> dict:
        """Aggregates plus the spans of the first ops, for a trace file."""
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "counters": dict(self.counters),
            "spans": [
                {"op": op, "id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}
                for op, sid, parent, name, t0, t1 in self.spans
            ],
        }
