"""Spans and counters for the traced run.

Spans are recorded from the benchmark's own files: the benchmark calls the
program through wrapped names, and the few calls that cross from one layer to
another inside the program are wrapped at the module attribute or class
attribute where the caller looks the name up.  Nothing under ``src/`` is
edited; :func:`install` patches and :meth:`Patches.undo` restores.

A span is (name, start, end, parent).  Self time is a span's duration minus
the durations of its direct children; it is accumulated as spans close, and
the span records themselves are kept in compact arrays and written out when
the run ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

# Layer of a span or counter: the part of its name before the first dot.
LAYERS = ("graph", "agents", "equilibria", "intervals", "oracle", "bne", "verify", "cli")

# tracemalloc makes the hop-table build several times slower, so it runs only
# on copies built for this purpose, outside every span, a few times per run.
HOP_TABLE_PROBES = 2


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.hop_tables_peak_mb = 0.0
        self.probes_left = HOP_TABLE_PROBES
        self.pending_probe = None
        self.build_hop_tables = None

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append([len(self.start) - 1, 0.0])

    def _close(self) -> None:
        now = time.perf_counter()
        index, child_s = self._stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        self.self_s[self.names[self.name_id[index]]] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def record(self, name: str, seconds: float) -> None:
        """A top-level span measured elsewhere, such as in a child process."""
        self._open(name)
        self.start[-1] = time.perf_counter() - seconds
        self._close()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, args)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self, result, args)
            return result

        return traced

    def request_probe(self, graph) -> None:
        if self.probes_left > 0 and self.pending_probe is None:
            self.pending_probe = graph

    def run_probe(self) -> None:
        """tracemalloc peak over the first ``hop_tables`` access of a fresh
        copy of the graph last requested; call it outside every span and
        every timed section."""
        graph, self.pending_probe = self.pending_probe, None
        if graph is None:
            return
        self.probes_left -= 1
        copy = type(graph)(graph.vertices, graph.edges, graph.source, graph.sink, graph.pruned)
        tracemalloc.start()
        try:
            self.build_hop_tables(copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.hop_tables_peak_mb = max(self.hop_tables_peak_mb, peak / 2**20)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def spans_json(self, limit: int) -> dict:
        n = min(limit, len(self.start))
        t0 = self.start[0] if n else 0.0
        return {
            "total": len(self.start),
            "written": n,
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": [
                [self.names[self.name_id[i]], round(self.start[i] - t0, 7),
                 round(self.end[i] - t0, 7), self.parent[i]]
                for i in range(n)
            ],
        }


def _count_traverse(tracer: Tracer, trace, args) -> None:
    tracer.add("agents.traverse_steps", len(trace.steps))
    tracer.add("agents.perceived_evals", sum(1 + len(s.alternatives) for s in trace.steps))


def _count_deviations(tracer: Tracer, result, args) -> None:
    graph, q = args[0], args[1]
    tracer.add("equilibria.deviations",
               sum(len(graph.successors(u)) - 1 for u in q.vertices[:-1]))


def _count_breakpoints(tracer: Tracer, points, args) -> None:
    tracer.add("equilibria.breakpoints", len(points))


def _count_one(name):
    def count(tracer: Tracer, result, args) -> None:
        tracer.add(name)
    return count


def _count_len(name):
    def count(tracer: Tracer, result, args) -> None:
        tracer.add(name, len(result))
    return count


def _count_cases(tracer: Tracer, report, args) -> None:
    tracer.add("verify.cases", report["cases"])


class Patches:
    """Module and class attributes replaced by traced wrappers."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# Public functions the benchmark calls, by layer span name.  Each entry is
# (span name, module name, attribute, counter).  The same function is also
# replaced wherever another module of the program imported it by name.
_FUNCTIONS = (
    ("graph.validate", "graph", "load_graph", None),
    ("graph.validate", "graph", "validate", None),
    ("graph.cheapest_per_length", "graph", "cheapest_per_length", None),
    ("agents.traverse", "agents", "traverse", _count_traverse),
    ("agents.cost_ratio", "agents", "cost_ratio", None),
    ("equilibria.check_symmetric_ne", "equilibria", "check_symmetric_ne", None),
    ("equilibria.feasible_rewards", "equilibria", "feasible_rewards", _count_deviations),
    ("equilibria.classify_unbiased", "equilibria", "classify_unbiased", None),
    ("equilibria.dominant_path_reward", "equilibria", "dominant_path_reward", None),
    ("equilibria.algorithm_breakpoints", "equilibria", "algorithm_breakpoints",
     _count_breakpoints),
    ("oracle.enumerate_paths", "oracle", "enumerate_paths", _count_len("oracle.paths_enumerated")),
    ("oracle.brute_traverse", "oracle", "brute_traverse", None),
    ("oracle.brute_perceived", "oracle", "brute_perceived_min",
     _count_one("oracle.brute_perceived_calls")),
    ("bne.fixed_point", "bne", "fixed_point_p", None),
    ("bne.share_factor", "bne", "reward_share_factor", _count_one("bne.share_factor_calls")),
    ("bne.solve_fan", "bne", "solve_fan_bne", None),
    ("bne.solve_fan", "bne", "solve_fan_bne_multi", None),
    ("verify.alg1", "verify", "suite_alg1", _count_cases),
    ("verify.prop1", "verify", "suite_prop1", _count_cases),
    ("verify.thm1", "verify", "suite_thm1", _count_cases),
    ("verify.thm2", "verify", "suite_thm2", _count_cases),
    ("verify.bne", "verify", "suite_bne", _count_cases),
    ("cli.command", "cli", "run", None),
)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced name in the loaded modules of the program."""
    import sys

    patches = Patches()
    modules = {name: sys.modules[f"biasgraph.{name}"]
               for name in ("graph", "agents", "equilibria", "intervals", "instances",
                            "oracle", "bne", "verify", "cli")
               if f"biasgraph.{name}" in sys.modules}
    for span, home, attr, count in _FUNCTIONS:
        if home not in modules:
            continue
        original = getattr(modules[home], attr)
        traced = tracer.wrap(span, original, count)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                patches.set(module, attr, traced)

    interval_set = modules["intervals"].IntervalSet
    patches.set(interval_set, "intersect",
                tracer.wrap("intervals.intersect", interval_set.intersect,
                            _count_one("intervals.intersect_calls")))

    graph_cls = modules["graph"].TaskGraph
    prop = graph_cls.__dict__["hop_tables"]
    build = prop.func

    def hop_tables(graph):
        tracer._open("graph.hop_tables")
        try:
            tables = build(graph)
        finally:
            tracer._close()
        tracer.request_probe(graph)
        return tables

    traced_prop = functools.cached_property(hop_tables)
    traced_prop.__set_name__(graph_cls, "hop_tables")
    patches.set(graph_cls, "hop_tables", traced_prop)
    tracer.build_hop_tables = build
    return patches
