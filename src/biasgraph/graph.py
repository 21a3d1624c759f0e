"""Task-graph core: validation, hop-bounded cheapest paths, per-length minima.

A task graph is a weighted DAG with a designated source and sink.  All costs
are exact rationals (``fractions.Fraction``) parsed from strings such as
``"2"``, ``"0.5"`` or ``"3/2"``, so every comparison downstream is bit-exact.
Internally every path cost is an integer count of 1/``unit``, the lcm of the
edge-cost denominators; public functions return ``Fraction``s.
Vertices carry a stable total order (their position in the input list); all
tie-breaking between equal-cost alternatives is lexicographic in that order.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .errors import CycleDetected, NegativeCost, NoSourceSinkPath


_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_cost(value: str | int | float | Fraction) -> Fraction:
    """Parse an edge cost exactly; raises NegativeCost for negative values.

    A decimal exponent beyond the interpreter's integer string limit
    (``sys.get_int_max_str_digits``) is refused before the integer is built.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise ValueError(f"cost {value!r} must be a string or integer")
    if isinstance(value, str):
        exponent, limit = _EXPONENT.search(value), sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"cost {value!r} has a decimal exponent beyond {limit}")
    cost = Fraction(value)
    if cost < 0:
        raise NegativeCost(f"negative edge cost {cost}")
    return cost


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    cost: Fraction


@dataclass(frozen=True)
class PathRecord:
    """A concrete path: vertex sequence plus cached cost and edge count."""

    vertices: tuple[str, ...]
    cost: Fraction
    length: int

    @classmethod
    def from_vertices(cls, graph: "TaskGraph", seq: Sequence[str]) -> "PathRecord":
        seq = tuple(seq)
        if len(seq) < 2:
            raise ValueError("a path needs at least one edge")
        cost = sum(graph.units(graph.edge_cost(u, v)) for u, v in zip(seq, seq[1:]))
        return cls(seq, Fraction(cost, graph.unit), len(seq) - 1)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "cost": str(self.cost),
            "length": self.length,
        }


@dataclass(frozen=True)
class HopCostTable:
    """Cheapest v->t costs under hop budgets: any, at most k, fewer than k edges.

    Stored as the non-dominated (length, cost) staircase of v->t paths:
    ``lengths`` strictly rise and ``costs`` strictly fall, so the cheapest
    path within k edges is the last step at or below length k.  ``costs`` are
    integer counts of 1/``unit``; the ``cost_*`` methods return Fractions.
    """

    lengths: tuple[int, ...]
    costs: tuple[int, ...]
    unit: int

    def at_most(self, k: int) -> int | None:
        i = bisect_right(self.lengths, k)
        return self.costs[i - 1] if i else None

    def cases(self, budget: int) -> tuple[int, int | None, int | None]:
        """Cheapest costs over any length, at most ``budget`` and fewer than
        ``budget`` edges, in 1/unit: the lose, tie and win continuations."""
        return self.costs[-1], self.at_most(budget), self.at_most(budget - 1)

    def cost_any(self) -> Fraction:
        return Fraction(self.costs[-1], self.unit)

    def cost_at_most(self, k: int) -> Fraction | None:
        cost = self.at_most(k)
        return None if cost is None else Fraction(cost, self.unit)

    def cost_fewer(self, k: int) -> Fraction | None:
        return self.cost_at_most(k - 1)


@dataclass(frozen=True)
class TaskGraph:
    """Validated, immutable weighted DAG with source and sink.

    Construct through :func:`validate`; every vertex of a validated graph lies
    on at least one source->sink path, so cheapest-path queries are total.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str
    pruned: tuple[str, ...] = field(default=(), compare=False)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
        return {v: tuple(sorted(es, key=lambda e: self.index[e.head])) for v, es in out.items()}

    @cached_property
    def edge_costs(self) -> dict[tuple[str, str], Fraction]:
        return {(e.tail, e.head): e.cost for e in self.edges}

    @cached_property
    def unit(self) -> int:
        """The lcm of the edge-cost denominators: every path cost is a whole number of 1/unit."""
        return lcm(*{e.cost.denominator for e in self.edges})

    def units(self, cost: Fraction) -> int:
        """An edge cost, or a sum of them, as an integer count of 1/unit."""
        return cost.numerator * (self.unit // cost.denominator)

    def successors(self, v: str) -> tuple[Edge, ...]:
        return self.adjacency[v]

    def edge_cost(self, u: str, v: str) -> Fraction:
        try:
            return self.edge_costs[(u, v)]
        except KeyError:
            raise KeyError(f"no edge {u}->{v}") from None

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            indeg[e.head] += 1
        ready = sorted((v for v in self.vertices if indeg[v] == 0), key=self.index.__getitem__)
        queue = deque(ready)
        order: list[str] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for e in self.adjacency[v]:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        if len(order) != len(self.vertices):
            raise CycleDetected("cycle among validated vertices")
        return tuple(order)

    @cached_property
    def hop_tables(self) -> dict[str, HopCostTable]:
        """Per-vertex staircases, each merged from its successors' staircases
        shifted by one edge (bicriteria label setting, Hansen 1980)."""
        unit = self.unit
        tables = {self.sink: HopCostTable((0,), (0,), unit)}
        for v in reversed(self.topo_order):
            if v == self.sink:
                continue
            best: dict[int, int] = {}  # successor's length -> cheapest cost through v
            for e in self.adjacency[v]:
                edge = self.units(e.cost)
                head = tables[e.head]
                for length, cost in zip(head.lengths, head.costs):
                    cost += edge
                    if cost < best.get(length, cost + 1):
                        best[length] = cost
            lengths, costs = [], []
            for length in sorted(best):
                if not costs or best[length] < costs[-1]:
                    lengths.append(length + 1)
                    costs.append(best[length])
            tables[v] = HopCostTable(tuple(lengths), tuple(costs), unit)
        return tables

    def hop_table(self, v: str) -> HopCostTable:
        return self.hop_tables[v]

    def cheapest_cost(self, v: str) -> Fraction:
        return self.hop_tables[v].cost_any()

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"from": e.tail, "to": e.head, "cost": str(e.cost)} for e in self.edges
            ],
            "source": self.source,
            "sink": self.sink,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def validate(data: Mapping) -> TaskGraph:
    """Build a canonical TaskGraph from a raw description.

    Vertices that lie on no source->sink path are pruned (recorded in
    ``graph.pruned``) rather than rejected.  Parallel edges keep the cheapest
    copy; self loops count as cycles.
    """
    if not isinstance(data, Mapping):
        raise ValueError("graph description must be a JSON object")
    try:
        raw_vertices = list(data["vertices"])
        raw_edges = list(data["edges"])
        source = data["source"]
        sink = data["sink"]
    except KeyError as exc:
        raise ValueError(f"graph description missing key {exc}") from None
    except TypeError:
        raise ValueError("graph vertices and edges must be lists") from None
    if not all(isinstance(v, str) for v in [*raw_vertices, source, sink]):
        raise ValueError("vertex ids must be strings")

    if len(set(raw_vertices)) != len(raw_vertices):
        raise ValueError("duplicate vertex ids")
    known = set(raw_vertices)
    if source not in known or sink not in known:
        raise NoSourceSinkPath("source or sink not among vertices")
    if source == sink:
        raise NoSourceSinkPath("source equals sink")

    best: dict[tuple[str, str], Fraction] = {}
    parsed: dict[str, Fraction] = {}  # each distinct cost string is parsed once
    for item in raw_edges:
        try:
            tail, head = item["from"], item["to"]
        except TypeError:
            raise ValueError(f"edge {item!r} must be a JSON object") from None
        if not (isinstance(tail, str) and tail in known and isinstance(head, str) and head in known):
            raise ValueError(f"edge {tail}->{head} uses unknown vertex")
        if tail == head:
            raise CycleDetected(f"self loop at {tail}")
        raw = item["cost"]
        if isinstance(raw, str):
            cost = parsed.get(raw)
            if cost is None:
                cost = parsed[raw] = parse_cost(raw)
        else:
            cost = parse_cost(raw)
        key = (tail, head)
        if key not in best or cost < best[key]:
            best[key] = cost

    fwd: dict[str, list[str]] = {v: [] for v in raw_vertices}
    back: dict[str, list[str]] = {v: [] for v in raw_vertices}
    for (tail, head) in best:
        fwd[tail].append(head)
        back[head].append(tail)

    def reachable(start: str, adj: dict[str, list[str]]) -> set[str]:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    from_source = reachable(source, fwd)
    if sink not in from_source:
        raise NoSourceSinkPath(f"no path from {source} to {sink}")
    to_sink = reachable(sink, back)
    keep = from_source & to_sink

    vertices = tuple(v for v in raw_vertices if v in keep)
    pruned = tuple(v for v in raw_vertices if v not in keep)
    order = {v: i for i, v in enumerate(vertices)}
    edges = tuple(
        Edge(tail, head, cost)
        for (tail, head), cost in sorted(best.items(), key=lambda kv: (order.get(kv[0][0], -1), order.get(kv[0][1], -1)))
        if tail in keep and head in keep
    )

    graph = TaskGraph(vertices, edges, source, sink, pruned)
    graph.topo_order  # raises CycleDetected on cyclic survivors
    return graph


def load_graph(text: str) -> TaskGraph:
    return validate(json.loads(text))


def hop_bounded_cheapest(graph: TaskGraph, v: str, k: int | None = None) -> Fraction | None:
    """Cost of the cheapest v->sink path using at most k edges (None = unbounded)."""
    table = graph.hop_table(v)
    if k is None:
        return table.cost_any()
    if k < 0:
        raise ValueError("hop bound must be nonnegative or None")
    return table.cost_at_most(k)


def first_path(graph: TaskGraph, length: int, cost: int, suffix_cost) -> PathRecord:
    """The first source->sink path in vertex order with ``length`` edges and ``cost``.

    ``suffix_cost(v, k)`` is the cheapest v->sink cost over paths of exactly k
    edges, or of at most k edges when no quicker path costs as little.  Both
    costs are in 1/``graph.unit``.
    """
    seq = [graph.source]
    remaining, budget = cost, length
    while seq[-1] != graph.sink:
        for e in graph.successors(seq[-1]):
            rest = suffix_cost(e.head, budget - 1)
            if rest is not None and graph.units(e.cost) + rest == remaining:
                seq.append(e.head)
                remaining, budget = rest, budget - 1
                break
        else:  # pragma: no cover - the tables guarantee a witness
            raise AssertionError("no witness for the requested length and cost")
    return PathRecord(tuple(seq), Fraction(cost, graph.unit), length)


def cheapest_per_length(graph: TaskGraph) -> dict[int, PathRecord]:
    """One cheapest source->sink path for every feasible exact length.

    Ties are broken by the lexicographically smallest vertex sequence in the
    graph's vertex order.  Unlike the hop tables this keeps dominated lengths,
    so it runs its own exact-length DP over the lengths each vertex can reach.
    """
    exact: dict[str, dict[int, int]] = {graph.sink: {0: 0}}
    for v in reversed(graph.topo_order):
        row = exact.setdefault(v, {})
        for e in graph.adjacency[v]:
            edge = graph.units(e.cost)
            for length, cost in exact[e.head].items():
                cand = edge + cost
                if length + 1 not in row or cand < row[length + 1]:
                    row[length + 1] = cand
    return {
        k: first_path(graph, k, total, lambda v, b: exact[v].get(b))
        for k, total in sorted(exact[graph.source].items())
    }
