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
from typing import Mapping, NamedTuple, Sequence

from .errors import CycleDetected, NegativeCost, NoSourceSinkPath


_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse a rational exactly from a string, an integer or a Fraction.

    A decimal exponent beyond the interpreter's integer string limit
    (``sys.get_int_max_str_digits``) is refused before the integer is built;
    every malformed value, a zero denominator included, raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise ValueError(f"{value!r} must be a string or integer")
    if isinstance(value, str):
        exponent, limit = _EXPONENT.search(value), sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"{value!r} has a decimal exponent beyond {limit}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def parse_cost(value: str | int | Fraction) -> Fraction:
    """Parse an edge cost with :func:`parse_rational`; raises NegativeCost for negative values."""
    cost = parse_rational(value)
    if cost < 0:
        raise NegativeCost(f"negative edge cost {cost}")
    return cost


class Edge(NamedTuple):
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
        cost = sum(graph.arc_cost(u, v) for u, v in zip(seq, seq[1:]))
        return cls(seq, Fraction(cost, graph.unit), len(seq) - 1)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "cost": str(self.cost),
            "length": self.length,
        }


@dataclass(frozen=True)
class HopCostTable:
    """The non-dominated (length, cost) staircase of a vertex's paths to the sink.

    ``lengths`` strictly rise and ``costs`` strictly fall, so the cheapest
    path within k edges is the last step at or below length k.  ``costs`` are
    integer counts of 1/``graph.unit``.
    """

    lengths: tuple[int, ...]
    costs: tuple[int, ...]

    def at_most(self, k: int) -> int | None:
        i = bisect_right(self.lengths, k)
        return self.costs[i - 1] if i else None

    def cases(self, budget: int) -> tuple[int, int | None, int | None]:
        """Cheapest costs over any length, at most ``budget`` and fewer than
        ``budget`` edges: the lose, tie and win continuations.

        One bisect finds the tie entry; the win entry is the same one unless
        that entry has exactly ``budget`` edges, in which case it is the one
        before it.
        """
        lengths, costs = self.lengths, self.costs
        i = bisect_right(lengths, budget)
        if not i:
            return costs[-1], None, None
        if lengths[i - 1] < budget:
            return costs[-1], costs[i - 1], costs[i - 1]
        return costs[-1], costs[i - 1], costs[i - 2] if i > 1 else None


@dataclass(frozen=True)
class TaskGraph:
    """Validated, immutable weighted DAG with source and sink.

    Construct through :func:`validate`; every vertex of a validated graph lies
    on at least one source->sink path, so cheapest-path queries are total,
    and ``edges`` are sorted by (tail, head) position in ``vertices``.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str
    pruned: tuple[str, ...] = field(default=(), compare=False)

    @cached_property
    def arcs(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """Each vertex's out-edges as (head, cost in 1/unit), in head order:
        the integer view of the edges that the per-edge loops read."""
        unit = self.unit
        out: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for tail, head, cost in self.edges:
            out[tail].append((head, cost.numerator * (unit // cost.denominator)))
        return {v: tuple(arcs) for v, arcs in out.items()}

    @cached_property
    def unit(self) -> int:
        """The lcm of the edge-cost denominators: every path cost is a whole number of 1/unit."""
        return lcm(*{e.cost.denominator for e in self.edges})

    def arc_cost(self, u: str, v: str) -> int:
        """The cost of the edge u->v in 1/unit, read from ``arcs[u]``."""
        for head, cost in self.arcs.get(u, ()):
            if head == v:
                return cost
        raise KeyError(f"no edge {u}->{v}")

    def successors(self, v: str) -> tuple[tuple[str, int], ...]:
        """``arcs[v]``: v's (head, cost in 1/unit) pairs in head order."""
        return self.arcs[v]

    def edge_cost(self, u: str, v: str) -> Fraction:
        """The cost of the edge u->v as a Fraction: ``arc_cost(u, v)`` / ``unit``."""
        return Fraction(self.arc_cost(u, v), self.unit)

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        indeg = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            indeg[e.head] += 1
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        order: list[str] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for head, _ in self.arcs[v]:
                indeg[head] -= 1
                if indeg[head] == 0:
                    queue.append(head)
        if len(order) != len(self.vertices):
            raise CycleDetected("cycle among validated vertices")
        return tuple(order)

    @cached_property
    def hop_tables(self) -> dict[str, HopCostTable]:
        """Per-vertex staircases, each merged from its successors' staircases
        shifted by one edge (bicriteria label setting, Hansen 1980)."""
        tables = {self.sink: HopCostTable((0,), (0,))}
        arcs = self.arcs
        for v in reversed(self.topo_order):
            if v == self.sink:
                continue
            best: dict[int, int] = {}  # successor's length -> cheapest cost through v
            for head, edge in arcs[v]:
                table = tables[head]
                for length, cost in zip(table.lengths, table.costs):
                    cost += edge
                    if cost < best.get(length, cost + 1):
                        best[length] = cost
            lengths, costs = [], []
            for length in sorted(best):
                if not costs or best[length] < costs[-1]:
                    lengths.append(length + 1)
                    costs.append(best[length])
            tables[v] = HopCostTable(tuple(lengths), tuple(costs))
        return tables

    def cheapest_cost(self, v: str) -> Fraction:
        return Fraction(self.hop_tables[v].costs[-1], self.unit)

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
    copy; self loops count as cycles.  The work is on vertex positions in the
    input list: each tail's kept edges are emitted in head order, so the
    edges come out sorted by (tail, head) position without a global sort.
    """
    if not isinstance(data, Mapping):
        raise ValueError("graph description must be a JSON object")
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
        source = data["source"]
        sink = data["sink"]
    except KeyError as exc:
        raise ValueError(f"graph description missing key {exc}") from None
    if not (isinstance(raw_vertices, (list, tuple)) and isinstance(raw_edges, (list, tuple))):
        raise ValueError("graph vertices and edges must be lists")
    if not all(isinstance(v, str) for v in [*raw_vertices, source, sink]):
        raise ValueError("vertex ids must be strings")

    position = {v: i for i, v in enumerate(raw_vertices)}
    if len(position) != len(raw_vertices):
        raise ValueError("duplicate vertex ids")
    if source not in position or sink not in position:
        raise NoSourceSinkPath("source or sink not among vertices")
    if source == sink:
        raise NoSourceSinkPath("source equals sink")

    out: list[dict[int, Fraction]] = [{} for _ in raw_vertices]  # tail -> head -> cheapest cost
    parsed: dict[str, Fraction] = {}  # each distinct cost string is parsed once
    for item in raw_edges:
        try:
            tail, head, raw = item["from"], item["to"], item["cost"]
        except TypeError:
            raise ValueError(f"edge {item!r} must be a JSON object") from None
        except KeyError as exc:
            raise ValueError(f"edge {item!r} missing key {exc}") from None
        if not (isinstance(tail, str) and tail in position
                and isinstance(head, str) and head in position):
            raise ValueError(f"edge {tail}->{head} uses unknown vertex")
        if tail == head:
            raise CycleDetected(f"self loop at {tail}")
        if isinstance(raw, str):
            cost = parsed.get(raw)
            if cost is None:
                cost = parsed[raw] = parse_cost(raw)
        else:
            cost = parse_cost(raw)
        heads, h = out[position[tail]], position[head]
        if h not in heads or cost < heads[h]:
            heads[h] = cost

    back: list[list[int]] = [[] for _ in raw_vertices]
    for tail, heads in enumerate(out):
        for h in heads:
            back[h].append(tail)

    def reachable(start: int, adj) -> list[bool]:
        seen = [False] * len(raw_vertices)
        seen[start] = True
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return seen

    from_source = reachable(position[source], out)
    if not from_source[position[sink]]:
        raise NoSourceSinkPath(f"no path from {source} to {sink}")
    keep = [a and b for a, b in zip(from_source, reachable(position[sink], back))]

    vertices = tuple(v for v, kept in zip(raw_vertices, keep) if kept)
    pruned = tuple(v for v, kept in zip(raw_vertices, keep) if not kept)
    edges = tuple(
        Edge(raw_vertices[tail], raw_vertices[head], heads[head])
        for tail, heads in enumerate(out) if keep[tail]
        for head in sorted(heads) if keep[head]
    )

    graph = TaskGraph(vertices, edges, source, sink, pruned)
    graph.topo_order  # raises CycleDetected on cyclic survivors
    return graph


def load_graph(text: str) -> TaskGraph:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("graph description nests too deeply") from None
    return validate(data)


def first_path(graph: TaskGraph, length: int, cost: int, suffix_cost) -> PathRecord:
    """The first source->sink path in vertex order with ``length`` edges and ``cost``.

    ``suffix_cost(v, k)`` is the cheapest v->sink cost over paths of exactly k
    edges, or of at most k edges when no quicker path costs as little.  Both
    costs are in 1/``graph.unit``.
    """
    seq = [graph.source]
    remaining, budget = cost, length
    while seq[-1] != graph.sink:
        for head, edge in graph.arcs[seq[-1]]:
            rest = suffix_cost(head, budget - 1)
            if rest is not None and edge + rest == remaining:
                seq.append(head)
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
        for head, edge in graph.arcs[v]:
            for length, cost in exact[head].items():
                cand = edge + cost
                if length + 1 not in row or cand < row[length + 1]:
                    row[length + 1] = cand
    return {
        k: first_path(graph, k, total, lambda v, b: exact[v].get(b))
        for k, total in sorted(exact[graph.source].items())
    }
