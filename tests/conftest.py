from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb, gcd
from typing import Mapping

import pytest

from biasgraph import (AgentConfig, FanSpec, Interval, IntervalSet, TaskGraph, TraversalState, make_fan,
                       make_named_instance, validate)
from biasgraph.errors import CycleDetected, NoSourceSinkPath
from biasgraph.graph import Edge, parse_cost
from biasgraph.oracle import random_layered_graph


def build_graph(edges, source="s", sink="t", vertices=None) -> TaskGraph:
    """Edges as (tail, head, cost) triples; vertex order inferred if not given."""
    if vertices is None:
        vertices = []
        for tail, head, _ in edges:
            for v in (tail, head):
                if v not in vertices:
                    vertices.append(v)
    return validate({
        "vertices": list(vertices),
        "edges": [{"from": t, "to": h, "cost": str(c)} for t, h, c in edges],
        "source": source,
        "sink": sink,
    })


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_graph(rng) -> TaskGraph:
    """A random layered graph whose edge i costs n / (p_i * p_{i+7}) over the
    odd primes up to 47, so seven edges carry every prime as a denominator."""
    base = random_layered_graph(rng, min_interior=2)
    edges = []
    for i, e in enumerate(base.edges):
        d = PRIMES[i % 7] * PRIMES[i % 7 + 7]
        n = rng.randrange(1, 3 * d)
        while gcd(n, d) != 1:
            n += 1
        edges.append({"from": e.tail, "to": e.head, "cost": f"{n}/{d}"})
    return validate({"vertices": list(base.vertices), "edges": edges,
                     "source": base.source, "sink": base.sink})


def with_twin(graph: TaskGraph, rng) -> TaskGraph:
    """The graph plus a copy w' of one interior vertex w, with w's edges and
    costs, listed right after w: every predecessor of w perceives w and w'
    alike, so its choice between them is a tie."""
    interior = [v for v in graph.vertices if v not in (graph.source, graph.sink)]
    w = rng.choice(interior)
    data = graph.to_json_dict()
    data["vertices"].insert(data["vertices"].index(w) + 1, w + "'")
    data["edges"] += [{**e, "from": w + "'"} for e in data["edges"] if e["from"] == w]
    data["edges"] += [{**e, "to": w + "'"} for e in data["edges"] if e["to"] == w]
    return validate(data)


def reference_staircases(graph: TaskGraph) -> dict[str, list[tuple[int, Fraction]]]:
    """Per vertex, the (length, cost) staircase by a plain Fraction DP: the
    cheapest cost of each exact length, then the lengths whose cost is below
    every shorter length's."""
    exact: dict[str, dict[int, Fraction]] = {graph.sink: {0: Fraction(0)}}
    for v in reversed(graph.topo_order):
        row = exact.setdefault(v, {})
        for e in graph.edges:
            if e.tail != v:
                continue
            for length, cost in exact[e.head].items():
                if length + 1 not in row or e.cost + cost < row[length + 1]:
                    row[length + 1] = e.cost + cost
    stairs = {}
    for v, row in exact.items():
        stairs[v] = []
        for length in sorted(row):
            if not stairs[v] or row[length] < stairs[v][-1][1]:
                stairs[v].append((length, row[length]))
    return stairs


def union(pieces) -> IntervalSet:
    """The canonical set covering the given closed intervals (``None``s are
    skipped): sorted, with overlapping or touching intervals merged."""
    merged: list[Interval] = []
    for piece in sorted((p for p in pieces if p is not None), key=lambda p: p.lo):
        last = merged[-1] if merged else None
        if last is not None and (last.hi is None or piece.lo <= last.hi):
            hi = None if last.hi is None or piece.hi is None else max(last.hi, piece.hi)
            merged[-1] = Interval(last.lo, hi)
        else:
            merged.append(piece)
    return IntervalSet(tuple(merged))


def binomial_inverse_share(p: float, m: int) -> float:
    """E[1/(N+1)] for N ~ Binomial(m, p), summed term by term over Fraction(p)
    and rounded once: the exact reference for ``expected_inverse_share``."""
    q = Fraction(p)
    return float(sum(comb(m, k) * q**k * (1 - q) ** (m - k) / (k + 1) for k in range(m + 1)))


def reference_validate(data: Mapping) -> TaskGraph:
    """The string-keyed validate with one global edge sort, kept as the
    reference the position-based ``validate`` must agree with."""
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
            tail, head, raw = item["from"], item["to"], item["cost"]
        except TypeError:
            raise ValueError(f"edge {item!r} must be a JSON object") from None
        except KeyError as exc:
            raise ValueError(f"edge {item!r} missing key {exc}") from None
        if not (isinstance(tail, str) and tail in known and isinstance(head, str) and head in known):
            raise ValueError(f"edge {tail}->{head} uses unknown vertex")
        if tail == head:
            raise CycleDetected(f"self loop at {tail}")
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


def hop_cost(graph: TaskGraph, v: str, k: int | None = None) -> Fraction | None:
    """The cheapest v->sink cost within k edges (None: any length), read from
    the integer staircase and scaled by the graph's unit."""
    table = graph.hop_tables[v]
    cost = table.costs[-1] if k is None else table.at_most(k)
    return None if cost is None else Fraction(cost, graph.unit)


def at(graph: TaskGraph, *prefix: str) -> TraversalState:
    return TraversalState(prefix[-1], len(prefix) - 1)


def spine_graph(n: int = 5) -> TaskGraph:
    """Fixed-cost spine with a zero-then-expensive detour at every step.

    The spine is the dominant path; a biased agent with bias above 2 defects
    onto every detour without competition.
    """
    spine = ["s"] + [f"m{i}" for i in range(1, n)] + ["t"]
    edges = []
    for i, (u, v) in enumerate(zip(spine, spine[1:])):
        edges.append((u, v, Fraction(1)))
        edges.append((u, f"d{i}", Fraction(0)))
        edges.append((f"d{i}", v, Fraction(2)))
    return build_graph(edges, vertices=spine + [f"d{i}" for i in range(n)])


@pytest.fixture
def fig1():
    graph, meta = make_named_instance("fig1")
    return graph, meta


@pytest.fixture
def fan5():
    spec = FanSpec(5, Fraction(3, 2))
    return spec, make_fan(spec)


@pytest.fixture
def fan3():
    spec = FanSpec(3, Fraction(2))
    return spec, make_fan(spec)


@pytest.fixture
def rungs_graph():
    """Per-length minima (length 1: 7, length 2: 6, length 3: 0)."""
    return build_graph([
        ("s", "t", Fraction(7)),
        ("s", "a", Fraction(3)),
        ("a", "t", Fraction(3)),
        ("s", "b", Fraction(0)),
        ("b", "c", Fraction(0)),
        ("c", "t", Fraction(0)),
    ], vertices=["s", "t", "a", "b", "c"])


@pytest.fixture
def bias2():
    return AgentConfig(Fraction(2))
