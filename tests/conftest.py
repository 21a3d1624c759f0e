from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from biasgraph import AgentConfig, FanSpec, TaskGraph, TraversalState, make_fan, make_named_instance, validate
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
        n = int(rng.integers(1, 3 * d))
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
    w = interior[int(rng.integers(0, len(interior)))]
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
        for e in graph.successors(v):
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
