from __future__ import annotations

from fractions import Fraction

import pytest

from biasgraph import AgentConfig, FanSpec, TaskGraph, TraversalState, make_fan, make_named_instance, validate


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
