"""Seeded inputs for the benchmark workloads.

Every generator takes an explicit seed and uses its own ``random.Random``
seeded from a string, so the same seed gives byte-identical inputs on every
run, independent of ``PYTHONHASHSEED``.  The program under test sees only the
generated JSON text.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from checks import cheapest_to_sink

# Strictly positive, so the cheapest path has a positive cost and
# ``cost_ratio`` is defined.
COST_GRID = tuple(Fraction(c) for c in ("1/2", "1", "3/2", "2", "3", "5"))


def _finish(vertices: list[str], edges: list, plant: bool) -> dict:
    """Optionally plant a dominant path s -> w -> t, then emit graph JSON.

    The planted path has two edges, and every other path has more, so it is
    the uniquely quickest path.  Its first edge costs exactly the cheapest
    cost of the rest of the graph and its second edge is free, so it is also
    a cheapest path: a dominant path.  A biased agent at s discounts the later
    costs of the other routes and walks into the rest of the graph instead.
    """
    if plant:
        rest = cheapest_to_sink(vertices + ["t"], edges, "t")["s"]
        vertices = vertices + ["w"]
        edges = edges + [("s", "w", rest), ("w", "t", Fraction(0))]
    return {
        "vertices": vertices + ["t"],
        "edges": [{"from": u, "to": v, "cost": str(c)} for u, v, c in edges],
        "source": "s",
        "sink": "t",
    }


def window_dag(seed: int, n: int, window: int, plant: bool = True) -> dict:
    """A random DAG on s, v0..v(n-1), t where every v_i has out-degree 4.

    v_i always feeds v_(i+1) (or t), so every vertex lies on a source->sink
    path and some path visits them all; its other three heads are drawn from
    the next ``window`` vertices (t past the end).  Paths therefore exist at
    almost every length from about n/window up to n+1, which is what fills the
    exact-length tables.  s feeds v0..v3.
    """
    if n <= window + 4 or window < 4:
        raise ValueError("need window >= 4 and n > window + 4")
    rng = random.Random(f"window-dag:{seed}:{n}:{window}")
    names = [f"v{i}" for i in range(n)]
    edges = [("s", names[i], rng.choice(COST_GRID)) for i in range(4)]
    for i, u in enumerate(names):
        heads = [names[i + 1] if i + 1 < n else "t"]
        avail = names[i + 2:i + 1 + window]
        if i + 1 + window > n and heads[0] != "t":
            avail.append("t")
        heads += rng.sample(avail, min(3, len(avail)))
        edges += [(u, h, rng.choice(COST_GRID)) for h in heads]
    return _finish(["s"] + names, edges, plant)


def series_dag(seed: int, blocks: int, layers: int, width: int, skip_prob: float = 0.25) -> dict:
    """Layered random blocks joined in series through gate vertices.

    Each block has ``layers`` layers of ``width`` vertices; its entry gate
    feeds every vertex of its first layer and its last layer feeds the next
    gate (t after the last block).  Every other vertex gets four distinct
    heads: vertex j of the next layer, then random vertices of the next layer
    or, with probability ``skip_prob`` each, of the layer after.  Every walk
    crosses every block, and path lengths differ only by the skips taken.
    """
    if layers < 3 or width < 4:
        raise ValueError("need at least 3 layers of width 4")
    rng = random.Random(f"series-dag:{seed}:{blocks}:{layers}:{width}")
    vertices = ["s"]
    edges: list = []
    gate = "s"
    for b in range(blocks):
        names = [[f"b{b}v{i}_{j}" for j in range(width)] for i in range(layers)]
        exit_gate = f"g{b}" if b < blocks - 1 else "t"
        vertices += [v for layer in names for v in layer]
        edges += [(gate, v, rng.choice(COST_GRID)) for v in names[0]]
        for i in range(layers):
            for j, u in enumerate(names[i]):
                if i == layers - 1:
                    edges.append((u, exit_gate, rng.choice(COST_GRID)))
                    continue
                heads = [names[i + 1][j]]
                while len(heads) < 4:
                    far = i + 2 < layers and rng.random() < skip_prob
                    cand = rng.choice(names[i + 2] if far else names[i + 1])
                    if cand not in heads:
                        heads.append(cand)
                edges += [(u, h, rng.choice(COST_GRID)) for h in heads]
        if exit_gate != "t":
            vertices.append(exit_gate)
        gate = exit_gate
    return _finish(vertices, edges, plant=True)


def to_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True)
