"""Brute-force verifiers and random instance generators.

Everything here recomputes results from first principles (path enumeration,
literal minimization over continuations, sampling) and shares nothing with the
analytical modules beyond the graph and path types, so agreement between the
two routes is meaningful evidence of correctness.  Enumeration is guarded by a
vertex-count limit, adjustable through the BIASGRAPH_MAX_BRUTE environment
variable.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .agents import RewardTie, TraversalState
from .bne import BiasDistribution, FanOpponentProfile, fan_agent_exit
from .errors import TooLarge
from .graph import PathRecord, TaskGraph, validate
from .instances import FanSpec

_DEFAULT_MAX_BRUTE = 14


def _max_brute() -> int:
    return int(os.environ.get("BIASGRAPH_MAX_BRUTE", _DEFAULT_MAX_BRUTE))


def _guard(graph: TaskGraph) -> None:
    limit = _max_brute()
    if len(graph.vertices) > limit:
        raise TooLarge(f"{len(graph.vertices)} vertices exceeds brute-force guard {limit}")


def enumerate_paths(graph: TaskGraph, start: str | None = None) -> list[PathRecord]:
    """All start->sink paths by depth-first search, in lexicographic order."""
    _guard(graph)
    if start is None:
        start = graph.source
    paths: list[PathRecord] = []
    stack: list[str] = [start]

    def visit(v: str) -> None:
        if v == graph.sink:
            paths.append(PathRecord.from_vertices(graph, stack))
            return
        for e in graph.successors(v):
            stack.append(e.head)
            visit(e.head)
            stack.pop()

    if start == graph.sink:
        return []
    visit(start)
    return paths


# id(graph) -> (graph, minima), at most _MINIMA_CACHED entries, oldest first.
# Keyed by identity: hashing a TaskGraph hashes every vertex and edge.
_minima: dict[int, tuple[TaskGraph, dict]] = {}
_MINIMA_CACHED = 256


def _continuation_minima(graph: TaskGraph) -> dict[str, tuple[tuple[int, Fraction], ...]]:
    """Per vertex: (length, cheapest cost) over enumerated sink continuations."""
    hit = _minima.get(id(graph))
    if hit is not None and hit[0] is graph:
        return hit[1]
    table: dict[str, tuple[tuple[int, Fraction], ...]] = {}
    for v in graph.vertices:
        if v == graph.sink:
            table[v] = ((0, Fraction(0)),)
            continue
        best: dict[int, Fraction] = {}
        for p in enumerate_paths(graph, v):
            if p.length not in best or p.cost < best[p.length]:
                best[p.length] = p.cost
        table[v] = tuple(sorted(best.items()))
    _minima[id(graph)] = (graph, table)
    if len(_minima) > _MINIMA_CACHED:
        del _minima[next(iter(_minima))]
    return table


def brute_perceived_min(
    graph: TaskGraph,
    state: TraversalState,
    successor: str,
    bias: Fraction,
    opponent_length: int | None,
    reward: Fraction,
) -> Fraction:
    """Perceived cost evaluated literally over every enumerated continuation.

    A tie pays ``reward / 2``: split ties, the rule ``feasible_rewards`` assumes.
    """
    bias, reward = Fraction(bias), Fraction(reward)
    biased_edge = bias * graph.edge_cost(state.vertex, successor)
    best: Fraction | None = None
    for length, cost in _continuation_minima(graph)[successor]:
        if opponent_length is None:
            net = cost
        else:
            total = state.steps_taken + 1 + length
            if total < opponent_length:
                net = cost - reward
            elif total == opponent_length:
                net = cost - reward / 2
            else:
                net = cost
        if best is None or net < best:
            best = net
    assert best is not None
    return biased_edge + best


def brute_traverse(
    graph: TaskGraph,
    bias: Fraction,
    opponent_length: int | None,
    reward: Fraction,
    reference: PathRecord | None = None,
) -> PathRecord:
    """Traversal where every choice minimizes the enumerated perceived cost."""
    prefix = [graph.source]
    on_reference = reference is not None
    while prefix[-1] != graph.sink:
        state = TraversalState(prefix[-1], len(prefix) - 1)
        ref_next = None
        if on_reference and len(prefix) < len(reference.vertices):
            ref_next = reference.vertices[len(prefix)]
        scored = [
            (e.head, brute_perceived_min(graph, state, e.head, bias, opponent_length, reward))
            for e in graph.successors(state.vertex)
        ]
        best = min(cost for _, cost in scored)
        choices = [v for v, cost in scored if cost == best]
        chosen = ref_next if ref_next in choices else min(choices, key=graph.index.__getitem__)
        if on_reference and chosen != ref_next:
            on_reference = False
        prefix.append(chosen)
    return PathRecord.from_vertices(graph, prefix)


def reward_sweep_ne(
    graph: TaskGraph, q: PathRecord, bias: Fraction, candidates
) -> set[Fraction]:
    """Rewards among the candidates for which both agents staying on q holds up."""
    feasible = set()
    for r in candidates:
        r = Fraction(r)
        if r < 0:
            continue
        walked = brute_traverse(graph, bias, q.length, r, reference=q)
        if walked.vertices == q.vertices:
            feasible.add(r)
    return feasible


def sweep_candidates(breakpoints, extra_random: int = 0, rng=None) -> list[Fraction]:
    """Breakpoints, their midpoints, small perturbations, and random fillers."""
    eps = Fraction(1, 10**6)
    points = sorted(set(Fraction(b) for b in breakpoints) | {Fraction(0)})
    out = set(points)
    for a, b in zip(points, points[1:]):
        out.add((a + b) / 2)
    for p in points:
        out.add(p + eps)
        if p - eps >= 0:
            out.add(p - eps)
    out.add(points[-1] + 1)
    out.add(points[-1] + Fraction(7, 2))
    if extra_random and rng is not None:
        span = int(points[-1]) + 10
        for _ in range(extra_random):
            out.add(Fraction(int(rng.integers(0, span * 8 + 1)), 8))
    return sorted(out)


def best_response_table(
    costs: list[Fraction], lengths: list[int], reward: Fraction, tie_rule: RewardTie
) -> tuple[list[int], list[tuple[int, int]]]:
    """Pure Nash equilibria of the two-player game restricted to given paths.

    Returns (indices with a symmetric equilibrium, asymmetric ordered pairs
    (i, j), i != j).  Utilities follow first-to-finish with the tie rule.
    """
    reward = Fraction(reward)
    n = len(costs)
    tie = {RewardTie.SPLIT: reward / 2, RewardTie.FULL: reward, RewardTie.NONE: Fraction(0)}[tie_rule]

    def payoff(mine: int, theirs: int) -> Fraction:
        if lengths[mine] < lengths[theirs]:
            return reward - costs[mine]
        if lengths[mine] == lengths[theirs]:
            return tie - costs[mine]
        return -costs[mine]

    def is_best(mine: int, theirs: int) -> bool:
        value = payoff(mine, theirs)
        return all(value >= payoff(dev, theirs) for dev in range(n))

    symmetric = [i for i in range(n) if is_best(i, i)]
    asymmetric = [
        (i, j)
        for i, j in itertools.product(range(n), range(n))
        if i != j and is_best(i, j) and is_best(j, i)
    ]
    return symmetric, asymmetric


@dataclass(frozen=True)
class FanFrequencies:
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    std_errors: tuple[float, ...]
    samples: int


def monte_carlo_fan_bne(
    spec: FanSpec,
    dist: BiasDistribution,
    reward: float,
    cutoff: float,
    samples: int,
    seed: int,
) -> FanFrequencies:
    """Empirical exit frequencies against an opponent playing the cutoff rule."""
    if samples < 10**4:
        raise ValueError("need at least 10^4 samples")
    rng = np.random.default_rng(seed)
    profile = FanOpponentProfile.two_point(dist.cdf(cutoff), spec.n)
    counts = [0] * (spec.n + 1)
    for u in rng.random(samples):
        bias = dist.quantile(float(u))
        counts[fan_agent_exit(spec, bias, profile, reward)] += 1
    freqs = tuple(c / samples for c in counts)
    errs = tuple(math.sqrt(f * (1.0 - f) / samples) for f in freqs)
    return FanFrequencies(tuple(counts), freqs, errs, samples)


def monte_carlo_inverse_share(prob: float, competitors: int, samples: int, seed: int) -> float:
    """Sample mean of 1/(N+1) for N ~ Binomial(competitors, prob)."""
    rng = np.random.default_rng(seed)
    draws = rng.binomial(competitors, prob, size=samples)
    return float(np.mean(1.0 / (draws + 1.0)))


# Random instance generation.  Layered DAGs with rational costs from a small
# grid; source->sink connectivity holds by construction and validation prunes
# any vertex a random skip edge strands.

COST_GRID = tuple(Fraction(x) for x in ("0", "1/2", "1", "2", "5", "8"))


def random_layered_graph(
    rng,
    max_vertices: int = 8,
    min_interior: int = 1,
    max_interior: int = 3,
    skip_prob: float = 0.3,
    cost_grid: tuple[Fraction, ...] = COST_GRID,
) -> TaskGraph:
    n_layers = int(rng.integers(min_interior, max_interior + 1))
    widths = []
    budget = max_vertices - 2
    for _ in range(n_layers):
        w = int(rng.integers(1, 4))
        w = max(1, min(w, budget - (n_layers - len(widths) - 1)))
        widths.append(w)
        budget -= w
    layers: list[list[str]] = [["s"]]
    idx = 0
    for w in widths:
        layers.append([f"n{idx + j}" for j in range(w)])
        idx += w
    layers.append(["t"])

    vertices = [v for layer in layers for v in layer]
    edges: list[dict] = []

    def add_edge(u: str, v: str) -> None:
        cost = cost_grid[int(rng.integers(0, len(cost_grid)))]
        edges.append({"from": u, "to": v, "cost": str(cost)})

    for a, b in zip(layers, layers[1:]):
        for u in a:
            targets = {b[int(rng.integers(0, len(b)))]}
            for v in b:
                if rng.random() < 0.45:
                    targets.add(v)
            for v in b:  # layer order: a set's order depends on PYTHONHASHSEED
                if v in targets:
                    add_edge(u, v)
        for v in b:  # give stranded vertices an inbound edge
            if not any(e["to"] == v for e in edges):
                add_edge(a[int(rng.integers(0, len(a)))], v)
    for i in range(len(layers) - 2):  # skip edges vary path lengths
        for u in layers[i]:
            if rng.random() < skip_prob:
                layer = layers[i + 2]
                add_edge(u, layer[int(rng.integers(0, len(layer)))])

    return validate({"vertices": vertices, "edges": edges, "source": "s", "sink": "t"})


def random_dominant_graph(rng, max_vertices: int = 10) -> TaskGraph:
    """Layered graph plus a strictly cheapest two-edge chain, which is then the
    uniquely quickest path: a dominant path by construction.

    The base uses at least two interior layers and no skip edges, so every
    other path has length three or more, and edge costs of at least one, so
    every other path costs at least three.
    """
    base = random_layered_graph(
        rng,
        max_vertices=max_vertices - 1,
        min_interior=2,
        max_interior=3,
        skip_prob=0.0,
        cost_grid=tuple(c for c in COST_GRID if c >= 1),
    )
    data = base.to_json_dict()
    data["vertices"].append("w")
    data["edges"].append({"from": "s", "to": "w", "cost": "1/2"})
    data["edges"].append({"from": "w", "to": "t", "cost": "1/2"})
    return validate(data)


def random_ladder_graph(rng, max_rungs: int = 6) -> TaskGraph:
    """Disjoint source->sink chains with one candidate path per length."""
    n_chains = int(rng.integers(2, max_rungs + 1))
    lengths = sorted(rng.choice(np.arange(1, 7), size=n_chains, replace=False).tolist())
    vertices = ["s", "t"]
    edges: list[dict] = []
    for chain_no, length in enumerate(lengths):
        cost = Fraction(int(rng.integers(0, 33)), 2)
        inner = [f"c{chain_no}x{j}" for j in range(length - 1)]
        vertices.extend(inner)
        seq = ["s"] + inner + ["t"]
        split = [Fraction(0)] * length
        split[int(rng.integers(0, length))] = cost
        for (u, v), piece in zip(zip(seq, seq[1:]), split):
            edges.append({"from": u, "to": v, "cost": str(piece)})
    return validate({"vertices": vertices, "edges": edges, "source": "s", "sink": "t"})
