"""Brute-force verifiers and random instance generators.

Everything here recomputes results from first principles (path enumeration,
literal minimization over continuations), not from the hop tables, perceived
costs or reward sweeps, so agreement between the two routes is meaningful
evidence of correctness.  Beside the graph and path types it imports
``RewardTie`` and ``TraversalState`` from ``agents`` and ``BiasDistribution``,
``FanOpponentProfile`` and ``fan_agent_exit`` from ``bne``: to check the cutoff
fixed-point solver, which is separate code, :func:`fan_exit_frequencies` applies
the closed-form fan agent.  Enumeration is guarded by a vertex-count limit.
Random draws come from a ``random.Random`` the caller seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .agents import RewardTie, TraversalState
from .bne import BiasDistribution, FanOpponentProfile, fan_agent_exit
from .errors import TooLarge
from .graph import PathRecord, TaskGraph, validate
from .instances import FanSpec

_MAX_BRUTE = 14


def _guard(graph: TaskGraph) -> None:
    if len(graph.vertices) > _MAX_BRUTE:
        raise TooLarge(f"{len(graph.vertices)} vertices exceeds brute-force guard {_MAX_BRUTE}")


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
        for head, _ in graph.successors(v):
            stack.append(head)
            visit(head)
            stack.pop()

    if start == graph.sink:
        return []
    visit(start)
    return paths


# The last graph asked about and its minima: the suites ask about one graph at
# a time.  Compared by identity: hashing a TaskGraph hashes every vertex and edge.
_last: tuple[TaskGraph | None, dict] = (None, {})


def _continuation_minima(graph: TaskGraph) -> dict[str, tuple[tuple[int, Fraction], ...]]:
    """Per vertex: (length, cheapest cost) over enumerated sink continuations."""
    global _last
    if _last[0] is graph:
        return _last[1]
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
    _last = (graph, table)
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
            (head, brute_perceived_min(graph, state, head, bias, opponent_length, reward))
            for head, _ in graph.successors(state.vertex)
        ]
        best = min(cost for _, cost in scored)
        choices = [v for v, cost in scored if cost == best]
        chosen = ref_next if ref_next in choices else min(choices, key=graph.vertices.index)
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
            out.add(Fraction(rng.randrange(span * 8 + 1), 8))
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
    samples: int


def fan_exit_frequencies(
    spec: FanSpec, dist: BiasDistribution, reward: float, cutoff: float, samples: int
) -> FanFrequencies:
    """Exit frequencies of ``samples`` agents against an opponent playing the
    cutoff rule, one agent at the bias quantile of each stratum midpoint
    (k + 1/2)/samples.  For n >= 2 an agent exits at P0 exactly when its bias is
    at most reward * F(cutoff) / 2 + c, which is the cutoff at a fixed point, so
    counts[0] is then within 1/2 of samples * F(cutoff).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    profile = FanOpponentProfile.two_point(dist.cdf(cutoff), spec.n)
    counts = [0] * (spec.n + 1)
    for k in range(samples):
        bias = dist.quantile((k + 0.5) / samples)
        counts[fan_agent_exit(spec, bias, profile, reward)] += 1
    return FanFrequencies(tuple(counts), tuple(c / samples for c in counts), samples)


# Random instance generation.  Layered DAGs with rational costs from a small
# grid; source->sink connectivity holds by construction and validation prunes
# any vertex a random skip edge strands.

COST_GRID = tuple(Fraction(x) for x in ("0", "1/2", "1", "2", "5", "8"))


def random_layered_graph(rng, max_vertices: int = 8, min_interior: int = 1,
                         max_interior: int = 3) -> TaskGraph:
    return validate(_layered(rng, max_vertices, min_interior, max_interior, 0.3, COST_GRID))


def _layered(rng, max_vertices: int, min_interior: int, max_interior: int, skip_prob: float,
             cost_grid: tuple[Fraction, ...]) -> dict:
    """The description :func:`random_layered_graph` validates."""
    n_layers = rng.randrange(min_interior, max_interior + 1)
    widths = []
    budget = max_vertices - 2
    for _ in range(n_layers):
        w = rng.randrange(1, 4)
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
        cost = rng.choice(cost_grid)
        edges.append({"from": u, "to": v, "cost": str(cost)})

    for a, b in zip(layers, layers[1:]):
        for u in a:
            targets = {rng.choice(b)}
            for v in b:
                if rng.random() < 0.45:
                    targets.add(v)
            for v in b:  # layer order: a set's order depends on PYTHONHASHSEED
                if v in targets:
                    add_edge(u, v)
        for v in b:  # give stranded vertices an inbound edge
            if not any(e["to"] == v for e in edges):
                add_edge(rng.choice(a), v)
    for i in range(len(layers) - 2):  # skip edges vary path lengths
        for u in layers[i]:
            if rng.random() < skip_prob:
                add_edge(u, rng.choice(layers[i + 2]))

    return {"vertices": vertices, "edges": edges, "source": "s", "sink": "t"}


def random_dominant_graph(rng, max_vertices: int = 10) -> TaskGraph:
    """Layered graph plus a strictly cheapest two-edge chain, which is then the
    uniquely quickest path: a dominant path by construction.

    The base uses at least two interior layers and no skip edges, so every
    other path has length three or more, and edge costs of at least one, so
    every other path costs at least three.
    """
    data = _layered(rng, max_vertices - 1, 2, 3, 0.0, tuple(c for c in COST_GRID if c >= 1))
    data["vertices"].append("w")
    data["edges"].append({"from": "s", "to": "w", "cost": "1/2"})
    data["edges"].append({"from": "w", "to": "t", "cost": "1/2"})
    return validate(data)


def random_ladder_graph(rng, max_rungs: int = 6) -> TaskGraph:
    """Disjoint source->sink chains with one candidate path per length."""
    n_chains = rng.randrange(2, max_rungs + 1)
    lengths = sorted(rng.sample(range(1, 7), n_chains))
    vertices = ["s", "t"]
    edges: list[dict] = []
    for chain_no, length in enumerate(lengths):
        cost = Fraction(rng.randrange(33), 2)
        inner = [f"c{chain_no}x{j}" for j in range(length - 1)]
        vertices.extend(inner)
        seq = ["s"] + inner + ["t"]
        split = [Fraction(0)] * length
        split[rng.randrange(length)] = cost
        for (u, v), piece in zip(zip(seq, seq[1:]), split):
            edges.append({"from": u, "to": v, "cost": str(piece)})
    return validate({"vertices": vertices, "edges": edges, "source": "s", "sink": "t"})
