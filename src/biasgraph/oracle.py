"""Brute-force verifiers and random instance generators.

Everything here recomputes results from first principles (path enumeration,
literal minimization over continuations), not from the hop tables, perceived
costs or reward sweeps, so agreement between the two routes is meaningful
evidence of correctness; :func:`reward_probes` picks where to compare from the
oracle's own lines.  Beside the graph and path types it imports ``RewardTie``
and ``TraversalState`` from ``agents`` and ``BiasDistribution``,
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


def _lines(graph: TaskGraph, state: TraversalState, successor: str, bias: Fraction,
           opponent_length: int | None):
    """(a, w) per enumerated continuation through ``successor``: at reward r the
    agent perceives it as costing a - w * r.  The weight w is 1 when the agent
    finishes before the opponent, 1/2 on a tie (split ties, the rule
    ``feasible_rewards`` assumes) and 0 after it or with no opponent.
    """
    biased_edge = Fraction(bias) * graph.edge_cost(state.vertex, successor)
    for length, cost in _continuation_minima(graph)[successor]:
        total = state.steps_taken + 1 + length
        if opponent_length is None or total > opponent_length:
            yield biased_edge + cost, 0
        else:
            yield biased_edge + cost, Fraction(1, 2) if total == opponent_length else 1


def brute_perceived_min(
    graph: TaskGraph,
    state: TraversalState,
    successor: str,
    bias: Fraction,
    opponent_length: int | None,
    reward: Fraction,
) -> Fraction:
    """Perceived cost evaluated literally over every enumerated continuation."""
    reward = Fraction(reward)
    return min(a - w * reward for a, w in _lines(graph, state, successor, bias, opponent_length))


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


def reward_probes(graph: TaskGraph, q: PathRecord, bias: Fraction, extra=()) -> list[Fraction]:
    """0, ``extra`` and every positive reward at which two lines of :func:`_lines`
    cross at an on-path vertex q[j] (step j, an opponent of q's length), sorted;
    then the midpoints of consecutive points, then one point past the last.

    Between consecutive crossings the order of all lines is fixed, and so is
    every choice :func:`brute_traverse` makes along q.  So a reward set that is
    constant between its own endpoints, given as ``extra``, and agrees with
    :func:`reward_sweep_ne` at every probe agrees with it on all of [0, inf).
    """
    points = {Fraction(0)} | {Fraction(x) for x in extra}
    for j, u in enumerate(q.vertices[:-1]):
        state = TraversalState(u, j)
        lines = [line for head, _ in graph.successors(u)
                 for line in _lines(graph, state, head, bias, q.length)]
        points.update((a1 - a2) / (w1 - w2)
                      for (a1, w1), (a2, w2) in itertools.combinations(lines, 2) if w1 != w2)
    points = sorted(p for p in points if p >= 0)
    return points + [(a + b) / 2 for a, b in zip(points, points[1:])] + [points[-1] + 1]


def brute_unbiased_equilibria(paths: list[PathRecord], reward: Fraction,
                              tie_rule: RewardTie) -> tuple[tuple, tuple, tuple]:
    """The unbiased game's ladder and pure Nash equilibria, from enumerated paths.

    Per length the first cheapest path in ``paths`` is a rung when every quicker
    path costs more and it costs less than cheapest + reward or is a cheapest
    path.  Utilities follow first-to-finish with the tie rule, and a rung is a
    best response when no path in ``paths`` pays more.  Returns (ladder,
    symmetric rungs, asymmetric (quicker, slower) rung pairs) as vertex tuples
    in ladder order, quickest first.
    """
    reward = Fraction(reward)
    tie = {RewardTie.SPLIT: reward / 2, RewardTie.FULL: reward, RewardTie.NONE: Fraction(0)}[tie_rule]
    # Each stair is its length's first cheapest path (a stable sort), cheaper than any quicker.
    stairs: list[PathRecord] = []
    for p in sorted(paths, key=lambda p: (p.length, p.cost)):
        if not stairs or p.cost < stairs[-1].cost:
            stairs.append(p)
    cheapest = stairs[-1].cost
    ladder = [p for p in stairs if p.cost < cheapest + reward or p.cost == cheapest]

    def payoff(mine: PathRecord, theirs: PathRecord) -> Fraction:
        if mine.length < theirs.length:
            return reward - mine.cost
        if mine.length == theirs.length:
            return tie - mine.cost
        return -mine.cost

    # Against a rung, the most any path pays; it depends only on the rung's length.
    top = {q.length: max(payoff(dev, q) for dev in paths) for q in ladder}

    def is_best(mine: PathRecord, theirs: PathRecord) -> bool:
        return payoff(mine, theirs) == top[theirs.length]

    return (tuple(p.vertices for p in ladder),
            tuple(p.vertices for p in ladder if is_best(p, p)),
            tuple((p.vertices, q.vertices) for p, q in itertools.combinations(ladder, 2)
                  if is_best(p, q) and is_best(q, p)))


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
    every other path costs at least three.  The chain's cost sits on its first
    edge, where bias inflates all of it, so a biased agent can leave the chain.
    """
    data = _layered(rng, max_vertices - 1, 2, 3, 0.0, tuple(c for c in COST_GRID if c >= 1))
    data["vertices"].append("w")
    data["edges"].append({"from": "s", "to": "w", "cost": "11/4"})
    data["edges"].append({"from": "w", "to": "t", "cost": "0"})
    return validate(data)


def random_ladder_graph(rng) -> TaskGraph:
    """A comb: a free spine s -> v1 -> ... and, for each of 2-6 distinct lengths
    k drawn from 1..6, an exit from the (k-1)-th spine vertex to t at a cost
    from 0, 1/2, ..., 16.  One path per drawn length, at most 7 vertices."""
    lengths = sorted(rng.sample(range(1, 7), rng.randrange(2, 7)))
    spine = ["s"] + [f"v{i}" for i in range(1, lengths[-1])]
    edges = [{"from": u, "to": v, "cost": "0"} for u, v in zip(spine, spine[1:])]
    edges += [{"from": spine[k - 1], "to": "t", "cost": str(Fraction(rng.randrange(33), 2))}
              for k in lengths]
    return validate({"vertices": spine + ["t"], "edges": edges, "source": "s", "sink": "t"})
