"""Independent checks on the program's answers.

Nothing here imports the program.  The benchmark computes its own reference
values from the generated inputs (an O(E) cheapest-cost-to-sink DP in exact
rationals, a fewest-hops BFS, the paper's closed forms) and compares the
program's outputs against them and against structural properties.  Every
check raises :class:`CheckFailed` on a wrong answer.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _out_edges(vertices, edges) -> dict[str, list[tuple[str, Fraction]]]:
    out: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in vertices}
    for u, v, c in edges:
        out[u].append((v, Fraction(c)))
    return out


def cheapest_to_sink(vertices, edges, sink: str) -> dict[str, Fraction | None]:
    """Cheapest cost from every vertex to the sink (None if it cannot reach it).

    One pass over the edges in reverse topological order (Kahn's algorithm),
    so O(V + E) rational additions.
    """
    out = _out_edges(vertices, edges)
    indeg = {v: 0 for v in vertices}
    for u, v, _ in edges:
        indeg[v] += 1
    ready = [v for v in vertices if indeg[v] == 0]
    order: list[str] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for h, _ in out[v]:
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    require(len(order) == len(vertices), "input graph has a cycle")
    best: dict[str, Fraction | None] = {v: None for v in vertices}
    best[sink] = Fraction(0)
    for v in reversed(order):
        for h, c in out[v]:
            if best[h] is not None and (best[v] is None or c + best[h] < best[v]):
                best[v] = c + best[h]
    return best


def fewest_hops(vertices, edges, source: str, sink: str) -> int:
    """Edges on a shortest source->sink path, by breadth-first search."""
    out = _out_edges(vertices, edges)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == sink:
            return dist[v]
        for h, _ in out[v]:
            if h not in dist:
                dist[h] = dist[v] + 1
                queue.append(h)
    raise CheckFailed("sink unreachable from source")


def cheapest_with_hops(vertices, edges, source: str, sink: str, hops: int) -> Fraction | None:
    """Cheapest cost over source->sink paths of exactly ``hops`` edges."""
    out = _out_edges(vertices, edges)
    frontier = {source: Fraction(0)}
    for _ in range(hops):
        reached: dict[str, Fraction] = {}
        for u, cost_u in frontier.items():
            for h, c in out[u]:
                if h not in reached or cost_u + c < reached[h]:
                    reached[h] = cost_u + c
        frontier = reached
    return frontier.get(sink)


class Dag:
    """The benchmark's own view of a generated graph description."""

    def __init__(self, data: dict):
        self.source, self.sink = data["source"], data["sink"]
        self.vertices = list(data["vertices"])
        self.edges = [(e["from"], e["to"], Fraction(e["cost"])) for e in data["edges"]]
        self.cost = {(u, v): c for u, v, c in self.edges}
        self.succ = {v: set() for v in self.vertices}
        for u, v, _ in self.edges:
            self.succ[u].add(v)
        self.cheapest = cheapest_to_sink(self.vertices, self.edges, self.sink)
        self.fewest_hops = fewest_hops(self.vertices, self.edges, self.source, self.sink)
        self.quickest_cost = cheapest_with_hops(self.vertices, self.edges, self.source,
                                                self.sink, self.fewest_hops)

    def path_cost(self, seq) -> Fraction:
        for u, v in zip(seq, seq[1:]):
            require((u, v) in self.cost, f"path uses missing edge {u}->{v}")
        return sum((self.cost[(u, v)] for u, v in zip(seq, seq[1:])), Fraction(0))


def check_path(dag: Dag, path) -> None:
    """A PathRecord runs from source to sink and its cost is the sum of its edges."""
    seq = path.vertices
    require(seq[0] == dag.source and seq[-1] == dag.sink, "path does not run source->sink")
    require(path.length == len(seq) - 1, "path length is not its edge count")
    require(path.cost == dag.path_cost(seq), "path cost is not the sum of its edges")


def check_unopposed_trace(dag: Dag, trace, bias: Fraction) -> None:
    """Every logged perceived cost is bias*c(u,v) + cheapest(v); the chosen
    successor is perceived no costlier than any alternative."""
    check_path(dag, trace.path)
    seq = trace.path.vertices
    require(len(trace.steps) == len(seq) - 1, "one logged step per edge")
    for i, st in enumerate(trace.steps):
        require(st.at == seq[i] and st.chose == seq[i + 1], "log disagrees with the path")
        scored = [(st.chose, st.perceived)] + list(st.alternatives)
        require({v for v, _ in scored} == dag.succ[st.at], f"not every successor of {st.at} scored")
        for v, perceived in scored:
            want = bias * dag.cost[(st.at, v)] + dag.cheapest[v]
            require(perceived == want,
                    f"perceived cost of {st.at}->{v} is {perceived}, want {want}")
        require(all(st.perceived <= c for _, c in st.alternatives),
                f"{st.at}: chose a costlier successor")


def check_cost_ratio(dag: Dag, ratio: Fraction, walked_cost: Fraction) -> None:
    require(ratio == walked_cost / dag.cheapest[dag.source], "cost ratio is not walked/cheapest")


def split_tie_symmetric(costs, lengths, reward: Fraction) -> list[int]:
    """Indices i where both players on path i is a pure equilibrium with split ties."""

    def payoff(mine: int, theirs: int) -> Fraction:
        if lengths[mine] < lengths[theirs]:
            return reward - costs[mine]
        if lengths[mine] == lengths[theirs]:
            return reward / 2 - costs[mine]
        return -costs[mine]

    n = len(costs)
    return [i for i in range(n) if all(payoff(i, i) >= payoff(j, i) for j in range(n))]


def check_ladder(dag: Dag, rungs, symmetric, reward: Fraction) -> None:
    """Check a non-dominated ladder given as (vertices, cost, length) rungs.

    Lengths strictly rise and costs strictly fall, down to a cheapest path.
    The quickest rung has the fewest hops unless every fewest-hop path costs
    ``reward`` or more above the cheapest, when losing on a cheapest path
    beats winning on it.  The symmetric equilibria match best responses.
    """
    require(len(rungs) > 0, "empty ladder")
    for seq, cost, length in rungs:
        require(seq[0] == dag.source and seq[-1] == dag.sink, "rung does not run source->sink")
        require(dag.path_cost(seq) == cost and len(seq) - 1 == length, "rung misreported")
    costs = [cost for _, cost, _ in rungs]
    lengths = [length for _, _, length in rungs]
    require(all(a < b for a, b in zip(lengths, lengths[1:])), "ladder lengths do not rise")
    require(all(a > b for a, b in zip(costs, costs[1:])), "ladder costs do not fall")
    cheapest = dag.cheapest[dag.source]
    require(costs[-1] == cheapest, "last rung is not a cheapest path")
    if dag.quickest_cost < cheapest + reward or dag.quickest_cost == cheapest:
        require(lengths[0] == dag.fewest_hops and costs[0] == dag.quickest_cost,
                "first rung is not the cheapest fewest-hop path")
    else:
        require(lengths[0] > dag.fewest_hops, "first rung should lose to a cheapest path")
    want = sorted(tuple(rungs[i][0]) for i in split_tie_symmetric(costs, lengths, reward))
    require(sorted(tuple(seq) for seq in symmetric) == want, "symmetric equilibria disagree")


def check_dominant(dag: Dag, result, bias: Fraction, planted: tuple[str, ...]) -> None:
    """The planted path comes back with reward 2 * bias * (its largest edge)."""
    require(tuple(result.path.vertices) == planted, "dominant path is not the planted path")
    check_path(dag, result.path)
    max_edge = max(dag.cost[(u, v)] for u, v in zip(planted, planted[1:]))
    require(result.reward == 2 * bias * max_edge, "dominant-path reward is not 2*bias*max edge")


def reward_probes(feasible) -> list[Fraction]:
    """Every interval endpoint, the midpoint of every gap (including the one
    above zero) and a point past the last endpoint."""
    probes: list[Fraction] = []
    prev_hi: Fraction | None = Fraction(0)
    for iv in feasible.intervals:
        if prev_hi is not None and iv.lo > prev_hi:
            probes.append((prev_hi + iv.lo) / 2)
        probes.append(iv.lo)
        if iv.hi is not None:
            probes.append(iv.hi)
        prev_hi = iv.hi
    last = feasible.intervals[-1] if feasible.intervals else None
    if last is None:
        probes.append(Fraction(1))
    else:
        probes.append((last.lo if last.hi is None else last.hi) + 1)
    return probes


def check_feasible_agrees(feasible, is_ne, probes) -> None:
    """``is_ne(r)`` (an equilibrium check) agrees with membership at each probe."""
    for r in probes:
        require(feasible.contains(r) == is_ne(r), f"feasible set and ne-check disagree at r={r}")


def check_verify_report(report: dict) -> None:
    require(report.get("passed") is True, f"suite {report.get('suite')} did not pass")
    require(report.get("cases", 0) > 0, f"suite {report.get('suite')} ran no cases")


def _reject_constant(name: str):
    raise CheckFailed(f"stdout holds non-JSON constant {name}")


def strict_json(text: str):
    """Parse stdout as strict JSON: one document, no NaN or Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def fan_thresholds(n: int, c: Fraction, bias: Fraction) -> tuple[Fraction, Fraction]:
    """Theorem 1: P0 is an equilibrium iff r >= 2(b-c); Pn iff r <= 2(b-c)c^(n-1)."""
    eps = bias - c
    return 2 * eps, 2 * eps * c ** (n - 1)


def equal_revenue_p(r: float) -> float:
    """Two-agent cutoff fixed point under the equal-revenue distribution."""
    return (r - 2.0) / r


def multi_share(p: float, m: int) -> float:
    """d(p, m) = sum_k C(m,k) p^k (1-p)^(m-k) / (k+1) - (1-p)^m."""
    total = sum(math.comb(m, k) * p**k * (1.0 - p) ** (m - k) / (k + 1) for k in range(m + 1))
    return total - (1.0 - p) ** m


def equal_revenue_cdf(z: float, lower: float) -> float:
    return 0.0 if z <= lower else 1.0 - 1.0 / (z - lower + 1.0)
