"""Pure-equilibrium analysis for the two-agent first-to-finish game.

Covers the unbiased classification over non-dominated paths, traversal-based
Nash checks for biased agents, closed-form fan thresholds, the dominant-path
reward bound, and the exact computation of all rewards that make a given path
a symmetric equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .agents import AgentConfig, RewardTie, TraversalTrace, traverse
from .errors import BiasNotAboveC, NoDominantPath
from .graph import PathRecord, TaskGraph, first_path
from .instances import FanSpec
from .intervals import Interval, IntervalSet


@dataclass(frozen=True)
class NondominatedLadder:
    """Per-length cheapest paths that survive dominance filtering.

    Lengths strictly increase and costs strictly decrease along the ladder,
    and the quickest survivor costs at most ``reward`` more than the cheapest
    (winning beats losing).
    """

    paths: tuple[PathRecord, ...]
    reward: Fraction

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def costs(self) -> tuple[Fraction, ...]:
        return tuple(p.cost for p in self.paths)


@dataclass(frozen=True)
class UnbiasedEqReport:
    ladder: NondominatedLadder
    symmetric: tuple[PathRecord, ...]
    asymmetric: tuple[PathRecord, PathRecord] | None
    tie_rule: RewardTie


@dataclass(frozen=True)
class NeCheckResult:
    is_equilibrium: bool
    deviated_at: str | None
    trace: TraversalTrace

    def __bool__(self) -> bool:
        return self.is_equilibrium


@dataclass(frozen=True)
class FanNeThresholds:
    optimal_min_reward: Fraction   # smallest reward putting an equilibrium on the direct path
    longest_max_reward: Fraction   # largest reward keeping an equilibrium on the full delay path


@dataclass(frozen=True)
class DominantPathReward:
    path: PathRecord
    max_edge_cost: Fraction
    reward: Fraction
    agents: int


def nondominated_ladder(graph: TaskGraph, reward: Fraction) -> NondominatedLadder:
    """The source's (length, cost) staircase, filtered by the reward.

    A path is dominated when a weakly quicker path is weakly cheaper, or when
    even losing on some path beats winning on it (cost >= cheapest + reward).
    Each rung's witness is the lexicographically first path of its length and cost.
    """
    reward = Fraction(reward)
    if reward < 0:
        raise ValueError("reward must be nonnegative")
    table = graph.hop_table(graph.source)
    cheapest = table.cost_any()
    paths = tuple(
        first_path(graph, length, cost, lambda v, k: graph.hop_table(v).cost_at_most(k))
        for length, cost in zip(table.lengths, table.costs)
        if cost < cheapest + reward or cost == cheapest
    )
    return NondominatedLadder(paths, reward)


def classify_unbiased(
    graph: TaskGraph, reward: Fraction, tie_rule: RewardTie = RewardTie.SPLIT
) -> UnbiasedEqReport:
    """Classify the pure Nash equilibria of the unbiased game on the ladder."""
    ladder = nondominated_ladder(graph, reward)
    paths = ladder.paths
    reward = ladder.reward
    n = len(paths)
    symmetric: list[PathRecord] = []
    asymmetric: tuple[PathRecord, PathRecord] | None = None

    if tie_rule is RewardTie.FULL:
        symmetric = list(paths)
    elif tie_rule is RewardTie.NONE:
        if n == 1:
            symmetric = [paths[0]]
        elif n == 2:
            asymmetric = (paths[0], paths[1])
    else:  # split
        for i, p in enumerate(paths):
            if i == 0:
                ok = p.cost - paths[-1].cost <= reward / 2
            else:
                ok = paths[i - 1].cost - p.cost >= reward / 2
            if ok:
                symmetric.append(p)
        if n == 2 and paths[0].cost - paths[1].cost == reward / 2:
            asymmetric = (paths[0], paths[1])

    return UnbiasedEqReport(ladder, tuple(symmetric), asymmetric, tie_rule)


def _require_full_path(graph: TaskGraph, q: PathRecord) -> None:
    if q.vertices[0] != graph.source or q.vertices[-1] != graph.sink:
        raise ValueError("path must run from the source to the sink")


def check_symmetric_ne(
    graph: TaskGraph,
    q: PathRecord,
    reward: Fraction,
    bias: Fraction,
    tie_rule: RewardTie = RewardTie.SPLIT,
) -> NeCheckResult:
    """Both agents on q is an equilibrium iff the biased traversal against an
    opponent of q's length, with stay-on-q tie-breaking, reproduces q."""
    _require_full_path(graph, q)
    config = AgentConfig(bias, tie_rule)
    trace = traverse(graph, config, opponent=q.length, reward=Fraction(reward), reference=q)
    if trace.path.vertices == q.vertices:
        return NeCheckResult(True, None, trace)
    walked = trace.path.vertices
    i = next(idx for idx, (a, b) in enumerate(zip(walked, q.vertices)) if a != b)
    return NeCheckResult(False, q.vertices[i - 1], trace)


def fan_ne_thresholds(spec: FanSpec, bias: Fraction) -> FanNeThresholds:
    """Closed-form reward thresholds for equilibria on a fan's extreme paths."""
    bias = Fraction(bias)
    if bias < spec.c:
        raise BiasNotAboveC(f"bias {bias} below growth factor {spec.c}")
    eps = bias - spec.c
    return FanNeThresholds(2 * eps, 2 * eps * spec.c ** (spec.n - 1))


def dominant_path_reward(graph: TaskGraph, bias: Fraction, agents: int = 2) -> DominantPathReward:
    """Reward guaranteeing an equilibrium on the dominant path, if one exists.

    The dominant path must be the uniquely quickest path and cost no more than
    any other path.  With ``agents`` competitors in total the sufficient reward
    is agents * bias * (largest edge cost on the path).
    """
    bias = Fraction(bias)
    if bias < 1:
        raise ValueError("bias must be at least 1")
    if agents < 2:
        raise ValueError("need at least two competing agents")

    seq = [graph.source]
    while seq[-1] != graph.sink:
        quickest = graph.hop_table(seq[-1]).lengths[0]
        heads = [e.head for e in graph.successors(seq[-1])
                 if graph.hop_table(e.head).lengths[0] == quickest - 1]
        if len(heads) > 1:
            raise NoDominantPath(f"two quickest paths part at {seq[-1]}")
        seq.append(heads[0])
    path = PathRecord.from_vertices(graph, seq)
    if path.cost != graph.cheapest_cost(graph.source):
        raise NoDominantPath("the uniquely quickest path is not a cheapest path")
    max_edge = max(graph.edge_cost(u, v) for u, v in zip(seq, seq[1:]))
    return DominantPathReward(path, max_edge, agents * bias * max_edge, agents)


# Exact feasible-reward computation.
#
# Walking q with a decrementing hop budget, the perceived continuation value
# from any vertex is the lower envelope of up to three lines in the reward r
# (slopes 0, -1/2, -1 for the lose/tie/win cases).  Staying on the edge (u, v)
# weakly beats the deviation (u, v') when min_d d(r) - min_s s(r) >= margin,
# with d over the deviation's lines and s over the stay lines, that is when
# every d lies at least margin above some s.  Each (d, s) pair is one linear
# inequality in r whose solutions with r >= 0 form a closed half-line, so a
# deviation's feasible set is the intersection over d of the union over s.

_LOSE, _TIE, _WIN = Fraction(0), Fraction(-1, 2), Fraction(-1)


def _case_lines(graph: TaskGraph, v: str, budget: int) -> list[tuple[Fraction, Fraction]]:
    """(intercept, slope) lines whose lower envelope is the continuation value."""
    table = graph.hop_table(v)
    lines = [(table.cost_any(), _LOSE)]
    tie_cost = table.cost_at_most(budget)
    if tie_cost is not None:
        lines.append((tie_cost, _TIE))
    win_cost = table.cost_fewer(budget)
    if win_cost is not None:
        lines.append((win_cost, _WIN))
    return lines


def _crossings(lines: list[tuple[Fraction, Fraction]]) -> set[Fraction]:
    points: set[Fraction] = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, s1), (a2, s2) = lines[i], lines[j]
            if s1 == s2:
                continue
            r = (a1 - a2) / (s2 - s1)
            if r > 0:
                points.add(r)
    return points


def _half_line(intercept: Fraction, slope: Fraction) -> Interval | None:
    """{r >= 0 : intercept + slope * r >= 0}."""
    if slope == 0:
        return Interval(Fraction(0), None) if intercept >= 0 else None
    root = -intercept / slope
    if slope > 0:
        return Interval(max(root, Fraction(0)), None)
    return Interval(Fraction(0), root) if root >= 0 else None


def _deviations(graph: TaskGraph, q: PathRecord, bias: Fraction):
    """(stay_lines, dev_lines, margin) for every edge (u, v) of q and every
    deviation (u, v'), where margin is bias * (c(u, v) - c(u, v'))."""
    _require_full_path(graph, q)
    bias = AgentConfig(bias).bias
    budget = q.length
    for u, v in zip(q.vertices, q.vertices[1:]):
        budget -= 1
        stay_lines = _case_lines(graph, v, budget)
        stay_edge_cost = graph.edge_cost(u, v)
        for e in graph.successors(u):
            if e.head != v:
                margin = bias * (stay_edge_cost - e.cost)
                yield stay_lines, _case_lines(graph, e.head, budget), margin


def feasible_rewards(graph: TaskGraph, q: PathRecord, bias: Fraction) -> IntervalSet:
    """The exact set of rewards making q a symmetric Nash equilibrium.

    Intersects, over every edge (u, v) of q and every deviation (u, v'), the
    rewards under which the agent weakly prefers staying.
    """
    result = IntervalSet.nonnegative()
    for stay_lines, dev_lines, margin in _deviations(graph, q, bias):
        for a_d, s_d in dev_lines:
            result = result.intersect(IntervalSet.from_intervals(
                _half_line(a_d - a_s - margin, s_d - s_s) for a_s, s_s in stay_lines
            ))
            if result.is_empty:
                return result
    return result


def min_reward_for_ne(graph: TaskGraph, q: PathRecord, bias: Fraction) -> Fraction | None:
    """Smallest feasible reward for an equilibrium on q, or None if impossible."""
    return feasible_rewards(graph, q, bias).min_point()


def algorithm_breakpoints(graph: TaskGraph, q: PathRecord, bias: Fraction) -> tuple[Fraction, ...]:
    """0, every positive crossing among the stay lines and among the deviation
    lines of every deviation, and the feasible set's endpoints, sorted."""
    feasible = feasible_rewards(graph, q, bias)
    points = {Fraction(0)}
    for stay_lines, dev_lines, _ in _deviations(graph, q, bias):
        points |= _crossings(stay_lines) | _crossings(dev_lines)
    for interval in feasible.intervals:
        points.add(interval.lo)
        if interval.hi is not None:
            points.add(interval.hi)
    return tuple(sorted(points))
