"""Pure-equilibrium analysis for the two-agent first-to-finish game.

Covers the unbiased classification over non-dominated paths, traversal-based
Nash checks for biased agents, closed-form fan thresholds, the dominant-path
reward bound, and the exact computation of all rewards that make a given path
a symmetric equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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
    table = graph.hop_tables[graph.source]
    cheapest = table.costs[-1]
    paths = tuple(
        first_path(graph, length, cost, lambda v, k: graph.hop_tables[v].at_most(k))
        for length, cost in zip(table.lengths, table.costs)
        if cost - cheapest < reward * graph.unit or cost == cheapest
    )
    return NondominatedLadder(paths, reward)


def classify_unbiased(
    graph: TaskGraph, reward: Fraction, tie_rule: RewardTie = RewardTie.SPLIT
) -> UnbiasedEqReport:
    """Classify the pure Nash equilibria of the unbiased game on the ladder."""
    ladder = nondominated_ladder(graph, reward)
    paths, c = ladder.paths, ladder.costs
    gain, tie = (1 - tie_rule.share) * ladder.reward, tie_rule.share * ladder.reward
    # Staying on rung i earns s*r - c[i]; the best switches are to rung i - 1 (r - c[i-1]) and to the
    # cheapest rung (-c[-1]).  As every c < c[-1] + r, only (0, 1) at n = 2 can be asymmetric.
    symmetric = tuple(
        p for i, p in enumerate(paths)
        if (i == 0 or c[i - 1] - c[i] >= gain) and c[i] - c[-1] <= tie
    )
    asymmetric = None
    if len(paths) == 2 and tie <= c[0] - c[1] <= gain:
        asymmetric = (paths[0], paths[1])
    return UnbiasedEqReport(ladder, symmetric, asymmetric, tie_rule)


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
    bias = AgentConfig(bias).bias
    if agents < 2:
        raise ValueError("need at least two competing agents")

    seq = [graph.source]
    while seq[-1] != graph.sink:
        quickest = graph.hop_tables[seq[-1]].lengths[0]
        heads = [e.head for e in graph.successors(seq[-1])
                 if graph.hop_tables[e.head].lengths[0] == quickest - 1]
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
# (slopes 0, -1/2, -1 for the lose/tie/win cases; the -1/2 assumes split
# ties).  Staying on the edge (u, v) weakly beats the deviation (u, v') when
# every deviation line d lies at least margin = bias * (c(u, v) - c(u, v'))
# above some stay line s.  For one pair (d, s) this holds on a closed
# half-line of r >= 0, [0, root] or [root, inf), so for one d it holds on
# [0, A] u [B, inf) and d excludes only the open gap (A, B).  The feasible
# set is [0, inf) minus the union of all gaps, found by one sort and one
# left-to-right sweep.
#
# The arithmetic is on integers.  The hop tables count costs in 1/graph.unit;
# scaled by unit = bias.denominator * graph.unit every cost and margin is an
# integer.  Slopes are kept in halves (0, -1, -2), so every root and crossing
# is an integer count of 1/unit; only the returned endpoints become Fractions.


def _scale(graph: TaskGraph, q: PathRecord, bias: Fraction) -> tuple[Fraction, int]:
    """The validated bias, and the unit: costs and rewards are counted in 1/unit."""
    _require_full_path(graph, q)
    bias = AgentConfig(bias).bias
    return bias, bias.denominator * graph.unit


def _case_lines(graph: TaskGraph, v: str, budget: int, bias: Fraction) -> list[tuple[int, int]]:
    """(intercept, half-slope) lines whose lower envelope is the continuation value."""
    lose, tie, win = graph.hop_tables[v].cases(budget)
    lines = [(lose * bias.denominator, 0)]
    if tie is not None:
        lines.append((tie * bias.denominator, -1))
    if win is not None:
        lines.append((win * bias.denominator, -2))
    return lines


def _crossings(lines: list[tuple[int, int]]) -> set[int]:
    points: set[int] = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            (a1, s1), (a2, s2) = lines[i], lines[j]
            if s1 != s2:
                r = 2 * (a1 - a2) // (s2 - s1)
                if r > 0:
                    points.add(r)
    return points


def _deviations(graph: TaskGraph, q: PathRecord, bias: Fraction):
    """(stay_lines, dev_lines, margin) for every edge (u, v) of q and every
    deviation (u, v'), where margin is bias * (c(u, v) - c(u, v')) * unit."""
    budget = q.length
    for u, v in zip(q.vertices, q.vertices[1:]):
        budget -= 1
        stay_lines = _case_lines(graph, v, budget, bias)
        stay_edge_cost = graph.units(graph.edge_cost(u, v))
        for e in graph.successors(u):
            if e.head != v:
                margin = bias.numerator * (stay_edge_cost - graph.units(e.cost))
                yield stay_lines, _case_lines(graph, e.head, budget, bias), margin


def _gaps(stay_lines: list[tuple[int, int]], dev_lines: list[tuple[int, int]], margin: int):
    """For each deviation line, the open gap (lo, hi) where it lies less than
    margin above every stay line, unless empty; lo = -1 stands for a gap that
    reaches below 0 and hi = None for one with no upper end."""
    for a_d, s_d in dev_lines:
        lo, hi = -1, None
        for a_s, s_s in stay_lines:
            x, k = 2 * (a_d - a_s - margin), s_d - s_s
            if k == 0:
                if x >= 0:
                    break
            elif k < 0:  # holds on [0, -x / k]
                lo = max(lo, -x // k)
            elif hi is None or -x // k < hi:  # holds on [-x / k, inf)
                hi = -x // k
        else:
            if hi is None or hi > lo:
                yield lo, hi


def _sweep(gaps: list[tuple[int, int | None]]) -> list[tuple[int, int | None]]:
    """[0, inf) minus the union of the open gaps, as sorted disjoint closed pieces."""
    pieces: list[tuple[int, int | None]] = []
    start = 0
    for lo, hi in sorted(gaps, key=itemgetter(0)):
        if lo >= start:
            pieces.append((start, lo))
        if hi is None:
            return pieces
        start = max(start, hi)
    pieces.append((start, None))
    return pieces


def feasible_rewards(graph: TaskGraph, q: PathRecord, bias: Fraction) -> IntervalSet:
    """The exact set of rewards making q a symmetric Nash equilibrium.

    Removes from [0, inf), over every edge (u, v) of q and every deviation
    (u, v'), the rewards under which the agent strictly prefers deviating.
    Assumes split ties (``RewardTie.SPLIT``: a tie pays r/2); under another
    tie rule the answer can disagree with ``check_symmetric_ne``.
    """
    bias, unit = _scale(graph, q, bias)
    gaps: list[tuple[int, int | None]] = []
    for stay_lines, dev_lines, margin in _deviations(graph, q, bias):
        for gap in _gaps(stay_lines, dev_lines, margin):
            if gap == (-1, None):  # excludes every reward
                return IntervalSet.empty()
            gaps.append(gap)
    return IntervalSet(tuple(
        Interval(Fraction(lo, unit), None if hi is None else Fraction(hi, unit))
        for lo, hi in _sweep(gaps)
    ))


def algorithm_breakpoints(graph: TaskGraph, q: PathRecord, bias: Fraction) -> tuple[Fraction, ...]:
    """0, every positive crossing among the stay lines and among the deviation
    lines of every deviation, and the feasible set's endpoints, sorted.

    Like :func:`feasible_rewards`, assumes split ties (a tie pays r/2).
    """
    bias, unit = _scale(graph, q, bias)
    points, gaps, seen = {0}, [], None
    for stay_lines, dev_lines, margin in _deviations(graph, q, bias):
        if stay_lines is not seen:  # one list per on-path edge
            seen = stay_lines
            points |= _crossings(stay_lines)
        points |= _crossings(dev_lines)
        gaps.extend(_gaps(stay_lines, dev_lines, margin))
    points.update(p for piece in _sweep(gaps) for p in piece if p is not None)
    return tuple(Fraction(p, unit) for p in sorted(points))
