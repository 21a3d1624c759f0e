"""Traversal semantics of naive present-biased agents.

An agent at u weighing a move to v perceives cost b*c(u,v) plus the best true
continuation cost from v, net of the first-to-finish reward the completed walk
would earn against an opponent committed to a path of known length.  Only the
opponent's length matters for the reward, so the opponent is summarized by it.

The reward bucket of a continuation with j further edges, after the agent has
walked ``steps`` edges and would take one more, compares steps+1+j against the
opponent length k: win below, tie at equality, lose above.  The minimum over
continuations therefore reduces to three hop-bounded cheapest costs, which is
what :func:`perceived_cost` evaluates.  The evaluation runs on integers, in a
unit fixed once per traversal; the logged costs become Fractions only when a
trace's steps are first read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import ZeroOptimalCost
from .graph import PathRecord, TaskGraph


class RewardTie(enum.Enum):
    """The ``share`` of the reward each agent earns when both finish simultaneously."""

    SPLIT = "split"
    FULL = "full"
    NONE = "none"

    def __init__(self, value: str) -> None:
        self.share = {"split": Fraction(1, 2), "full": Fraction(1), "none": Fraction(0)}[value]


@dataclass(frozen=True)
class AgentConfig:
    bias: Fraction
    reward_tie: RewardTie = RewardTie.SPLIT

    def __post_init__(self) -> None:
        object.__setattr__(self, "bias", Fraction(self.bias))
        if self.bias < 1:
            raise ValueError("bias must be at least 1")


@dataclass(frozen=True)
class TraversalState:
    vertex: str
    steps_taken: int


@dataclass(frozen=True)
class TraversalStep:
    at: str
    chose: str
    perceived: Fraction
    alternatives: tuple[tuple[str, Fraction], ...]  # non-chosen successors and their costs

    def to_json_dict(self) -> dict:
        return {
            "at": self.at,
            "chose": self.chose,
            "perceived": str(self.perceived),
            "alternatives": [{"vertex": v, "perceived": str(c)} for v, c in self.alternatives],
        }


@dataclass(frozen=True)
class TraversalTrace:
    path: PathRecord
    steps: tuple[TraversalStep, ...]

    @classmethod
    def _from_log(cls, path: PathRecord, log: list, unit: int) -> TraversalTrace:
        """A trace whose steps are built from ``log``, (at, chose, best, scored) per step
        with costs in 1/unit, the first time anything reads them."""
        trace = object.__new__(cls)
        object.__setattr__(trace, "path", path)
        object.__setattr__(trace, "_log", (log, unit))
        return trace

    def __getattr__(self, name: str):
        pending = self.__dict__.get("_log") if name == "steps" else None
        if pending is None:  # no log, or a concurrent reader stored the steps and dropped it
            return object.__getattribute__(self, name)
        log, unit = pending
        steps = tuple(
            TraversalStep(at, chose, Fraction(best, unit),
                          tuple((v, Fraction(cost, unit)) for v, cost in scored if v != chose))
            for at, chose, best, scored in log)
        object.__setattr__(self, "steps", steps)  # stored before the log goes
        self.__dict__.pop("_log", None)
        return steps

    def to_json_dict(self) -> dict:
        return {
            "path": list(self.path.vertices),
            "cost": str(self.path.cost),
            "length": self.path.length,
            "steps": [s.to_json_dict() for s in self.steps],
        }


class _Perceiver:
    """Perceived costs for one agent, opponent length and reward, as exact integers.

    Costs are counted in 1/unit with unit = lcm(graph.unit * bias denominator,
    share denominator * reward denominator), so the biased edge, the
    continuation, the tie share of the reward and the reward are all integers.
    :meth:`scores` evaluates every successor of a vertex in one loop over its
    arcs, whose costs are already in 1/graph.unit.
    """

    def __init__(self, graph: TaskGraph, config: AgentConfig, opponent_length: int | None,
                 reward: Fraction) -> None:
        reward = Fraction(reward)
        if reward < 0:
            raise ValueError("reward must be nonnegative")
        bias, share = config.bias, config.reward_tie.share
        self.graph, self.opponent_length = graph, opponent_length
        self.unit = lcm(graph.unit * bias.denominator, share.denominator * reward.denominator)
        self.scale = self.unit // graph.unit  # continuation costs are in 1/graph.unit
        self.bias = bias.numerator * (self.scale // bias.denominator)
        self.tie = share.numerator * reward.numerator * (
            self.unit // (share.denominator * reward.denominator))
        self.win = reward.numerator * (self.unit // reward.denominator)

    def scores(self, steps_taken: int, arcs: tuple[tuple[str, int], ...]) -> list[tuple[str, int]]:
        """(head, perceived cost) for each arc, by the three-case reduction."""
        tables, scale, bias = self.graph.hop_tables, self.scale, self.bias
        if self.opponent_length is None:
            return [(head, bias * cost + scale * tables[head].costs[-1]) for head, cost in arcs]
        # the budget is the number of edges left to tie the opponent
        budget = self.opponent_length - steps_taken - 1
        tie_reward, win_reward = self.tie, self.win
        scored = []
        for head, cost in arcs:
            lose, tie, win = tables[head].cases(budget)
            best = scale * lose
            if tie is not None:
                tie = scale * tie - tie_reward
                if tie < best:
                    best = tie
                if win is not None:
                    win = scale * win - win_reward
                    if win < best:
                        best = win
            scored.append((head, bias * cost + best))
        return scored


def perceived_cost(
    graph: TaskGraph,
    state: TraversalState,
    successor: str,
    config: AgentConfig,
    opponent_length: int | None = None,
    reward: Fraction = Fraction(0),
) -> Fraction:
    """Perceived cost of stepping to ``successor``, per the three-case reduction."""
    perceive = _Perceiver(graph, config, opponent_length, reward)
    arc = (successor, graph.arc_cost(state.vertex, successor))
    [(_, cost)] = perceive.scores(state.steps_taken, (arc,))
    return Fraction(cost, perceive.unit)


def traverse(
    graph: TaskGraph,
    config: AgentConfig,
    opponent: int | None = None,
    reward: Fraction = Fraction(0),
    reference: PathRecord | None = None,
) -> TraversalTrace:
    """Walk from source to sink, re-deciding with fresh bias at every vertex."""
    if opponent is not None and opponent < 1:
        raise ValueError("opponent length must be at least 1")
    perceive = _Perceiver(graph, config, opponent, reward)
    arcs, sink = graph.arcs, graph.sink
    prefix = [graph.source]
    log = []
    ref = reference.vertices if reference is not None else ()
    while prefix[-1] != sink:
        steps = len(prefix) - 1
        ref_next = ref[steps + 1] if steps + 1 < len(ref) else None
        at = prefix[-1]
        scored = perceive.scores(steps, arcs[at])
        chose, best = min(scored, key=itemgetter(1))  # ties go to ref_next, else graph order
        if ref_next is not None and (ref_next, best) in scored:
            chose = ref_next
        log.append((at, chose, best, scored))
        if chose != ref_next:
            ref = ()
        prefix.append(chose)
    return TraversalTrace._from_log(PathRecord.from_vertices(graph, prefix), log, perceive.unit)


def ratio_to_optimal(graph: TaskGraph, path: PathRecord) -> Fraction:
    """The cost of ``path`` divided by the cheapest-path cost."""
    optimal = graph.cheapest_cost(graph.source)
    if optimal == 0:
        raise ZeroOptimalCost("cheapest path costs zero")
    return path.cost / optimal


def cost_ratio(graph: TaskGraph, config: AgentConfig) -> Fraction:
    """Biased traversal cost divided by the cheapest-path cost."""
    return ratio_to_optimal(graph, traverse(graph, config).path)
