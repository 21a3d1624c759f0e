"""Randomized cross-checks between the analytical routines and the oracles.

Each suite returns a report dict with a case count and a list of
counterexample dumps (graph JSON plus parameters); an empty failure list means
the suite passed.  Case counts scale linearly with the ``scale`` argument so
CI can trade time for confidence; the exception is bne, whose closed-form and
share-factor checks are a fixed part and whose population alone grows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import bne, oracle
from .agents import RewardTie
from .bne import BiasDistribution
from .equilibria import (
    classify_unbiased,
    dominant_path_reward,
    fan_ne_thresholds,
    feasible_rewards,
)
from .graph import TaskGraph
from .instances import FanSpec, fan_path, make_fan
from .intervals import Interval, IntervalSet

SUITES = ("alg1", "prop1", "thm1", "thm2", "bne")


def _dump(graph: TaskGraph, **params) -> dict:
    return {"graph": graph.to_json_dict(), **params}


def _vertices(paths) -> tuple:
    return tuple(p.vertices for p in paths)


def suite_alg1(seed: int, scale: float = 1.0) -> dict:
    """Feasible-reward sets must match the brute-force reward sweep at every
    ``oracle.reward_probes`` point, and so on all of [0, inf)."""
    rng = random.Random(seed)
    n_graphs = max(1, int(40 * scale))
    cases = 0
    failures: list[dict] = []
    for _ in range(n_graphs):
        graph = oracle.random_layered_graph(rng)
        paths = oracle.enumerate_paths(graph)
        for q in paths:
            for bias in (Fraction(2), Fraction(10)):
                feasible = feasible_rewards(graph, q, bias)
                ends = [p for i in feasible.intervals for p in (i.lo, i.hi) if p is not None]
                probes = oracle.reward_probes(graph, q, bias, ends)
                swept = oracle.reward_sweep_ne(graph, q, bias, probes)
                for r in probes:
                    cases += 1
                    if feasible.contains(r) != (r in swept):
                        failures.append(_dump(
                            graph,
                            path=list(q.vertices),
                            bias=str(bias),
                            reward=str(r),
                            interval_says=feasible.contains(r),
                            sweep_says=r in swept,
                        ))
    return {"cases": cases, "failures": failures}


def suite_prop1(seed: int, scale: float = 1.0) -> dict:
    """The ladder classification must equal the oracle's ladder and equilibria,
    built from enumerated paths; under split ties at most two rungs are
    symmetric equilibria (Proposition 1)."""
    rng = random.Random(seed)
    n_instances = max(1, int(100 * scale))
    cases = 0
    failures: list[dict] = []
    rewards = [Fraction(x) for x in ("0", "1/2", "1", "2", "4", "8", "16")]
    for _ in range(n_instances):
        graph = oracle.random_ladder_graph(rng)
        reward = rng.choice(rewards)
        paths = oracle.enumerate_paths(graph)
        for tie_rule in RewardTie:
            cases += 1
            report = classify_unbiased(graph, reward, tie_rule)
            classified = (_vertices(report.ladder.paths), _vertices(report.symmetric),
                          (_vertices(report.asymmetric),) if report.asymmetric else ())
            brute = oracle.brute_unbiased_equilibria(paths, reward, tie_rule)
            if classified != brute or (tie_rule is RewardTie.SPLIT and len(brute[1]) > 2):
                failures.append(_dump(graph, reward=str(reward), tie=tie_rule.value,
                                      classified=classified, brute=brute))
    return {"cases": cases, "failures": failures}


def suite_thm1(seed: int, scale: float = 1.0) -> dict:
    """Theorem 1 as exact reward sets.  On an n-fan with bias c + eps, eps > 0,
    the direct path is an equilibrium exactly on [2 eps, inf), the longest
    path exactly on [0, 2 eps c^(n-1)], and no interior path at any reward.
    At eps = 0 every path holds at r = 0, where all exits tie, so eps is drawn
    positive: n from 1..8, c from {5/4, 3/2, 2, 3}, eps from {1/4, 1/2, 1, 2, 3}."""
    rng = random.Random(seed)
    cases = 0
    failures: list[dict] = []
    for _ in range(max(1, int(4 * scale))):
        spec = FanSpec(rng.randint(1, 8), Fraction(rng.choice((5, 6, 8, 12)), 4))
        bias = spec.c + Fraction(rng.choice((1, 2, 4, 8, 12)), 4)
        graph = make_fan(spec)
        bounds = fan_ne_thresholds(spec, bias)
        theorem = ([IntervalSet((Interval(bounds.optimal_min_reward, None),))]
                   + [IntervalSet.empty()] * (spec.n - 1)
                   + [IntervalSet((Interval(Fraction(0), bounds.longest_max_reward),))])
        for i, expected in enumerate(theorem):
            cases += 1
            computed = feasible_rewards(graph, fan_path(graph, i), bias)
            if computed != expected:
                failures.append(_dump(
                    graph, n=spec.n, c=str(spec.c), bias=str(bias), path=i,
                    theorem=expected.to_json_list(), computed=computed.to_json_list(),
                ))
    return {"cases": cases, "failures": failures}


def suite_thm2(seed: int, scale: float = 1.0) -> dict:
    """Theorem 2 at every reward above the bound: the dominant path's reward
    set ends in [m, inf) with m at or below ``dominant_path_reward``."""
    rng = random.Random(seed)
    n_graphs = max(1, int(50 * scale))
    cases = 0
    failures: list[dict] = []
    for _ in range(n_graphs):
        graph = oracle.random_dominant_graph(rng)
        for bias in (Fraction(3, 2), Fraction(2), Fraction(5)):
            cases += 1
            bound = dominant_path_reward(graph, bias)
            feasible = feasible_rewards(graph, bound.path, bias)
            tail = feasible.intervals[-1:]
            if not tail or tail[0].hi is not None or tail[0].lo > bound.reward:
                failures.append(_dump(graph, bias=str(bias), reward=str(bound.reward),
                                      computed=feasible.to_json_list()))
    return {"cases": cases, "failures": failures}


def suite_bne(seed: int, scale: float = 1.0) -> dict:
    """Solver fixed points match closed forms and a population of agents placed
    at the bias quantiles.  Every check is deterministic, so the seed is unused."""
    failures: list[dict] = []
    cases = 0
    spec = FanSpec(5, Fraction(2))

    def fail(**info) -> None:
        failures.append(info)

    families = (
        ("equal-revenue", BiasDistribution.equal_revenue(2.0), (2.0, 3.0, 4.0, 10.0, 50.0), 1e-9),
        ("uniform", BiasDistribution.uniform(2.0, 3.0), (1.0, 2.0, 4.0, 6.0), 1e-9),
        ("exponential", BiasDistribution.shifted_exponential(2.0, 1.0), (3.0, 6.0, 10.0), 1e-8),
    )
    for family, dist, rewards, tol in families:
        for r in rewards:
            cases += 1
            solved = bne.solve_fan_bne(spec, dist, r)
            if abs(solved.prob_optimal - bne.closed_form_p(dist, r)) > tol:
                fail(dist=family, reward=r, solver=solved.prob_optimal)

    samples = max(10**4, int(2 * 10**4 * scale))
    dist = BiasDistribution.equal_revenue(2.0)
    solved = bne.solve_fan_bne(spec, dist, 4.0)
    cases += 1
    freqs = oracle.fan_exit_frequencies(spec, dist, 4.0, solved.cutoff, samples)
    if abs(freqs.frequencies[0] - solved.prob_optimal) > 1.0 / samples or any(
        freqs.frequencies[i] for i in range(1, spec.n)
    ):
        fail(dist="equal-revenue", reward=4.0, frequencies=freqs.frequencies)

    for p in [0.01 + i * (0.99 / 33) for i in range(33)] + [1.0]:
        for m in (1, 2, 5, 20):
            cases += 1
            if not bne.reward_share_factor(p, m) > 0:
                fail(share_factor_at=(p, m))
    return {"cases": cases, "failures": failures}


def run_suite(name: str, seed: int = 0, scale: float = 1.0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if not 0 < scale < float("inf"):
        raise ValueError(f"scale must be positive and finite, not {scale}")
    # Looked up when called, so that a wrapper set on the module attribute runs.
    report = {"suite": name, **globals()[f"suite_{name}"](seed, scale)}
    report["passed"] = not report["failures"]
    return report
