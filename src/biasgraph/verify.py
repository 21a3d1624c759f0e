"""Randomized cross-checks between the analytical routines and the oracles.

Each suite returns a report dict with a case count and a list of
counterexample dumps (graph JSON plus parameters); an empty failure list means
the suite passed.  Counts scale linearly with the ``scale`` argument so CI can
trade time for confidence.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import bne, oracle
from .agents import RewardTie
from .bne import BiasDistribution
from .equilibria import (
    algorithm_breakpoints,
    check_symmetric_ne,
    classify_unbiased,
    dominant_path_reward,
    fan_ne_thresholds,
    feasible_rewards,
)
from .graph import TaskGraph
from .instances import FanSpec, fan_path, make_fan

SUITES = ("alg1", "prop1", "thm1", "thm2", "bne")


def _dump(graph: TaskGraph, **params) -> dict:
    return {"graph": graph.to_json_dict(), **params}


def suite_alg1(seed: int, scale: float = 1.0) -> dict:
    """Feasible-reward sets must match the brute-force reward sweep pointwise."""
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
                points = algorithm_breakpoints(graph, q, bias)
                candidates = oracle.sweep_candidates(points, extra_random=5, rng=rng)
                swept = oracle.reward_sweep_ne(graph, q, bias, candidates)
                for r in candidates:
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
    """Ladder classification must agree with the best-response table."""
    rng = random.Random(seed)
    n_instances = max(1, int(100 * scale))
    cases = 0
    failures: list[dict] = []
    rewards = [Fraction(x) for x in ("0", "1/2", "1", "2", "4", "8", "16")]
    for _ in range(n_instances):
        graph = oracle.random_ladder_graph(rng)
        reward = rng.choice(rewards)
        for tie_rule in RewardTie:
            cases += 1
            report = classify_unbiased(graph, reward, tie_rule)
            paths = report.ladder.paths
            costs = [p.cost for p in paths]
            lengths = [p.length for p in paths]
            sym, asym = oracle.best_response_table(costs, lengths, reward, tie_rule)
            got_sym = [paths.index(p) for p in report.symmetric]
            ok = sorted(got_sym) == sorted(sym)
            if report.asymmetric is None:
                ok = ok and not asym
            else:
                i, j = paths.index(report.asymmetric[0]), paths.index(report.asymmetric[1])
                ok = ok and sorted(asym) == sorted({(i, j), (j, i)})
            if tie_rule is RewardTie.SPLIT and len(sym) > 2:
                ok = False
            if not ok:
                failures.append(_dump(
                    graph, reward=str(reward), tie=tie_rule.value,
                    classified=got_sym, brute=sym, brute_asym=asym,
                ))
    return {"cases": cases, "failures": failures}


def suite_thm1(seed: int, scale: float = 1.0) -> dict:
    """Fan equilibria exist exactly at the closed-form reward thresholds."""
    rng = random.Random(seed)
    combos = [
        (3, Fraction(3, 2), Fraction(2)),
        (4, Fraction(2), Fraction(3)),
        (5, Fraction(3, 2), Fraction(2)),
        (6, Fraction(5, 4), Fraction(3, 2)),
    ]
    cases = 0
    failures: list[dict] = []
    for n, c, bias in combos:
        spec = FanSpec(n, c)
        graph = make_fan(spec)
        thresholds = fan_ne_thresholds(spec, bias)
        lo, hi = thresholds.optimal_min_reward, thresholds.longest_max_reward
        probes = {lo, hi, lo / 2, lo + Fraction(1, 100), hi + Fraction(1, 100), hi * 2}
        for _ in range(max(1, int(8 * scale))):
            probes.add(Fraction(rng.randrange(64), 4))
        for r in sorted(probes):
            cases += 1
            on_direct = bool(check_symmetric_ne(graph, fan_path(graph, 0), r, bias))
            on_longest = bool(check_symmetric_ne(graph, fan_path(graph, n), r, bias))
            interior = [
                bool(check_symmetric_ne(graph, fan_path(graph, i), r, bias))
                for i in range(1, n)
            ]
            ok = (
                on_direct == (r >= lo)
                and on_longest == (r <= hi)
                and not any(interior)
            )
            if not ok:
                failures.append(_dump(graph, n=n, c=str(c), bias=str(bias), reward=str(r)))
    return {"cases": cases, "failures": failures}


def suite_thm2(seed: int, scale: float = 1.0) -> dict:
    """The dominant-path reward bound always yields an equilibrium."""
    rng = random.Random(seed)
    n_graphs = max(1, int(50 * scale))
    cases = 0
    failures: list[dict] = []
    for _ in range(n_graphs):
        graph = oracle.random_dominant_graph(rng)
        for bias in (Fraction(3, 2), Fraction(2), Fraction(5)):
            cases += 1
            bound = dominant_path_reward(graph, bias)
            if not check_symmetric_ne(graph, bound.path, bound.reward, bias):
                failures.append(_dump(graph, bias=str(bias), reward=str(bound.reward)))
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
