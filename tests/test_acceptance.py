"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them)."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from biasgraph import (
    AgentConfig,
    BiasDistribution,
    FanSpec,
    PathRecord,
    RewardTie,
    algorithm_breakpoints,
    check_symmetric_ne,
    classify_unbiased,
    closed_form_p,
    dominant_path_reward,
    expected_inverse_share,
    fan_path,
    feasible_rewards,
    fixed_point_p,
    make_fan,
    make_named_instance,
    reward_share_factor,
    solve_fan_bne,
    solve_fan_bne_multi,
    traverse,
)
from biasgraph.oracle import (
    best_response_table,
    fan_exit_frequencies,
    random_dominant_graph,
    random_ladder_graph,
    random_layered_graph,
    reward_sweep_ne,
    sweep_candidates,
)

from conftest import binomial_inverse_share

F = Fraction


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {label}  ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_branching_regression():
    with criterion(1, "branching graph: bias 2 walks cost 21 versus optimal 6"):
        graph, _ = make_named_instance("fig1")
        config = AgentConfig(F(2))
        trace = traverse(graph, config)  # warm the cached tables
        assert trace.path.cost == 21
        assert graph.cheapest_cost("s") == 6
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            traverse(graph, config)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3


def test_criterion_2_fan_thresholds():
    with criterion(2, "5-fan reward thresholds for the direct and delay paths", 1.0):
        spec = FanSpec(5, F(3, 2))
        graph = make_fan(spec)
        bias = F(2)
        direct, longest = fan_path(graph, 0), fan_path(graph, 5)
        for r in (F(1), F(2), F(10)):
            assert check_symmetric_ne(graph, direct, r, bias)
        assert not check_symmetric_ne(graph, direct, F(99, 100), bias)
        cap = F(81, 16)
        for r in (F(0), F(2), cap):
            assert check_symmetric_ne(graph, longest, r, bias)
        assert not check_symmetric_ne(graph, longest, cap + F(1, 100), bias)
        sampled = [F(k, 3) for k in range(18)] + [F(1), cap]
        assert len(sampled) == 20
        for i in range(1, 5):
            for r in sampled:
                assert not check_symmetric_ne(graph, fan_path(graph, i), r, bias)


def test_criterion_3_dominant_path_bound():
    with criterion(3, "dominant-path reward bound on 100 random graphs", 10.0):
        rng = random.Random(2024)
        passed = 0
        for _ in range(100):
            graph = random_dominant_graph(rng)
            assert len(graph.vertices) <= 10
            if all(
                check_symmetric_ne(graph, bound.path, bound.reward, bias)
                for bias in (F(3, 2), F(2), F(5))
                for bound in (dominant_path_reward(graph, bias),)
            ):
                passed += 1
        assert passed == 100


def test_criterion_4_feasible_set_matches_sweep_oracle():
    with criterion(4, "interval algorithm agrees with reward sweeps on 300 graphs", 120.0):
        rng = random.Random(4096)
        mismatches = 0
        cases = 0
        for _ in range(300):
            graph = random_layered_graph(rng)
            assert len(graph.vertices) <= 8
            from biasgraph.oracle import enumerate_paths

            for q in enumerate_paths(graph):
                for bias in (F(2), F(10)):
                    feasible = feasible_rewards(graph, q, bias)
                    points = algorithm_breakpoints(graph, q, bias)
                    candidates = sweep_candidates(points, extra_random=10, rng=rng)
                    swept = reward_sweep_ne(graph, q, bias, candidates)
                    for r in candidates:
                        cases += 1
                        if feasible.contains(r) != (r in swept):
                            mismatches += 1
        assert cases > 0
        assert mismatches == 0


def test_criterion_5_reward_nonmonotonicity_witnesses():
    with criterion(5, "reward raises can both break and create equilibria"):
        graph, meta = make_named_instance("fig7a")
        bias = F(10)
        q = PathRecord.from_vertices(graph, meta["Q"])
        feasible = feasible_rewards(graph, q, bias)
        assert feasible.contains(F(1))
        assert not feasible.contains(F(300))
        from biasgraph import TraversalState, perceived_cost

        config = AgentConfig(bias)
        start = TraversalState("s", 0)
        assert perceived_cost(graph, start, "q1", config, 3, F(300)) == -148
        assert perceived_cost(graph, start, "v1", config, 3, F(300)) == -200
        assert bias * graph.edge_cost("v1", "t") == 1000

        graph_b, meta_b = make_named_instance("fig7b")
        q_b = PathRecord.from_vertices(graph_b, meta_b["Q"])
        low = check_symmetric_ne(graph_b, q_b, F(2), bias)
        high = check_symmetric_ne(graph_b, q_b, F(10), bias)
        assert not low and low.deviated_at == "s"
        assert high
        start_b = TraversalState("s", 0)
        for r in (F(2), F(10)):
            assert perceived_cost(graph_b, start_b, "v1", config, 3, r) == 5
        assert perceived_cost(graph_b, start_b, "q1", config, 3, F(10)) == 3
        assert perceived_cost(graph_b, start_b, "q1", config, 3, F(2)) == 7


def test_criterion_6_bne_closed_forms():
    with criterion(6, "cutoff equilibria match the closed forms"):
        spec = FanSpec(5, F(2))
        er = BiasDistribution.equal_revenue(2.0)
        sol = solve_fan_bne(spec, er, 4.0)
        assert abs(sol.prob_optimal - 0.5) <= 1e-9
        assert abs(sol.expected_cost_ratio - 16.5) <= 1e-9

        uni13 = BiasDistribution.uniform(1.0, 3.0)
        for r, expect_one in ((3.0, False), (3.99, False), (4.0, True), (7.0, True)):
            solved = fixed_point_p(uni13, r) or 0.0
            assert (solved == 1.0) == expect_one
            assert (closed_form_p(uni13, r) == 1.0) == expect_one

        exp = BiasDistribution.shifted_exponential(2.0, 1.0)
        sol_exp = solve_fan_bne(spec, exp, 10.0)
        assert abs(sol_exp.prob_optimal - closed_form_p(exp, 10.0)) <= 1e-8


def test_criterion_7_multi_competitor_forms():
    with criterion(7, "competitor-count formulas: share factors and the limit bound", 30.0):
        for i in range(1, 101):
            p = i / 100
            assert abs(reward_share_factor(p, 1) - p / 2) <= 1e-15
        for p in (0.1, 0.5, 0.9):
            for m in (1, 2, 5, 10):
                assert expected_inverse_share(p, m) == binomial_inverse_share(p, m)
        spec = FanSpec(5, F(2))
        er = BiasDistribution.equal_revenue(2.0)
        for s in (1.0, 4.0, 16.0):
            bound = (math.sqrt(4 * s + s * s) - s) / 2
            for m in (1, 2, 5, 20, 100):
                sol = solve_fan_bne_multi(spec, er, (m + 1) * s, m)
                assert sol.prob_optimal <= bound + 1e-9


def test_criterion_8_bne_simulation_consistency():
    with criterion(8, "agents at the bias quantiles reproduce each valid cutoff equilibrium", 30.0):
        spec = FanSpec(5, F(2))
        solutions = [
            (BiasDistribution.equal_revenue(2.0), 4.0),
            (BiasDistribution.uniform(2.0, 4.0), 4.0),
            (BiasDistribution.shifted_exponential(2.0, 1.0), 10.0),
        ]
        for dist, reward in solutions:
            sol = solve_fan_bne(spec, dist, reward)
            assert sol.found and sol.valid
            freqs = fan_exit_frequencies(spec, dist, reward, sol.cutoff, 10**5)
            assert abs(freqs.frequencies[0] - sol.prob_optimal) <= 1 / 10**5
            assert all(freqs.frequencies[i] == 0 for i in range(1, spec.n))


def test_criterion_9_two_path_rule_always_leaks():
    with criterion(9, "two-point cutoff rules leak onto a middle path", 5.0):
        from biasgraph import two_path_bne_intervals

        rng = random.Random(909)
        holds = 0
        for _ in range(10**4):
            c = 1.0 + rng.uniform(0.05, 2.0)
            c2 = c * c + rng.uniform(0.05, 5.0)
            c3 = c2 * c2 + rng.uniform(0.05, 10.0)
            r = rng.uniform(0.0, 25.0)
            p = rng.uniform(0.01, 0.99)
            first, second = two_path_bne_intervals(c, c2, c3, r, p)
            if first.nonempty or second.nonempty:
                holds += 1
        assert holds == 10**4


def test_criterion_10_unbiased_classification_vs_brute_force():
    with criterion(10, "ladder classification equals the best-response table", 10.0):
        rng = random.Random(1010)
        rewards = [F(x) for x in ("0", "1/2", "1", "2", "4", "8", "16")]
        for _ in range(200):
            graph = random_ladder_graph(rng)
            reward = rng.choice(rewards)
            report = classify_unbiased(graph, reward, RewardTie.SPLIT)
            paths = report.ladder.paths
            assert len(paths) <= 6
            sym, asym = best_response_table(
                [p.cost for p in paths], [p.length for p in paths], reward, RewardTie.SPLIT
            )
            assert sorted(paths.index(p) for p in report.symmetric) == sorted(sym)
            assert len(report.symmetric) <= 2
            if report.asymmetric is None:
                assert not asym
            else:
                i = paths.index(report.asymmetric[0])
                j = paths.index(report.asymmetric[1])
                assert sorted(asym) == sorted({(i, j), (j, i)})
