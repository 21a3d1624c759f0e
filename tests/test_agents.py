from fractions import Fraction

import numpy as np
import pytest

from biasgraph import (
    AgentConfig,
    RewardTie,
    ZeroOptimalCost,
    cost_ratio,
    fan_path,
    make_fan,
    FanSpec,
    perceived_cost,
    step,
    traverse,
)
from biasgraph.oracle import random_layered_graph

from conftest import at, build_graph

F = Fraction


class TestPerceivedCost:
    def test_fan_at_source_toward_sink_with_competition(self, fan5, bias2):
        _, graph = fan5
        # opponent committed to the direct path, reward 1: b*1 - r/2
        got = perceived_cost(graph, at(graph, "s"), "t", bias2, opponent_length=1, reward=F(1))
        assert got == F(3, 2)

    def test_fan_at_source_toward_spine(self, fan5, bias2):
        _, graph = fan5
        got = perceived_cost(graph, at(graph, "s"), "v1", bias2, opponent_length=1, reward=F(1))
        assert got == F(3, 2)

    def test_fig1_no_competition(self, fig1, bias2):
        graph, _ = fig1
        assert perceived_cost(graph, at(graph, "s"), "x", bias2) == 12
        assert perceived_cost(graph, at(graph, "s"), "v", bias2) == 11

    def test_reward_zero_equals_no_competition(self, fig1, bias2):
        graph, _ = fig1
        for succ in ("x", "v"):
            assert perceived_cost(graph, at(graph, "s"), succ, bias2, 3, F(0)) == \
                perceived_cost(graph, at(graph, "s"), succ, bias2)

    def test_tie_rule_variants(self, fan5):
        _, graph = fan5
        state = at(graph, "s")
        r = F(1)
        full = AgentConfig(F(2), RewardTie.FULL)
        none = AgentConfig(F(2), RewardTie.NONE)
        # direct step ties an opponent of length 1: full credit vs none
        assert perceived_cost(graph, state, "t", full, 1, r) == 2 - 1
        assert perceived_cost(graph, state, "t", none, 1, r) == 2

    def test_negative_reward_rejected(self, fan5, bias2):
        _, graph = fan5
        with pytest.raises(ValueError):
            perceived_cost(graph, at(graph, "s"), "t", bias2, 1, F(-1))


class TestStep:
    def test_fig1_choices(self, fig1, bias2):
        graph, _ = fig1
        chosen = step(graph, at(graph, "s"), bias2).chose
        assert chosen == "v"
        chosen = step(graph, at(graph, "s", "v"), bias2).chose
        assert chosen == "z"

    def test_unbiased_follows_cheapest(self):
        rng = np.random.default_rng(5)
        unbiased = AgentConfig(F(1))
        for _ in range(10):
            graph = random_layered_graph(rng)
            chosen = step(graph, at(graph, graph.source), unbiased).chose
            edge = graph.edge_cost(graph.source, chosen)
            assert edge + graph.cheapest_cost(chosen) == graph.cheapest_cost(graph.source)

    def test_reference_preference_breaks_ties(self, fan5, bias2):
        _, graph = fan5
        # at reward 1 both successors are perceived at 3/2; reference wins
        chosen = step(graph, at(graph, "s"), bias2, 1, F(1), reference_next="t").chose
        assert chosen == "t"
        chosen = step(graph, at(graph, "s"), bias2, 1, F(1), reference_next="v1").chose
        assert chosen == "v1"
        chosen = step(graph, at(graph, "s"), bias2, 1, F(1)).chose
        assert chosen == "t"  # lexicographic fallback: sink registered first


class TestTraverse:
    def test_fig1_biased_walk(self, fig1, bias2):
        graph, _ = fig1
        trace = traverse(graph, bias2)
        assert trace.path.vertices == ("s", "v", "z", "t")
        assert trace.path.cost == 21

    def test_fan_full_procrastination(self, fan5, bias2):
        _, graph = fan5
        trace = traverse(graph, bias2)
        assert trace.path.vertices == fan_path(graph, 5).vertices
        assert trace.path.cost == F(3, 2) ** 5

    def test_unbiased_matches_cheapest_cost(self):
        rng = np.random.default_rng(17)
        unbiased = AgentConfig(F(1))
        for _ in range(20):
            graph = random_layered_graph(rng)
            trace = traverse(graph, unbiased)
            assert trace.path.cost == graph.cheapest_cost(graph.source)

    def test_terminates_within_vertex_budget(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            graph = random_layered_graph(rng)
            trace = traverse(graph, AgentConfig(F(5)))
            assert trace.path.length <= len(graph.vertices)
            assert trace.path.vertices[0] == graph.source
            assert trace.path.vertices[-1] == graph.sink

    def test_fan_threshold_between_direct_and_delay(self):
        for n, c, b in [(3, F(3, 2), F(5, 4)), (4, F(2), F(3, 2)), (5, F(3, 2), F(3, 2)),
                        (3, F(2), F(2)), (4, F(3, 2), F(2)), (5, F(5, 4), F(2))]:
            graph = make_fan(FanSpec(n, c))
            trace = traverse(graph, AgentConfig(b))
            expected = fan_path(graph, 0 if b <= c else n)
            assert trace.path.vertices == expected.vertices, (n, c, b)

    def test_zero_reward_competition_changes_nothing(self):
        rng = np.random.default_rng(41)
        config = AgentConfig(F(2))
        for _ in range(20):
            graph = random_layered_graph(rng)
            plain = traverse(graph, config)
            for k in (1, 2, 3):
                raced = traverse(graph, config, opponent=k, reward=F(0))
                assert raced.path.vertices == plain.path.vertices

    def test_trace_log_matches_path(self, fig1, bias2):
        graph, _ = fig1
        trace = traverse(graph, bias2)
        assert len(trace.steps) == trace.path.length
        assert [s.at for s in trace.steps] == list(trace.path.vertices[:-1])
        assert [s.chose for s in trace.steps] == list(trace.path.vertices[1:])
        first = trace.steps[0]
        assert first.perceived == 11
        assert first.alternatives == (("x", F(12)),)

    def test_trace_serializes(self, fig1, bias2):
        graph, _ = fig1
        payload = traverse(graph, bias2).to_json_dict()
        assert payload["cost"] == "21"
        assert payload["steps"][0]["alternatives"] == [{"vertex": "x", "perceived": "12"}]


class TestCostRatio:
    def test_fig1(self, fig1, bias2):
        graph, _ = fig1
        assert cost_ratio(graph, bias2) == F(7, 2)

    def test_fan_ratio_is_exit_cost(self, fan5, bias2):
        _, graph = fan5
        assert cost_ratio(graph, bias2) == F(3, 2) ** 5

    def test_unbiased_ratio_is_one(self, fig1):
        graph, _ = fig1
        assert cost_ratio(graph, AgentConfig(F(1))) == 1

    def test_zero_optimal_cost_rejected(self):
        graph = build_graph([("s", "t", 0)])
        with pytest.raises(ZeroOptimalCost):
            cost_ratio(graph, AgentConfig(F(2)))
