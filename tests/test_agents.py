import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import (
    AgentConfig,
    RewardTie,
    TraversalState,
    TraversalStep,
    ZeroOptimalCost,
    cost_ratio,
    fan_path,
    make_fan,
    FanSpec,
    PathRecord,
    perceived_cost,
    traverse,
)
from biasgraph.oracle import enumerate_paths, random_layered_graph

from conftest import at, build_graph, coprime_graph, reference_staircases, with_twin

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
        steps = traverse(graph, bias2).steps
        assert (steps[0].at, steps[0].chose) == ("s", "v")
        assert (steps[1].at, steps[1].chose) == ("v", "z")

    def test_unbiased_follows_cheapest(self):
        rng = random.Random(5)
        unbiased = AgentConfig(F(1))
        for _ in range(10):
            graph = random_layered_graph(rng)
            chosen = traverse(graph, unbiased).steps[0].chose
            edge = graph.edge_cost(graph.source, chosen)
            assert edge + graph.cheapest_cost(chosen) == graph.cheapest_cost(graph.source)

    def test_reference_preference_breaks_ties(self, fan5, bias2):
        _, graph = fan5
        # at reward 1 both successors are perceived at 3/2; reference wins
        for i, first in ((0, "t"), (1, "v1")):
            trace = traverse(graph, bias2, 1, F(1), reference=fan_path(graph, i))
            assert trace.steps[0].chose == first
        chosen = traverse(graph, bias2, 1, F(1)).steps[0].chose
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
        rng = random.Random(17)
        unbiased = AgentConfig(F(1))
        for _ in range(20):
            graph = random_layered_graph(rng)
            trace = traverse(graph, unbiased)
            assert trace.path.cost == graph.cheapest_cost(graph.source)

    def test_terminates_within_vertex_budget(self):
        rng = random.Random(29)
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
        rng = random.Random(41)
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


class TestLazyTrace:
    """``traverse`` logs integers and builds its steps the first time they are read;
    a trace behaves the same whether or not they have been read."""

    REWARD = F(5, 7)

    @staticmethod
    def walks(tie_rule):
        """(graph, config, opponent, a function making a fresh trace) over random
        layered graphs, without an opponent and against lengths 1 to 3."""
        rng = random.Random(83)
        config = AgentConfig(F(7, 3), tie_rule)
        for _ in range(15):
            graph = random_layered_graph(rng)
            for opponent in (None, 1, 2, 3):
                yield graph, config, opponent, lambda g=graph, k=opponent: traverse(
                    g, config, k, TestLazyTrace.REWARD)

    @pytest.mark.parametrize("tie_rule", tuple(RewardTie))
    def test_steps_rebuild_from_perceived_cost(self, tie_rule):
        for graph, config, opponent, walk in self.walks(tie_rule):
            trace = walk()
            assert len(trace.steps) == trace.path.length
            for i, step in enumerate(trace.steps):
                assert (step.at, step.chose) == trace.path.vertices[i:i + 2]
                costs = {e.head: perceived_cost(graph, TraversalState(step.at, i), e.head, config,
                                                opponent, self.REWARD)
                         for e in graph.edges if e.tail == step.at}
                assert step == TraversalStep(step.at, step.chose, costs.pop(step.chose),
                                             tuple(costs.items()))

    @pytest.mark.parametrize("tie_rule", tuple(RewardTie))
    def test_unread_trace_behaves_as_read(self, tie_rule):
        probes = (lambda t: t, hash, repr, lambda t: t.to_json_dict(),
                  lambda t: dataclasses.replace(t, steps=t.path.vertices),
                  lambda t: dataclasses.replace(t, path=None),
                  copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)))
        for _, _, _, walk in self.walks(tie_rule):
            read = walk()
            read.steps
            for probe in probes:
                assert probe(walk()) == probe(read)
                assert probe(read) == probe(walk())

    @pytest.mark.parametrize("tie_rule", tuple(RewardTie))
    def test_steps_built_once(self, tie_rule):
        for _, _, _, walk in self.walks(tie_rule):
            trace = walk()
            assert trace.steps is trace.steps
            assert copy.deepcopy(walk()).steps == trace.steps


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


# The three-case perceived cost written out in Fraction arithmetic over the
# reference staircases: the reference the integer kernel must reproduce.

def reference_perceived(stairs, edge, steps_taken, config, opponent, reward):
    def within(k):
        costs = [cost for length, cost in stairs[edge.head] if k is None or length <= k]
        return min(costs) if costs else None

    best = within(None)  # lose, or no opponent
    if opponent is not None:
        budget = opponent - steps_taken - 1
        tie, win = within(budget), within(budget - 1)
        if tie is not None:
            best = min(best, tie - config.reward_tie.share * reward)
        if win is not None:
            best = min(best, win - reward)
    return config.bias * edge.cost + best


def reference_walk(graph, stairs, config, opponent, reward, reference):
    """(at, chose, perceived, alternatives) per step of the literal walk."""
    prefix, log = [graph.source], []
    on_reference = reference is not None
    while prefix[-1] != graph.sink:
        u = prefix[-1]
        ref_next = None
        if on_reference and len(prefix) < len(reference.vertices):
            ref_next = reference.vertices[len(prefix)]
        scored = [(e.head, reference_perceived(stairs, e, len(prefix) - 1, config, opponent, reward))
                  for e in graph.edges if e.tail == u]
        best = min(cost for _, cost in scored)
        tied = [v for v, cost in scored if cost == best]
        chosen = ref_next if ref_next in tied else tied[0]
        log.append((u, chosen, best, tuple((v, c) for v, c in scored if v != chosen)))
        on_reference = on_reference and chosen == ref_next
        prefix.append(chosen)
    return log


class TestIntegerKernel:
    """Edge costs n / (p_i * p_(i+7)), biases 7/3 and 13/6 and rewards 1/3 and
    5/7 make the integer unit carry every kind of denominator; a twin vertex
    makes ties that the reference successor or the vertex order must break."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bias=st.sampled_from((F(7, 3), F(13, 6))),
           reward=st.sampled_from((F(1, 3), F(5, 7))), tie_rule=st.sampled_from(tuple(RewardTie)))
    def test_matches_fraction_three_case_formula(self, seed, bias, reward, tie_rule):
        rng = random.Random(seed)
        graph = with_twin(coprime_graph(rng), rng)
        stairs = reference_staircases(graph)
        config = AgentConfig(bias, tie_rule)
        for e in graph.edges:
            for steps_taken in range(3):
                for opponent in (None, 1, 2, 3, 4):
                    state = TraversalState(e.tail, steps_taken)
                    assert perceived_cost(graph, state, e.head, config, opponent, reward) == \
                        reference_perceived(stairs, e, steps_taken, config, opponent, reward)
        for reference in [None, *enumerate_paths(graph)]:
            for opponent in (None, 1, 2, 3, 4):
                trace = traverse(graph, config, opponent, reward, reference)
                assert [(s.at, s.chose, s.perceived, s.alternatives) for s in trace.steps] == \
                    reference_walk(graph, stairs, config, opponent, reward, reference)

    def test_twin_tie_follows_the_reference(self):
        graph = with_twin(build_graph([("s", "a", 1), ("a", "t", 1), ("s", "t", 3)]),
                          random.Random(0))
        assert graph.vertices == ("s", "a", "a'", "t")
        config = AgentConfig(F(7, 3))
        for opponent in (None, 2):
            assert traverse(graph, config, opponent, F(1, 3)).path.vertices == ("s", "a", "t")
            twin = traverse(graph, config, opponent, F(1, 3),
                            reference=PathRecord.from_vertices(graph, ("s", "a'", "t")))
            assert twin.path.vertices == ("s", "a'", "t")
