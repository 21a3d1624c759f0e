"""Metamorphic relations: answers that must not change when the input is transformed.

Unit invariance.  Multiplying every edge cost and the reward by one positive
rational changes only the unit of cost, so every walk and every equilibrium
answer stays the same and every reward endpoint scales by the factor.  The
factor 1000003/999983 (both prime) turns the benchmark graphs' unit of 2 into
a 21-bit one, so the relation exercises the integer scaling of ``graph.unit``
and the floor divisions of the reward sets far from the small units the other
tests use.

Two relations check the large graphs against themselves at one unit: the
reward set holds exactly where the traversal check holds, probed around every
breakpoint, and at bias 1 the walk costs the cheapest cost.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from biasgraph import (AgentConfig, Interval, PathRecord, RewardTie, algorithm_breakpoints,
                       check_symmetric_ne, feasible_rewards, traverse, validate)
from biasgraph.oracle import sweep_candidates

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAMBDA = Fraction(1000003, 999983)
BIASES = (Fraction(2), Fraction(3, 2))


def _perfbench_gen():
    """perfbench/gen.py, unedited; it imports its sibling ``checks`` by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _scaled(document: dict, factor: Fraction) -> dict:
    edges = [{**e, "cost": str(Fraction(e["cost"]) * factor)} for e in document["edges"]]
    return {**document, "edges": edges}


@pytest.fixture(scope="module", params=["series", "window"])
def pair(request):
    gen = _perfbench_gen()
    document = {"series": lambda: gen.series_dag(1, 3, 12, 8),
                "window": lambda: gen.window_dag(1, 2000, 24)}[request.param]()
    return validate(document), validate(_scaled(document, LAMBDA))


def test_the_factor_widens_the_unit(pair):
    graph, scaled = pair
    assert (graph.unit, scaled.unit) == (2, 2 * 999983)


def _rewards(graph):
    cheapest = graph.cheapest_cost(graph.source)
    return (Fraction(0), cheapest / 3, cheapest, 3 * cheapest)


def _on(graph, path: PathRecord) -> PathRecord:
    return PathRecord.from_vertices(graph, path.vertices)


def _paths(graph, bias):
    """The cheapest walk, the biased walk and the planted dominant path s, w, t."""
    return (traverse(graph, AgentConfig(1)).path, traverse(graph, AgentConfig(bias)).path,
            PathRecord.from_vertices(graph, ["s", "w", "t"]))


@pytest.mark.parametrize("bias", BIASES)
def test_walks_are_unit_invariant(pair, bias):
    graph, scaled = pair
    k = traverse(graph, AgentConfig(bias)).path.length
    for tie in RewardTie:
        config = AgentConfig(bias, tie)
        for opponent in (k - 1, k, k + 1):
            for reward in _rewards(graph):
                walk = traverse(graph, config, opponent=opponent, reward=reward).path
                other = traverse(scaled, config, opponent=opponent, reward=reward * LAMBDA).path
                assert other.vertices == walk.vertices, (tie, opponent, reward)
                assert other.cost == walk.cost * LAMBDA


@pytest.mark.parametrize("bias", BIASES)
def test_equilibrium_answers_are_unit_invariant(pair, bias):
    graph, scaled = pair
    for q in _paths(graph, bias):
        for tie in RewardTie:
            for reward in _rewards(graph):
                answer = check_symmetric_ne(graph, q, reward, bias, tie)
                other = check_symmetric_ne(scaled, _on(scaled, q), reward * LAMBDA, bias, tie)
                assert (other.is_equilibrium, other.deviated_at) == (
                    answer.is_equilibrium, answer.deviated_at), (q.vertices, tie, reward)


@pytest.mark.parametrize("bias", BIASES)
def test_feasible_reward_endpoints_scale(pair, bias):
    graph, scaled = pair
    for q in _paths(graph, bias):
        expected = [Interval(i.lo * LAMBDA, None if i.hi is None else i.hi * LAMBDA)
                    for i in feasible_rewards(graph, q, bias).intervals]
        assert list(feasible_rewards(scaled, _on(scaled, q), bias).intervals) == expected


@pytest.mark.parametrize("bias", (Fraction(3, 2), Fraction(2), Fraction(5)))
def test_reward_set_holds_where_the_traversal_check_holds(pair, bias):
    graph, _ = pair
    for q in _paths(graph, bias)[1:]:
        feasible = feasible_rewards(graph, q, bias)
        for r in sweep_candidates(algorithm_breakpoints(graph, q, bias)):
            assert feasible.contains(r) == bool(check_symmetric_ne(graph, q, r, bias)), (q.vertices, r)


def test_unbiased_walk_costs_the_cheapest_cost(pair):
    for graph in pair:
        assert traverse(graph, AgentConfig(1)).path.cost == graph.cheapest_cost(graph.source)
