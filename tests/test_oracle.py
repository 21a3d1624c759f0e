import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import biasgraph
from biasgraph import (
    BiasDistribution,
    FanSpec,
    Interval,
    IntervalSet,
    PathRecord,
    TooLarge,
    fan_path,
    feasible_rewards,
    make_fan,
    make_named_instance,
    perceived_cost,
    solve_fan_bne,
    validate,
    AgentConfig,
)
from biasgraph import oracle
from biasgraph.oracle import (
    brute_perceived_min,
    brute_traverse,
    enumerate_paths,
    fan_exit_frequencies,
    random_dominant_graph,
    random_ladder_graph,
    random_layered_graph,
    reward_probes,
    reward_sweep_ne,
)

from conftest import at, build_graph

F = Fraction


class TestEnumeratePaths:
    def test_fig1_has_three_paths(self, fig1):
        graph, _ = fig1
        paths = enumerate_paths(graph)
        assert [p.vertices for p in paths] == [
            ("s", "x", "t"),
            ("s", "v", "y", "t"),
            ("s", "v", "z", "t"),
        ]

    def test_fan_has_n_plus_one_paths(self, fan5):
        _, graph = fan5
        assert len(enumerate_paths(graph)) == 6

    def test_single_edge(self):
        g = build_graph([("s", "t", 1)])
        assert len(enumerate_paths(g)) == 1

    def test_guard_admits_fourteen_vertices(self):
        assert len(enumerate_paths(make_fan(FanSpec(12, F(2))))) == 13  # 14 vertices
        with pytest.raises(TooLarge, match="15 vertices"):
            enumerate_paths(make_fan(FanSpec(13, F(2))))


class TestBrutePerceivedMin:
    def test_matches_formula_on_random_instances(self):
        rng = random.Random(43)
        checked = 0
        while checked < 200:
            graph = random_layered_graph(rng)
            config = AgentConfig(F(rng.randrange(1, 6)))
            walk = brute_traverse(graph, config.bias, None, F(0))
            steps = rng.randrange(walk.length)
            prefix = walk.vertices[: steps + 1]
            state = at(graph, *prefix)
            if prefix[-1] == graph.sink:
                continue
            k = rng.randrange(1, 7)
            r = F(rng.randrange(41), 4)
            for head, _ in graph.successors(state.vertex):
                expected = perceived_cost(graph, state, head, config, k, r)
                got = brute_perceived_min(graph, state, head, config.bias, k, r)
                assert got == expected
                checked += 1

    def test_no_competition_is_biased_edge_plus_distance(self, fig1):
        graph, _ = fig1
        got = brute_perceived_min(graph, at(graph, "s"), "x", F(2), None, F(0))
        assert got == 2 * 6 + 0

    def test_fan_source_value(self, fan5):
        _, graph = fan5
        got = brute_perceived_min(graph, at(graph, "s"), "t", F(2), 1, F(1))
        assert got == F(3, 2)


class TestContinuationMinima:
    def test_keyed_by_identity_and_bounded(self):
        rng = random.Random(3)
        graph = random_layered_graph(rng)
        twin = validate(graph.to_json_dict())
        assert twin == graph and twin is not graph
        minima = oracle._continuation_minima(graph)
        assert oracle._continuation_minima(graph) is minima
        assert oracle._continuation_minima(twin) == minima
        assert oracle._continuation_minima(twin) is not minima
        assert oracle._continuation_minima(graph) is not minima  # the twin took the one slot


class TestRewardSweep:
    def test_fan_direct_path_candidates(self, fan5):
        _, graph = fan5
        got = reward_sweep_ne(graph, fan_path(graph, 0), F(2), [F(1, 2), F(1), F(2)])
        assert got == {F(1), F(2)}

    def test_fan_interior_path_is_never_stable(self, fan5):
        _, graph = fan5
        got = reward_sweep_ne(graph, fan_path(graph, 2), F(2),
                              [F(0), F(1), F(3, 2), F(10), F(1000)])
        assert got == set()

    def test_bounded_feasible_window(self):
        graph, meta = make_named_instance("fig7a")
        q = PathRecord.from_vertices(graph, meta["Q"])
        got = reward_sweep_ne(graph, q, F(10), [F(1), F(300)])
        assert got == {F(1)}



def _ends(feasible):
    return [p for i in feasible.intervals for p in (i.lo, i.hi) if p is not None]


def _split(probes):
    """reward_probes' sorted points, and the midpoints after them."""
    k = len(probes) // 2
    return probes[:k], probes[k:-1]


class TestRewardProbes:
    def test_the_sweep_is_constant_between_probes(self):
        # a random reward strictly inside each interval between the crossings,
        # and one past the last, gets the answer of that interval's probe
        rng = random.Random(15)
        for _ in range(25):
            graph = random_layered_graph(rng)
            for q in enumerate_paths(graph):
                for bias in (F(2), F(10)):
                    probes = reward_probes(graph, q, bias)
                    points, mids = _split(probes)
                    assert points == sorted(set(points)) and points[0] == 0
                    assert probes[-1] == points[-1] + 1
                    inside = [a + (b - a) * F(rng.randrange(1, 1000), 1000)
                              for a, b in zip(points, points[1:])]
                    inside.append(points[-1] + F(rng.randrange(1, 10**6), 7))
                    swept = reward_sweep_ne(graph, q, bias, probes + inside)
                    for r, probe in zip(inside, mids + [probes[-1]]):
                        assert (r in swept) == (probe in swept), (q.vertices, bias, r)
                    assert set(_ends(feasible_rewards(graph, q, bias))) <= set(points)

    @pytest.mark.parametrize("name", ["fig7a", "fig7b"])
    def test_probes_hold_every_endpoint(self, name):
        graph, meta = make_named_instance(name)
        for key in ("Q", "V", "X"):
            q = PathRecord.from_vertices(graph, meta[key])
            points, _ = _split(reward_probes(graph, q, F(10)))
            assert set(_ends(feasible_rewards(graph, q, F(10)))) <= set(points), key

    def test_a_moved_endpoint_disagrees_at_a_probe(self):
        # fig7a's Q holds on [0, 196]; [0, 196 + 1/1000] ends between two crossings
        graph, meta = make_named_instance("fig7a")
        q = PathRecord.from_vertices(graph, meta["Q"])
        wrong = IntervalSet((Interval(F(0), F(196) + F(1, 1000)),))
        points, _ = _split(reward_probes(graph, q, F(10)))
        assert not any(F(196) < p <= F(196) + F(1, 1000) for p in points)
        probes = reward_probes(graph, q, F(10), _ends(wrong))
        swept = reward_sweep_ne(graph, q, F(10), probes)
        assert any(wrong.contains(r) != (r in swept) for r in probes)


class TestGenerators:
    def test_layered_graphs_are_small_and_valid(self):
        rng = random.Random(59)
        for _ in range(40):
            graph = random_layered_graph(rng)
            assert len(graph.vertices) <= 8
            assert graph.cheapest_cost(graph.source) >= 0

    def test_dominant_graphs_have_the_chain(self):
        rng = random.Random(61)
        for _ in range(20):
            graph = random_dominant_graph(rng)
            assert len(graph.vertices) <= 10
            assert (graph.edge_cost("s", "w"), graph.edge_cost("w", "t")) == (F(11, 4), 0)
            assert min(p.length for p in enumerate_paths(graph)) == 2

    def test_ladder_graphs_are_combs_inside_the_guard(self):
        for seed in range(5):
            rng = random.Random(seed)
            for _ in range(40):
                graph = random_ladder_graph(rng)
                assert len(graph.vertices) <= 7
                lengths = [p.length for p in enumerate_paths(graph)]  # no TooLarge
                exits = [u for u in graph.vertices if "t" in dict(graph.arcs.get(u, ()))]
                assert 2 <= len(lengths) == len(set(lengths)) == len(exits) <= 6
                assert set(lengths) <= set(range(1, 7))

    def test_generation_is_deterministic_under_seed(self):
        a = random_layered_graph(random.Random(7)).to_json()
        b = random_layered_graph(random.Random(7)).to_json()
        assert a == b

    def test_generation_ignores_hash_seed(self):
        script = (
            "import random; from biasgraph.oracle import random_layered_graph; "
            "rng = random.Random(0); "
            "print([random_layered_graph(rng).to_json() for _ in range(20)])"
        )
        src = str(Path(biasgraph.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestFanExitFrequencies:
    def test_equal_revenue_frequencies_at_fixed_point(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.equal_revenue(2.0)
        cutoff = 4.0 * 0.5 / 2.0 + 2.0  # r*p/2 + c at the solved p = 1/2
        freqs = fan_exit_frequencies(spec, dist, 4.0, cutoff, 10**5)
        assert abs(freqs.frequencies[0] - 0.5) <= 1 / 10**5
        assert all(f == 0 for f in freqs.frequencies[1:5])

    def test_direct_count_within_half_of_the_cdf(self):
        spec = FanSpec(5, F(2))
        for dist, rewards in (
            (BiasDistribution.equal_revenue(2.0), (3.0, 4.0, 10.0, 50.0)),
            (BiasDistribution.uniform(2.0, 4.0), (4.0, 6.0)),
            (BiasDistribution.shifted_exponential(2.0, 1.0), (3.0, 6.0, 10.0)),
        ):
            for reward in rewards:
                sol = solve_fan_bne(spec, dist, reward)
                for samples in (10**4, 2 * 10**4 + 1):
                    freqs = fan_exit_frequencies(spec, dist, reward, sol.cutoff, samples)
                    assert abs(freqs.counts[0] - samples * dist.cdf(sol.cutoff)) <= 0.5 + 1e-6
                    assert abs(freqs.frequencies[0] - sol.prob_optimal) <= 1 / samples

    def test_uniform_all_finish_immediately(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.uniform(2.0, 4.0)
        freqs = fan_exit_frequencies(spec, dist, 4.0, 4.0, 10**4)
        assert freqs.frequencies[0] == 1.0

    def test_no_reward_everyone_delays(self):
        spec = FanSpec(4, F(2))
        dist = BiasDistribution.equal_revenue(2.0)
        freqs = fan_exit_frequencies(spec, dist, 0.0, 2.0, 10**4)
        assert freqs.frequencies[4] == 1.0

    def test_needs_a_sample(self):
        spec = FanSpec(3, F(2))
        with pytest.raises(ValueError):
            fan_exit_frequencies(spec, BiasDistribution.equal_revenue(2.0), 1.0, 2.0, 0)
