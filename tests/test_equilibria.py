import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import (
    BiasNotAboveC,
    FanSpec,
    Interval,
    IntervalSet,
    NoDominantPath,
    PathRecord,
    RewardTie,
    algorithm_breakpoints,
    cheapest_per_length,
    check_symmetric_ne,
    classify_unbiased,
    dominant_path_reward,
    fan_ne_thresholds,
    fan_path,
    feasible_rewards,
    make_fan,
    make_named_instance,
    nondominated_ladder,
)
from biasgraph.oracle import (
    brute_unbiased_equilibria,
    enumerate_paths,
    random_dominant_graph,
    random_ladder_graph,
    random_layered_graph,
    reward_probes,
)

from conftest import build_graph, coprime_graph, reference_staircases, spine_graph, union

F = Fraction


class TestNondominatedLadder:
    def test_all_survive_when_reward_large(self, rungs_graph):
        ladder = nondominated_ladder(rungs_graph, F(8))
        assert ladder.costs == (7, 6, 0)
        assert [p.length for p in ladder.paths] == [1, 2, 3]

    def test_losing_on_cheapest_dominates_expensive_paths(self, rungs_graph):
        # with reward 5, both the cost-7 and cost-6 paths lose to a sure 0
        ladder = nondominated_ladder(rungs_graph, F(5))
        assert ladder.costs == (0,)

    def test_single_path_graph(self):
        g = build_graph([("s", "t", 3)])
        assert len(nondominated_ladder(g, F(2)).paths) == 1

    def test_quicker_and_cheaper_dominates(self):
        g = build_graph(
            [("s", "t", 1), ("s", "a", 2), ("a", "t", 0)],
            vertices=["s", "t", "a"],
        )
        ladder = nondominated_ladder(g, F(10))
        assert ladder.costs == (1,)

    def test_matches_filtered_per_length_paths(self):
        # Small graphs and graphs of 30-40 vertices, above the brute-force guard.
        rng = random.Random(41)
        graphs = [random_layered_graph(rng) for _ in range(40)]
        graphs += [
            random_layered_graph(rng, max_vertices=40, min_interior=14, max_interior=18)
            for _ in range(15)
        ]
        assert sum(30 <= len(g.vertices) <= 40 for g in graphs) >= 10
        for graph in graphs:
            rungs: list = []
            for _, p in sorted(cheapest_per_length(graph).items()):
                if not rungs or p.cost < rungs[-1].cost:
                    rungs.append(p)
            for reward in (F(0), F(1, 2), F(2), F(8), F(100)):
                cheapest = rungs[-1].cost
                expected = [p for p in rungs if p.cost < cheapest + reward or p.cost == cheapest]
                assert nondominated_ladder(graph, reward).paths == tuple(expected)

    def test_ladder_invariants_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(50):
            graph = random_ladder_graph(rng)
            reward = F(rng.randrange(17), 2)
            ladder = nondominated_ladder(graph, reward)
            costs, lengths = ladder.costs, [p.length for p in ladder.paths]
            assert all(a > b for a, b in zip(costs, costs[1:]))
            assert all(a < b for a, b in zip(lengths, lengths[1:]))
            assert costs[0] - costs[-1] <= reward


class TestClassifyUnbiased:
    def test_split_rule_single_equilibrium(self, rungs_graph):
        report = classify_unbiased(rungs_graph, F(8))
        assert [p.cost for p in report.symmetric] == [0]
        assert report.asymmetric is None

    def test_low_reward_filters_before_classifying(self, rungs_graph):
        report = classify_unbiased(rungs_graph, F(1))
        assert report.ladder.costs == (0,)
        assert [p.cost for p in report.symmetric] == [0]

    def test_full_tie_rule_everything_is_symmetric(self, rungs_graph):
        report = classify_unbiased(rungs_graph, F(8), RewardTie.FULL)
        assert report.symmetric == report.ladder.paths
        assert report.asymmetric is None

    def test_none_tie_rule_needs_two_rungs(self, rungs_graph):
        report = classify_unbiased(rungs_graph, F(8), RewardTie.NONE)
        assert report.symmetric == ()
        assert report.asymmetric is None  # three rungs survive at reward 8

        two_rung = build_graph(
            [("s", "t", 2), ("s", "a", 0), ("a", "t", 0)],
            vertices=["s", "t", "a"],
        )
        report = classify_unbiased(two_rung, F(4), RewardTie.NONE)
        assert report.symmetric == ()
        assert report.asymmetric is not None

    def test_knife_edge_asymmetric_pair(self):
        g = build_graph(
            [("s", "t", 2), ("s", "a", 0), ("a", "t", 0)],
            vertices=["s", "t", "a"],
        )
        report = classify_unbiased(g, F(4))
        assert report.asymmetric is not None  # cost gap 2 equals reward/2
        assert len(report.symmetric) == 2
        report = classify_unbiased(g, F(5))
        assert report.asymmetric is None

    def test_matches_brute_unbiased_equilibria(self):
        rng = random.Random(19)
        for _ in range(80):
            graph = random_ladder_graph(rng)
            reward = F(rng.randrange(25), 2)
            paths = enumerate_paths(graph)
            for tie_rule in RewardTie:
                report = classify_unbiased(graph, reward, tie_rule)
                pairs = (report.asymmetric,) if report.asymmetric else ()
                assert brute_unbiased_equilibria(paths, reward, tie_rule) == (
                    tuple(p.vertices for p in report.ladder.paths),
                    tuple(p.vertices for p in report.symmetric),
                    tuple((a.vertices, b.vertices) for a, b in pairs),
                )


class TestCheckSymmetricNe:
    def test_fan_direct_path_at_threshold(self, fan5):
        _, graph = fan5
        assert check_symmetric_ne(graph, fan_path(graph, 0), F(1), F(2)).is_equilibrium

    def test_fan_longest_path_under_cap(self, fan5):
        _, graph = fan5
        assert check_symmetric_ne(graph, fan_path(graph, 5), F(1), F(2)).is_equilibrium

    def test_fan_interior_paths_never_equilibria(self, fan5):
        _, graph = fan5
        for r in (F(0), F(1), F(10), F(1000)):
            result = check_symmetric_ne(graph, fan_path(graph, 2), r, F(2))
            assert not result.is_equilibrium
            assert result.deviated_at in fan_path(graph, 2).vertices

    def test_witness_identifies_first_deviation(self, fan5):
        _, graph = fan5
        result = check_symmetric_ne(graph, fan_path(graph, 0), F(1, 2), F(2))
        assert not result
        assert result.deviated_at == "s"
        assert result.trace.path.vertices[-1] == "t"

    def test_partial_paths_rejected(self, fan5):
        _, graph = fan5
        fragment = PathRecord.from_vertices(graph, ("v1", "t"))
        with pytest.raises(ValueError):
            check_symmetric_ne(graph, fragment, F(1), F(2))
        with pytest.raises(ValueError):
            feasible_rewards(graph, fragment, F(2))


class TestFanThresholds:
    FANS = [(3, F(3, 2), F(2)), (4, F(2), F(3)), (5, F(3, 2), F(2)), (6, F(5, 4), F(3, 2))]

    def test_five_fan(self):
        got = fan_ne_thresholds(FanSpec(5, F(3, 2)), F(2))
        assert (got.optimal_min_reward, got.longest_max_reward) == (1, F(81, 16))

    def test_degenerate_at_equal_bias(self):
        got = fan_ne_thresholds(FanSpec(4, F(2)), F(2))
        assert (got.optimal_min_reward, got.longest_max_reward) == (0, 0)

    def test_single_vertex_fan(self):
        got = fan_ne_thresholds(FanSpec(1, F(2)), F(3))
        assert (got.optimal_min_reward, got.longest_max_reward) == (2, 2)

    def test_bias_below_growth_rejected(self):
        with pytest.raises(BiasNotAboveC):
            fan_ne_thresholds(FanSpec(3, F(2)), F(3, 2))

    def test_thresholds_agree_with_ne_check(self):
        # at each crossing of the oracle's lines, between them and past the last
        for n, c, b in self.FANS:
            spec = FanSpec(n, c)
            graph = make_fan(spec)
            lo = fan_ne_thresholds(spec, b).optimal_min_reward
            hi = fan_ne_thresholds(spec, b).longest_max_reward
            for i in range(n + 1):
                path = fan_path(graph, i)
                for r in reward_probes(graph, path, b, (lo, hi)):
                    holds = r >= lo if i == 0 else r <= hi if i == n else False
                    assert bool(check_symmetric_ne(graph, path, r, b)) == holds

    def test_bias_at_growth_factor_holds_every_path_at_zero(self):
        # eps = 0: all exits tie at r = 0, so interior paths hold there too
        for n, c, _ in self.FANS:
            graph = make_fan(FanSpec(n, c))
            for i in range(n + 1):
                assert check_symmetric_ne(graph, fan_path(graph, i), F(0), c)


class TestDominantPathReward:
    def test_fan_direct_path_dominates(self, fan5):
        _, graph = fan5
        bound = dominant_path_reward(graph, F(2))
        assert bound.path.vertices == ("s", "t")
        assert bound.reward == 4  # two agents, bias 2, max edge 1

    def test_equal_parallel_edges_have_no_dominant_path(self):
        g = build_graph(
            [("s", "a", 1), ("a", "t", 0), ("s", "b", 1), ("b", "t", 0)],
            vertices=["s", "a", "b", "t"],
        )
        with pytest.raises(NoDominantPath):
            dominant_path_reward(g, F(2))

    def test_quickest_but_not_cheapest_rejected(self):
        g = build_graph(
            [("s", "t", 5), ("s", "a", 1), ("a", "t", 1)],
            vertices=["s", "t", "a"],
        )
        with pytest.raises(NoDominantPath):
            dominant_path_reward(g, F(2))

    def test_spine_graph_bound_and_exact_minimum(self):
        graph = spine_graph(5)
        bias = F(3)
        bound = dominant_path_reward(graph, bias)
        assert bound.max_edge_cost == 1
        assert bound.reward == 6
        assert check_symmetric_ne(graph, bound.path, bound.reward, bias)
        # the exact requirement is lower: twice the detour saving
        assert feasible_rewards(graph, bound.path, bias).min_point() == 2

    def test_more_agents_scale_linearly(self, fan5):
        _, graph = fan5
        assert dominant_path_reward(graph, F(2), agents=5).reward == 10

    def test_agrees_with_enumeration(self):
        rng = random.Random(43)
        graphs = [random_layered_graph(rng) for _ in range(60)]
        graphs += [random_dominant_graph(rng) for _ in range(30)]
        found = 0
        for graph in graphs:
            paths = enumerate_paths(graph)
            fewest = min(p.length for p in paths)
            quickest = [p for p in paths if p.length == fewest]
            if len(quickest) == 1 and quickest[0].cost == min(p.cost for p in paths):
                found += 1
                assert dominant_path_reward(graph, F(2)).path == quickest[0]
            else:
                with pytest.raises(NoDominantPath):
                    dominant_path_reward(graph, F(2))
        assert 30 <= found < len(graphs)

    def test_random_dominant_graphs_all_pass(self):
        rng = random.Random(37)
        for _ in range(30):
            graph = random_dominant_graph(rng)
            for bias in (F(3, 2), F(2), F(5)):
                bound = dominant_path_reward(graph, bias)
                assert check_symmetric_ne(graph, bound.path, bound.reward, bias)


class TestFeasibleRewards:
    def test_fan_direct_path_feasible_tail(self, fan5):
        _, graph = fan5
        feasible = feasible_rewards(graph, fan_path(graph, 0), F(2))
        assert feasible.to_json_list() == [{"lo": "1", "hi": None}]
        assert feasible.min_point() == 1

    def test_fan_interior_path_infeasible(self, fan5):
        _, graph = fan5
        assert feasible_rewards(graph, fan_path(graph, 2), F(2)).is_empty
        assert feasible_rewards(graph, fan_path(graph, 2), F(2)).min_point() is None

    def test_fan_longest_path_cap(self, fan5):
        _, graph = fan5
        feasible = feasible_rewards(graph, fan_path(graph, 5), F(2))
        assert feasible.to_json_list() == [{"lo": "0", "hi": "81/16"}]

    def test_bounded_feasible_set(self):
        graph, meta = make_named_instance("fig7a")
        q = PathRecord.from_vertices(graph, meta["Q"])
        feasible = feasible_rewards(graph, q, F(10))
        assert feasible.contains(F(1))
        assert not feasible.contains(F(300))
        assert feasible.intervals[-1].hi is not None

    def test_single_edge_path(self):
        g = build_graph([("s", "t", 1), ("s", "a", 0), ("a", "t", 3)], vertices=["s", "t", "a"])
        q = PathRecord.from_vertices(g, ("s", "t"))
        # staying beats the detour when b*1 - r/2 <= 0 + 3 - 0, i.e. r >= 2b - 6
        feasible = feasible_rewards(g, q, F(4))
        assert feasible.to_json_list() == [{"lo": "2", "hi": None}]

    def test_breakpoints_cover_result_endpoints(self, fan5):
        _, graph = fan5
        points = algorithm_breakpoints(graph, fan_path(graph, 5), F(2))
        assert F(81, 16) in points
        assert all(p >= 0 for p in points)

    def test_breakpoints_pinned(self, fan5):
        # the alg1 suite sweeps these points; a change here changes what it checks
        for name, key, expected in (("fig7a", "Q", (0, 97, 196)),
                                    ("fig7a", "V", (0, 194)),
                                    ("fig7b", "Q", (0, 6, 10))):
            graph, meta = make_named_instance(name)
            q = PathRecord.from_vertices(graph, meta[key])
            assert algorithm_breakpoints(graph, q, F(10)) == expected, (name, key)
        _, graph = fan5
        assert algorithm_breakpoints(graph, fan_path(graph, 5), F(2)) == (0, F(81, 16))

    def test_bias_below_one_rejected(self, fig1):
        graph, _ = fig1
        q = PathRecord.from_vertices(graph, ("s", "x", "t"))
        for bias in (F(1, 2), F(-3)):
            with pytest.raises(ValueError, match="bias must be at least 1"):
                feasible_rewards(graph, q, bias)
            with pytest.raises(ValueError, match="bias must be at least 1"):
                algorithm_breakpoints(graph, q, bias)

    def test_membership_equals_traversal_check_on_random_graphs(self):
        from biasgraph.oracle import enumerate_paths

        rng = random.Random(47)
        for _ in range(12):
            graph = random_layered_graph(rng)
            for q in enumerate_paths(graph):
                for bias in (F(3, 2), F(2), F(5), F(10)):
                    feasible = feasible_rewards(graph, q, bias)
                    points = list(algorithm_breakpoints(graph, q, bias))
                    candidates = set(points)
                    candidates.update((a + b) / 2 for a, b in zip(points, points[1:]))
                    candidates.update(F(rng.randrange(200), 8) for _ in range(50))
                    for r in candidates:
                        stays = check_symmetric_ne(graph, q, r, bias).is_equilibrium
                        assert feasible.contains(r) == stays, (q.vertices, bias, r)


# The half-line kernel in Fraction arithmetic, kept here as the reference the
# integer gap sweep in feasible_rewards must reproduce exactly: per deviation
# line, the union over stay lines of the half-lines where it lies at least the
# margin above them, intersected over every deviation line of every deviation.

def _ref_half_line(intercept, slope):
    """{r >= 0 : intercept + slope * r >= 0}."""
    if slope == 0:
        return Interval(F(0), None) if intercept >= 0 else None
    root = -intercept / slope
    if slope > 0:
        return Interval(max(root, F(0)), None)
    return Interval(F(0), root) if root >= 0 else None


def _ref_case_lines(graph, v, budget):
    cases = graph.hop_tables[v].cases(budget)
    return [(F(cost, graph.unit), slope)
            for cost, slope in zip(cases, (F(0), F(-1, 2), F(-1))) if cost is not None]


def reference_feasible_rewards(graph, q, bias):
    result = IntervalSet.nonnegative()
    budget = q.length
    costs = {(e.tail, e.head): e.cost for e in graph.edges}
    for u, v in zip(q.vertices, q.vertices[1:]):
        budget -= 1
        stay_lines = _ref_case_lines(graph, v, budget)
        for e in graph.edges:
            if e.tail != u or e.head == v:
                continue
            margin = bias * (costs[u, v] - e.cost)
            for a_d, s_d in _ref_case_lines(graph, e.head, budget):
                result = result.intersect(union(
                    _ref_half_line(a_d - a_s - margin, s_d - s_s) for a_s, s_s in stay_lines
                ))
    return result


def two_interval_graph():
    edges = [("s", "v0", 8), ("s", "v3", 13), ("s", "v4", 13), ("v0", "v1", 3), ("v0", "v4", 5),
             ("v1", "v2", 8), ("v1", "v7", 0), ("v1", "t", 21), ("v2", "v3", 0), ("v2", "v6", 5),
             ("v3", "v4", 1), ("v3", "v5", 5), ("v3", "v6", 0), ("v3", "v7", 8), ("v4", "v5", 0),
             ("v4", "v6", 1), ("v5", "v6", 0), ("v5", "t", 8), ("v6", "v7", 0), ("v6", "t", 5),
             ("v7", "t", 21)]
    return build_graph(edges, vertices=["s"] + [f"v{i}" for i in range(8)] + ["t"])


@pytest.mark.parametrize("vertices", [("s", "z", "t"), ("s", "v", "q", "t"), ("s", "v", "t")])
def test_path_off_the_graph_raises_key_error(fig1, vertices):
    graph, _ = fig1
    q = PathRecord(vertices, Fraction(1), len(vertices) - 1)  # not through from_vertices
    u, v = next((u, v) for u, v in zip(vertices, vertices[1:])
                if (u, v) not in {(e.tail, e.head) for e in graph.edges})
    for reward_set in (feasible_rewards, algorithm_breakpoints):
        with pytest.raises(KeyError, match=f"no edge {u}->{v}"):
            reward_set(graph, q, 2)


class TestFeasibleRewardsSweep:
    def test_two_interval_reward_set(self):
        graph = two_interval_graph()
        q = PathRecord.from_vertices(graph, ("s", "v0", "v1", "v7", "t"))
        feasible = feasible_rewards(graph, q, F(4))
        assert feasible.to_json_list() == [{"lo": "0", "hi": "2"}, {"lo": "14", "hi": "126"}]
        assert algorithm_breakpoints(graph, q, F(4)) == (0, 2, 8, 14, 26, 126)
        for r, stays in ((2, True), (3, False), (14, True), (127, False)):
            assert check_symmetric_ne(graph, q, F(r), F(4)).is_equilibrium == stays, r

    def test_two_interval_graph_matches_reference(self):
        graph = two_interval_graph()
        for q in enumerate_paths(graph):
            for bias in (F(1), F(6, 5), F(2), F(13, 6), F(4), F(10)):
                assert feasible_rewards(graph, q, bias) == reference_feasible_rewards(graph, q, bias)

    @pytest.mark.parametrize("edges, expected, probes", [
        # At s the deviation's tie line (39, slope -1/2) lies below the stay tie
        # line (40), but above the stay lose line (36) for r <= 6 and above the
        # stay win line (40, slope -1) for r >= 2, so it excludes no reward.
        ([("s", "v", 4), ("s", "u", 4), ("v", "w", 20), ("w", "t", 20), ("v", "t", 40),
          ("v", "a", 36), ("a", "b", 0), ("b", "c", 0), ("c", "t", 0), ("u", "x", 19),
          ("x", "t", 20)],
         ("0", "40"), ((0, True), (4, True), (40, True), (41, False))),
        # At s the deviation has only its lose line (9); the stay tie line
        # (12, slope -1/2) falls to it at r = 6, before the win line (20, slope -1)
        # does at r = 11, so the first crossing ends the excluded gap.
        ([("s", "v", 0), ("s", "u", 0), ("v", "w", 6), ("w", "t", 6), ("v", "t", 20),
          ("v", "a", 10), ("a", "b", 0), ("b", "c", 0), ("c", "t", 0), ("u", "x", 3),
          ("x", "y", 3), ("y", "t", 3)],
         ("6", "44"), ((5, False), (6, True), (44, True), (45, False))),
    ])
    def test_one_deviation_line_against_several_stay_lines(self, edges, expected, probes):
        graph = build_graph(edges)
        q = PathRecord.from_vertices(graph, ("s", "v", "w", "t"))
        lo, hi = expected
        assert feasible_rewards(graph, q, F(2)).to_json_list() == [{"lo": lo, "hi": hi}]
        for r, stays in probes:
            assert check_symmetric_ne(graph, q, F(r), F(2)).is_equilibrium == stays, r
        for p in enumerate_paths(graph):
            for bias in (F(1), F(6, 5), F(2), F(13, 6), F(5)):
                assert feasible_rewards(graph, p, bias) == reference_feasible_rewards(graph, p, bias)

    def test_coprime_denominators_reach_unit_of_1e18(self):
        graph = coprime_graph(random.Random(0))
        assert F(6, 5).denominator * lcm(*{e.cost.denominator for e in graph.edges}) > 10**18
        for q in enumerate_paths(graph):
            assert feasible_rewards(graph, q, F(6, 5)) == reference_feasible_rewards(graph, q, F(6, 5))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), coprime=st.booleans(),
           bias=st.sampled_from((F(1), F(6, 5), F(3, 2), F(2), F(13, 6), F(10))))
    def test_matches_fraction_reference(self, seed, coprime, bias):
        rng = random.Random(seed)
        graph = coprime_graph(rng) if coprime else random_layered_graph(rng)
        for q in enumerate_paths(graph):
            assert feasible_rewards(graph, q, bias) == reference_feasible_rewards(graph, q, bias), \
                q.vertices


# Line pruning.  A vertex's (lose, tie, win) cases never fall, and a case line
# whose next steeper line has the same intercept lies on or above it at every
# r >= 0, so feasible_rewards reads only the others.  Each pattern below is
# built at budget 2 from a direct edge to t (win), a two-edge path (tie) and a
# three-edge path (lose).  Where a case equals the next one, its own path is
# built one dearer, so the shorter path sets both.

CASE_PATTERNS = [
    (5, None, None),  # only a three-edge path: the lose line alone
    (3, 6, None),
    (6, 6, None),  # lose == tie: the lose line is dropped
    (2, 5, 9),
    (5, 5, 9),  # lose == tie
    (2, 9, 9),  # tie == win: the tie line is dropped
    (9, 9, 9),  # both dropped: the win line alone
]


def _case_gadget(x, lose, tie, win):
    """Edges from x to t with cases (lose, tie, win) at budget 2."""
    edges = [(x, "t", win)] if win is not None else []
    if tie is not None:
        edges += [(x, f"{x}2", tie if win is None or tie < win else tie + 1), (f"{x}2", "t", 0)]
    chain = lose if tie is None or lose < tie else lose + 1
    return edges + [(x, f"{x}3a", chain), (f"{x}3a", f"{x}3b", 0), (f"{x}3b", "t", 0)]


@pytest.mark.parametrize("stay", [p for p in CASE_PATTERNS if p[1] is not None])
@pytest.mark.parametrize("dev", CASE_PATTERNS)
def test_pruned_case_lines_keep_the_reward_set(stay, dev):
    for c_v, c_w in ((0, 0), (1, 0), (0, 3), (2, 1)):
        graph = build_graph([("s", "v", c_v), ("s", "w", c_w)] + _case_gadget("v", *stay)
                            + _case_gadget("w", *dev))
        assert (graph.hop_tables["v"].cases(2), graph.hop_tables["w"].cases(2)) == (stay, dev)
        q = PathRecord.from_vertices(graph, ("s", "v", "v2", "t"))
        for bias in (F(1), F(3, 2), F(7, 3)):
            feasible = feasible_rewards(graph, q, bias)
            assert feasible == reference_feasible_rewards(graph, q, bias), (c_v, c_w, bias)
            points = algorithm_breakpoints(graph, q, bias)
            probes = set(points) | {(a + b) / 2 for a, b in zip(points, points[1:])}
            for r in probes | {points[-1] + 1}:
                assert feasible.contains(r) == bool(check_symmetric_ne(graph, q, r, bias)), r


def _fractional_layered_graph(rng):
    """A random layered graph with edge costs over one denominator of 1, 2, 3 and 7."""
    base = random_layered_graph(rng, max_vertices=10, max_interior=4)
    d = rng.choice((1, 2, 3, 7))
    return build_graph([(e.tail, e.head, F(rng.randrange(8 * d), d)) for e in base.edges],
                       vertices=base.vertices)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bias=st.sampled_from((F(1), F(101, 100), F(6, 5), F(3, 2), F(2), F(7, 3), F(5))))
def test_pruned_lines_match_fraction_reference_on_fractional_costs(seed, bias):
    graph = _fractional_layered_graph(random.Random(seed))
    for q in enumerate_paths(graph):
        assert feasible_rewards(graph, q, bias) == reference_feasible_rewards(graph, q, bias), \
            q.vertices


# Breakpoints.  At each on-path vertex with a deviation, every successor w
# perceives min(lose, tie - r/2, win - r) plus a constant; the breakpoints are
# 0, the reward set's endpoints and the crossings among the lines of that
# envelope that survive pruning, here rebuilt in Fractions from a plain DP.

def _ref_cases(stairs, budget):
    """(lose, tie, win) from a (length, cost) staircase: the cheapest cost over
    any length, at most ``budget`` and fewer than ``budget`` edges."""
    def cheapest(fits):
        costs = [cost for length, cost in stairs if fits(length)]
        return min(costs) if costs else None
    return (stairs[-1][1], cheapest(lambda n: n <= budget), cheapest(lambda n: n < budget))


def _ref_successor_lines(graph, q):
    """Per on-path vertex with a deviation, per successor, its full case lines
    (intercept, slope) and the ones kept after pruning."""
    stairs = reference_staircases(graph)
    budget = q.length
    for u in q.vertices[:-1]:
        budget -= 1
        heads = [e.head for e in graph.edges if e.tail == u]
        if len(heads) < 2:
            continue
        for w in heads:
            lines = [(cost, slope) for cost, slope in zip(_ref_cases(stairs[w], budget),
                                                          (F(0), F(-1, 2), F(-1)))
                     if cost is not None]
            kept = [line for line, steeper in zip(lines, lines[1:] + [None])
                    if steeper is None or steeper[0] != line[0]]
            yield lines, kept


def _ref_crossings(lines):
    return {(a2 - a1) / (s1 - s2) for a1, s1 in lines for a2, s2 in lines if s2 < s1}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bias=st.sampled_from((F(1), F(101, 100), F(3, 2), F(2), F(7, 3), F(5))))
def test_breakpoints_are_kept_line_crossings_and_endpoints(seed, bias):
    graph = _fractional_layered_graph(random.Random(seed))
    for q in enumerate_paths(graph):
        points = algorithm_breakpoints(graph, q, bias)
        expected = {F(0)}
        expected.update(p for piece in reference_feasible_rewards(graph, q, bias).intervals
                        for p in (piece.lo, piece.hi) if p is not None)
        successors = list(_ref_successor_lines(graph, q))
        for _, kept in successors:
            expected |= _ref_crossings(kept)
        assert points == tuple(sorted(expected)), q.vertices
        for lines, _ in successors:
            def envelope(r):
                return min(a + s * r for a, s in lines)
            # past every crossing of the full lines the envelope is one line
            far = max(_ref_crossings(lines) | {points[-1]}) + 1
            for lo, hi in zip(points, points[1:] + (far,)):
                assert envelope((lo + hi) / 2) == (envelope(lo) + envelope(hi)) / 2, (lo, hi)
