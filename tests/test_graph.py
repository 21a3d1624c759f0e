from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import (
    CycleDetected,
    FanSpec,
    NegativeCost,
    NoSourceSinkPath,
    PathRecord,
    TaskGraph,
    UnknownInstance,
    cheapest_per_length,
    load_graph,
    make_fan,
    make_named_instance,
    validate,
)
from biasgraph.graph import parse_cost
from biasgraph.oracle import enumerate_paths, random_layered_graph

from conftest import build_graph, coprime_graph, hop_cost, reference_staircases


class TestValidate:
    def test_fig1_is_valid_and_nothing_pruned(self, fig1):
        graph, _ = fig1
        assert len(graph.vertices) == 6
        assert len(graph.edges) == 7
        assert graph.pruned == ()

    def test_single_zero_cost_edge(self):
        g = build_graph([("s", "t", 0)])
        assert g.cheapest_cost("s") == 0

    def test_cycle_through_sink_detected(self):
        with pytest.raises(CycleDetected):
            build_graph([("s", "t", 1), ("t", "s", 0)])

    def test_self_loop_detected(self):
        with pytest.raises(CycleDetected):
            build_graph([("s", "t", 1), ("s", "s", 0)])

    def test_negative_cost_rejected(self):
        with pytest.raises(NegativeCost):
            build_graph([("s", "t", Fraction(-1, 2))])

    def test_no_path_rejected(self):
        with pytest.raises(NoSourceSinkPath):
            validate({"vertices": ["s", "t"], "edges": [], "source": "s", "sink": "t"})

    def test_source_equals_sink_rejected(self):
        with pytest.raises(NoSourceSinkPath):
            validate({"vertices": ["s"], "edges": [], "source": "s", "sink": "s"})

    def test_dead_end_vertices_pruned(self):
        g = build_graph(
            [("s", "t", 1), ("s", "a", 0), ("b", "t", 0)],
            vertices=["s", "t", "a", "b"],
        )
        assert g.pruned == ("a", "b")
        assert g.vertices == ("s", "t")

    def test_parallel_edges_keep_cheapest(self):
        g = validate({
            "vertices": ["s", "t"],
            "edges": [
                {"from": "s", "to": "t", "cost": "5"},
                {"from": "s", "to": "t", "cost": "2"},
            ],
            "source": "s",
            "sink": "t",
        })
        assert g.edge_cost("s", "t") == 2

    def test_validate_is_idempotent(self, fig1):
        graph, _ = fig1
        again = validate(graph.to_json_dict())
        assert again.to_json_dict() == graph.to_json_dict()

    def test_costs_parsed_exactly_from_decimal_strings(self):
        g = load_graph(
            '{"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": "0.1"}],'
            ' "source": "s", "sink": "t"}'
        )
        assert g.edge_cost("s", "t") == Fraction(1, 10)

    def test_huge_decimal_exponent_refused_before_the_integer_is_built(self):
        # Fraction("1e1000000") first builds a million-digit integer
        for text in ("1e1000000", "1E-1000000", " 3.5e+1000000 "):
            with pytest.raises(ValueError, match="exponent"):
                parse_cost(text)
        with pytest.raises(ValueError):
            build_graph([("s", "t", "2e1000000")])
        assert parse_cost("25e-1") == Fraction(5, 2)
        assert parse_cost("1e300") == 10**300

    def test_unit_is_the_lcm_of_cost_denominators(self):
        g = build_graph([("s", "a", Fraction(1, 6)), ("a", "t", Fraction(3, 4)), ("s", "t", 2)])
        assert g.unit == 12
        assert g.hop_tables["s"].costs == (24, 11)  # 2 and 1/6 + 3/4 in twelfths
        assert build_graph([("s", "t", 5)]).unit == 1


class TestHopBoundedCheapest:
    def test_fig1_source_unbounded(self, fig1):
        graph, _ = fig1
        assert hop_cost(graph, "s") == 6

    def test_sink_zero_budget(self, fig1):
        graph, _ = fig1
        assert hop_cost(graph, "t", 0) == 0

    def test_fan_v1_unbounded_is_direct_exit(self, fan5):
        _, graph = fan5
        assert hop_cost(graph, "v1") == Fraction(3, 2)

    def test_budget_zero_elsewhere_absent(self, fig1):
        graph, _ = fig1
        assert hop_cost(graph, "v", 0) is None

    def test_nonincreasing_in_budget_and_matches_unbounded(self, fig1):
        graph, _ = fig1
        for v in graph.vertices:
            values = [hop_cost(graph, v, k) for k in range(len(graph.vertices) + 2)]
            present = [x for x in values if x is not None]
            assert all(a >= b for a, b in zip(present, present[1:]))
            assert values[len(graph.vertices)] == hop_cost(graph, v)

    def test_table_ordering_invariant(self, fan5):
        _, graph = fan5
        for v in graph.vertices:
            table = graph.hop_tables[v]
            for k in range(len(graph.vertices)):
                any_, le, lt = table.cases(k)
                if le is not None:
                    assert any_ <= le
                if lt is not None:
                    assert le <= lt

    def test_staircase_invariants(self, fig1):
        rng = np.random.default_rng(13)
        graphs = [fig1[0]] + [random_layered_graph(rng, max_vertices=30) for _ in range(20)]
        for graph in graphs:
            sink = graph.hop_tables[graph.sink]
            assert (sink.lengths, sink.costs) == ((0,), (0,))
            for v in graph.vertices:
                table = graph.hop_tables[v]
                assert len(table.lengths) == len(table.costs) >= 1
                assert all(a < b for a, b in zip(table.lengths, table.lengths[1:]))
                assert all(a > b for a, b in zip(table.costs, table.costs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), coprime=st.booleans())
    def test_integer_staircases_match_fraction_dp(self, seed, coprime):
        rng = np.random.default_rng(seed)
        graph = coprime_graph(rng) if coprime else random_layered_graph(rng, max_vertices=12)
        assert graph.unit == lcm(*{e.cost.denominator for e in graph.edges})
        stairs = reference_staircases(graph)
        for v in graph.vertices:
            table = graph.hop_tables[v]
            assert all(type(cost) is int for cost in table.costs)
            assert [(k, Fraction(c, graph.unit)) for k, c in zip(table.lengths, table.costs)] \
                == stairs[v]

    def test_rebuilt_graph_has_equal_tables_and_unit(self):
        rng = np.random.default_rng(5)
        for graph in [coprime_graph(rng) for _ in range(10)]:
            copy = TaskGraph(graph.vertices, graph.edges, graph.source, graph.sink, graph.pruned)
            assert copy.unit == graph.unit
            assert copy.hop_tables == graph.hop_tables

    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            graph = random_layered_graph(rng)
            for v in graph.vertices:
                paths = enumerate_paths(graph, v) if v != graph.sink else []
                for k in range(len(graph.vertices)):
                    costs = [p.cost for p in paths if p.length <= k]
                    if v == graph.sink:
                        costs.append(Fraction(0))
                    expected = min(costs) if costs else None
                    assert hop_cost(graph, v, k) == expected


class TestCheapestPerLength:
    def test_fig1_lengths(self, fig1):
        graph, _ = fig1
        by_len = cheapest_per_length(graph)
        assert sorted(by_len) == [2, 3]
        assert by_len[2].vertices == ("s", "x", "t")
        assert by_len[2].cost == 6
        assert by_len[3].vertices == ("s", "v", "y", "t")
        assert by_len[3].cost == 11

    def test_three_fan(self, fan3):
        spec, graph = fan3
        by_len = cheapest_per_length(graph)
        assert {k: p.cost for k, p in by_len.items()} == {
            1: 1, 2: Fraction(2), 3: Fraction(4), 4: Fraction(8),
        }

    def test_single_edge(self):
        g = build_graph([("s", "t", 3)])
        by_len = cheapest_per_length(g)
        assert list(by_len) == [1]
        assert by_len[1].vertices == ("s", "t")

    def test_lexicographic_tie_break(self):
        g = build_graph(
            [("s", "a", 1), ("a", "t", 1), ("s", "b", 1), ("b", "t", 1)],
            vertices=["s", "a", "b", "t"],
        )
        assert cheapest_per_length(g)[2].vertices == ("s", "a", "t")

    def test_agrees_with_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            graph = random_layered_graph(rng)
            by_len = cheapest_per_length(graph)
            best: dict[int, Fraction] = {}
            for p in enumerate_paths(graph):
                if p.length not in best or p.cost < best[p.length]:
                    best[p.length] = p.cost
            assert {k: p.cost for k, p in by_len.items()} == best


class TestMakeFan:
    def test_smallest_fan(self):
        g = make_fan(FanSpec(1, Fraction(2)))
        assert set(g.vertices) == {"s", "v1", "t"}
        assert g.edge_cost("s", "t") == 1
        assert g.edge_cost("s", "v1") == 0
        assert g.edge_cost("v1", "t") == 2

    def test_exit_costs_grow_geometrically(self, fan5):
        _, graph = fan5
        exits = [graph.edge_cost(f"v{i}", "t") for i in range(1, 6)]
        assert exits == [Fraction(3, 2), Fraction(9, 4), Fraction(27, 8),
                         Fraction(81, 16), Fraction(243, 32)]

    def test_cheapest_path_is_direct(self, fan3):
        _, graph = fan3
        assert graph.cheapest_cost("s") == 1
        assert graph.hop_tables["s"].at_most(1) == graph.unit

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FanSpec(0, Fraction(2))
        with pytest.raises(ValueError):
            FanSpec(3, Fraction(1))


class TestNamedInstances:
    def test_modified_3fan_ordering_enforced(self):
        graph, _ = make_named_instance("modified_3fan", 2, 5, 26)
        assert graph.edge_cost("v2", "t") == 5
        with pytest.raises(ValueError):
            make_named_instance("modified_3fan", 2, 3, 26)  # c2 <= c^2
        with pytest.raises(ValueError):
            make_named_instance("modified_3fan", 2, 5, 20)  # c3 <= c2^2

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstance):
            make_named_instance("fig99")

    def test_instances_round_trip_through_validate(self):
        for name in ("fig1", "fig7a", "fig7b"):
            graph, _ = make_named_instance(name)
            assert validate(graph.to_json_dict()).to_json() == graph.to_json()


class TestPathRecord:
    def test_cost_and_length(self, fig1):
        graph, _ = fig1
        p = PathRecord.from_vertices(graph, ("s", "v", "z", "t"))
        assert p.cost == 21
        assert p.length == 3

    def test_rejects_non_edges(self, fig1):
        graph, _ = fig1
        with pytest.raises(KeyError):
            PathRecord.from_vertices(graph, ("s", "z", "t"))
