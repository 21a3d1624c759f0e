"""Generators for fan graphs and the bundled demonstration instances."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownInstance
from .graph import PathRecord, TaskGraph, validate


@dataclass(frozen=True)
class FanSpec:
    """An n-fan: free spine s->v1->..->vn, exits (vi,t) of cost c**i, direct (s,t) of cost 1."""

    n: int
    c: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("fan needs n >= 1")
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 1:
            raise ValueError("fan growth factor must exceed 1")


def _fan(exit_costs: list[Fraction]) -> TaskGraph:
    """The fan with a free spine s->v1->..->vn, exits (vi, t) of the given
    costs and a direct edge (s, t) of cost 1.

    The sink is registered right after the source so that an agent indifferent
    between finishing and delaying resolves the tie toward finishing.
    """
    spine = ["s"] + [f"v{i}" for i in range(1, len(exit_costs) + 1)]
    edges = [{"from": "s", "to": "t", "cost": "1"}]
    edges += [{"from": u, "to": v, "cost": "0"} for u, v in zip(spine, spine[1:])]
    edges += [{"from": v, "to": "t", "cost": str(cost)} for v, cost in zip(spine[1:], exit_costs)]
    return validate({"vertices": ["s", "t", *spine[1:]], "edges": edges,
                     "source": "s", "sink": "t"})


def make_fan(spec: FanSpec) -> TaskGraph:
    """Build the n-fan: exit i costs c**i."""
    return _fan([spec.c**i for i in range(1, spec.n + 1)])


def fan_path(graph: TaskGraph, exit_index: int) -> PathRecord:
    """P_i on a fan graph: the path leaving through (v_i, t); P_0 is (s, t)."""
    # s, v1, .., v_|V| cannot all be vertices, so a longer spine fails at the
    # same missing edge, without first building one name per index.
    spine = [f"v{j}" for j in range(1, min(exit_index, len(graph.vertices)) + 1)]
    return PathRecord.from_vertices(graph, ["s", *spine, "t"])


def resolve_path(graph: TaskGraph, text: str) -> PathRecord:
    """Parse a CLI path argument: comma-separated ids, or fan shorthand P0..Pn."""
    if len(text) > 1 and text[0] == "P" and text[1:].isdigit():
        return fan_path(graph, int(text[1:]))
    return PathRecord.from_vertices(graph, [v.strip() for v in text.split(",")])


# Demonstration graphs by name: (graph document, metadata).  Only some edge
# costs are pinned by the quantities the instances must reproduce; the
# remaining costs are frozen here once.
_NAMED = {
    "fig1": ({
        "vertices": ["s", "x", "v", "y", "z", "t"],
        "edges": [
            {"from": "s", "to": "x", "cost": "6"},
            {"from": "x", "to": "t", "cost": "0"},
            {"from": "s", "to": "v", "cost": "0"},
            {"from": "v", "to": "y", "cost": "11"},
            {"from": "y", "to": "t", "cost": "0"},
            {"from": "v", "to": "z", "cost": "0"},
            {"from": "z", "to": "t", "cost": "21"},
        ],
        "source": "s",
        "sink": "t",
    }, {
        "optimal": ["s", "x", "t"],
        "biased": ["s", "v", "z", "t"],
        "bias": "2",
    }),
    "fig7a": ({
        "vertices": ["s", "q1", "q2", "v1", "v2", "v3", "t"],
        "edges": [
            {"from": "s", "to": "q1", "cost": "0"},
            {"from": "q1", "to": "q2", "cost": "0"},
            {"from": "q2", "to": "t", "cost": "2"},
            {"from": "s", "to": "v1", "cost": "0"},
            {"from": "v1", "to": "t", "cost": "100"},
            {"from": "v1", "to": "v2", "cost": "0"},
            {"from": "v2", "to": "v3", "cost": "0"},
            {"from": "v3", "to": "t", "cost": "3"},
        ],
        "source": "s",
        "sink": "t",
    }, {
        "Q": ["s", "q1", "q2", "t"],
        "V": ["s", "v1", "v2", "v3", "t"],
        "X": ["s", "v1", "t"],
        "bias": "10",
        "rewards": ["1", "300"],
    }),
    "fig7b": ({
        "vertices": ["s", "q1", "q2", "v1", "v2", "v3", "u", "t"],
        "edges": [
            {"from": "s", "to": "q1", "cost": "0"},
            {"from": "q1", "to": "q2", "cost": "8"},
            {"from": "q2", "to": "t", "cost": "0"},
            {"from": "s", "to": "v1", "cost": "0"},
            {"from": "v1", "to": "v2", "cost": "1"},
            {"from": "v2", "to": "v3", "cost": "4"},
            {"from": "v3", "to": "t", "cost": "0"},
            {"from": "v1", "to": "u", "cost": "0"},
            {"from": "u", "to": "t", "cost": "10"},
        ],
        "source": "s",
        "sink": "t",
    }, {
        "Q": ["s", "q1", "q2", "t"],
        "V": ["s", "v1", "v2", "v3", "t"],
        "X": ["s", "v1", "u", "t"],
        "bias": "10",
        "rewards": ["2", "10"],
    }),
}


def make_named_instance(
    name: str,
    c: Fraction | str | int | None = None,
    c2: Fraction | str | int | None = None,
    c3: Fraction | str | int | None = None,
) -> tuple[TaskGraph, dict]:
    """Return a named instance plus metadata (interesting paths, suggested bias).

    Names: ``fig1`` (branching graph where bias 2 triples the traversal cost),
    ``fig7a`` (raising the reward pushes the agent onto a slower path),
    ``fig7b`` (raising the reward makes the agent stay put), and
    ``modified_3fan`` (fan with super-squaring exit costs; needs c, c2, c3).
    """
    if name in _NAMED:
        document, meta = _NAMED[name]
        return validate(document), copy.deepcopy(meta)
    if name == "modified_3fan":
        if c is None or c2 is None or c3 is None:
            raise ValueError("modified_3fan needs parameters c, c2, c3")
        c, c2, c3 = Fraction(c), Fraction(c2), Fraction(c3)
        if not (1 < c and c * c < c2 and c2 * c2 < c3):
            raise ValueError("need 1 < c, c^2 < c2, c2^2 < c3")
        graph = _fan([c, c2, c3])
        meta = {"paths": {f"P{i}": fan_path(graph, i).vertices for i in range(4)}}
        return graph, meta
    raise UnknownInstance(f"unknown instance {name!r}")
