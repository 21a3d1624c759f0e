"""Names the benchmark's traced run looks up in the package.

``perfbench/tracing.py`` wraps module and class attributes by name; a rename
in the package would only surface when a traced benchmark run fails.  These
tests read that file, unedited, and check every name it needs.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

from biasgraph.graph import TaskGraph
from biasgraph.intervals import IntervalSet

from conftest import build_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    functions = _tracing()._FUNCTIONS
    assert functions
    for span, home, attr, _ in functions:
        module = importlib.import_module(f"biasgraph.{home}")
        assert callable(getattr(module, attr, None)), (span, home, attr)


def test_hop_tables_is_a_cached_property():
    assert isinstance(TaskGraph.__dict__["hop_tables"], functools.cached_property)
    graph = build_graph([("s", "a", 1), ("a", "t", 2), ("s", "t", 4)])
    copy = TaskGraph(graph.vertices, graph.edges, graph.source, graph.sink, graph.pruned)
    assert copy.hop_tables.keys() == graph.hop_tables.keys()


def test_interval_set_names():
    for attr in ("intersect", "nonnegative", "empty"):
        assert callable(getattr(IntervalSet, attr, None)), attr
