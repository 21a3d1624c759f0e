"""Names the benchmark looks up in the package.

``perfbench/tracing.py`` wraps module and class attributes by name, and the
workloads and the selftest read attributes of the modules they import; a
rename or deletion in the package would only surface when a benchmark run
fails.  These tests read those files, unedited, and check every name they need.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

from biasgraph.graph import TaskGraph
from biasgraph.intervals import IntervalSet

from conftest import build_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _imported(module: str, name: str):
    """What ``from <module> import <name>`` binds: an attribute or a submodule."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _attribute_reads(path: Path) -> list[tuple[str, ...]]:
    """Every dotted read ``alias.a.b`` of a name bound by ``from biasgraph... import``,
    as (qualified module, a, b)."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("biasgraph"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = (node.module, alias.name)
    reads = []
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            reads.append((*aliases[node.id], *reversed(chain)))
    return reads


def test_benchmark_attribute_reads_resolve():
    reads = set()
    for name in ("selftest.py", "workloads.py"):
        reads |= {(name, *read) for read in _attribute_reads(PERFBENCH / name)}
    for name, module, imported, *attrs in reads:
        obj = _imported(module, imported)
        for attr in attrs:
            assert hasattr(obj, attr), (name, module, imported, *attrs)
            obj = getattr(obj, attr)
    found = {read[1:] for read in reads}
    for read in [("biasgraph", "intervals", "IntervalSet", "nonnegative"),
                 ("biasgraph", "equilibria", "algorithm_breakpoints"),
                 ("biasgraph", "graph", "load_graph"),  # imported as bgraph
                 ("biasgraph", "verify", "SUITES"),
                 ("biasgraph", "cli", "run")]:
        assert read in found, read
