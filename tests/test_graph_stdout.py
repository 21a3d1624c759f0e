"""The graph commands print, byte for byte, the text recorded in graph_stdout.json.

The commands are `simulate` (every tie rule, with no opponent, an opponent
length and an opponent path, at rewards 0, 1/2, 2 and 8), `cost-ratio`,
`ne-check` and `min-reward` on every listed path, `unbiased-eq` under every
tie rule, and `validate`.  They run over fig1, fig7a, fig7b, two mod3fans,
the fans with n 3-6 and c 3/2 or 2, and a hand-written file whose edges are
shuffled, with parallel edges of differing costs, integer and string costs,
a dead end and an unreachable vertex.  The graph files are written to a
temporary folder; a command names a file by its bare name.  To record the
file from the tree on the path:

    PYTHONPATH=src python tests/test_graph_stdout.py
"""

import contextlib
import functools
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from biasgraph import FanSpec, cli, make_fan, make_named_instance

RECORD = Path(__file__).resolve().parent / "graph_stdout.json"

MESSY = {
    "vertices": ["s", "a", "b", "c", "dead", "t", "orphan"],
    "edges": [
        {"from": "c", "to": "t", "cost": 2},
        {"from": "a", "to": "b", "cost": "1/2"},
        {"from": "s", "to": "t", "cost": "7"},
        {"from": "orphan", "to": "t", "cost": "1"},
        {"from": "b", "to": "t", "cost": "3/2"},
        {"from": "a", "to": "c", "cost": "1/3"},
        {"from": "s", "to": "b", "cost": 1},
        {"from": "a", "to": "b", "cost": "1/4"},
        {"from": "c", "to": "dead", "cost": "1"},
        {"from": "s", "to": "a", "cost": "0"},
        {"from": "b", "to": "c", "cost": "5/6"},
        {"from": "s", "to": "t", "cost": 6},
        {"from": "a", "to": "t", "cost": "0.75"},
    ],
    "source": "s",
    "sink": "t",
}


def _graphs() -> dict[str, tuple[str, list[str]]]:
    """File name -> (graph JSON, paths for ne-check and min-reward)."""
    graphs = {}
    for name, paths in [
        ("fig1", ["s,x,t", "s,v,y,t", "s,v,z,t"]),
        ("fig7a", ["s,q1,q2,t", "s,v1,v2,v3,t", "s,v1,t"]),
        ("fig7b", ["s,q1,q2,t", "s,v1,v2,v3,t", "s,v1,u,t"]),
    ]:
        graphs[f"{name}.json"] = (make_named_instance(name)[0].to_json(), paths)
    for c, c2, c3 in [("2", "5", "26"), ("3/2", "3", "10")]:
        graph = make_named_instance("modified_3fan", c, c2, c3)[0]
        graphs[f"mod3fan-{c.replace('/', '_')}.json"] = (
            graph.to_json(), [f"P{i}" for i in range(4)])
    for n in range(3, 7):
        for c in ("3/2", "2"):
            graph = make_fan(FanSpec(n, Fraction(c)))
            graphs[f"fan{n}-{c.replace('/', '_')}.json"] = (
                graph.to_json(), [f"P{i}" for i in range(n + 1)])
    graphs["messy.json"] = (json.dumps(MESSY), ["s,a,b,t", "s,a,c,t", "s,b,c,t", "s,t"])
    return graphs


GRAPHS = _graphs()
TIES = ("split", "full", "none")
REWARDS = ("0", "1/2", "2", "8")


def _commands() -> list[str]:
    commands = []
    for name, (_, paths) in GRAPHS.items():
        g = f"--graph {name}"
        commands.append(f"validate {g}")
        opponents = ["", " --opponent-length 2", f" --opponent-path {paths[-1]}"]
        commands += [f"simulate {g} --bias {b} --tie {t} --reward {r}{o}"
                     for b in ("2", "5/2") for t in TIES for o in opponents for r in REWARDS]
        commands += [f"cost-ratio {g} --bias {b}" for b in ("1", "2", "7/2")]
        for p in paths:
            commands += [f"ne-check {g} --path {p} --bias {b} --reward {r}"
                         for b in ("2", "7/2") for r in REWARDS]
            commands += [f"min-reward {g} --path {p} --bias {b}" for b in ("2", "7/2")]
        commands += [f"unbiased-eq {g} --reward {r} --tie {t}" for t in TIES for r in REWARDS]
    return commands


COMMANDS = _commands()


def _run(command: str, folder: Path) -> list:
    argv = command.split()
    i = argv.index("--graph") + 1
    argv[i] = str(folder / argv[i])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return [code, buf.getvalue()]


def _write_graphs(folder: Path) -> Path:
    for name, (text, _) in GRAPHS.items():
        (folder / name).write_text(text)
    return folder


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return _write_graphs(tmp_path_factory.mktemp("graphs"))


@functools.cache
def _recorded() -> dict:
    return json.loads(RECORD.read_text())


def test_record_covers_the_commands():
    recorded = _recorded()
    assert list(recorded) == COMMANDS
    exits = {code for code, _ in recorded.values()}
    assert {0, 3} <= exits  # min-reward has an empty case on the fans


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_is_the_recorded_text(command, folder):
    assert _run(command, folder) == _recorded()[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        graphs = _write_graphs(Path(tmp))
        RECORD.write_text(json.dumps({c: _run(c, graphs) for c in COMMANDS}, indent=1) + "\n")
