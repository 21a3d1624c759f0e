import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import cli, make_fan, FanSpec, verify
from biasgraph.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_fan(tmp_path, n=5, c="3/2"):
    path = tmp_path / "fan.json"
    path.write_text(make_fan(FanSpec(n, Fraction(c))).to_json())
    return str(path)


def test_gen_round_trips_through_validate(capsys, tmp_path):
    code, out = invoke(capsys, "gen", "fig1")
    assert code == 0
    graph_file = tmp_path / "g.json"
    graph_file.write_text(out)
    code, validated = invoke(capsys, "validate", "--graph", str(graph_file))
    assert code == 0
    assert validated == out


def test_gen_fan_and_mod3fan(capsys):
    code, out = invoke(capsys, "gen", "fan", "--n", "3", "--c", "2")
    assert code == 0
    data = json.loads(out)
    assert {"from": "v3", "to": "t", "cost": "8"} in data["edges"]
    code, out = invoke(capsys, "gen", "mod3fan", "--c", "2", "--c2", "5", "--c3", "26")
    assert code == 0
    code, _ = invoke(capsys, "gen", "mod3fan", "--c", "2", "--c2", "3", "--c3", "26")
    assert code == 2


def test_simulate_fig1(capsys, tmp_path):
    _, graph_json = invoke(capsys, "gen", "fig1")
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(graph_json)
    code, out = invoke(capsys, "simulate", "--graph", str(graph_file), "--bias", "2")
    assert code == 0
    trace = json.loads(out)
    assert trace["cost"] == "21"
    assert trace["path"] == ["s", "v", "z", "t"]


def test_simulate_with_opponent(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "simulate", "--graph", fan, "--bias", "2",
                       "--opponent-path", "P0", "--reward", "1")
    assert code == 0
    assert json.loads(out)["path"] == ["s", "t"]


def test_validate_reports_pruned_vertices(capsys, tmp_path):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({
        "vertices": ["s", "t", "orphan"],
        "edges": [{"from": "s", "to": "t", "cost": "1"}],
        "source": "s", "sink": "t",
    }))
    code = run(["validate", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "orphan" in captured.err
    assert "orphan" not in captured.out


def test_cost_ratio(capsys, tmp_path):
    _, graph_json = invoke(capsys, "gen", "fig1")
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(graph_json)
    code, out = invoke(capsys, "cost-ratio", "--graph", str(graph_file), "--bias", "2")
    assert code == 0
    assert json.loads(out)["ratio"] == "7/2"


def test_cost_ratio_walks_once(capsys, tmp_path, monkeypatch):
    from biasgraph import agents, cli

    calls = []
    original = agents.traverse

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(agents, "traverse", counted)
    monkeypatch.setattr(cli, "traverse", counted)
    code, out = invoke(capsys, "cost-ratio", "--graph", write_fan(tmp_path), "--bias", "2")
    assert code == 0
    assert json.loads(out)["ratio"] == "243/32"  # delays to the last exit
    assert len(calls) == 1


def test_cost_ratio_zero_cost_exits_2(capsys, tmp_path):
    graph_file = tmp_path / "zero.json"
    graph_file.write_text(json.dumps({
        "vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": "0"}],
        "source": "s", "sink": "t",
    }))
    code, out = invoke(capsys, "cost-ratio", "--graph", str(graph_file), "--bias", "2")
    assert code == 2
    assert out == ""


def test_huge_cost_exponent_exits_2(capsys, tmp_path):
    graph_file = tmp_path / "huge.json"
    graph_file.write_text(json.dumps({
        "vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": "1e4000000"}],
        "source": "s", "sink": "t",
    }))
    code, out = invoke(capsys, "validate", "--graph", str(graph_file))
    assert code == 2
    assert out == ""


def test_huge_exponent_in_every_rational_option_exits_2(capsys, tmp_path):
    fan, fig1 = write_fan(tmp_path), tmp_path / "fig1.json"
    fig1.write_text(invoke(capsys, "gen", "fig1")[1])
    fig1 = str(fig1)
    bne = ["--n", "3", "--c", "2"]
    commands = [
        (["gen", "fan", "--n", "3", "--c", "2"], ["--c"]),
        (["gen", "mod3fan", "--c", "2", "--c2", "5", "--c3", "26"], ["--c", "--c2", "--c3"]),
        (["simulate", "--graph", fig1, "--bias", "2", "--reward", "1"], ["--bias", "--reward"]),
        (["cost-ratio", "--graph", fig1, "--bias", "2"], ["--bias"]),
        (["ne-check", "--graph", fan, "--path", "P0", "--bias", "2", "--reward", "1"],
         ["--bias", "--reward"]),
        (["min-reward", "--graph", fan, "--path", "P0", "--bias", "2"], ["--bias"]),
        (["unbiased-eq", "--graph", fan, "--reward", "2"], ["--reward"]),
        (["bne-fan", *bne, "--dist", "uniform", "--d", "4", "--r", "4"], ["--c", "--d", "--r"]),
        (["bne-fan", *bne, "--dist", "exponential", "--rate", "1", "--r", "4"], ["--rate"]),
        (["bne-fan-multi", *bne, "--dist", "equal-revenue", "--m", "2", "--per-agent-s", "4"],
         ["--per-agent-s"]),
        (["bne-fan-multi", *bne, "--dist", "equal-revenue", "--m", "2", "--r", "8"], ["--r"]),
        (["bne-sweep", *bne, "--dist", "equal-revenue", "--r-min", "2", "--r-max", "6"],
         ["--r-min", "--r-max"]),
    ]
    tried = set()
    for argv, options in commands:
        assert run(argv) == 0, argv
        capsys.readouterr()
        for option in options:
            bad = list(argv)
            bad[bad.index(option) + 1] = "1e5000"
            assert run(bad) == 2, bad
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {option}: '1e5000' has a decimal exponent" in captured.err, bad
            tried.add(option)
    assert tried == {"--bias", "--reward", "--c", "--c2", "--c3", "--d", "--rate", "--r",
                     "--r-min", "--r-max", "--per-agent-s"}


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_ne_check_fan_shorthand(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "ne-check", "--graph", fan, "--path", "P0",
                       "--bias", "2", "--reward", "1")
    assert code == 0
    assert json.loads(out)["is_equilibrium"] is True


def test_ne_check_zero_denominator_exits_2(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "ne-check", "--graph", fan, "--path", "P0",
                       "--bias", "2", "--reward", "1/0")
    assert code == 2
    assert out == ""


def test_min_reward_feasible(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "min-reward", "--graph", fan, "--path", "P0", "--bias", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == "1"
    assert payload["feasible"] == [{"hi": None, "lo": "1"}]


def test_min_reward_empty_exits_3(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "min-reward", "--graph", fan, "--path", "P2", "--bias", "2")
    assert code == 3
    assert json.loads(out) == {"feasible": [], "min": None}


def test_unbiased_eq(capsys, tmp_path):
    fan = write_fan(tmp_path)
    code, out = invoke(capsys, "unbiased-eq", "--graph", fan, "--reward", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ladder"] == [{"cost": "1", "length": 1, "vertices": ["s", "t"]}]
    assert payload["symmetric"] == [["s", "t"]]


def test_bne_fan(capsys):
    code, out = invoke(capsys, "bne-fan", "--n", "5", "--c", "2",
                       "--dist", "equal-revenue", "--r", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 0.5
    assert payload["expected_cost_ratio"] == 16.5
    assert payload["valid"] is True


def test_bne_fan_low_reward_exits_3(capsys):
    code, out = invoke(capsys, "bne-fan", "--n", "5", "--c", "2",
                       "--dist", "uniform", "--d", "4", "--r", "1")
    assert code == 3
    assert json.loads(out)["found"] is False


def test_bne_fan_multi_per_agent(capsys):
    code, out = invoke(capsys, "bne-fan-multi", "--n", "5", "--c", "2",
                       "--dist", "equal-revenue", "--m", "20", "--per-agent-s", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["competitors"] == 20
    limit = (math.sqrt(32) - 4) / 2  # many-competitor cap at per-agent reward 4
    assert 0 < payload["p"] <= limit + 1e-9


def test_bne_sweep_csv(capsys):
    code, out = invoke(capsys, "bne-sweep", "--n", "5", "--c", "2", "--dist", "equal-revenue",
                       "--r-min", "2", "--r-max", "4", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,p,valid,cost_ratio"
    assert len(lines) == 4
    assert lines[-1].startswith("4,0.5,true,16.5")


def test_verify_suite(capsys):
    code, out = invoke(capsys, "verify", "--suite", "thm1", "--seed", "1", "--scale", "0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["failures"] == []


def test_verify_thm1_draws_a_random_fan_at_small_scale():
    # 24 fixed probes: six threshold probes on each of the four fans
    assert verify.run_suite("thm1", seed=0, scale=0.1)["cases"] > 24


def test_verify_suite_choices_are_the_suites():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == verify.SUITES


def test_cli_import_leaves_numpy_unloaded():
    # numpy comes in with biasgraph.verify, which only the verify command needs
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import biasgraph.cli, sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "False"


def test_verify_rejects_nonpositive_scale(capsys):
    for scale in ("-1", "0"):
        code, out = invoke(capsys, "verify", "--suite", "thm1", "--scale", scale)
        assert code == 2
        assert out == ""


def test_invalid_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["s", "t"], "edges": [], "source": "s", "sink": "t"}')
    code, _ = invoke(capsys, "validate", "--graph", str(bad))
    assert code == 2


def test_unknown_arguments_exit_2(capsys):
    code, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _ = invoke(capsys, "simulate", "--graph", "/nonexistent.json", "--bias", "2")
    assert code == 2


def test_min_reward_rejects_bias_below_one(capsys, tmp_path):
    _, graph_json = invoke(capsys, "gen", "fig1")
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(graph_json)
    code, out = invoke(capsys, "min-reward", "--graph", str(graph_file), "--path", "s,x,t",
                       "--bias", "-3")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["bne-fan", "--n", "2000", "--c", "2", "--dist", "equal-revenue", "--r", "4"],
    ["bne-fan-multi", "--n", "2000", "--c", "2", "--dist", "equal-revenue", "--m", "3",
     "--r", "4"],
    ["bne-fan", "--n", "5", "--c", "2", "--dist", "equal-revenue", "--r", "1e400"],
])
def test_bne_overflow_exits_2(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_simulate_rejects_negative_opponent_length(capsys, tmp_path):
    _, graph_json = invoke(capsys, "gen", "fig1")
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(graph_json)
    code, out = invoke(capsys, "simulate", "--graph", str(graph_file), "--bias", "2",
                       "--opponent-length", "-5", "--reward", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("document", [
    [1, 2],
    {"vertices": 5, "edges": [], "source": "s", "sink": "t"},
    {"vertices": ["s", "t"], "edges": [["s", "t", "1"]], "source": "s", "sink": "t"},
    {"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": None}],
     "source": "s", "sink": "t"},
    {"vertices": ["s", ["x"], "t"], "edges": [{"from": "s", "to": "t", "cost": "1"}],
     "source": "s", "sink": "t"},
    {"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": "1"}],
     "source": ["s"], "sink": "t"},
    {"vertices": ["s", "t", 3], "edges": [{"from": "s", "to": "t", "cost": "1"}],
     "source": "s", "sink": "t"},
    {"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": True}],
     "source": "s", "sink": "t"},
])
def test_malformed_graph_file_exits_2(capsys, tmp_path, document):
    graph_file = tmp_path / "bad.json"
    graph_file.write_text(json.dumps(document))
    code = run(["validate", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bne-sweep", "--n", "5", "--c", "2", "--dist", "equal-revenue", "--r-min", "0",
     "--r-max", "1.7e308", "--steps", "3", "--format", "json"],
    ["bne-fan-multi", "--n", "5", "--c", "2", "--dist", "equal-revenue", "--m", "3",
     "--per-agent-s", "1e308"],
])
def test_non_finite_json_exits_2(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Out of range float values are not JSON compliant\n"


_json_leaves = (st.none() | st.booleans() | st.floats() | st.integers(-3, 3)
                | st.sampled_from(["s", "t", "a", "1", "1/2", "0", "-1", "1/0", ""]))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["from", "to", "cost", "vertices"]), inner, max_size=3),
    max_leaves=6,
)
_VERTICES = ["s", "a", "b", "t"]
_FORWARD_EDGES = [(u, v) for i, u in enumerate(_VERTICES) for v in _VERTICES[i + 1:]]


@st.composite
def _graph_documents(draw):
    """A small DAG description with about one field in twenty replaced by random JSON."""
    def field(good):
        return draw(_json_values) if draw(st.integers(0, 19)) == 10 else good

    edges = [
        field({"from": field(u), "to": field(v),
               "cost": field(draw(st.sampled_from(["0", "1/2", "1", "3"])))})
        for u, v in draw(st.lists(st.sampled_from(_FORWARD_EDGES), min_size=2, max_size=6))
    ]
    vertices = field([field(v) for v in _VERTICES])
    return field({"vertices": vertices, "edges": field(edges),
                  "source": field("s"), "sink": field("t")})


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(document=_graph_documents())
def test_graph_input_never_escapes_the_exit_contract(tmp_path_factory, document):
    graph_file = tmp_path_factory.getbasetemp() / "fuzz.json"
    graph_file.write_text(json.dumps(document))
    # Every command reads the graph first, so the others run only on files validate accepts.
    for argv in (["validate"], ["simulate", "--bias", "2"], ["unbiased-eq", "--reward", "2"],
                 ["cost-ratio", "--bias", "2"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run([argv[0], "--graph", str(graph_file), *argv[1:]])
        assert code in (0, 2, 3, 4), (argv, document)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        elif argv[0] == "validate":
            break
