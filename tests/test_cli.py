import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import cli, instances, make_fan, FanSpec, verify
from biasgraph.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_fan(tmp_path, n=5, c="3/2"):
    path = tmp_path / "fan.json"
    path.write_text(make_fan(FanSpec(n, Fraction(c))).to_json())
    return str(path)


def test_gen_subcommands_are_the_named_instances_and_the_fans():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    gen = next(a for a in sub.choices["gen"]._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(gen.choices) == ["fan", *instances._NAMED, "mod3fan"]


@pytest.mark.parametrize("name", list(instances._NAMED))
def test_gen_round_trips_through_validate(capsys, tmp_path, name):
    code, out = invoke(capsys, "gen", name)
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


def test_simulate_rejects_both_opponent_options(capsys, tmp_path):
    fan = write_fan(tmp_path, n=4, c="2")
    code = run(["simulate", "--graph", fan, "--bias", "2", "--reward", "1",
                "--opponent-length", "3", "--opponent-path", "P0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: give at most one of --opponent-length or --opponent-path\n"


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


def test_verify_runs_without_numpy():
    # a None entry in sys.modules makes any `import numpy` raise ImportError
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from biasgraph import cli\n"
        "for s in cli.SUITES:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(['verify', '--suite', s, '--scale', '0.1'])\n"
        "    print(s, code)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert result.stdout.splitlines() == [f"{s} 0" for s in cli.SUITES]


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



_ER_FAN = ["--n", "5", "--c", "2", "--dist", "equal-revenue"]
_ONE_FAN = "the cutoff equilibrium needs a fan with n >= 2, not n = 1"


@pytest.mark.parametrize("argv", [
    ["bne-fan-multi", *_ER_FAN, "--m", "101", "--r", "8"],
    ["bne-fan-multi", *_ER_FAN, "--m", "100000", "--r", "8"],
    ["bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "2", "--m", "101"],
    ["bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "2", "--m", "100000"],
    ["bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "2", "--steps", "101"],
    ["bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "2", "--steps", "20000"],
])
def test_bne_work_past_its_bound_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "bound 100" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, message", [
    (["bne-fan", "--n", "5", "--c", "2", "--dist", "uniform", "--r", "4"],
     "uniform distribution needs --d"),
    (["bne-fan", "--n", "5", "--c", "2", "--dist", "exponential", "--r", "4"],
     "exponential distribution needs --rate"),
    (["bne-fan-multi", *_ER_FAN, "--m", "2", "--r", "6", "--per-agent-s", "2"],
     "give exactly one of --r or --per-agent-s"),
    (["bne-fan-multi", *_ER_FAN, "--m", "2"], "give exactly one of --r or --per-agent-s"),
    (["bne-sweep", *_ER_FAN, "--r-min", "4", "--r-max", "2"],
     "need r-max >= r-min and at least two steps"),
    (["bne-sweep", *_ER_FAN, "--r-min", "2", "--r-max", "4", "--steps", "1"],
     "need r-max >= r-min and at least two steps"),
    (["bne-fan", "--n", "1", "--c", "2", "--dist", "equal-revenue", "--r", "3"], _ONE_FAN),
    (["bne-fan-multi", "--n", "1", "--c", "2", "--dist", "equal-revenue", "--m", "2", "--r", "6"],
     _ONE_FAN),
    (["bne-sweep", "--n", "1", "--c", "2", "--dist", "equal-revenue", "--r-min", "2",
      "--r-max", "6"], _ONE_FAN),
])
def test_bne_option_checks_exit_2(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("suite", ["prop1", "alg1"])
def test_verify_scale_past_its_bound_exits_2_at_once(capsys, suite):
    argv = ["verify", "--suite", suite, "--scale", "1e12"]
    # in a child first, so that a missing bound fails by timeout instead of hanging the run
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "biasgraph.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=15)
    assert proc.returncode == 2 and proc.stdout == ""
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --scale is 1000000000000.0, above its bound {cli.MAX_VERIFY_SCALE}\n"
    assert proc.stderr == captured.err
    assert elapsed < 1.0


# c = 1 + 10**-k written out: the numerator 10**k + 1 has k + 1 digits.
_C_LONGEST = "1." + "0" * (cli.MAX_C_DIGITS - 2) + "1"
_C_TOO_LONG = "1." + "0" * (cli.MAX_C_DIGITS - 1) + "1"


@pytest.mark.parametrize("argv, names", [
    (["gen", "fan", "--n", "20000", "--c", "2"], ["--n", f"bound {cli.MAX_FAN_N}"]),
    (["gen", "fan", "--n", "44", "--c", "1e100"], ["--c", "--n", "4300 digits"]),
    (["bne-fan", "--n", "1001", "--c", "2", "--dist", "equal-revenue", "--r", "4"],
     ["--n", f"bound {cli.MAX_FAN_N}"]),
    (["bne-fan-multi", "--n", "1200", "--c", "2", "--dist", "equal-revenue", "--m", "2",
      "--r", "6"], ["--n", f"bound {cli.MAX_FAN_N}"]),
    (["bne-sweep", "--n", "5000", "--c", "3/2", "--dist", "equal-revenue", "--r-min", "2",
      "--r-max", "6"], ["--n", f"bound {cli.MAX_FAN_N}"]),
    (["bne-fan", "--n", "500", "--c", "10", "--dist", "equal-revenue", "--r", "4"],
     ["c**n", "c = 10", "n = 500"]),
    (["bne-fan", "--n", "1000", "--c", _C_TOO_LONG, "--dist", "equal-revenue", "--r", "4"],
     ["--c", f"bound of {cli.MAX_C_DIGITS}"]),
    (["bne-fan-multi", "--n", "1000", "--c", _C_TOO_LONG, "--dist", "equal-revenue", "--m", "100",
      "--r", "6"], ["--c", f"bound of {cli.MAX_C_DIGITS}"]),
    (["bne-sweep", "--n", "1000", "--c", _C_TOO_LONG, "--dist", "equal-revenue", "--r-min", "0",
      "--r-max", "2", "--m", "100", "--steps", "100"],
     ["--c", f"bound of {cli.MAX_C_DIGITS}"]),
])
def test_fan_too_large_exits_2_at_once_naming_its_options(capsys, argv, names):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    for name in names:
        assert name in captured.err, name
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["gen", "fan", "--n", str(cli.MAX_FAN_N), "--c", "2"],
    ["gen", "fan", "--n", "42", "--c", "1e100"],
    ["bne-fan", "--n", str(cli.MAX_FAN_N), "--c", "2", "--dist", "equal-revenue", "--r", "4"],
    ["bne-fan", "--n", "5", "--c", _C_LONGEST, "--dist", "equal-revenue", "--r", "4"],
    ["bne-fan-multi", "--n", "5", "--c", _C_LONGEST, "--dist", "equal-revenue", "--m", "2",
     "--r", "6"],
    # digits are counted in lowest terms: this c is 3/2
    ["bne-sweep", "--n", "5", "--c", "1.5" + "0" * cli.MAX_C_DIGITS, "--dist", "equal-revenue",
     "--r-min", "2", "--r-max", "6", "--steps", "2", "--format", "json"],
])
def test_fan_bounds_are_inclusive(capsys, argv):
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)


def test_missing_edge_error_has_no_quotes(capsys, tmp_path):
    fan = write_fan(tmp_path, n=4, c="2")
    code = run(["ne-check", "--graph", fan, "--path", "P9", "--bias", "3", "--reward", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no edge v4->v5\n"


def test_fan_shorthand_past_the_graph_fails_at_once(capsys, tmp_path):
    fan = write_fan(tmp_path, n=4, c="2")
    start = time.perf_counter()
    code = run(["ne-check", "--graph", fan, "--path", "P10000000", "--bias", "3",
                "--reward", "1"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err == "error: no edge v4->v5\n"
    assert elapsed < 1.0


def test_bne_competitor_bound_is_inclusive(capsys):
    code, out = invoke(capsys, "bne-fan-multi", *_ER_FAN, "--m", "100", "--r", "8")
    assert code == 0
    assert json.loads(out)["competitors"] == 100


def test_simulate_rejects_negative_opponent_length(capsys, tmp_path):
    _, graph_json = invoke(capsys, "gen", "fig1")
    graph_file = tmp_path / "fig1.json"
    graph_file.write_text(graph_json)
    code, out = invoke(capsys, "simulate", "--graph", str(graph_file), "--bias", "2",
                       "--opponent-length", "-5", "--reward", "1")
    assert code == 2
    assert out == ""


_ONE_EDGE = [{"from": "s", "to": "t", "cost": "1"}]


@pytest.mark.parametrize("document, message", [
    ([1, 2], "graph description must be a JSON object"),
    ({"vertices": 5, "edges": [], "source": "s", "sink": "t"},
     "graph vertices and edges must be lists"),
    ({"vertices": ["s", "t"], "edges": [["s", "t", "1"]], "source": "s", "sink": "t"},
     "edge ['s', 't', '1'] must be a JSON object"),
    ({"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": None}],
      "source": "s", "sink": "t"}, "None must be a string or integer"),
    ({"vertices": ["s", ["x"], "t"], "edges": _ONE_EDGE, "source": "s", "sink": "t"},
     "vertex ids must be strings"),
    ({"vertices": ["s", "t"], "edges": _ONE_EDGE, "source": ["s"], "sink": "t"},
     "vertex ids must be strings"),
    ({"vertices": ["s", "t", 3], "edges": _ONE_EDGE, "source": "s", "sink": "t"},
     "vertex ids must be strings"),
    ({"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t", "cost": True}],
      "source": "s", "sink": "t"}, "True must be a string or integer"),
    # a string or an object is iterable, but neither is a list of vertices or edges
    ({"vertices": "st", "edges": _ONE_EDGE, "source": "s", "sink": "t"},
     "graph vertices and edges must be lists"),
    ({"vertices": {"s": 0, "t": 1}, "edges": _ONE_EDGE, "source": "s", "sink": "t"},
     "graph vertices and edges must be lists"),
    ({"vertices": ["s", "t"], "edges": {"a": 1}, "source": "s", "sink": "t"},
     "graph vertices and edges must be lists"),
    ({"vertices": ["s", "t"], "edges": [{"to": "t", "cost": "1"}], "source": "s", "sink": "t"},
     "edge {'to': 't', 'cost': '1'} missing key 'from'"),
    ({"vertices": ["s", "t"], "edges": [{"from": "s", "cost": "1"}], "source": "s", "sink": "t"},
     "edge {'from': 's', 'cost': '1'} missing key 'to'"),
    ({"vertices": ["s", "t"], "edges": [{"from": "s", "to": "t"}], "source": "s", "sink": "t"},
     "edge {'from': 's', 'to': 't'} missing key 'cost'"),
])
def test_malformed_graph_file_exits_2(capsys, tmp_path, document, message):
    graph_file = tmp_path / "bad.json"
    graph_file.write_text(json.dumps(document))
    code = run(["validate", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,
    '{"vertices": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["array", "vertices"])
def test_deeply_nested_graph_file_exits_2(capsys, tmp_path, text):
    graph_file = tmp_path / "deep.json"
    graph_file.write_text(text)
    code = run(["validate", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: graph description nests too deeply\n"


def test_graph_file_that_is_not_json_exits_2(capsys, tmp_path):
    graph_file = tmp_path / "bad.json"
    graph_file.write_text("{not json")
    code = run(["validate", "--graph", str(graph_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bne-sweep", "--n", "5", "--c", "2", "--dist", "equal-revenue", "--r-min", "0",
     "--r-max", "1.7e308", "--steps", "3", "--format", "json"],
    ["bne-fan-multi", "--n", "5", "--c", "2", "--dist", "equal-revenue", "--m", "3",
     "--per-agent-s", "1e308"],
    ["bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "1e308", "--steps", "3"],
    ["bne-fan-multi", "--n", "5", "--c", "2", "--dist", "uniform", "--d", "3", "--m", "100",
     "--per-agent-s", "1e307"],
])
def test_non_finite_json_exits_2(capsys, argv):
    # a reward past the float range is refused before any solve, naming the
    # options whose product overflows; a CSV sweep used to print an inf row
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == {
        "bne-sweep": "error: (--r-max - --r-min) * (--steps - 1) overflows a float\n",
        "bne-fan-multi": "error: (--m + 1) * --per-agent-s overflows a float\n",
    }[argv[0]]


def test_sweep_to_the_float_limit_stays_in_range(capsys):
    # (r-max - r-min) * i stays finite here, so every row is a reward asked for
    code, out = invoke(capsys, "bne-sweep", *_ER_FAN, "--r-min", "0", "--r-max", "1e308",
                       "--steps", "2")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0", "1e+308"]


def test_huge_finite_answer_exits_0_with_strict_json(capsys):
    code, out = invoke(capsys, "bne-fan", *_ER_FAN, "--r", "1e308")
    assert code == 0
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
    assert payload["cutoff"] == 5e307 and payload["p"] == 1.0


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


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser) -> dict[str, bool]:
    """Each option of a command and whether it is required."""
    return {a.option_strings[-1]: a.required for a in parser._actions
            if a.option_strings and a.dest != "help"}


def _commands():
    """Each command, with a generator name after "gen", and its own options."""
    for name, parser in _subparsers(cli._build_parser()).items():
        if name == "gen":
            for generator, sub in _subparsers(parser).items():
                yield ("gen", generator), _options(sub)
        yield (name,), _options(parser)


_COMMANDS = dict(_commands())
_ALL_OPTIONS = sorted({o for options in _COMMANDS.values() for o in options})


@pytest.mark.parametrize("command", [c for c in sorted(_COMMANDS) if c != ("gen",)], ids=" ".join)
def test_each_command_binds_its_handler(command):
    argv = list(command)
    for option, required in _COMMANDS[command].items():
        if required:
            argv += [option, {"--dist": "uniform", "--suite": "alg1"}.get(option, "1")]
    args = cli._build_parser().parse_args(argv)
    name = {"bne-fan": "bne-fan-multi"}.get(command[0], command[0])  # bne-fan is it at m = 1
    assert args.handler is getattr(cli, "_cmd_" + name.replace("-", "_"))

_FRAGMENTS = ["0", "-1", "1e3", "1e308", "nan", "inf", "-inf", "1/0", "P0", "P9", "s,t",
              "s,x,t", "FAN", "FIG1", "MISSING", "101", "1001", _C_LONGEST, _C_TOO_LONG]
# Plausible values per option; the work-bounded options take only cheap or
# out-of-bound values, so that no example runs long.
_NUMBERS = ["1", "2", "3", "1/2", "3/2", "5/2", "0.05"]
_PLAUSIBLE = {
    "--tie": ["split", "full", "none"],
    "--dist": ["equal-revenue", "uniform", "exponential"],
    "--format": ["csv", "json"],
    "--suite": list(verify.SUITES),
    "--graph": ["FAN", "FIG1", "MISSING"],
    "--path": ["P0", "P1", "P4", "P9", "s,t", "s,v,z,t", "s,x,t"],
    "--opponent-path": ["P0", "P3", "P9", "s,t"],
    "--opponent-length": ["1", "2", "3", "0"],
    "--seed": ["0", "1", "25008"],
    "--c": ["2", "3/2", "5/2", "1"],
}
_BOUNDED = {
    "--scale": ["0.01", "0.05", "0", "-1", "nan", "inf", "1/0", "101"],
    "--steps": ["2", "3", "1", "0", "-1", "nan", "101"],
    "--m": ["1", "2", "3", "0", "-1", "nan", "101"],
    "--n": ["1", "2", "3", "5", "0", "-1", "1001"],
}


@st.composite
def _argvs(draw):
    """A command with most of its options, rarely one of another command's,
    and values that are mostly plausible and sometimes junk."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    own = _COMMANDS[command]
    options = [o for o, required in own.items() if draw(st.integers(0, 19)) < (19 if required else 8)]
    if draw(st.integers(0, 9)) == 0:
        options.append(draw(st.sampled_from(_ALL_OPTIONS)))
    if command == ("verify",) and "--scale" not in options:  # the default scale is 1
        options.append("--scale")
    argv = list(command)
    for option in options:
        if option in _BOUNDED:
            values = _BOUNDED[option]
        elif draw(st.integers(0, 7)):
            values = _PLAUSIBLE.get(option, _NUMBERS)
        else:
            values = _FRAGMENTS
        argv += [option, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=_argvs())
def test_argv_never_escapes_the_exit_contract(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp()
    files = {"FAN": base / "argv-fan4.json", "FIG1": base / "argv-fig1.json",
             "MISSING": base / "argv-missing.json"}
    files["FAN"].write_text(make_fan(FanSpec(4, Fraction(2))).to_json())
    files["FIG1"].write_text(cli.make_named_instance("fig1")[0].to_json())
    argv = [str(files.get(token, token)) for token in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4), argv
    if code in (0, 3):
        formats = [value for option, value in zip(argv, argv[1:]) if option == "--format"]
        if argv[0] == "bne-sweep" and formats[-1:] != ["json"]:
            assert out.getvalue().startswith("r,p,valid,cost_ratio\n"), argv
            assert "inf" not in out.getvalue() and "nan" not in out.getvalue(), argv
        else:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
