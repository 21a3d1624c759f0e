#!/usr/bin/env python3
"""Self-test of the benchmark's checks and input generators.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Every check is shown to accept the
program's real answer and to reject a deliberately wrong one, and every
generator must give the same text for the same seed and another text for
another seed.  Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def expect(name: str, right, wrong) -> None:
    """``right()`` must pass and ``wrong()`` must raise CheckFailed."""
    right()
    try:
        wrong()
    except CheckFailed:
        print(f"ok  {name}")
        return
    raise SystemExit(f"selftest: {name} accepted a wrong answer")


def generators() -> None:
    makers = {
        "window_dag": lambda s: gen.window_dag(s, 40, 8),
        "series_dag": lambda s: gen.series_dag(s, 2, 4, 4),
    }
    for name, make in makers.items():
        a, b, c = (gen.to_text(make(s)) for s in (3, 3, 4))
        if a != b or a == c:
            raise SystemExit(f"selftest: {name} is not a function of its seed")
        print(f"ok  {name} is deterministic in its seed")


def dag_checks() -> None:
    from biasgraph import agents, equilibria, graph as bgraph, intervals

    data = gen.window_dag(7, 40, 8)
    dag = checks.Dag(data)
    graph = bgraph.load_graph(gen.to_text(data))
    bias = Fraction(2)
    trace = agents.traverse(graph, agents.AgentConfig(bias))
    step = trace.steps[0]
    bad_step = dataclasses.replace(step, perceived=step.perceived + 1)
    expect("perceived cost = bias*c(u,v) + cheapest(v)",
           lambda: checks.check_unopposed_trace(dag, trace, bias),
           lambda: checks.check_unopposed_trace(
               dag, dataclasses.replace(trace, steps=(bad_step,) + trace.steps[1:]), bias))
    v, cost = step.alternatives[0]
    swapped = dataclasses.replace(step, perceived=cost, alternatives=((v, step.perceived),)
                                  + step.alternatives[1:])
    expect("every successor scored with its own cost",
           lambda: checks.check_unopposed_trace(dag, trace, bias),
           lambda: checks.check_unopposed_trace(
               dag, dataclasses.replace(trace, steps=(swapped,) + trace.steps[1:]), bias))
    expect("path cost is the sum of its edges",
           lambda: checks.check_path(dag, trace.path),
           lambda: checks.check_path(
               dag, dataclasses.replace(trace.path, cost=trace.path.cost + 1)))
    cut = dataclasses.replace(trace.path, vertices=trace.path.vertices[:-1],
                              length=trace.path.length - 1)
    expect("path runs from source to sink",
           lambda: checks.check_path(dag, trace.path), lambda: checks.check_path(dag, cut))

    ratio = agents.cost_ratio(graph, agents.AgentConfig(bias))
    expect("cost ratio = walked / cheapest",
           lambda: checks.check_cost_ratio(dag, ratio, trace.path.cost),
           lambda: checks.check_cost_ratio(dag, ratio * 2, trace.path.cost))

    dominant = equilibria.dominant_path_reward(graph, bias)
    expect("dominant path and reward 2*bias*max edge",
           lambda: checks.check_dominant(dag, dominant, bias, workloads.PLANTED),
           lambda: checks.check_dominant(
               dag, dataclasses.replace(dominant, reward=dominant.reward + 1), bias,
               workloads.PLANTED))

    feasible = equilibria.feasible_rewards(graph, trace.path, bias)
    wrong_set = (intervals.IntervalSet.nonnegative() if feasible.is_empty
                 else intervals.IntervalSet.empty())

    def is_ne(r):
        return bool(equilibria.check_symmetric_ne(graph, trace.path, r, bias))

    expect("feasible rewards agree with ne-check",
           lambda: checks.check_feasible_agrees(feasible, is_ne, checks.reward_probes(feasible)),
           lambda: checks.check_feasible_agrees(wrong_set, is_ne, checks.reward_probes(feasible)))

    reward = Fraction(2)
    for seed in range(100):  # the first small DAG whose ladder has two rungs
        small = gen.window_dag(seed, 12, 5, plant=False)
        report = equilibria.classify_unbiased(bgraph.validate(small), reward)
        rungs = report.ladder.paths
        if len(rungs) >= 2:
            break
    small_dag = checks.Dag(small)

    def ladder(paths, symmetric):
        return lambda: checks.check_ladder(
            small_dag, [(p.vertices, p.cost, p.length) for p in paths],
            [p.vertices for p in symmetric], reward)

    expect("last rung is a cheapest path",
           ladder(rungs, report.symmetric), ladder(rungs[:-1], report.symmetric))
    expect("first rung is the cheapest fewest-hop path",
           ladder(rungs, report.symmetric), ladder(rungs[1:], report.symmetric))
    wrong_sym = tuple(p for p in rungs if p not in report.symmetric)
    expect("symmetric equilibria match best responses",
           ladder(rungs, report.symmetric), ladder(rungs, wrong_sym))


def report_checks() -> None:
    good = {"suite": "thm2", "cases": 3, "passed": True}
    expect("verify report passed", lambda: checks.check_verify_report(good),
           lambda: checks.check_verify_report(dict(good, passed=False)))
    expect("verify report has cases", lambda: checks.check_verify_report(good),
           lambda: checks.check_verify_report(dict(good, cases=0)))
    for bad in ('{"p": NaN}', '{"p": Infinity}', "error: no such file"):
        expect(f"strict JSON rejects {bad!r}", lambda: checks.strict_json('{"p": 1.5}'),
               lambda bad=bad: checks.strict_json(bad))


def _mutate(argv0: str, out):
    if argv0 == "cost-ratio":
        return dict(out, ratio="3")
    if argv0 == "min-reward":
        iv = out["feasible"][0]
        if iv["hi"] is None:
            return dict(out, feasible=[dict(iv, lo=str(Fraction(iv["lo"]) + 1))])
        return dict(out, feasible=[dict(iv, hi=str(Fraction(iv["hi"]) * 2))])
    if argv0 == "ne-check":
        return dict(out, is_equilibrium=False, deviated_at="s")
    if argv0 == "unbiased-eq":
        return dict(out, ladder=out["ladder"][:-1] or out["ladder"] * 2)
    if argv0 == "validate":
        return out.replace('"s"', '"S"', 1)
    return dict(out, p=out["p"] * (1 + 1e-6))


def cli_checks() -> None:
    wl = workloads.CliCold(seed=1, root=ROOT)
    try:
        for index, (argv, checker) in enumerate(wl.commands):
            code, stdout, stderr = wl._spawn(argv)
            out = stdout if argv[0] == "validate" else checks.strict_json(stdout)
            shown = " ".join(a for a in argv if not a.endswith(".json"))
            expect(f"cli {shown}",
                   lambda: wl.check(index, (code, stdout, stderr)),
                   lambda: checker(_mutate(argv[0], out)))
        expect("cli exit code", lambda: None, lambda: wl.check(0, (2, "", "error")))
    finally:
        wl.close()


def main() -> int:
    if not (ROOT / "src" / "biasgraph").is_dir():
        print("selftest: run from the root of a biasgraph checkout", file=sys.stderr)
        return 2
    generators()
    dag_checks()
    report_checks()
    cli_checks()
    print("selftest: every check rejects a wrong answer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
