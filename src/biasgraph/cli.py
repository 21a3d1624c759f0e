"""Command-line front end.

Structured output goes to stdout as JSON with sorted keys (rationals rendered
as "a/b" or plain integers, floats with 12 significant digits); sweeps can
emit CSV instead.  Exit codes: 0 computed, 2 invalid input, 3 empty result,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .agents import AgentConfig, RewardTie, traverse
from .bne import (
    BiasDistribution,
    FanBneSolution,
    solve_fan_bne,
    solve_fan_bne_multi,
)
from .equilibria import check_symmetric_ne, classify_unbiased, feasible_rewards
from .errors import BiasGraphError, ZeroOptimalCost
from .graph import TaskGraph, load_graph, parse_rational
from .instances import FanSpec, make_fan, make_named_instance, resolve_path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EMPTY = 3
EXIT_VERIFY_FAILED = 4

# verify.SUITES, spelled out so that building the parser does not import numpy.
SUITES = ("alg1", "prop1", "thm1", "thm2", "bne")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload) -> None:
    print(json.dumps(_round_floats(payload), sort_keys=True, allow_nan=False))


def _read_graph(path: str) -> TaskGraph:
    return load_graph(Path(path).read_text())


def _rational(text: str) -> Fraction:
    """The argparse type of every rational option, keeping parse_rational's message."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dist_from_args(args) -> BiasDistribution:
    lower = float(args.c)
    if args.dist == "equal-revenue":
        return BiasDistribution.equal_revenue(lower)
    if args.dist == "uniform":
        if args.d is None:
            raise ValueError("uniform distribution needs --d")
        return BiasDistribution.uniform(lower, float(args.d))
    if args.rate is None:
        raise ValueError("exponential distribution needs --rate")
    return BiasDistribution.shifted_exponential(lower, float(args.rate))


def _solution_payload(solution: FanBneSolution) -> dict:
    return {
        "p": solution.prob_optimal,
        "cutoff": solution.cutoff,
        "threshold": solution.threshold,
        "valid": solution.valid,
        "expected_cost_ratio": solution.expected_cost_ratio,
        "residual": solution.residual,
        "found": solution.found,
        "competitors": solution.competitors,
    }


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biasgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="canonicalize a graph file")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as JSON")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("fan")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--c", type=_rational, required=True)
    for name in ("fig1", "fig7a", "fig7b"):
        gen_sub.add_parser(name)
    g = gen_sub.add_parser("mod3fan")
    g.add_argument("--c", type=_rational, required=True)
    g.add_argument("--c2", type=_rational, required=True)
    g.add_argument("--c3", type=_rational, required=True)

    p = sub.add_parser("simulate", help="trace a naive biased traversal")
    p.add_argument("--graph", required=True)
    p.add_argument("--bias", type=_rational, required=True)
    p.add_argument("--reward", type=_rational, default="0")
    p.add_argument("--opponent-length", type=int, default=None)
    p.add_argument("--opponent-path", default=None)
    p.add_argument("--tie", choices=[t.value for t in RewardTie], default="split")

    p = sub.add_parser("cost-ratio", help="biased over optimal traversal cost")
    p.add_argument("--graph", required=True)
    p.add_argument("--bias", type=_rational, required=True)

    p = sub.add_parser("ne-check", help="is a path a symmetric equilibrium at a reward")
    p.add_argument("--graph", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--bias", type=_rational, required=True)
    p.add_argument("--reward", type=_rational, required=True)

    p = sub.add_parser("min-reward",
                       help="all rewards making a path an equilibrium (ties split the reward)")
    p.add_argument("--graph", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--bias", type=_rational, required=True)

    p = sub.add_parser("unbiased-eq", help="classify unbiased pure equilibria")
    p.add_argument("--graph", required=True)
    p.add_argument("--reward", type=_rational, required=True)
    p.add_argument("--tie", choices=[t.value for t in RewardTie], default="split")

    def add_bne_common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--c", type=_rational, required=True)
        p.add_argument("--dist", choices=["equal-revenue", "uniform", "exponential"], required=True)
        p.add_argument("--d", type=_rational, default=None,
                       help="upper bound for the uniform distribution")
        p.add_argument("--rate", type=_rational, default=None,
                       help="rate for the exponential distribution")

    p = sub.add_parser("bne-fan", help="two-agent cutoff equilibrium on the fan")
    add_bne_common(p)
    p.add_argument("--r", type=_rational, required=True)

    p = sub.add_parser("bne-fan-multi", help="cutoff equilibrium with m competitors")
    add_bne_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=_rational, default=None)
    p.add_argument("--per-agent-s", type=_rational, default=None,
                   help="per-agent reward; total is (m+1)*s")

    p = sub.add_parser("bne-sweep", help="solve over a reward range")
    add_bne_common(p)
    p.add_argument("--r-min", type=_rational, required=True)
    p.add_argument("--r-max", type=_rational, required=True)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("verify", help="run a randomized cross-check suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)

    return parser


def _cmd_validate(args) -> int:
    graph = _read_graph(args.graph)
    if graph.pruned:
        print(f"pruned vertices not on any source->sink path: {', '.join(graph.pruned)}",
              file=sys.stderr)
    print(graph.to_json())
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.generator == "fan":
        graph = make_fan(FanSpec(args.n, args.c))
    elif args.generator == "mod3fan":
        graph, _ = make_named_instance("modified_3fan", args.c, args.c2, args.c3)
    else:
        graph, _ = make_named_instance(args.generator)
    print(graph.to_json())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    graph = _read_graph(args.graph)
    config = AgentConfig(args.bias, RewardTie(args.tie))
    opponent = args.opponent_length
    if args.opponent_path is not None:
        opponent = resolve_path(graph, args.opponent_path).length
    trace = traverse(graph, config, opponent=opponent, reward=args.reward)
    _emit(trace.to_json_dict())
    return EXIT_OK


def _cmd_cost_ratio(args) -> int:
    graph = _read_graph(args.graph)
    config = AgentConfig(args.bias)
    optimal = graph.cheapest_cost(graph.source)
    if optimal == 0:
        raise ZeroOptimalCost("cheapest path costs zero")
    biased = traverse(graph, config).path
    _emit({
        "biased_cost": str(biased.cost),
        "biased_path": list(biased.vertices),
        "optimal_cost": str(optimal),
        "ratio": str(biased.cost / optimal),
    })
    return EXIT_OK


def _cmd_ne_check(args) -> int:
    graph = _read_graph(args.graph)
    q = resolve_path(graph, args.path)
    result = check_symmetric_ne(graph, q, args.reward, args.bias)
    _emit({
        "is_equilibrium": result.is_equilibrium,
        "deviated_at": result.deviated_at,
        "trace": result.trace.to_json_dict(),
    })
    return EXIT_OK


def _cmd_min_reward(args) -> int:
    graph = _read_graph(args.graph)
    q = resolve_path(graph, args.path)
    feasible = feasible_rewards(graph, q, args.bias)
    minimum = feasible.min_point()
    _emit({
        "feasible": feasible.to_json_list(),
        "min": None if minimum is None else str(minimum),
    })
    return EXIT_OK if not feasible.is_empty else EXIT_EMPTY


def _cmd_unbiased_eq(args) -> int:
    graph = _read_graph(args.graph)
    report = classify_unbiased(graph, args.reward, RewardTie(args.tie))
    _emit({
        "ladder": [p.to_json_dict() for p in report.ladder.paths],
        "symmetric": [list(p.vertices) for p in report.symmetric],
        "asymmetric": None if report.asymmetric is None
        else [list(p.vertices) for p in report.asymmetric],
        "tie": report.tie_rule.value,
    })
    return EXIT_OK


def _cmd_bne_fan(args) -> int:
    spec = FanSpec(args.n, args.c)
    solution = solve_fan_bne(spec, _dist_from_args(args), float(args.r))
    _emit(_solution_payload(solution))
    return EXIT_OK if solution.found else EXIT_EMPTY


def _cmd_bne_fan_multi(args) -> int:
    spec = FanSpec(args.n, args.c)
    if (args.r is None) == (args.per_agent_s is None):
        raise ValueError("give exactly one of --r or --per-agent-s")
    if args.r is not None:
        reward = float(args.r)
    else:
        reward = (args.m + 1) * float(args.per_agent_s)
    solution = solve_fan_bne_multi(spec, _dist_from_args(args), reward, args.m)
    _emit(_solution_payload(solution))
    return EXIT_OK if solution.found else EXIT_EMPTY


def _cmd_bne_sweep(args) -> int:
    spec = FanSpec(args.n, args.c)
    dist = _dist_from_args(args)
    lo, hi = float(args.r_min), float(args.r_max)
    if args.steps < 2 or hi < lo:
        raise ValueError("need r-max >= r-min and at least two steps")
    rows = []
    for i in range(args.steps):
        r = lo + (hi - lo) * i / (args.steps - 1)
        if args.m == 1:
            sol = solve_fan_bne(spec, dist, r)
        else:
            sol = solve_fan_bne_multi(spec, dist, r, args.m)
        rows.append((r, sol.prob_optimal, sol.valid, sol.expected_cost_ratio))
    if args.format == "json":
        _emit([
            {"r": r, "p": p, "valid": valid, "cost_ratio": ratio}
            for r, p, valid, ratio in rows
        ])
    else:
        print("r,p,valid,cost_ratio")
        for r, p, valid, ratio in rows:
            print(f"{r:.12g},{p:.12g},{str(valid).lower()},{ratio:.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify  # imports numpy, which no other command needs

    report = verify.run_suite(args.suite, seed=args.seed, scale=args.scale)
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


_HANDLERS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "simulate": _cmd_simulate,
    "cost-ratio": _cmd_cost_ratio,
    "ne-check": _cmd_ne_check,
    "min-reward": _cmd_min_reward,
    "unbiased-eq": _cmd_unbiased_eq,
    "bne-fan": _cmd_bne_fan,
    "bne-fan-multi": _cmd_bne_fan_multi,
    "bne-sweep": _cmd_bne_sweep,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (BiasGraphError, ValueError, ZeroDivisionError, OverflowError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
