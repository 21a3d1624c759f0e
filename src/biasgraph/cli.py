"""Command-line front end.

Structured output goes to stdout as JSON with sorted keys (rationals rendered
as "a/b" or plain integers, floats with 12 significant digits); sweeps can
emit CSV instead.  Exit codes: 0 computed, 2 invalid input, 3 empty result,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from pathlib import Path

from .agents import AgentConfig, RewardTie, ratio_to_optimal, traverse
from .bne import BiasDistribution, FanBneSolution, solve_fan_bne_multi
from .equilibria import check_symmetric_ne, classify_unbiased, feasible_rewards
from .errors import BiasGraphError
from .graph import TaskGraph, load_graph, parse_rational
from .instances import _NAMED, FanSpec, make_fan, make_named_instance, resolve_path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EMPTY = 3
EXIT_VERIFY_FAILED = 4

# verify.SUITES, spelled out so that building the parser does not import the oracles.
SUITES = ("alg1", "prop1", "thm1", "thm2", "bne")

# Bounds on the bne commands' work.  One fixed-point solve evaluates the share
# factor at up to about 4,000 points, and each evaluation costs O(m) big-integer
# products, so the worst accepted bne-sweep takes seconds, not hours.
MAX_COMPETITORS = 100
MAX_SWEEP_STEPS = 100
# Suite sizes grow linearly with --scale; at this bound the slowest suite,
# alg1, runs for 21-24 s on a 2-core Xeon.  verify.run_suite itself takes
# any scale.
MAX_VERIFY_SCALE = 100
# A fan has n + 2 vertices and its exit costs grow like c**n, so a fan past
# this bound is refused before any of it is built.
MAX_FAN_N = 1000
# The bne commands decide validity on the exact c**(n-1), whose size grows with
# the digits of c in lowest terms (its numerator, since c > 1).  At this bound
# the threshold adds about 0.5 s of CPU, some 5 %, to the worst accepted
# bne-sweep (n 1000, m 100); at 100 digits it adds 1 s.
MAX_C_DIGITS = 50


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


def _float(option: str, value: Fraction) -> float:
    """A rational option as a float, refused if it overflows or a nonzero value rounds to 0."""
    try:
        result = float(value)
    except OverflowError:
        raise ValueError(f"{option} overflows a float") from None
    if value and not result:
        raise ValueError(f"{option} is nonzero but rounds to 0 as a float")
    return result


def _at_most(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{option} is {value}, above its bound {bound}")


def _fan_spec(args) -> FanSpec:
    _at_most("--n", args.n, MAX_FAN_N)
    return FanSpec(args.n, args.c)


def _bne_spec(args) -> FanSpec:
    spec = _fan_spec(args)
    if spec.c.numerator >= 10**MAX_C_DIGITS:
        raise ValueError(f"--c in lowest terms has more digits than its bound of {MAX_C_DIGITS}")
    return spec


def _dist_from_args(args) -> BiasDistribution:
    lower = _float("--c", args.c)
    if args.dist == "equal-revenue":
        return BiasDistribution.equal_revenue(lower)
    if args.dist == "uniform":
        if args.d is None:
            raise ValueError("uniform distribution needs --d")
        return BiasDistribution.uniform(lower, _float("--d", args.d))
    if args.rate is None:
        raise ValueError("exponential distribution needs --rate")
    return BiasDistribution.shifted_exponential(lower, _float("--rate", args.rate))


def _emit_solution(solution: FanBneSolution) -> int:
    payload = asdict(solution)
    payload["p"] = payload.pop("prob_optimal")
    _emit(payload)
    return EXIT_OK if solution.found else EXIT_EMPTY


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biasgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    # Shared options come from parents, which argparse adds before a command's own.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    bne = argparse.ArgumentParser(add_help=False)
    bne.add_argument("--n", type=int, required=True)
    bne.add_argument("--c", type=_rational, required=True)
    bne.add_argument("--dist", choices=["equal-revenue", "uniform", "exponential"], required=True)
    bne.add_argument("--d", type=_rational, default=None,
                     help="upper bound for the uniform distribution")
    bne.add_argument("--rate", type=_rational, default=None,
                     help="rate for the exponential distribution")

    command("validate", _cmd_validate, parents=[graph], help="canonicalize a graph file")

    p = command("gen", _cmd_gen, help="emit a generated graph as JSON")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("fan")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--c", type=_rational, required=True)
    for name in _NAMED:
        gen_sub.add_parser(name)
    g = gen_sub.add_parser("mod3fan")
    g.add_argument("--c", type=_rational, required=True)
    g.add_argument("--c2", type=_rational, required=True)
    g.add_argument("--c3", type=_rational, required=True)

    p = command("simulate", _cmd_simulate, parents=[graph],
                help="trace a naive biased traversal")
    p.add_argument("--bias", type=_rational, required=True)
    p.add_argument("--reward", type=_rational, default="0")
    p.add_argument("--opponent-length", type=int, default=None)
    p.add_argument("--opponent-path", default=None)
    p.add_argument("--tie", choices=[t.value for t in RewardTie], default="split")

    p = command("cost-ratio", _cmd_cost_ratio, parents=[graph],
                help="biased over optimal traversal cost")
    p.add_argument("--bias", type=_rational, required=True)

    p = command("ne-check", _cmd_ne_check, parents=[graph],
                help="is a path a symmetric equilibrium at a reward")
    p.add_argument("--path", required=True)
    p.add_argument("--bias", type=_rational, required=True)
    p.add_argument("--reward", type=_rational, required=True)

    p = command("min-reward", _cmd_min_reward, parents=[graph],
                help="all rewards making a path an equilibrium (ties split the reward)")
    p.add_argument("--path", required=True)
    p.add_argument("--bias", type=_rational, required=True)

    p = command("unbiased-eq", _cmd_unbiased_eq, parents=[graph],
                help="classify unbiased pure equilibria")
    p.add_argument("--reward", type=_rational, required=True)
    p.add_argument("--tie", choices=[t.value for t in RewardTie], default="split")

    p = command("bne-fan", _cmd_bne_fan_multi, parents=[bne],
                help="two-agent cutoff equilibrium on the fan")
    p.add_argument("--r", type=_rational, required=True)
    p.set_defaults(m=1, per_agent_s=None)

    p = command("bne-fan-multi", _cmd_bne_fan_multi, parents=[bne],
                help="cutoff equilibrium with m competitors")
    p.add_argument("--m", type=int, required=True, help=f"competitors, at most {MAX_COMPETITORS}")
    p.add_argument("--r", type=_rational, default=None)
    p.add_argument("--per-agent-s", type=_rational, default=None,
                   help="per-agent reward; total is (m+1)*s")

    p = command("bne-sweep", _cmd_bne_sweep, parents=[bne], help="solve over a reward range")
    p.add_argument("--r-min", type=_rational, required=True)
    p.add_argument("--r-max", type=_rational, required=True)
    p.add_argument("--steps", type=int, default=20, help=f"at most {MAX_SWEEP_STEPS}")
    p.add_argument("--m", type=int, default=1, help=f"competitors, at most {MAX_COMPETITORS}")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("verify", _cmd_verify, help="run a randomized cross-check suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help=f"at most {MAX_VERIFY_SCALE}")

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
        spec = _fan_spec(args)
        limit = sys.get_int_max_str_digits()
        digits = spec.n * math.log10(max(spec.c.numerator, spec.c.denominator))
        if limit and digits >= limit:
            raise ValueError(f"--c to the power --n would have more than {limit} digits; "
                             "lower --n or --c")
        graph = make_fan(spec)
    elif args.generator == "mod3fan":
        graph, _ = make_named_instance("modified_3fan", args.c, args.c2, args.c3)
    else:
        graph, _ = make_named_instance(args.generator)
    print(graph.to_json())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.opponent_length is not None and args.opponent_path is not None:
        raise ValueError("give at most one of --opponent-length or --opponent-path")
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
    biased = traverse(graph, AgentConfig(args.bias)).path
    _emit({
        "biased_cost": str(biased.cost),
        "biased_path": list(biased.vertices),
        "optimal_cost": str(graph.cheapest_cost(graph.source)),
        "ratio": str(ratio_to_optimal(graph, biased)),
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


def _cmd_bne_fan_multi(args) -> int:
    """bne-fan-multi, and bne-fan, which is it at --m 1 with --r required."""
    spec = _bne_spec(args)
    if (args.r is None) == (args.per_agent_s is None):
        raise ValueError("give exactly one of --r or --per-agent-s")
    _at_most("--m", args.m, MAX_COMPETITORS)
    dist = _dist_from_args(args)
    if args.r is not None:
        reward = _float("--r", args.r)
    else:
        reward = (args.m + 1) * _float("--per-agent-s", args.per_agent_s)
        if not math.isfinite(reward):
            raise ValueError("(--m + 1) * --per-agent-s overflows a float")
    return _emit_solution(solve_fan_bne_multi(spec, dist, reward, args.m))


def _cmd_bne_sweep(args) -> int:
    spec = _bne_spec(args)
    dist = _dist_from_args(args)
    lo, hi = _float("--r-min", args.r_min), _float("--r-max", args.r_max)
    if args.steps < 2 or hi < lo:
        raise ValueError("need r-max >= r-min and at least two steps")
    _at_most("--steps", args.steps, MAX_SWEEP_STEPS)
    _at_most("--m", args.m, MAX_COMPETITORS)
    if not math.isfinite((hi - lo) * (args.steps - 1)):
        raise ValueError("(--r-max - --r-min) * (--steps - 1) overflows a float")
    rows = []
    for i in range(args.steps):
        r = lo + (hi - lo) * i / (args.steps - 1)
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
    _at_most("--scale", args.scale, MAX_VERIFY_SCALE)
    from . import verify  # imports the oracles, which no other command needs

    report = verify.run_suite(args.suite, seed=args.seed, scale=args.scale)
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (BiasGraphError, ValueError, ZeroDivisionError, OverflowError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
