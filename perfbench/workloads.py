"""The four workloads: their inputs, their round of operations, their checks.

A workload's constructor is its set-up: it generates the inputs from the
seed, validates them with the benchmark's own code, and warms up.  ``ops(k)``
returns round k as a list of operations; every round of one run holds the
same number of operations of the same kinds.  ``check`` runs after an
operation's timing has stopped.  The program is called through its module
attributes (``agents.traverse``), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction

import checks
import gen
import hostspeed
from checks import require

PLANTED = ("s", "w", "t")


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    # The host-speed reference task whose work is most like the operations'.
    host_reference = hostspeed.DP

    def ops(self, round_no: int) -> list:
        raise NotImplementedError

    def check(self, index: int, output) -> None:
        raise NotImplementedError

    def start_trace(self, tracer) -> None:
        """Called once when tracing starts."""

    def after_traced_op(self, tracer, index: int, output) -> None:
        """Counters and extra measurements for one traced operation."""

    def peak_rss_mb(self) -> float:
        return _maxrss_mb(resource.RUSAGE_SELF)

    def close(self) -> None:
        """Remove whatever set-up wrote."""


class _DagChecks:
    """Full checks the first time an operation index is seen; afterwards the
    answers must equal the ones that passed them."""

    def __init__(self) -> None:
        self.reference: dict[int, object] = {}
        self.breakpoints: dict[int, int] = {}

    def check(self, index: int, output) -> None:
        graph, answers = output
        if index in self.reference:
            require(answers == self.reference[index], f"operation {index} changed its answer")
            return
        self.full_check(index, graph, answers)
        self.reference[index] = answers

    def feasible_agrees(self, graph, path, bias, feasible) -> int:
        """Membership agrees with ``check_symmetric_ne`` at the probe points;
        returns the number of algorithm breakpoints, for the traced run."""
        from biasgraph import equilibria

        checks.check_feasible_agrees(
            feasible,
            lambda r: bool(equilibria.check_symmetric_ne(graph, path, r, bias)),
            checks.reward_probes(feasible),
        )
        return len(equilibria.algorithm_breakpoints(graph, path, bias))

    def after_traced_op(self, tracer, index: int, output) -> None:
        tracer.add("equilibria.breakpoints", self.breakpoints[index])


class DagCold(_DagChecks, Workload):
    """Parse a fresh DAG and answer one fixed battery of questions on it.

    The DAGs are small and many.  An operation of about 80 ms runs through
    few of the host's speed changes, so the reference calls next to it
    scale it well (see hostspeed.py); with 12 DAGs of 133 vertices per
    round, at 0.2 s each, p90 spread by 0.155 over ten seeds, and with 30
    DAGs p90 is a quantile of many DAGs rather than the costliest one.
    """

    N, WINDOW, GRAPHS = 80, 10, 30
    BIASES = tuple(Fraction(b) for b in ("3/2", "2", "5/2", "3"))
    REWARD = Fraction(4)

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.inputs = []
        for g in range(self.GRAPHS):
            data = gen.window_dag(seed * 100 + g, self.N, self.WINDOW)
            dag = checks.Dag(data)
            require(dag.fewest_hops == 2 and dag.cheapest[dag.source] > 0,
                    "generated DAG lacks its planted dominant path")
            self.inputs.append((gen.to_text(data), dag, self.BIASES[g % len(self.BIASES)]))
        self.check(0, self._op(0))

    def _op(self, index: int):
        from biasgraph import agents, equilibria, graph as bgraph

        text, _, bias = self.inputs[index]
        graph = bgraph.load_graph(text)
        config = agents.AgentConfig(bias)
        trace = agents.traverse(graph, config)
        ratio = agents.cost_ratio(graph, config)
        report = equilibria.classify_unbiased(graph, self.REWARD)
        dominant = equilibria.dominant_path_reward(graph, bias)
        ne = equilibria.check_symmetric_ne(graph, dominant.path, dominant.reward, bias)
        feasible = equilibria.feasible_rewards(graph, trace.path, bias)
        return graph, (trace, ratio, report, dominant, ne, feasible)

    def ops(self, round_no: int) -> list:
        return [lambda i=i: self._op(i) for i in range(self.GRAPHS)]

    def full_check(self, index: int, graph, answers) -> None:
        _, dag, bias = self.inputs[index]
        trace, ratio, report, dominant, ne, feasible = answers
        checks.check_unopposed_trace(dag, trace, bias)
        checks.check_cost_ratio(dag, ratio, trace.path.cost)
        checks.check_ladder(dag, [(p.vertices, p.cost, p.length) for p in report.ladder.paths],
                            [p.vertices for p in report.symmetric], self.REWARD)
        checks.check_dominant(dag, dominant, bias, PLANTED)
        require(ne.is_equilibrium, "Theorem 2: no equilibrium at the dominant-path reward")
        self.breakpoints[index] = self.feasible_agrees(graph, trace.path, bias, feasible)


class DagWarm(_DagChecks, Workload):
    """Queries against DAGs whose hop tables set-up has built.

    The cost of a query depends far more on the DAG than on the bias or the
    reward: it grows with how often a deviation's cheapest continuation needs
    more hops than the opponent has left.  DAGs of one shape averaged 17 to
    37 ms per query, so the mean over eight DAGs still moved by 20 % from one
    seed to the next.  A round therefore asks five queries of each of 24
    DAGs.  Operation i asks DAG i // 5 with bias ``BIASES[i % 5]`` and reward
    ``REWARDS[i % 3]``: every bias on every DAG, and each of the 15 (bias,
    reward) pairs 8 times per round.
    """

    GRAPHS, BLOCKS, LAYERS, WIDTH = 24, 3, 12, 8
    QUERIES_PER_GRAPH = 5
    BIASES = tuple(Fraction(b) for b in ("5/4", "3/2", "2", "3", "5"))
    REWARDS = tuple(Fraction(r) for r in ("1/2", "2", "8"))

    def __init__(self, seed: int) -> None:
        from biasgraph import graph as bgraph

        super().__init__()
        self.inputs = []
        for g in range(self.GRAPHS):
            data = gen.series_dag(seed * 100 + g, self.BLOCKS, self.LAYERS, self.WIDTH)
            dag = checks.Dag(data)
            require(dag.fewest_hops == 2, "generated DAG lacks its planted dominant path")
            graph = bgraph.load_graph(gen.to_text(data))
            graph.hop_tables
            self.inputs.append((graph, dag))
        self._by_bias: dict[tuple, tuple] = {}
        self.check(0, self._op(0))

    def _op(self, index: int):
        from biasgraph import agents, equilibria

        graph, _ = self.inputs[index // self.QUERIES_PER_GRAPH]
        bias, reward = self._query(index)
        trace = agents.traverse(graph, agents.AgentConfig(bias))
        ne = equilibria.check_symmetric_ne(graph, trace.path, reward, bias)
        feasible = equilibria.feasible_rewards(graph, trace.path, bias)
        return graph, (trace, ne, feasible)

    def _query(self, index: int) -> tuple[Fraction, Fraction]:
        return self.BIASES[index % len(self.BIASES)], self.REWARDS[index % len(self.REWARDS)]

    def ops(self, round_no: int) -> list:
        return [lambda i=i: self._op(i) for i in range(self.GRAPHS * self.QUERIES_PER_GRAPH)]

    def full_check(self, index: int, graph, answers) -> None:
        g = index // self.QUERIES_PER_GRAPH
        bias, reward = self._query(index)
        trace, ne, feasible = answers
        checks.check_unopposed_trace(self.inputs[g][1], trace, bias)
        require(ne.is_equilibrium == feasible.contains(reward),
                f"ne-check and feasible set disagree at r={reward}")
        key = (g, bias)
        if key not in self._by_bias:
            self._by_bias[key] = (feasible,
                                  self.feasible_agrees(graph, trace.path, bias, feasible))
        require(self._by_bias[key][0] == feasible, "feasible set depends on the reward asked")
        self.breakpoints[index] = self._by_bias[key][1]

    def start_trace(self, tracer) -> None:
        tracer.request_probe(self.inputs[0][0])


class VerifySuites(Workload):
    """One ``verify.run_suite`` call per operation, cycling through the suites.

    Round k runs every suite once with suite seed 1000 * seed + k.  The
    scales make the five suites alike in size: the bne suite's fixed-point
    solves cost the same at any scale, so the others are scaled up to it.
    """

    SCALES = {"alg1": 0.5, "prop1": 5.5, "thm1": 40.0, "thm2": 9.0, "bne": 0.5}

    def __init__(self, seed: int) -> None:
        from biasgraph import verify

        require(tuple(self.SCALES) == verify.SUITES, "suite list changed")
        self.seed = seed
        checks.check_verify_report(verify.run_suite("thm2", seed=1000 * seed + 999, scale=0.1))

    def ops(self, round_no: int) -> list:
        from biasgraph import verify

        suite_seed = 1000 * self.seed + round_no
        return [lambda s=s, scale=scale: verify.run_suite(s, seed=suite_seed, scale=scale)
                for s, scale in self.SCALES.items()]

    def check(self, index: int, output) -> None:
        checks.check_verify_report(output)


_CLI_MAIN = "from biasgraph.cli import main; main()"
_IMPORT_TIME = ("import time; t = time.perf_counter(); import biasgraph.cli; "
                "print(time.perf_counter() - t)")


class CliCold(Workload):
    """One ``biasgraph`` command per operation, each in a fresh interpreter.

    Set-up writes the inputs: fig1 and an n-fan from the program's own
    ``gen`` command, and a small random DAG from the benchmark's generator.
    Every answer is checked against a closed form from the paper or against
    the benchmark's own DP.
    """

    CHILD_TIMEOUT_S = 60
    host_reference = hostspeed.INTERPRETER

    def __init__(self, seed: int, root) -> None:
        from biasgraph import cli

        rng = random.Random(f"cli-cold:{seed}")
        self.n = rng.randint(3, 7)
        self.c = rng.choice((Fraction(3, 2), Fraction(2), Fraction(5, 4)))
        self.bias = self.c + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        self.r_two = rng.choice((3, 4, 5, 6, 8, 10))
        self.m = rng.randint(2, 4)
        self.r_multi = rng.choice((6, 8, 12))
        self.reward = rng.choice((Fraction(1), Fraction(2), Fraction(4)))
        small = gen.window_dag(seed, 12, 5, plant=False)
        self.small_dag = checks.Dag(small)

        self.workdir = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.fig1 = self._write("fig1.json", self._in_process(cli, ["gen", "fig1"]))
        self.fan_text = self._in_process(
            cli, ["gen", "fan", "--n", str(self.n), "--c", str(self.c)])
        self.fan = self._write("fan.json", self.fan_text)
        self.small = self._write("dag.json", gen.to_text(small))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

        lo, hi = checks.fan_thresholds(self.n, self.c, self.bias)
        b, n, c = str(self.bias), str(self.n), str(self.c)
        self.commands = [
            (["cost-ratio", "--graph", self.fig1, "--bias", "2"], self._check_fig1_ratio),
            (["min-reward", "--graph", self.fan, "--path", "P0", "--bias", b],
             lambda out: self._check_interval(out, lo, None)),
            (["min-reward", "--graph", self.fan, "--path", f"P{n}", "--bias", b],
             lambda out: self._check_interval(out, Fraction(0), hi)),
            (["ne-check", "--graph", self.fan, "--path", "P0", "--bias", b, "--reward", str(lo)],
             self._check_ne_at_threshold),
            (["unbiased-eq", "--graph", self.small, "--reward", str(self.reward)],
             self._check_unbiased),
            (["validate", "--graph", self.fan], self._check_fixed_point),
            (["bne-fan", "--n", n, "--c", c, "--dist", "equal-revenue", "--r", str(self.r_two)],
             self._check_bne_two),
            (["bne-fan-multi", "--n", n, "--c", c, "--dist", "equal-revenue",
              "--m", str(self.m), "--r", str(self.r_multi)], self._check_bne_multi),
        ]
        self.check(5, self._spawn(self.commands[5][0]))

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    @staticmethod
    def _in_process(cli, argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            require(cli.run(argv) == 0, f"biasgraph {' '.join(argv)} failed")
        return buf.getvalue()

    def _spawn(self, argv: list[str]):
        proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *argv], env=self.env,
                              capture_output=True, text=True, timeout=self.CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self, round_no: int) -> list:
        return [lambda argv=argv: self._spawn(argv) for argv, _ in self.commands]

    def check(self, index: int, output) -> None:
        code, stdout, stderr = output
        argv = self.commands[index][0]
        require(code == 0, f"biasgraph {argv[0]} exited {code}: {stderr.strip()[-300:]}")
        self.commands[index][1](checks.strict_json(stdout) if argv[0] != "validate" else stdout)

    def _check_fig1_ratio(self, out) -> None:
        require(Fraction(out["ratio"]) == Fraction(7, 2), "fig1 cost ratio is not 7/2")

    def _check_interval(self, out, lo: Fraction, hi: Fraction | None) -> None:
        want = [{"lo": lo, "hi": hi}]
        got = [{"lo": Fraction(i["lo"]), "hi": None if i["hi"] is None else Fraction(i["hi"])}
               for i in out["feasible"]]
        require(got == want, f"fan feasible set {out['feasible']}, Theorem 1 gives [{lo}, {hi}]")
        require(Fraction(out["min"]) == lo, "min-reward is not the interval's low end")

    def _check_ne_at_threshold(self, out) -> None:
        require(out["is_equilibrium"] is True and out["deviated_at"] is None,
                "P0 is not an equilibrium at r = 2(b - c)")

    def _check_unbiased(self, out) -> None:
        rungs = [(p["vertices"], Fraction(p["cost"]), p["length"]) for p in out["ladder"]]
        checks.check_ladder(self.small_dag, rungs, out["symmetric"], self.reward)

    def _check_fixed_point(self, stdout: str) -> None:
        require(stdout == self.fan_text, "gen fan | validate is not a fixed point")

    def _check_bne_two(self, out) -> None:
        require(abs(out["p"] - checks.equal_revenue_p(self.r_two)) <= 1e-9,
                f"bne-fan p = {out['p']}, closed form (r-2)/r is "
                f"{checks.equal_revenue_p(self.r_two)}")

    def _check_bne_multi(self, out) -> None:
        p, c = out["p"], float(self.c)
        require(out["found"] is True and 0 < p <= 1, "bne-fan-multi found no fixed point")
        residual = checks.equal_revenue_cdf(self.r_multi * checks.multi_share(p, self.m) + c, c) - p
        require(abs(residual) <= 1e-9, f"bne-fan-multi p = {p} misses F(r d + c) = p by {residual}")

    def start_trace(self, tracer) -> None:
        from biasgraph import cli

        self.cli = cli

    def after_traced_op(self, tracer, index: int, output) -> None:
        """Split one command into interpreter start, import and the command."""
        import time

        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                       timeout=self.CHILD_TIMEOUT_S)
        tracer.record("cli.interpreter", time.perf_counter() - t)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIME], env=self.env, check=True,
                              capture_output=True, text=True, timeout=self.CHILD_TIMEOUT_S)
        tracer.record("cli.import", float(proc.stdout))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.cli.run(self.commands[index][0])

    def peak_rss_mb(self) -> float:
        return _maxrss_mb(resource.RUSAGE_CHILDREN)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root) -> Workload:
    if name == "dag-cold":
        return DagCold(seed)
    if name == "dag-warm":
        return DagWarm(seed)
    if name == "verify-suites":
        return VerifySuites(seed)
    if name == "cli-cold":
        return CliCold(seed, root)
    raise ValueError(f"unknown workload {name!r}")

