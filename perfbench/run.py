#!/usr/bin/env python3
"""Benchmark for biasgraph: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dag-cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads: dag-cold, dag-warm, verify-suites, cli-cold (see README.md).

The process started by this command only orchestrates.  It starts fresh
interpreters one after another: SETUP_SAMPLES - 1 that only set the workload
up, then one that sets up and measures.  Each reports the seconds from its
own spawn to the point where its first timed operation would start, and
``setup_s`` is the median of those.  Every time reported is scaled to a
reference host speed, measured next to it (hostspeed.py), because the host's
speed drifts by up to 2x over minutes; set-up by reference calls right before
the spawn and right after the set-up.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` measures untraced for half the time and traced for the
other half, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object, with
the set-up samples, is written to ``.perfbench_out/``, and in a traced run the
spans go there too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("dag-cold", "dag-warm", "verify-suites", "cli-cold")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 20
MEASURE_TIMEOUT_S = 120
SPANS_WRITTEN = 20000

# (per-layer metric, unit, how to read it from a tracer after n traced ops)
_MS = "ms"
PER_LAYER = (
    ("graph.validate_ms", _MS, "graph.validate"),
    ("graph.hop_tables_ms", _MS, "graph.hop_tables"),
    ("graph.hop_tables_peak_mb", "MB", None),
    ("graph.cheapest_per_length_ms", _MS, "graph.cheapest_per_length"),
    ("agents.traverse_ms", _MS, "agents.traverse"),
    ("agents.traverse_steps", "count", "agents.traverse_steps"),
    ("agents.perceived_evals", "count", "agents.perceived_evals"),
    ("equilibria.check_symmetric_ne_ms", _MS, "equilibria.check_symmetric_ne"),
    ("equilibria.feasible_rewards_ms", _MS, "equilibria.feasible_rewards"),
    ("equilibria.deviations", "count", "equilibria.deviations"),
    ("equilibria.breakpoints", "count", "equilibria.breakpoints"),
    ("equilibria.classify_unbiased_ms", _MS, "equilibria.classify_unbiased"),
    ("equilibria.dominant_path_reward_ms", _MS, "equilibria.dominant_path_reward"),
    ("intervals.intersect_calls", "count", "intervals.intersect_calls"),
    ("intervals.intersect_ms", _MS, "intervals.intersect"),
    ("oracle.enumerate_paths_ms", _MS, "oracle.enumerate_paths"),
    ("oracle.paths_enumerated", "count", "oracle.paths_enumerated"),
    ("oracle.brute_traverse_ms", _MS, "oracle.brute_traverse"),
    ("oracle.brute_perceived_calls", "count", "oracle.brute_perceived_calls"),
    ("bne.fixed_point_ms", _MS, "bne.fixed_point"),
    ("bne.share_factor_calls", "count", "bne.share_factor_calls"),
    ("bne.share_factor_ms", _MS, "bne.share_factor"),
    ("verify.alg1_ms", _MS, "verify.alg1"),
    ("verify.prop1_ms", _MS, "verify.prop1"),
    ("verify.thm1_ms", _MS, "verify.thm1"),
    ("verify.thm2_ms", _MS, "verify.thm2"),
    ("verify.bne_ms", _MS, "verify.bne"),
    ("verify.cases", "count", "verify.cases"),
    ("cli.interpreter_ms", _MS, "cli.interpreter"),
    ("cli.import_ms", _MS, "cli.import"),
    ("cli.command_ms", _MS, "cli.command"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


def _spawn(args: argparse.Namespace, role: str, timeout: float) -> dict:
    """Run one child; scale its set-up time by the in-process reference calls
    made right before it was spawned and right after its set-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    before_s = hostspeed.DP.sample_s()
    spawned_at = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}")
    result = _last_json_line(proc.stdout)
    setup = result["setup"]
    setup["setup_s"] = setup["raw_s"] * hostspeed.DP.factor((before_s + setup.pop("after_s")) / 2)
    return result


def orchestrate(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "biasgraph" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'biasgraph'}; "
              "run from the root of a biasgraph checkout", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, "setup", SETUP_TIMEOUT_S)["setup"]
                      for _ in range(SETUP_SAMPLES - 1)]
        child = _spawn(args, "measure", MEASURE_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(child.pop("setup"))
    samples = [setup["setup_s"] for setup in setups]
    detail = child.pop("detail")
    detail["setup_raw_s"] = [setup["raw_s"] for setup in setups]
    if not args.trace:
        child["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    OUT.mkdir(exist_ok=True)
    record = dict(child, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=samples, detail=detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(child, sort_keys=True))
    return 0 if child["correct"] else 1


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole rounds until ``seconds`` of wall time have passed.

    Only the operation itself is timed; checks, counters and tracemalloc
    probes run after its clock has stopped.  Each operation is followed by
    one call of the workload's reference task, and ``latencies`` are the raw
    times scaled to the reference host speed (see hostspeed.py); ``raw`` are
    as measured.
    """
    from checks import CheckFailed

    starts: list[float] = []
    raw: list[float] = []
    reference = workload.host_reference
    references = [reference.time_s()]
    attempted = 0
    errors: list[str] = []  # operations the program failed
    wrong: list[str] = []  # answers a check rejected
    by_index: dict[int, list[float]] = {}
    deadline = time.monotonic() + seconds
    round_no = 0
    while True:
        for index, op in enumerate(workload.ops(round_no)):
            attempted += 1
            start = time.perf_counter()
            try:
                output = op()
            except Exception as exc:
                errors.append(f"op {index} failed: {type(exc).__name__}: {exc}")
                continue
            raw.append(time.perf_counter() - start)
            starts.append(start)
            references.append(reference.time_s())
            by_index.setdefault(index, []).append(raw[-1])
            try:
                workload.check(index, output)
            except CheckFailed as exc:
                wrong.append(f"op {index}: {exc}")
            if tracer is not None:
                tracer.run_probe()
                workload.after_traced_op(tracer, index, output)
        round_no += 1
        if time.monotonic() >= deadline:
            break
    latencies = reference.scale(starts, raw, references)
    return {"latencies": latencies, "raw": raw, "attempted": attempted, "errors": errors,
            "wrong": wrong, "rounds": round_no,
            "reference_ms": statistics.median(references) * 1000,
            "op_ms_by_index": [round(statistics.median(v) * 1000, 3)
                               for _, v in sorted(by_index.items())]}


def _end_to_end(stats: dict, rss_mb: float) -> dict:
    lat = stats["latencies"]
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _per_layer(tracer, traced: dict, untraced: dict) -> dict:
    n = len(traced["latencies"])
    out = {}
    for name, unit, key in PER_LAYER:
        if key is None:
            value = tracer.hop_tables_peak_mb
        elif unit == _MS:
            value = tracer.self_s.get(key, 0.0) * 1000 / n
        else:
            value = tracer.counts.get(key, 0) / n
        out[name] = {"value": value, "unit": unit}
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    for layer, seconds in layers.items():
        out[f"{layer}.self_pct"] = {"value": 100 * seconds / total, "unit": "%"}
    plain = len(untraced["latencies"]) / sum(untraced["latencies"])
    with_trace = n / sum(traced["latencies"])
    out["trace.untraced_ops_per_s"] = {"value": plain, "unit": "ops/s"}
    out["trace.traced_ops_per_s"] = {"value": with_trace, "unit": "ops/s"}
    out["trace.overhead_pct"] = {"value": 100 * (plain / with_trace - 1), "unit": "%"}
    out["host.reference_ms"] = {"value": traced["reference_ms"], "unit": "ms"}
    return out


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make(args.workload, args.seed, ROOT)
    setup_raw_s = time.monotonic() - args.spawned_at
    try:
        setup = {"raw_s": setup_raw_s, "after_s": hostspeed.DP.sample_s()}
        if args.role == "setup":
            print(json.dumps({"setup": setup}))
            return 0
        if not args.trace:
            stats = measure(workload, args.seconds)
            metrics = _end_to_end(stats, workload.peak_rss_mb())
            runs = [stats]
        else:
            import tracing

            untraced = measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                workload.start_trace(tracer)
                traced = measure(workload, args.seconds / 2, tracer)
            finally:
                patches.undo()
            metrics = _per_layer(tracer, traced, untraced)
            runs = [untraced, traced]
            OUT.mkdir(exist_ok=True)
            (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
                json.dumps(tracer.spans_json(SPANS_WRITTEN)))
    finally:
        workload.close()
    errors = [e for run in runs for e in run["errors"]]
    wrong = [w for run in runs for w in run["wrong"]]
    for problem in (errors + wrong)[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": len(errors),
        "metrics": metrics,
        "setup": setup,
        "detail": {"rounds": [run["rounds"] for run in runs],
                   "reference_ms": [run["reference_ms"] for run in runs],
                   "raw_p50_ms": [statistics.median(run["raw"]) * 1000 if run["raw"] else None
                                  for run in runs],
                   "timed_ops": [len(run["latencies"]) for run in runs],
                   "op_ms_by_index": [run["op_ms_by_index"] for run in runs]},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.role == "run":
        return orchestrate(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
