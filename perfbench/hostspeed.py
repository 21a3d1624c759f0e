"""Host-speed calibration: timings scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same operation, in the same process, takes up to twice as long for minutes at
a time, and CPU time moves with wall time, so no statistic taken inside one
run removes the drift.  A fixed reference task, timed next to the
operations, drifts with them.

A reference task never calls the program and does not depend on ``--seed``,
so a change to the program cannot move it.  Each workload names the one
whose work is most like its own operations:

``dp``
    The benchmark's own cheapest-cost DP and fewest-hops BFS (``checks.py``)
    on one fixed 40-vertex DAG, in this process: the dict, list and
    ``Fraction`` work the in-process workloads do.
``interpreter``
    A bare ``python3 -S -c pass`` in a fresh process: the exec, start-up and
    teardown that begin every ``cli-cold`` command, which runs in a fresh
    interpreter.  The in-process task does not follow those.

One reference call precedes the first timed operation and one follows every
timed operation, and an operation's latency is scaled by the nominal time of
the task over the mean time of the calls around it:

    scaled_ms = raw_ms * nominal_ms / mean(reference call ms around the operation)

A scaled time is the time the operation would take on a host where the
reference task takes its nominal time, about its median time on this
project's 2-core VM, so scaled times read close to raw ones there.  Raw
times are kept in the result file next to the scaled ones.

Set-up is scaled the same way, by ``dp`` calls made for ``SETUP_SAMPLE_S``
right before the set-up's interpreter is spawned and right after the set-up:
most of a set-up is imports and input generation in that process.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import checks
import gen

# An operation's reference calls are those made within this many of its own
# durations before its start or after its end, and always the calls right
# before and right after it.  Host speed switches between a fast and a slow
# level every few tens of milliseconds: a short operation runs at one level
# and needs the calls next to it, a long one averages many switches and needs
# calls from a wider window.
WINDOW_DURATIONS = 5
# Set-up is scaled by the mean of reference calls made for this long right
# before it and for this long right after it.
SETUP_SAMPLE_S = 0.15

_DAG = gen.window_dag(0, 40, 8, plant=False)
_VERTICES = _DAG["vertices"]
_EDGES = [(e["from"], e["to"], e["cost"]) for e in _DAG["edges"]]


def _dp_s() -> float:
    start = time.perf_counter()
    checks.cheapest_to_sink(_VERTICES, _EDGES, "t")
    checks.fewest_hops(_VERTICES, _EDGES, "s", "t")
    return time.perf_counter() - start


def _interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


class Reference:
    """A reference task; ``time_s()`` runs it once and returns its seconds."""

    def __init__(self, nominal_ms: float, time_s) -> None:
        self.nominal_ms = nominal_ms
        self.time_s = time_s

    def factor(self, reference_seconds: float) -> float:
        """What to multiply a raw time by, given reference call seconds."""
        return self.nominal_ms / 1000 / reference_seconds

    def sample_s(self) -> float:
        """Mean seconds of the calls made in a row for SETUP_SAMPLE_S."""
        times = [self.time_s()]
        deadline = time.perf_counter() + SETUP_SAMPLE_S
        while time.perf_counter() < deadline:
            times.append(self.time_s())
        return statistics.fmean(times)

    def scale(self, starts: list[float], latencies: list[float],
              references: list[float]) -> list[float]:
        """Scale each latency by the mean reference call around it.

        ``references[0]`` is a call made right before the first operation
        and ``references[i + 1]`` the call made right after operation i,
        which started at ``starts[i]`` and took ``latencies[i]`` seconds.
        """
        if not latencies:
            return []
        at = [starts[0]] + [s + d for s, d in zip(starts, latencies)]
        out = []
        for i, (start, latency) in enumerate(zip(starts, latencies)):
            reach = WINDOW_DURATIONS * latency
            lo = min(i, bisect.bisect_left(at, start - reach))
            hi = max(i + 2, bisect.bisect_right(at, start + latency + reach))
            out.append(latency * self.factor(statistics.fmean(references[lo:hi])))
        return out


DP = Reference(2.3, _dp_s)
INTERPRETER = Reference(16.0, _interpreter_s)
