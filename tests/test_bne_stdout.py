"""The bne commands print, byte for byte, the text recorded in bne_stdout.json.

The commands are README's bne examples, `bne-sweep` in both formats, a grid
over the fan sizes, growth factors, rewards and competitor counts that the
benchmark's `cli-cold` workload draws from, `bne-fan-multi --m 1` over the
same grid, and one run per distribution family of each solver that finds no
nontrivial fixed point.  To record the file from the tree on the path:

    PYTHONPATH=src python tests/test_bne_stdout.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from biasgraph import cli

RECORD = Path(__file__).resolve().parent / "bne_stdout.json"

EXAMPLES = [
    "bne-fan --n 5 --c 2 --dist equal-revenue --r 4",
    "bne-fan --n 5 --c 2 --dist uniform --d 4 --r 4",
    "bne-fan --n 5 --c 2 --dist uniform --d 4 --r 1",
    "bne-fan --n 5 --c 2 --dist exponential --rate 1 --r 10",
    "bne-fan-multi --n 5 --c 2 --dist equal-revenue --m 20 --per-agent-s 4",
    "bne-sweep --n 5 --c 2 --dist equal-revenue --r-min 2 --r-max 6 --steps 5",
    "bne-sweep --n 5 --c 2 --dist equal-revenue --r-min 2 --r-max 6 --steps 5 --format json",
    "bne-sweep --n 5 --c 2 --dist equal-revenue --r-min 2 --r-max 12 --steps 6 --m 3",
    "bne-sweep --n 4 --c 3/2 --dist exponential --rate 1 --r-min 2 --r-max 10 --steps 5"
    " --m 2 --format json",
]

# Below each family's two-agent threshold (equal-revenue r < 2, uniform
# r < 2(d - c), exponential rate * r <= 2); at these rewards neither solver
# finds a fixed point but the trivial p = 0.
NOT_FOUND = [
    f"{command} --n 5 --c 2 --dist {dist}{m}"
    for command, m in (("bne-fan", ""), ("bne-fan-multi", " --m 2"))
    for dist in ("equal-revenue --r 1", "uniform --d 4 --r 1", "exponential --rate 1 --r 1")
]


def _grid() -> list[str]:
    commands = []
    for n in range(3, 8):
        for c in ("5/4", "3/2", "2"):
            common = f"--n {n} --c {c} --dist equal-revenue"
            commands += [f"bne-fan {common} --r {r}" for r in (3, 4, 5, 6, 8, 10)]
            commands += [f"bne-fan-multi {common} --m {m} --r {r}"
                         for m in (2, 3, 4) for r in (6, 8, 12)]
    return commands


def _one_competitor_grid() -> list[str]:
    return [f"bne-fan-multi --n {n} --c {c} --dist equal-revenue --m 1 --r {r}"
            for n in range(3, 8) for c in ("5/4", "3/2", "2") for r in (3, 4, 5, 6, 8, 10)]


# README's first example is on the grid, and its third is in NOT_FOUND.
COMMANDS = list(dict.fromkeys(EXAMPLES + _grid() + _one_competitor_grid() + NOT_FOUND))


def _run(command: str) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(command.split())
    return [code, buf.getvalue()]


@functools.cache
def _recorded() -> dict:
    return json.loads(RECORD.read_text())


def test_record_covers_the_commands():
    assert list(_recorded()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_is_the_recorded_text(command):
    assert _run(command) == _recorded()[command]


def test_one_competitor_rows_are_the_two_agent_rows():
    for command in _one_competitor_grid():
        two_agent = command.replace("bne-fan-multi", "bne-fan").replace(" --m 1", "")
        assert _recorded()[command] == _recorded()[two_agent], command


if __name__ == "__main__":
    RECORD.write_text(json.dumps({c: _run(c) for c in COMMANDS}, indent=1) + "\n")
