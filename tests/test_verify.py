import sys
import types
from pathlib import Path

import pytest

from biasgraph import equilibria, verify


# Seed-0 case counts at scale 3: a change to what a suite sweeps shows here.
SCALE_3_CASES = {"alg1": 6_006, "prop1": 900, "thm1": 101, "thm2": 450, "bne": 149}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes_at_scale_3(suite):
    report = verify.run_suite(suite, seed=0, scale=3)
    assert report["suite"] == suite
    assert report["passed"], report["failures"][:3]
    assert report["cases"] == SCALE_3_CASES[suite]


@pytest.mark.parametrize("seed", [25008, 38014, 38015])
def test_bne_suite_passes_on_seeds_a_sampled_band_failed(seed):
    # a sampled P0 frequency checked against a 3-standard-error band failed here
    assert verify.run_suite("bne", seed=seed, scale=0.5)["passed"]


# Planted faults in the reward-set kernel (equilibria._pieces and _sweep), each
# one textual replacement in the module source.  Two are left out: dropping the
# stay successor's lose line, which no graph alg1 draws exposes, and flipping
# the rounding of x // k, which is exact there and so changes nothing.
MUTANTS = {
    "deviation lose lines dropped": ("if tie != lose:", "if tie != lose and lines is stay:"),
    "deviation tie lines dropped": ("if tie is not None and win != tie:",
                                    "if tie is not None and win != tie and lines is stay:"),
    "deviation win lines dropped": ("if win is not None:",
                                    "if win is not None and lines is stay:"),
    "gap lo one unit up": ("gaps.append((lo, hi))", "gaps.append((lo + 1, hi))"),
    "gap hi one unit up": ("hi = x // k\n", "hi = x // k + 1\n"),
    "single-point pieces lost": ("if lo >= start:", "if lo > start:"),
    "parallel lines never hold": ("if x <= 0:", "if False:"),
}


SOURCE = Path(equilibria.__file__).read_text()


def _alg1_on(monkeypatch, source: str) -> dict:
    """alg1 at seed 0, scale 1, with ``feasible_rewards`` from ``source``."""
    module = types.ModuleType("biasgraph._planted")
    module.__package__ = "biasgraph"
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    exec(compile(source, module.__name__, "exec"), module.__dict__)
    monkeypatch.setattr(verify, "feasible_rewards", module.feasible_rewards)
    return verify.run_suite("alg1", seed=0, scale=1)


def test_alg1_passes_on_an_unplanted_copy(monkeypatch):
    assert _alg1_on(monkeypatch, SOURCE)["passed"]


@pytest.mark.parametrize("fault", MUTANTS)
def test_alg1_catches_planted_fault(monkeypatch, fault):
    old, new = MUTANTS[fault]
    assert SOURCE.count(old) == 1
    try:
        report = _alg1_on(monkeypatch, SOURCE.replace(old, new))
    except Exception:  # a kernel that raises is caught too
        return
    assert report["failures"]
