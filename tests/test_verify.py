import pytest

from biasgraph import verify


# Seed-0 case counts at scale 3: a change to what a suite sweeps shows here.
SCALE_3_CASES = {"alg1": 11_073, "prop1": 900, "thm1": 101, "thm2": 450, "bne": 149}


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
