import pytest

from biasgraph import verify


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes_at_scale_3(suite):
    report = verify.run_suite(suite, seed=0, scale=3)
    assert report["suite"] == suite
    assert report["passed"], report["failures"][:3]


@pytest.mark.parametrize("seed", [25008, 38014, 38015])
def test_bne_suite_passes_on_seeds_a_sampled_band_failed(seed):
    # a sampled P0 frequency checked against a 3-standard-error band failed here
    assert verify.run_suite("bne", seed=seed, scale=0.5)["passed"]
