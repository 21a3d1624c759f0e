"""Every public argument check raises its own error, with its own message."""

from fractions import Fraction

import pytest

import biasgraph as bg
from biasgraph import verify

F = Fraction
FAN3 = bg.FanSpec(3, F(2))
ER2 = bg.BiasDistribution.equal_revenue(2.0)
FIG1 = bg.make_named_instance("fig1")[0]

CHECKS = {
    "uniform-empty-support": (
        lambda: bg.BiasDistribution.uniform(3.0, 3.0), ValueError, "upper > lower"),
    "exponential-zero-rate": (
        lambda: bg.BiasDistribution.shifted_exponential(2.0, 0.0), ValueError,
        "rate must be positive"),
    "fan-exit-profile-size": (
        lambda: bg.fan_agent_exit(FAN3, 3.0, bg.FanOpponentProfile((1.0, 0.0, 0.0)), 1.0),
        ValueError, "profile size"),
    "fan-exit-negative-reward": (
        lambda: bg.fan_agent_exit(FAN3, 3.0, bg.FanOpponentProfile((1.0, 0.0, 0.0, 0.0)), -1.0),
        ValueError, "reward must be nonnegative"),
    "share-factor-no-competitor": (
        lambda: bg.reward_share_factor(0.5, 0), ValueError, "at least one competitor"),
    "share-factor-probability": (
        lambda: bg.reward_share_factor(1.5, 1), ValueError, "probability out of range"),
    "inverse-share-negative-count": (
        lambda: bg.expected_inverse_share(0.5, -1), ValueError, "must be nonnegative"),
    "inverse-share-probability": (
        lambda: bg.expected_inverse_share(-0.1, 1), ValueError, "probability out of range"),
    "fixed-point-negative-reward": (
        lambda: bg.fixed_point_p(ER2, -1.0), ValueError, "reward must be nonnegative"),
    "closed-form-negative-reward": (
        lambda: bg.closed_form_p(ER2, -1.0), ValueError, "reward must be nonnegative"),
    "two-path-negative-reward": (
        lambda: bg.two_path_bne_intervals(2, 5, 26, -1.0, 0.5), ValueError,
        "reward must be nonnegative"),
    "ladder-negative-reward": (
        lambda: bg.nondominated_ladder(FIG1, F(-1)), ValueError, "reward must be nonnegative"),
    "multi-solver-no-competitor": (
        lambda: bg.solve_fan_bne_multi(FAN3, ER2, 4.0, 0), ValueError,
        "at least one competitor"),
    "dominant-path-one-agent": (
        lambda: bg.dominant_path_reward(FIG1, F(2), agents=1), ValueError,
        "at least two competing agents"),
    "one-vertex-path": (
        lambda: bg.PathRecord.from_vertices(FIG1, ("s",)), ValueError, "at least one edge"),
    "edge-cost-missing-edge": (lambda: FIG1.edge_cost("s", "t"), KeyError, "no edge s->t"),
    "edge-cost-unknown-tail": (lambda: FIG1.edge_cost("q", "t"), KeyError, "no edge q->t"),
    "modified-3fan-without-costs": (
        lambda: bg.make_named_instance("modified_3fan"), ValueError,
        "needs parameters c, c2, c3"),
    "unknown-suite": (lambda: verify.run_suite("alg9"), ValueError, "unknown suite 'alg9'"),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_bad_argument_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
