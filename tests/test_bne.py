import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgraph import (
    BiasDistribution,
    FanOpponentProfile,
    FanSpec,
    closed_form_p,
    expected_inverse_share,
    fan_agent_exit,
    fan_path,
    fixed_point_p,
    lambert_w0,
    make_fan,
    reward_share_factor,
    solve_fan_bne,
    solve_fan_bne_multi,
    two_path_bne_intervals,
)

from conftest import binomial_inverse_share

F = Fraction


class TestDistributions:
    def test_uniform_cdf(self):
        d = BiasDistribution.uniform(1.0, 3.0)
        assert d.cdf(1.0) == 0.0
        assert d.cdf(2.0) == 0.5
        assert d.cdf(3.5) == 1.0

    def test_equal_revenue_cdf(self):
        d = BiasDistribution.equal_revenue(2.0)
        assert d.cdf(2.0) == 0.0
        assert d.cdf(3.0) == 0.5
        assert d.cdf(11.0) == 0.9

    def test_exponential_cdf(self):
        d = BiasDistribution.shifted_exponential(2.0, 1.0)
        assert d.cdf(2.0) == 0.0
        assert abs(d.cdf(3.0) - (1 - math.exp(-1))) < 1e-15

    def test_quantile_inverts_cdf(self):
        for d in (
            BiasDistribution.uniform(1.0, 3.0),
            BiasDistribution.equal_revenue(2.0),
            BiasDistribution.shifted_exponential(2.0, 0.5),
        ):
            for u in (0.0, 0.25, 0.5, 0.9, 0.99):
                assert abs(d.cdf(d.quantile(u)) - u) < 1e-12

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            FanOpponentProfile((0.5, 0.4))
        with pytest.raises(ValueError):
            FanOpponentProfile((-0.1, 1.1))


class TestFanAgent:
    def test_exits_immediately_when_reward_covers_gap(self):
        spec = FanSpec(3, F(2))
        opp = FanOpponentProfile((1.0, 0.0, 0.0, 0.0))
        path = fan_path(make_fan(spec), fan_agent_exit(spec, 2.5, opp, 2.0))
        assert path.vertices == ("s", "t")

    def test_delays_fully_once_past_source(self):
        spec = FanSpec(3, F(2))
        opp = FanOpponentProfile((1.0, 0.0, 0.0, 0.0))
        path = fan_path(make_fan(spec), fan_agent_exit(spec, 3.5, opp, 2.0))
        assert path.vertices == ("s", "v1", "v2", "v3", "t")

    def test_no_reward_reduces_to_plain_fan(self):
        spec = FanSpec(4, F(2))
        for opp in (FanOpponentProfile((0.0, 0.0, 1.0, 0.0, 0.0)), FanOpponentProfile.two_point(0.3, 4)):
            assert fan_agent_exit(spec, 5.0, opp, 0.0) == 4
            assert fan_agent_exit(spec, 1.5, opp, 0.0) == 0

    def test_exit_on_equality(self):
        spec = FanSpec(3, F(2))
        opp = FanOpponentProfile((1.0, 0.0, 0.0, 0.0))
        # reward/2 exactly covers the gap b - c = 1
        assert fan_agent_exit(spec, 3.0, opp, 2.0) == 0

    def test_graph_reuse(self):
        spec = FanSpec(3, F(2))
        graph = make_fan(spec)
        opp = FanOpponentProfile((1.0, 0.0, 0.0, 0.0))
        assert fan_path(graph, fan_agent_exit(spec, 2.5, opp, 2.0)).vertices == ("s", "t")


class TestSolver:
    def test_equal_revenue_closed_form(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.equal_revenue(2.0)
        sol = solve_fan_bne(spec, dist, 4.0)
        assert abs(sol.prob_optimal - 0.5) <= 1e-9
        assert abs(sol.expected_cost_ratio - 16.5) <= 1e-9
        assert sol.valid and sol.found
        assert sol.residual <= 1e-9

    def test_uniform_saturates_at_twice_width(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.uniform(2.0, 4.0)
        assert solve_fan_bne(spec, dist, 4.0).prob_optimal == 1.0
        low = solve_fan_bne(spec, dist, 3.9)
        assert low.prob_optimal == 0.0 and not low.found

    def test_exponential_matches_lambert_form(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.shifted_exponential(2.0, 1.0)
        sol = solve_fan_bne(spec, dist, 10.0)
        assert abs(sol.prob_optimal - closed_form_p(dist, 10.0)) <= 1e-8
        assert round(sol.prob_optimal, 4) == 0.9930

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_fan_bne(FanSpec(5, F(2)), BiasDistribution.equal_revenue(3.0), 4.0)

    def test_residual_small_over_grid(self):
        spec = FanSpec(4, F(2))
        for r in (2.5, 3.0, 5.0, 9.0, 20.0):
            for dist in (
                BiasDistribution.equal_revenue(2.0),
                BiasDistribution.shifted_exponential(2.0, 1.5),
            ):
                sol = solve_fan_bne(spec, dist, r)
                if sol.found:
                    assert sol.residual <= 1e-9

    def test_solver_vs_closed_form_grids(self):
        for r in (1.0, 2.0, 3.0, 4.0, 8.0, 32.0):
            for c in (1.5, 2.0, 3.0):
                er = BiasDistribution.equal_revenue(c)
                got = fixed_point_p(er, r) or 0.0
                assert abs(got - closed_form_p(er, r)) <= 1e-9
                for d in (c + 0.5, c + 2.0):
                    uni = BiasDistribution.uniform(c, d)
                    got = fixed_point_p(uni, r) or 0.0
                    assert abs(got - closed_form_p(uni, r)) <= 1e-9
        for r in (2.5, 4.0, 10.0):
            for lam in (0.5, 1.0, 2.0):
                ex = BiasDistribution.shifted_exponential(2.0, lam)
                got = fixed_point_p(ex, r) or 0.0
                assert abs(got - closed_form_p(ex, r)) <= 1e-8

    def test_validity_threshold_flag(self):
        # threshold 1/(c^(n-1) + 1) = 1/4; ER at r = 5/2 gives p = 1/5 < 1/4
        spec = FanSpec(2, F(3))
        sol = solve_fan_bne(spec, BiasDistribution.equal_revenue(3.0), 2.5)
        assert sol.found and not sol.valid
        assert sol.threshold == 0.25
        assert abs(sol.prob_optimal - 1 / 5) <= 1e-9


class TestClosedForms:
    def test_equal_revenue_at_minimum_reward(self):
        assert closed_form_p(BiasDistribution.equal_revenue(2.0), 2.0) == 0.0
        assert closed_form_p(BiasDistribution.equal_revenue(2.0), 8.0) == 0.75

    def test_uniform_threshold(self):
        dist = BiasDistribution.uniform(1.0, 3.0)
        assert closed_form_p(dist, 4.0) == 1.0
        assert closed_form_p(dist, 3.999) == 0.0

    def test_exponential_lower_bound(self):
        # p = 1 - w/a with w*exp(-w) = a*exp(-a) and w < 1, so w <= e*a*exp(-a)
        # and p >= 1 - exp(1 - lam*r/2); the bound is tight at lam*r = 2
        for lam in (0.5, 1.0, 2.0):
            for r in (2.0 / lam, 2.5 / lam, 3.0 / lam, 8.0 / lam, 30.0 / lam):
                p = closed_form_p(BiasDistribution.shifted_exponential(1.5, lam), r)
                assert p >= 1.0 - math.exp(1.0 - lam * r / 2.0) - 1e-14


class TestLambertW:
    def test_solves_defining_equation(self):
        for x in (-0.35, -0.2, -0.05, -1e-4, 0.0):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-14

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            lambert_w0(0.5)
        with pytest.raises(ValueError):
            lambert_w0(-1.0)


class TestShareFactors:
    def test_single_competitor_is_half_probability(self):
        for i in range(1, 101):
            p = i / 100
            assert abs(reward_share_factor(p, 1) - p / 2) <= 1e-15

    def test_point_values(self):
        assert reward_share_factor(1.0, 3) == 0.25
        assert abs(reward_share_factor(0.5, 2) - 1 / 3) <= 1e-15

    def test_positive_on_grid(self):
        for p in [0.001 + i * (0.999 / 199) for i in range(199)] + [1.0]:
            for m in (1, 2, 5, 20, 100):
                assert reward_share_factor(p, m) > 0

    def test_zero_probability_limit(self):
        assert reward_share_factor(0.0, 7) == 0.0

    def test_expected_inverse_share_values(self):
        assert expected_inverse_share(0.5, 1) == 0.75
        assert expected_inverse_share(0.37, 0) == 1.0
        for m in (1, 4, 9):
            assert abs(expected_inverse_share(1.0, m) - 1 / (m + 1)) <= 1e-15

    def test_expected_inverse_share_matches_the_binomial_sum(self):
        for p, m in [(0.1, 1), (0.5, 2), (0.9, 5), (0.3, 10)]:
            assert expected_inverse_share(p, m) == binomial_inverse_share(p, m)


def _reference_share_factor(prob_optimal, m):
    """The share factor as the exact rational it was first written as."""
    if prob_optimal == 0:
        return 0.0
    p = Fraction(prob_optimal)
    return float((1 - (1 - p) ** m * (1 + p * m)) / (p * (m + 1)))


def _reference_inverse_share(prob_optimal, m):
    if prob_optimal == 0:
        return 1.0
    p = Fraction(prob_optimal)
    return float((1 - (1 - p) ** (m + 1)) / (p * (m + 1)))


def _assert_bit_identical(p, m):
    if m >= 1:
        assert reward_share_factor(p, m) == _reference_share_factor(p, m)
    assert expected_inverse_share(p, m) == _reference_inverse_share(p, m)


class TestShareFactorBits:
    """The integer-ratio share factors equal the exact rationals' floats, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=True),
           st.integers(0, 60))
    def test_equal_to_the_fraction_formulas(self, p, m):
        _assert_bit_identical(p, m)

    @pytest.mark.parametrize("p", [
        5e-324, 1 - 2.0**-53, 1.0, 1, F(1, 3), 0.37, 0.0,
        *[0.01 + i * (0.99 / 33) for i in range(33)], 1.0,  # the bne suite's grid
    ])
    def test_fixed_probabilities(self, p):
        for m in range(61):
            _assert_bit_identical(p, m)


class TestMultiAgent:
    def test_one_competitor_reproduces_two_agent_solver(self):
        """At m = 1 the two solvers agree bit for bit on every field."""
        for n in range(2, 9):
            for c in (F(5, 4), F(3, 2), F(2), F(3)):
                spec, lo = FanSpec(n, c), float(c)
                for dist in (
                    BiasDistribution.equal_revenue(lo),
                    BiasDistribution.uniform(lo, lo + 2.0),
                    BiasDistribution.shifted_exponential(lo, 1.0),
                ):
                    for r in (0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 9.0, 20.0):
                        two = solve_fan_bne(spec, dist, r)
                        assert solve_fan_bne_multi(spec, dist, r, 1) == two, (n, c, dist, r)
                        assert two.valid == (two.found and two.prob_optimal >= two.threshold)

    def test_equal_revenue_capped_by_limit_bound(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.equal_revenue(2.0)
        for s in (1.0, 4.0, 16.0):
            bound = (math.sqrt(4 * s + s * s) - s) / 2
            for m in (1, 2, 5, 20, 100):
                sol = solve_fan_bne_multi(spec, dist, (m + 1) * s, m)
                assert sol.prob_optimal <= bound + 1e-9

    def test_probability_nondecreasing_in_competitors(self):
        spec = FanSpec(5, F(2))
        dist = BiasDistribution.equal_revenue(2.0)
        for s in (2.0, 4.0):
            probs = [
                solve_fan_bne_multi(spec, dist, (m + 1) * s, m).prob_optimal
                for m in (1, 2, 5, 20, 100)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_threshold_values(self):
        spec, dist = FanSpec(5, F(2)), BiasDistribution.equal_revenue(2.0)
        assert solve_fan_bne_multi(spec, dist, 12.0, 3).threshold == 0.029710415177595036
        # the least float at or above 1/(c^(n-1) + 1) = 1/17
        two = solve_fan_bne_multi(spec, dist, 12.0, 1).threshold
        assert 0 <= F(two) - F(1, 17) < math.ulp(1 / 17)


def _race_exit_above_cutoff(n, c, m, p, reward=F(6)):
    """Exit index taken on the n-fan by a naive agent whose bias is 10**-30
    above the cutoff, racing m opponents who each take P0 (1 edge) with
    probability p and Pn (n + 1 edges) otherwise, the reward split among those
    who finish first together.  Everything is an exact Fraction; at each vertex
    the agent exits when its biased exit cost less its expected reward is at most
    the cheapest unbiased continuation, so a tie exits.
    """
    p = F(p)
    lengths = {1: p, n + 1: 1 - p}

    def expected_reward(length):
        later = sum(q for ell, q in lengths.items() if ell > length)
        tied = lengths.get(length, 0)
        return reward * sum(math.comb(m, k) * tied**k * later ** (m - k) / (k + 1)
                            for k in range(m + 1))

    exit_value = [c**i - expected_reward(i + 1) for i in range(n + 1)]
    cutoff = min(exit_value[1:]) + expected_reward(1)
    bias = cutoff + F(1, 10**30)
    for i in range(n):
        if bias * c**i - expected_reward(i + 1) <= min(exit_value[i + 1:]):
            return i
    return n


class TestValidityRule:
    """``threshold`` and ``valid`` against a literal race, not against the rule."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_threshold_is_the_least_p_at_which_delayers_reach_the_last_exit(self, m):
        for n in range(2, 7):
            for c in (F(5, 4), F(3, 2), F(2), F(3)):
                dist = BiasDistribution.equal_revenue(float(c))
                threshold = solve_fan_bne_multi(FanSpec(n, c), dist, 6.0, m).threshold
                assert _race_exit_above_cutoff(n, c, m, threshold) == n, (n, c)
                below = math.nextafter(threshold, 0)
                assert _race_exit_above_cutoff(n, c, m, below) < n, (n, c)

    def test_valid_is_the_race_reaching_the_last_exit(self):
        seen = set()
        for n in range(2, 7):
            for c in (F(5, 4), F(3, 2), F(2)):
                dist = BiasDistribution.equal_revenue(float(c))
                for m in (1, 2, 4):
                    for r in (2.5, 3.0, 4.0, 6.0, 10.0):
                        sol = solve_fan_bne_multi(FanSpec(n, c), dist, r, m)
                        assert sol.found
                        reached = _race_exit_above_cutoff(n, c, m, sol.prob_optimal, F(r)) == n
                        assert sol.valid == reached, (n, c, m, r)
                        seen.add(sol.valid)
        assert seen == {True, False}


class TestTwoPathIntervals:
    def test_plain_parameters(self):
        first, second = two_path_bne_intervals(2, 5, 26, 0.0, 0.5)
        assert (first.lo, first.hi) == (2.0, 2.5)
        assert first.nonempty

    def test_large_reward_moves_weight_to_second(self):
        # reward above 2*(c2 - c^2)/(c*p) = 2 empties the first interval
        first, second = two_path_bne_intervals(2, 5, 26, 3.0, 0.5)
        assert not first.nonempty
        assert second.nonempty

    def test_one_interval_always_nonempty_randomized(self):
        rng = random.Random(53)
        for _ in range(2000):
            c = 1.0 + rng.uniform(0.05, 2.0)
            c2 = c * c + rng.uniform(0.05, 5.0)
            c3 = c2 * c2 + rng.uniform(0.05, 10.0)
            r = rng.uniform(0.0, 20.0)
            p = rng.uniform(0.01, 0.99)
            first, second = two_path_bne_intervals(c, c2, c3, r, p)
            assert first.nonempty or second.nonempty

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            two_path_bne_intervals(2, 3, 26, 1.0, 0.5)
        with pytest.raises(ValueError):
            two_path_bne_intervals(2, 5, 26, 1.0, 1.0)
