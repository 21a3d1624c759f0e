"""Cutoff equilibria on fan graphs when biases are drawn from a distribution.

Agents see their own bias but only the distribution of the opponent's, so the
symmetric equilibrium is a cutoff rule: finish immediately when the bias is
small, delay all the way otherwise.  The probability p of immediate finishing
must satisfy the fixed point F(cutoff(p)) = p, which is solved numerically in
binary64 (the pure-equilibrium modules stay in exact rationals; CDFs are
transcendental).
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import struct
from dataclasses import dataclass

from .instances import FanSpec

_PROFILE_TOL = 1e-12
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
_SCAN_POINTS = 4000
_HALLEY_TOL = 1e-14


class DistributionKind(enum.Enum):
    UNIFORM = "uniform"
    SHIFTED_EXPONENTIAL = "exponential"
    EQUAL_REVENUE = "equal-revenue"


@dataclass(frozen=True)
class BiasDistribution:
    """CDF over bias values, supported on [lower, ...) for the shifted families."""

    kind: DistributionKind
    lower: float
    upper: float = math.inf   # uniform only
    rate: float = 1.0         # exponential only

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "BiasDistribution":
        if not upper > lower:
            raise ValueError("uniform needs upper > lower")
        return cls(DistributionKind.UNIFORM, float(lower), upper=float(upper))

    @classmethod
    def shifted_exponential(cls, lower: float, rate: float) -> "BiasDistribution":
        if not rate > 0:
            raise ValueError("rate must be positive")
        return cls(DistributionKind.SHIFTED_EXPONENTIAL, float(lower), rate=float(rate))

    @classmethod
    def equal_revenue(cls, lower: float) -> "BiasDistribution":
        return cls(DistributionKind.EQUAL_REVENUE, float(lower))

    def cdf(self, z: float) -> float:
        if z <= self.lower:
            return 0.0
        if self.kind is DistributionKind.UNIFORM:
            if z >= self.upper:
                return 1.0
            return (z - self.lower) / (self.upper - self.lower)
        if self.kind is DistributionKind.SHIFTED_EXPONENTIAL:
            return -math.expm1(-self.rate * (z - self.lower))
        return 1.0 - 1.0 / (z - self.lower + 1.0)

    def quantile(self, u: float) -> float:
        """Inverse CDF for u in [0, 1)."""
        if self.kind is DistributionKind.UNIFORM:
            return self.lower + u * (self.upper - self.lower)
        if self.kind is DistributionKind.SHIFTED_EXPONENTIAL:
            return self.lower - math.log1p(-u) / self.rate
        return self.lower - 1.0 + 1.0 / (1.0 - u)


@dataclass(frozen=True)
class FanOpponentProfile:
    """Probability the opponent takes each fan path P0..Pn."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        if not abs(sum(self.probabilities) - 1.0) <= _PROFILE_TOL:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def two_point(cls, prob_direct: float, n: int) -> "FanOpponentProfile":
        """Opponent takes P0 with the given probability, Pn otherwise."""
        probs = [0.0] * (n + 1)
        probs[0] = prob_direct
        probs[n] = 1.0 - prob_direct
        return cls(tuple(probs))


@dataclass(frozen=True)
class FanBneSolution:
    prob_optimal: float        # p, probability of taking the direct path
    cutoff: float              # bias below which agents finish immediately
    threshold: float           # least p at which delayers reach Pn
    valid: bool
    expected_cost_ratio: float
    residual: float            # |F(cutoff) - p|
    found: bool                # False when only the trivial p = 0 remains
    competitors: int = 1       # opponents per agent (m); cutoff = r*d(p,m) + c


def fan_agent_exit(spec: FanSpec, bias: float, opponent: FanOpponentProfile, reward: float) -> int:
    """Exit index chosen by a naive biased agent on the fan against the profile.

    At position i the agent weighs finishing now against one more delay step;
    it exits as soon as half the reward, weighted by the chance the opponent
    ends at the current or next exit, covers the biased cost gap c**i*(b - c).
    Equality favors exiting.
    """
    if len(opponent.probabilities) != spec.n + 1:
        raise ValueError("profile size must be n + 1")
    if not reward >= 0:
        raise ValueError("reward must be nonnegative")
    c = float(spec.c)
    for i in range(spec.n):
        nearby = opponent.probabilities[i] + opponent.probabilities[i + 1]
        if (reward / 2.0) * nearby >= c**i * (bias - c):
            return i
    return spec.n


def lambert_w0(x: float) -> float:
    """Principal Lambert W on (-1/e, 0] by Halley iteration."""
    if not -1.0 / math.e < x <= 0:
        raise ValueError("lambert_w0 implemented only on (-1/e, 0]")
    if x == 0.0:
        return 0.0
    w = x * (1.0 - x)
    for _ in range(200):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= _HALLEY_TOL * (1.0 + abs(w)):
            break
    return w


def reward_share_factor(prob_optimal: float, competitors: int) -> float:
    """Expected reward fraction gained by finishing immediately against
    ``competitors`` opponents who each finish immediately with the given
    probability: (1 - (1-p)^m * (1+p*m)) / (p*(m+1)).  With p = n/d exactly,
    this is the integer ratio (d^(m+1) - (d-n)^m * (d+n*m)) / (d^m * n * (m+1)),
    so one correctly rounded division returns the float of the exact rational
    value, free of cancellation; continuous limit 0 at p = 0.
    """
    m = competitors
    if m < 1:
        raise ValueError("need at least one competitor")
    if not 0.0 <= prob_optimal <= 1.0:
        raise ValueError("probability out of range")
    if prob_optimal == 0.0:
        return 0.0
    n, d = prob_optimal.as_integer_ratio()
    d_m = d**m
    return (d_m * d - (d - n) ** m * (d + n * m)) / (d_m * n * (m + 1))


def expected_inverse_share(prob_optimal: float, competitors: int) -> float:
    """E[1/(N+1)] for N ~ Binomial(m, p): (1 - (1-p)^(m+1)) / (p*(m+1)).  With
    p = n/d exactly, this is the integer ratio (d^(m+1) - (d-n)^(m+1)) /
    (d^m * n * (m+1)), so one correctly rounded division returns the float of
    the exact rational value.
    """
    m = competitors
    if m < 0:
        raise ValueError("competitor count must be nonnegative")
    if not 0.0 <= prob_optimal <= 1.0:
        raise ValueError("probability out of range")
    if prob_optimal == 0.0:
        return 1.0
    n, d = prob_optimal.as_integer_ratio()
    d_m = d**m
    return (d_m * d - (d - n) ** (m + 1)) / (d_m * n * (m + 1))


def _largest_fixed_point(g) -> float | None:
    """Largest root of g in (0, 1], ignoring the trivial root at 0.

    Scans downward from 1 for a sign change, then bisects.  g must be
    continuous with g(0) = 0.
    """
    g_one = g(1.0)
    if abs(g_one) <= _BISECT_TOL:
        return 1.0
    hi, g_hi = 1.0, g_one
    for i in range(1, _SCAN_POINTS + 1):
        lo = 1.0 - i / _SCAN_POINTS
        if lo <= 0:  # the last scan point, lo = 0, always ends the scan here
            return None  # g < 0 all the way down: only the trivial root
        g_lo = g(lo)
        if abs(g_lo) <= _BISECT_TOL:
            return lo
        if (g_lo > 0) != (g_hi > 0):
            break
        hi, g_hi = lo, g_lo
    for _ in range(_BISECT_MAX_ITER):
        mid = (lo + hi) / 2.0
        g_mid = g(mid)
        if abs(g_mid) == 0.0 or hi - lo <= _BISECT_TOL:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def fixed_point_p(dist: BiasDistribution, reward: float, competitors: int = 1) -> float | None:
    """Largest p in (0,1] with F(reward * d(p, m) + lower) = p, or None.

    This is the solver core; it needs no fan, only the distribution.  With one
    competitor d(p, 1) = p/2, the two-agent cutoff.
    """
    if not reward >= 0:
        raise ValueError("reward must be nonnegative")
    lower = dist.lower
    return _largest_fixed_point(
        lambda p: dist.cdf(reward * reward_share_factor(p, competitors) + lower) - p
    )


@functools.cache
def _validity_threshold(spec: FanSpec, m: int) -> float:
    """Least float p in (0, 1] at which a bias just above the cutoff walks to Pn.

    At v(n-1) it gains r*(1-p)^m*m/(m+1) by exiting instead of at Pn, against a
    cost gap of c^(n-1)*r*d(p, m); so with C = c^(n-1) = P/Q and p = a/b it
    delays iff (1-p)^m*(C + m*(1+C)*p) <= C, decided on integers.  The left side
    rises, then falls to 0 at p = 1, so these p form one interval [threshold, 1],
    whose least float a bisection of the bit patterns of the positive floats finds."""
    P, Q = (spec.c ** (spec.n - 1)).as_integer_ratio()

    def p_at(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    def delays(bits: int) -> bool:
        a, b = p_at(bits).as_integer_ratio()
        return (b - a) ** m * (P * b + m * (P + Q) * a) <= P * b ** (m + 1)

    one = struct.unpack("<q", struct.pack("<d", 1.0))[0]
    return p_at(bisect.bisect_left(range(one + 1), True, lo=1, key=delays))


def solve_fan_bne_multi(spec: FanSpec, dist: BiasDistribution, reward: float,
                        competitors: int) -> FanBneSolution:
    """Cutoff equilibrium with m competitors per agent (m + 1 players): largest p in
    (0,1] with F(r*d(p, m) + c) = p, valid (delayers really reach the last exit)
    when p >= ``threshold``.  Needs n >= 2, since on a 1-fan P1 is the first delay."""
    m = competitors
    if m < 1:
        raise ValueError("need at least one competitor")
    if spec.n < 2:
        raise ValueError(f"the cutoff equilibrium needs a fan with n >= 2, not n = {spec.n}")
    c = float(spec.c)
    if not abs(dist.lower - c) <= 1e-12:
        raise ValueError("distribution support must start at the fan growth factor")
    try:
        c_pow_n = c**spec.n
    except OverflowError:
        raise ValueError(f"c**n overflows a float at c = {spec.c}, n = {spec.n}") from None
    threshold = _validity_threshold(spec, m)
    p = fixed_point_p(dist, reward, m)
    found = p is not None
    p = p if found else 0.0
    cutoff = reward * reward_share_factor(p, m) + c
    residual = abs(dist.cdf(cutoff) - p) if found else 0.0
    return FanBneSolution(p, cutoff, threshold, found and p >= threshold,
                          p + (1.0 - p) * c_pow_n, residual, found, m)


def solve_fan_bne(spec: FanSpec, dist: BiasDistribution, reward: float) -> FanBneSolution:
    """Two-agent cutoff equilibrium, ``solve_fan_bne_multi`` at m = 1: largest p
    in (0,1] with F(r*p/2 + c) = p, valid when p >= 1/(c**(n-1) + 1)."""
    return solve_fan_bne_multi(spec, dist, reward, 1)


def closed_form_p(dist: BiasDistribution, reward: float) -> float:
    """Closed-form fixed point for the three stock distributions."""
    if not reward >= 0:
        raise ValueError("reward must be nonnegative")
    if dist.kind is DistributionKind.EQUAL_REVENUE:
        return (reward - 2.0) / reward if reward >= 2.0 else 0.0
    if dist.kind is DistributionKind.UNIFORM:
        return 1.0 if reward >= 2.0 * (dist.upper - dist.lower) else 0.0
    a = dist.rate * reward / 2.0
    if a <= 1.0:
        return 0.0
    return 1.0 + 2.0 * lambert_w0(-a * math.exp(-a)) / (dist.rate * reward)


@dataclass(frozen=True)
class DeviationInterval:
    lo: float
    hi: float

    @property
    def nonempty(self) -> bool:
        return self.lo <= self.hi


def two_path_bne_intervals(
    c, c2, c3, reward: float, prob_optimal: float
) -> tuple[DeviationInterval, DeviationInterval]:
    """Bias ranges on the modified 3-fan where a two-point cutoff rule breaks.

    Against an opponent playing only the direct path (prob p) or the last exit
    (prob 1-p), biases in the first interval take the first exit and biases in
    the second take the second exit; at least one interval is always nonempty,
    so no equilibrium can put weight on just two paths.
    """
    c, c2, c3 = float(c), float(c2), float(c3)
    if not (1.0 < c and c * c < c2 and c2 * c2 < c3):
        raise ValueError("need 1 < c, c^2 < c2, c2^2 < c3")
    if not reward >= 0:
        raise ValueError("reward must be nonnegative")
    if not 0.0 < prob_optimal < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    first = DeviationInterval(c + reward * prob_optimal / 2.0, c2 / c)
    second = DeviationInterval(
        c2 / c, (2.0 * c3 + reward * (1.0 - prob_optimal)) / (2.0 * c2)
    )
    return first, second
