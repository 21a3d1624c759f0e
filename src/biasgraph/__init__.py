"""Equilibrium analysis of competitive task completion under present bias.

Two agents race to finish a task described by a weighted DAG; the first to
reach the sink collects a reward.  Agents replan at every vertex with their
immediate edge cost inflated by a bias factor.  This package simulates those
traversals, classifies the pure equilibria of the race, computes the exact
reward sets that stabilize a chosen path, and solves cutoff equilibria on fan
graphs when the bias is drawn from a distribution.
"""

from .agents import (
    AgentConfig,
    RewardTie,
    TraversalState,
    TraversalStep,
    TraversalTrace,
    cost_ratio,
    perceived_cost,
    step,
    traverse,
)
from .bne import (
    BiasDistribution,
    DeviationInterval,
    DistributionKind,
    FanBneSolution,
    FanOpponentProfile,
    closed_form_p,
    expected_inverse_share,
    fan_agent_exit,
    fan_agent_path,
    fixed_point_p,
    lambert_w0,
    reward_share_factor,
    solve_fan_bne,
    solve_fan_bne_multi,
    two_path_bne_intervals,
)
from .equilibria import (
    DominantPathReward,
    FanNeThresholds,
    NeCheckResult,
    NondominatedLadder,
    UnbiasedEqReport,
    algorithm_breakpoints,
    check_symmetric_ne,
    classify_unbiased,
    dominant_path_reward,
    fan_ne_thresholds,
    feasible_rewards,
    nondominated_ladder,
)
from .errors import (
    BiasGraphError,
    BiasNotAboveC,
    CycleDetected,
    GraphError,
    NegativeCost,
    NoDominantPath,
    NoSourceSinkPath,
    TooLarge,
    UnknownInstance,
    ZeroOptimalCost,
)
from .graph import (
    Edge,
    HopCostTable,
    PathRecord,
    TaskGraph,
    cheapest_per_length,
    load_graph,
    validate,
)
from .instances import FanSpec, fan_path, make_fan, make_named_instance, resolve_path
from .intervals import Interval, IntervalSet

__version__ = "0.1.0"
