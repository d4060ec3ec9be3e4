import math
import sys

import numpy as np
import pytest

from inspection_contracts import Action, AgentSpec

# 6-action instance whose inspection curve is piecewise convex but bends the
# wrong way across one breakpoint (kappa_i = kappa_s = 1, alpha = 0)
NONCONVEX_R = (2.0, 3.0, 7.0, 9.0, 11.0, 13.0)
NONCONVEX_C = (1.0, 1.2, 2.1, 3.1, 4.8, 6.6)

# 6-action instance used for the kappa_s statics scans
STATICS_R = (1.5, 3.0, 4.0, 6.0, 7.0, 9.0)
STATICS_C = (1.0, 1.3, 1.5, 2.5, 3.4, 5.2)

# one action whose R - c exceeds kappa_s by one ulp (Assumption 2 just holds),
# so gamma_ir = 0.9999999999999998 lies within TOL below 1
NEAR_ONE_IR = {
    "actions": [{"reward": 1.0129832257491447, "cost": 0.13922980921268469}],
    "kappa_s": 0.8737534165364599,
    "kappa_i": 3.10,
    "alpha": 0.47,
}


def make_agent(rewards, costs, kappa_s=1.0, kappa_i=1.0, alpha=0.0):
    actions = tuple(Action(float(r), float(c)) for r, c in zip(rewards, costs))
    return AgentSpec(actions, kappa_s, kappa_i, alpha)


def near_one_ir_agent():
    act = NEAR_ONE_IR["actions"][0]
    return make_agent([act["reward"]], [act["cost"]], NEAR_ONE_IR["kappa_s"],
                      NEAR_ONE_IR["kappa_i"], NEAR_ONE_IR["alpha"])


def random_agent(rng, n_max=8, alpha_max=0.5):
    """Random instance satisfying Assumptions 1-2 with comfortable margins."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        rewards = np.cumsum(rng.uniform(0.3, 2.0, n))
        costs = np.cumsum(rng.uniform(0.05, 0.6, n))
        slack = float(np.max(rewards - costs))
        if slack > 0.05:
            break
    return make_agent(
        rewards,
        costs,
        kappa_s=float(rng.uniform(0.0, 0.9) * slack),
        kappa_i=float(rng.uniform(0.1, 5.0)),
        alpha=float(rng.uniform(0.0, alpha_max)),
    )


def priced(agent, unit):
    """The same agent with every amount of money multiplied by ``unit``."""
    return make_agent(
        [r * unit for r in agent.rewards],
        [c * unit for c in agent.costs],
        kappa_s=agent.kappa_s * unit,
        kappa_i=agent.kappa_i * unit,
        alpha=agent.alpha,
    )


def representable(agent, unit):
    """Whether doubles can hold ``agent`` and ``priced(agent, unit)``: no
    nonzero amount of money falls below the normal range, and R_n * (R_n /
    kappa_s), the allocator's curvature term, stays finite in either unit."""
    amounts = (*agent.rewards, *agent.costs, agent.kappa_s, agent.kappa_i)
    r = agent.money_scale
    for u in (1.0, unit):
        if any(x != 0.0 and abs(x * u) < sys.float_info.min for x in amounts):
            return False
        if agent.kappa_s > 0.0 and not math.isfinite(r * (r / agent.kappa_s) * u):
            return False
    return True


@pytest.fixture
def unit1():
    # single action (R=10, c=2), kappa_s=1, kappa_i=1, alpha=0
    return make_agent([10.0], [2.0])


@pytest.fixture
def nonconvex6():
    return make_agent(NONCONVEX_R, NONCONVEX_C)


@pytest.fixture
def statics6():
    return make_agent(STATICS_R, STATICS_C)
