import math
import sys

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

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

# agents whose actions span many orders of magnitude, as (reward, cost)
# pairs with kappa_s, kappa_i and alpha: u_h at a breakpoint, taken from the
# hull line on its right, cancels (to 0.0 on A, whose true value is about
# 3.4e-9), so gamma_ir or a lifted target lands on the wrong segment
CANCEL = {
    "A": ([(1.0325727516058315e-09, 7.617036817555091e-11),
           (0.000422906750489521, 13177.7448574354),
           (6459646204.220665, 21684742557.384903)],
          6.589978372437635e-12, 56622274090.844284, 0.8228891033822211),
    "B": ([(8.258526040653181e-10, 8.797636297096052e-12),
           (0.006438705912215033, 52221.863927375925),
           (11072009.902656382, 219621634727.56375)],
          1.3581103517959997e-10, 12996020.564569756, 0.0),
    "C": ([(49.028576693050624, 0.00010804268192400254),
           (701962.0416489223, 0.03530426897246729),
           (6349205524.592945, 2716920951.1183786),
           (1e300, 1.7e308)],
          21855793.23040879, 61089.670172177226, 0.11760118317715273),
    # a rise's peak beta rounds more than TOL below beta_min
    "D": ([(11.509455191484998, 4.600111284399742),
           (66528.5528199144, 33449.86468873493),
           (30803957517.850685, 20833369083.086723)],
          1.0, 18281960.919106234, 0.0),
}

# an agent, in CANCEL's form, whose first hull action has reward 0: at
# kappa_s = 0 every lowered value falls on that flat first segment, and the
# deterrence bound needs its right end, owned by the next hull action
FLAT_FIRST = ([(0.0, 0.0),
               (1.0962693207296613e-08, 1.7468734125664787e-09),
               (68231105.92824987, 7944918.9847460985),
               (23655737952.630306, 1073685779.8990337)],
              0.0, 18390568957.943005, 0.0)


def one_agent_doc(case):
    """The one-agent, budget-1 instance of a case in ``CANCEL``'s form."""
    actions, kappa_s, kappa_i, alpha = case
    agent = {"name": "a", "actions": [{"reward": r, "cost": c} for r, c in actions],
             "kappa_s": kappa_s, "kappa_i": kappa_i, "alpha": alpha}
    return {"agents": [agent], "budget": 1}


def case_agent(case):
    """The ``AgentSpec`` of a case in ``CANCEL``'s form."""
    actions, kappa_s, kappa_i, alpha = case
    return make_agent(*zip(*actions), kappa_s, kappa_i, alpha)


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


@st.composite
def allocation_agents(draw):
    """1-4 actions, about half with alpha = 0 (flat stretches in the utility
    curve)."""
    n = draw(st.integers(1, 4))
    rewards = np.cumsum(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    costs = np.cumsum(draw(st.lists(st.floats(0.05, 0.6), min_size=n, max_size=n)))
    slack = float(np.max(rewards - costs))
    assume(slack > 0.05)
    return make_agent(
        rewards,
        costs,
        kappa_s=draw(st.floats(0.3, 0.95)) * slack,
        # cheap inspection puts the peaks at large caps, so budgets bind
        kappa_i=draw(st.floats(0.01, 1.0)),
        alpha=draw(st.just(0.0) | st.floats(0.0, 0.3)),
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
