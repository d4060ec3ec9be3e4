"""Seeded input generation.  The same seed and sizes give the same inputs.

Agents are produced as instance-file dicts (the JSON form the package reads),
so every workload can hand the program either a file or specs built from the
same numbers, and the checks can work from the numbers as generated.

Sizes that set the amount of work (action counts, agent counts, grid steps)
never depend on the seed; only the numbers drawn do.  That keeps the cost of
a round nearly the same from seed to seed.
"""

from __future__ import annotations

import numpy as np

from checks import RawAgent, beta_required

WORKLOAD_STREAM = {"contract_design": 1, "budget_split": 2, "oracle_verify": 3, "cli_batch": 4}

# 6-action instance whose inspection curve bends the wrong way across one
# breakpoint (kappa_i = kappa_s = 1, alpha = 0); its optimum is known in
# closed form, which makes money-rescaled copies easy to compare
NONCONVEX_R = (2.0, 3.0, 7.0, 9.0, 11.0, 13.0)
NONCONVEX_C = (1.0, 1.2, 2.1, 3.1, 4.8, 6.6)
# Its optimum: at gamma = 1/2 actions 3 and 4 tie for the best safe utility
# (0.4), and the least beta that deters every unsafe action is 2/7 (action
# 3's deviation binds: (1 - beta) * 3.5 - 2.1 <= 0.4).  Action 4 (index 3)
# gives the principal 9/2 - 2/7.
NONCONVEX_OPTIMUM = (0.5, 2.0 / 7.0, 3)
NONCONVEX_UTILITY = 4.5 - 2.0 / 7.0


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_STREAM[workload]])


def agent_doc(name, rewards, costs, kappa_s, kappa_i, alpha) -> dict:
    return {
        "name": name,
        "actions": [{"reward": float(r), "cost": float(c)} for r, c in zip(rewards, costs)],
        "kappa_s": float(kappa_s),
        "kappa_i": float(kappa_i),
        "alpha": float(alpha),
    }


def small_agent(rng, name: str, n: int, kappa_s_frac=(0.0, 0.9), kappa_i=(0.1, 5.0),
                alpha=(0.0, 0.5)) -> dict:
    """n actions with O(1) rewards; safety is feasible with a margin."""
    while True:
        rewards = np.cumsum(rng.uniform(0.3, 2.0, n))
        costs = np.cumsum(rng.uniform(0.05, 0.6, n))
        slack = float(np.max(rewards - costs))
        if slack > 0.05:
            break
    return agent_doc(
        name, rewards, costs,
        kappa_s=rng.uniform(*kappa_s_frac) * slack,
        kappa_i=rng.uniform(*kappa_i),
        alpha=rng.uniform(*alpha),
    )


def large_agent(rng, name: str, n: int) -> dict:
    """n actions whose cost-vs-reward slope rises with jitter.

    About 1.3% of the actions end up on the lower hull (about 1,300 of 1e5),
    so both the per-action scan and the per-piece curve work are sizeable.
    Inspection is needed: alpha*R_n stays below kappa_s.
    """
    dr = rng.uniform(0.5, 1.5, n)
    rewards = np.cumsum(dr)
    slope = (0.02 + 0.88 * np.arange(n) / n) * rng.uniform(0.95, 1.05, n)
    costs = np.cumsum(dr * slope)
    slack = float(np.max(rewards - costs))
    return agent_doc(
        name, rewards, costs,
        kappa_s=rng.uniform(0.1, 0.3) * slack,
        kappa_i=rng.uniform(0.05, 0.5) * float(rewards[-1]),
        alpha=rng.uniform(0.0, 0.01),
    )


def portfolio(rng, large_n: int, large_agents: int, small_agents: int) -> dict:
    """A few huge agents and many agents with 1..8 actions (counts cycle)."""
    agents = [large_agent(rng, f"large{k}", large_n) for k in range(large_agents)]
    agents += [small_agent(rng, f"small{k}", 1 + k % 8) for k in range(small_agents)]
    return {"agents": agents, "budget": 1}


def nonconvex_scaled(k: int) -> dict:
    s = 10.0 ** k
    return agent_doc(
        f"nonconvex_1e{k}", [r * s for r in NONCONVEX_R], [c * s for c in NONCONVEX_C],
        kappa_s=1.0 * s, kappa_i=1.0 * s, alpha=0.0,
    )


def beta_min(doc: dict) -> float:
    """Least inspection implementing a safe action, beta at full payment."""
    return float(beta_required(RawAgent.from_doc(doc), np.array([1.0]))[0])


def cap_range(doc: dict) -> float:
    """Width of the inspection caps over which the agent's utility can change:
    beta at the participation threshold minus beta at full payment."""
    beta = beta_required(RawAgent.from_doc(doc), np.linspace(0.0, 1.0, 4001))
    finite = beta[np.isfinite(beta)]
    return float(finite.max() - finite[-1])


def feasible_group(rng, m: int, budget: float, n_of, share: float, **agent_kw) -> list[dict]:
    """m small agents whose minimum inspections use at most ``share`` of the budget.

    Redraws the whole group until it fits, so every seed gives a feasible
    allocation problem.
    """
    while True:
        docs = [small_agent(rng, f"a{l + 1}", n_of(l), **agent_kw) for l in range(m)]
        mins = [beta_min(d) for d in docs]
        if all(np.isfinite(mins)) and sum(mins) <= share * budget:
            return docs
