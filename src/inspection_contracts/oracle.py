"""Brute-force cross-checks for every solver in the package.

These deliberately avoid the envelope/curve machinery: agent behavior is
recomputed from the raw utility definitions by enumerating actions on dense
(gamma, beta) grids, so agreement with the closed-form solvers is meaningful.
Callers may inject extra candidate pairs (typically the solver's own answer)
into the comparison set; the evaluation path stays independent either way.

Not a production solver; everything here trades speed for transparency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBudget, NoSafeContract
from .multi_agent import (
    Allocation,
    AllocationProblem,
    best_contract_at,
    build_utility_curve,
    utility_at,
)
from .single_agent import AgentSpec, Contract
from .tolerance import QUOTIENT_TOL, TOL

_BETA_CHUNK = 128


def _grid(step: float) -> np.ndarray:
    k = int(math.floor(1.0 / step + QUOTIENT_TOL))
    g = np.arange(k + 1) * step
    if g[-1] < 1.0 - TOL:
        g = np.append(g, 1.0)
    return np.minimum(g, 1.0)


@dataclass
class _Best:
    utility: float = -math.inf
    gamma: float = math.nan
    beta: float = math.nan


def _scan(best: _Best, agent: AgentSpec, gammas: np.ndarray, betas: np.ndarray) -> None:
    """Evaluate all (gamma, beta) pairs, keeping the best safe-implementing one."""
    tie = TOL * agent.actions[-1].reward
    rewards = np.array(agent.rewards)
    costs = np.array(agent.costs)
    safe = gammas[:, None] * rewards[None, :] - costs[None, :]
    best_safe = safe.max(axis=1) - agent.kappa_s
    # ties between equally good safe actions go to the higher reward
    act = (len(rewards) - 1) - np.argmax(safe[:, ::-1], axis=1)
    base = (1.0 - gammas) * rewards[act]

    for start in range(0, len(betas), _BETA_CHUNK):
        bc = betas[start : start + _BETA_CHUNK]
        shade = ((1.0 - bc) * (1.0 - agent.alpha))[:, None] * gammas[None, :]
        unsafe = (shade[:, :, None] * rewards[None, None, :] - costs[None, None, :]).max(
            axis=2
        )
        ok = (best_safe[None, :] >= unsafe - tie) & (best_safe[None, :] >= -tie)
        util = np.where(ok, base[None, :] - agent.kappa_i * bc[:, None], -np.inf)
        flat = int(np.argmax(util))
        bi, gi = divmod(flat, len(gammas))
        if util[bi, gi] > best.utility:
            best.utility = float(util[bi, gi])
            best.gamma = float(gammas[gi])
            best.beta = float(bc[bi])


def brute_force_single(
    agent: AgentSpec,
    step: float,
    include: tuple[tuple[float, float], ...] | list[tuple[float, float]] = (),
) -> tuple[Contract, float]:
    """Best safe-implementing contract over a step grid on [0, 1]^2.

    ``include`` adds exact (gamma, beta) pairs to the comparison set so grid
    resolution is not charged against candidates the caller already knows.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    best = _Best()
    g = _grid(step)
    _scan(best, agent, g, _grid(step))
    for gamma, beta in include:
        _scan(best, agent, np.array([float(gamma)]), np.array([float(beta)]))
    if not math.isfinite(best.utility):
        raise NoSafeContract(
            f"no grid contract at step {step} implements a safe action"
        )
    return Contract(best.gamma, best.beta), best.utility


def brute_force_allocate(problem: AllocationProblem, step: float) -> Allocation:
    """Exhaustive search over per-agent caps on a step grid (m <= 3 only)."""
    agents = problem.agents
    if len(agents) > 3:
        raise ValueError("brute_force_allocate handles at most 3 agents")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    curves = [build_utility_curve(a) for a in agents]
    mins = [c.beta_min for c in curves]
    budget = float(problem.budget)
    if sum(mins) > budget + TOL:
        raise InfeasibleBudget(
            f"minimum inspections sum to {sum(mins)} > budget {problem.budget}"
        )

    grids = []
    values = []
    for c in curves:
        k = int(math.floor((c.beta_cap - c.beta_min) / step + QUOTIENT_TOL))
        pts = c.beta_min + np.arange(k + 1) * step
        grids.append(pts)
        values.append(np.array([utility_at(c, b) for b in pts]))

    # zero agents (one cap of 0, worth 0) on the left make every m the m=3 case
    pad = 3 - len(agents)
    grids = [np.zeros(1)] * pad + grids
    values = [np.zeros(1)] * pad + values
    pair = values[1][:, None] + values[2][None, :]
    load = grids[1][:, None] + grids[2][None, :]
    best = (-math.inf, 0, 0, 0)
    for i, b1 in enumerate(grids[0]):
        masked = np.where(load <= budget - b1 + TOL, pair, -np.inf)
        flat = int(np.argmax(masked))
        j, k = divmod(flat, len(grids[2]))
        tot = values[0][i] + masked[j, k]
        if tot > best[0]:
            best = (tot, i, j, k)
    caps = tuple(float(g[i]) for g, i in zip(grids, best[1:]))[pad:]

    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = sum(ch.utility for ch in contracts)
    return Allocation(caps, contracts, total, 0.0, step)


def check_ic_ir(
    agent: AgentSpec, contract: Contract, intended: tuple[int, bool]
) -> bool:
    """Whether the intended (action, safety) pair is IC and IR, to TOL * R_n slack."""
    tie = TOL * agent.actions[-1].reward
    gamma, beta = contract.gamma, contract.beta
    shade = (1.0 - beta) * (1.0 - agent.alpha) * gamma

    def util(i: int, safe: bool) -> float:
        act = agent.actions[i]
        if safe:
            return gamma * act.reward - act.cost - agent.kappa_s
        return shade * act.reward - act.cost

    u = util(*intended)
    if u < -tie:
        return False
    for i in range(agent.n):
        for safe in (True, False):
            if u < util(i, safe) - tie:
                return False
    return True
