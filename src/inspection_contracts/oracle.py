"""Brute-force cross-checks for every solver in the package.

These deliberately avoid the envelope/curve machinery: agent behavior is
recomputed from the raw utility definitions by enumerating actions on a
dense (gamma, beta) grid, so agreement with the closed-form solvers is
meaningful.  At each grid gamma the best contract uses the least grid beta
that deters every unsafe action, found by bisection on that definition.
Callers may inject extra candidate pairs (typically the solver's own answer)
into the comparison set; the evaluation path stays independent either way.

Not a production solver; everything here trades speed for transparency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBudget, NoSafeContract, ValidationError
from .multi_agent import (
    Allocation,
    AllocationProblem,
    best_contract_at,
    build_utility_curve,
    utility_at,
)
from .single_agent import AgentSpec, Contract
from .tolerance import QUOTIENT_TOL, TOL

# Most grid cells, grid points x actions, brute_force_single may take; a
# finer step is rejected as invalid input before any grid array is built.
# Each bisection round builds one float64 array of that many cells and about
# a dozen with one entry per grid point: at the limit a 1-action agent (10^6
# points) takes about 0.7 s and 100 MB on a 2-CPU Xeon host.  The default
# step 1e-3 on an 8-action agent needs about 8e3 cells.
MAX_ORACLE_CELLS = 1_000_000


def _grid(step: float) -> np.ndarray:
    k = int(math.floor(1.0 / step + QUOTIENT_TOL))
    g = np.arange(k + 1) * step
    if g[-1] < 1.0 - TOL:
        g = np.append(g, 1.0)
    return np.minimum(g, 1.0)


def _check_grid_size(agent: AgentSpec, step: float) -> None:
    ratio = 1.0 / step + QUOTIENT_TOL
    # a tiny step overflows the ratio to inf, which has no floor
    k = math.floor(ratio) if math.isfinite(ratio) else math.inf
    points = k + 1 if k * step >= 1.0 - TOL else k + 2
    cells = float(points) * agent.n
    if cells > MAX_ORACLE_CELLS:
        raise ValidationError(
            f"grid step {step!r} needs {cells:.3g} oracle grid cells "
            f"({agent.n} actions x grid points), above the limit of "
            f"{MAX_ORACLE_CELLS:,}; use a larger step"
        )


@dataclass
class _Best:
    utility: float = -math.inf
    gamma: float = math.nan
    beta: float = math.nan


def _scan(best: _Best, agent: AgentSpec, gammas: np.ndarray, betas: np.ndarray) -> None:
    """Keep the best safe-implementing (gamma, beta) pair of the grid.

    Rewards are nonnegative and alpha < 1, so every unsafe utility falls as
    beta rises (each rounded step of its float expression is monotone too),
    and deterrence at a fixed gamma holds from some least grid beta on.  The
    principal's payoff falls with beta, so that least beta, found by a
    bisection per gamma, is the best contract at that gamma: the same answer
    as checking every grid pair.  Ties go to the least beta, then the least
    gamma.
    """
    tie = TOL * agent.actions[-1].reward
    rewards = np.array(agent.rewards)
    costs = np.array(agent.costs)
    safe = gammas[:, None] * rewards[None, :] - costs[None, :]
    best_safe = safe.max(axis=1) - agent.kappa_s
    # ties between equally good safe actions go to the higher reward
    act = (len(rewards) - 1) - np.argmax(safe[:, ::-1], axis=1)
    base = (1.0 - gammas) * rewards[act]

    # the least deterring beta index per gamma lies in [lo, hi]; index
    # len(betas) stands for "none deters", the answer wherever IR fails
    g = len(betas)
    lo = np.where(best_safe >= -tie, 0, g)
    hi = np.full(len(gammas), g)
    for _ in range(g.bit_length()):
        open_ = lo < hi
        mid = (lo + hi) // 2
        shade = ((1.0 - betas[np.minimum(mid, g - 1)]) * (1.0 - agent.alpha)) * gammas
        unsafe = (shade[:, None] * rewards[None, :] - costs[None, :]).max(axis=1)
        ok = best_safe >= unsafe - tie
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid + 1, lo)

    util = np.where(hi < g, base - agent.kappa_i * betas[np.minimum(hi, g - 1)], -np.inf)
    top = util.max()
    # among the best gammas, the least beta index, then the least gamma index
    gi = int(np.argmin(np.where(util == top, hi, g)))
    if top > best.utility:
        best.utility = float(top)
        best.gamma = float(gammas[gi])
        best.beta = float(betas[hi[gi]])


def brute_force_single(
    agent: AgentSpec,
    step: float,
    include: tuple[tuple[float, float], ...] | list[tuple[float, float]] = (),
) -> tuple[Contract, float]:
    """Best safe-implementing contract over a step grid on [0, 1]^2.

    ``include`` adds exact (gamma, beta) pairs to the comparison set so grid
    resolution is not charged against candidates the caller already knows.
    A step whose grid exceeds ``MAX_ORACLE_CELLS`` raises ValidationError.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    _check_grid_size(agent, step)
    best = _Best()
    g = _grid(step)
    _scan(best, agent, g, g)
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
