"""Brute-force cross-checks for every solver in the package.

These deliberately avoid the envelope/curve machinery: agent behavior is
recomputed from the raw utility definitions, so agreement with the
closed-form solvers is meaningful.  The single-agent oracle takes a step
grid of payment shares gamma and, at each, the least inspection probability
that deters every unsafe action, solved from the deterrence inequality
itself.  Callers may inject extra candidate gammas (typically from the
solver's own answer); the evaluation path stays independent either way.
``check_ic_ir`` shares one thing with the solvers, the agent's choice rule:
the pairs ``agent_best_response`` chooses from.

Not a production solver; everything here trades speed for transparency.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import NoSafeContract, ValidationError
from .multi_agent import (
    Allocation,
    AllocationProblem,
    _spare_budget,
    best_contract_at,
    build_utility_curve,
    utility_at,
)
from .single_agent import AgentSpec, Contract, _accepted_pairs
from .tolerance import TOL, grid_steps

# Most grid cells, grid points x actions, brute_force_single may take; a
# finer step is rejected as invalid input before any grid array is built.
# The pass holds about a dozen arrays of that many cells: at the limit a
# 1-action agent (10^6 points) takes about 0.1 s and 100 MB on a 2-CPU Xeon
# host.  The default step 1e-3 on an 8-action agent needs about 8e3 cells.
MAX_ORACLE_CELLS = 1_000_000


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")


def _grid(step: float, n: int) -> np.ndarray:
    """The step grid of gammas on [0, 1], with 1 appended when the steps miss it.

    Raises ValidationError before building it when its points times the ``n``
    actions exceed ``MAX_ORACLE_CELLS``.
    """
    k = grid_steps(1.0, step)
    ends_short = k * step < 1.0 - TOL
    cells = float(k + 1 + ends_short) * n
    if cells > MAX_ORACLE_CELLS:
        raise ValidationError(
            f"grid step {step!r} needs {cells:.3g} oracle grid cells "
            f"({n} actions x grid points), above the limit of "
            f"{MAX_ORACLE_CELLS:,}; use a larger step"
        )
    g = np.arange(k + 1) * step
    if ends_short:
        g = np.append(g, 1.0)
    return np.minimum(g, 1.0)


def _scan(agent: AgentSpec, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least deterring beta at each gamma, and the principal's utility.

    S is the best safe utility.  Unsafe action j is deterred when
    (1 - beta)(1 - alpha) gamma R_j - c_j <= S, so from
    beta = 1 - (S + c_j) / ((1 - alpha) gamma R_j) on; with a zero
    denominator it is deterred at every beta iff -c_j <= S, else at none.
    The principal's payoff falls with beta, so that least beta is the best
    contract at that gamma.  Its base (1 - gamma) R uses the highest-reward
    safe action within TOL * R_n of S.  Where IR fails (S < -TOL * R_n) or
    no beta <= 1 deters, the utility is -inf.
    """
    tie = TOL * agent.money_scale
    rewards = np.array(agent.rewards)
    costs = np.array(agent.costs)
    safe = gammas[:, None] * rewards[None, :] - costs[None, :]
    top = safe.max(axis=1)
    best_safe = top - agent.kappa_s
    act = (len(rewards) - 1) - np.argmax((safe >= top[:, None] - tie)[:, ::-1], axis=1)
    base = (1.0 - gammas) * rewards[act]

    shade = ((1.0 - agent.alpha) * gammas)[:, None] * rewards[None, :]
    floor = best_safe[:, None] + costs[None, :]
    pos = shade > 0.0
    # a subnormal shade overflows the ratio to +-inf, the right limit
    with np.errstate(over="ignore"):
        ratio = floor / np.where(pos, shade, 1.0)
    need = np.where(pos, 1.0 - ratio, np.where(floor >= 0.0, 0.0, np.inf))
    beta = np.maximum(need.max(axis=1), 0.0)
    ok = (best_safe >= -tie) & (beta <= 1.0)
    # the cost overflows only where beta > 1, cells that are -inf anyway
    with np.errstate(over="ignore"):
        util = base - agent.kappa_i * beta
    return beta, np.where(ok, util, -np.inf)


def brute_force_single(
    agent: AgentSpec,
    step: float,
    include: tuple[tuple[float, float], ...] | list[tuple[float, float]] = (),
) -> tuple[Contract, float]:
    """Best safe-implementing contract over a step grid of gammas on [0, 1].

    Each gamma gets its least deterring beta (see ``_scan``).  ``include``
    takes (gamma, beta) pairs, typically the solver's answer, and appends
    each pair's gamma to the grid so grid resolution is not charged against
    it; the pair's beta is not used.  Ties go to the first best gamma in
    grid order, then ``include`` order.  A step whose grid exceeds
    ``MAX_ORACLE_CELLS`` raises ValidationError.
    """
    _check_step(step)
    gammas = np.append(_grid(step, agent.n), [float(gamma) for gamma, _ in include])
    beta, util = _scan(agent, gammas)
    i = int(np.argmax(util))
    if util[i] == -math.inf:
        raise NoSafeContract(
            f"no grid contract at step {step} implements a safe action"
        )
    return Contract(float(gammas[i]), float(beta[i])), float(util[i])


def brute_force_allocate(problem: AllocationProblem, step: float) -> Allocation:
    """Exhaustive search over per-agent caps on a step grid (m <= 3 only).

    ``utility_at`` is a running max, so nondecreasing in the cap: given the
    other agents' caps, the last agent's best is its largest affordable one
    (caps summing to <= budget + TOL).  Ties go to the first of the other
    agents' cap vectors in row-major order, and the last agent keeps its
    largest affordable cap even where a smaller one is worth as much.
    Assumption 3 is ``allocate``'s own check, with its ``InfeasibleBudget``.
    """
    agents = problem.agents
    if len(agents) > 3:
        raise ValueError("brute_force_allocate handles at most 3 agents")
    _check_step(step)
    curves = [build_utility_curve(a) for a in agents]
    _spare_budget(problem, curves)
    budget = float(problem.budget)

    spans = [grid_steps(c.beta_cap - c.beta_min, step) for c in curves]
    grids = [c.beta_min + np.arange(k + 1) * step for c, k in zip(curves, spans)]
    values = [np.array([utility_at(c, b) for b in g]) for c, g in zip(curves, grids)]

    def table(arrays):  # every combination's sum in agent order, 0-d for none
        return reduce(np.add.outer, arrays, np.zeros(()))

    # tables over the other agents' caps, built as temporaries to bound the peak
    last = np.searchsorted(grids[-1], budget - table(grids[:-1]) + TOL, side="right") - 1
    tot = np.where(last >= 0, table(values[:-1]) + values[-1][last], -np.inf)
    best = np.unravel_index(int(np.argmax(tot)), tot.shape)
    caps = tuple(float(g[i]) for g, i in zip(grids, (*best, last[best])))

    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = sum(ch.utility for ch in contracts)
    return Allocation(caps, contracts, total, 0.0, step)


def check_ic_ir(
    agent: AgentSpec, contract: Contract, intended: tuple[int, bool]
) -> bool:
    """Whether the intended (action, safety) pair is IC and IR, to TOL * R_n slack:
    whether it is among the pairs ``agent_best_response`` chooses from."""
    return tuple(intended) in _accepted_pairs(agent, contract)
