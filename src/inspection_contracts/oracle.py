"""Brute-force cross-checks for every solver in the package.

The single-agent oracle avoids the envelope/curve machinery: agent behavior
is recomputed from the raw utility definitions, so agreement with the
closed-form solver is meaningful.  It takes a step grid of payment shares
gamma and, at each, the least inspection probability that deters every
unsafe action, solved from the deterrence inequality itself.  Callers may
inject extra candidate gammas (typically from the solver's own answer); the
evaluation path stays independent either way.  ``check_ic_ir`` shares one
thing with the solvers, the agent's choice rule: the pairs
``agent_best_response`` chooses from.  The allocation oracle reads the
solvers' utility curves, priced over whole grids by ``multi_agent._values``,
``utility_at``'s rule, as the budget DP prices its own; its independence
lies in the search, which tries every cap vector on a step grid instead of
splitting the budget by DP or by price.

Not a production solver: each check runs over whole grids, the single-agent
scan and the allocation table search in a few array operations each.
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
    _values,
    best_contract_at,
    build_utility_curve,
)
from .single_agent import AgentSpec, Contract, _accepted_pairs
from .tolerance import TOL, grid_steps

# Most grid cells, grid points x actions, brute_force_single may take, and
# most table entries (and bisected caps) brute_force_allocate may take; a
# larger grid or table is rejected as invalid input before any array is
# built.  Each pass holds about a dozen arrays of that many cells.  At the
# limit, on a 2-CPU Xeon host, a 1-action agent (10^6 points) takes about
# 80 ms and 106 MB, and three agents (a 1228 x 790 table) about 40 ms and
# 32 MB.  One allocation agent with 10^6 caps, each priced in Python by
# ``_values``, takes about 0.41 s and 85 MB.  The default step 1e-3 on an
# 8-action agent needs about 8e3 cells.
# At step 0.01 (at most 101 caps per agent) every table of up to three agents
# fits; four unit agents need 24^3 entries, six 24^5, too many.
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
    no beta <= 1 deters, the utility is -inf.  The arrays are actions x
    gammas, so every reduction runs down the few action rows.
    """
    tie = TOL * agent.money_scale
    rewards = np.array(agent.actions.rewards)
    costs = np.array(agent.actions.costs)[:, None]
    safe = rewards[:, None] * gammas - costs
    top = safe.max(axis=0)
    best_safe = top - agent.kappa_s
    act = (agent.n - 1) - np.argmax((safe >= top - tie)[::-1], axis=0)
    base = (1.0 - gammas) * rewards[act]

    shade = rewards[:, None] * ((1.0 - agent.alpha) * gammas)
    floor = best_safe + costs
    pos = shade > 0.0
    # a subnormal shade overflows the ratio to +-inf, the right limit
    with np.errstate(over="ignore"):
        ratio = floor / np.where(pos, shade, 1.0)
    need = np.where(pos, 1.0 - ratio, np.where(floor >= 0.0, 0.0, np.inf))
    beta = np.maximum(need.max(axis=0), 0.0)
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
    """Exhaustive search over per-agent caps on a step grid.

    ``utility_at`` is a running max, so nondecreasing in the cap: given the
    other agents' caps, one agent's best is its largest affordable one (caps
    summing to <= budget + TOL).  That agent is the one with the most grid
    points (the first on a tie), found by bisection; the others' cap vectors
    are tabulated, and each table total is summed in agent order.  Ties go
    to the first tabulated cap vector in row-major order, and the bisected
    agent keeps its largest affordable cap even where a smaller one is worth
    as much.  The reported total is the chosen contracts' ``fsum``, as every
    other allocation total is, so it does not depend on agent order.  A
    step, or a number of agents, whose table entries or whose bisected
    grid's points exceed ``MAX_ORACLE_CELLS`` raises ValidationError.
    Assumption 3 is ``allocate``'s own check, with its ``InfeasibleBudget``.
    """
    _check_step(step)
    curves = [build_utility_curve(a) for a in problem.agents]
    _spare_budget(problem, curves)
    budget = float(problem.budget)

    sizes = [grid_steps(c.beta_cap - c.beta_min, step) + 1 for c in curves]
    wide = sizes.index(max(sizes))
    rest = [l for l in range(len(curves)) if l != wide]
    cells = max(math.prod(float(sizes[l]) for l in rest), float(sizes[wide]))
    if cells > MAX_ORACLE_CELLS:
        # past about 10^308 entries the product is inf
        count = f"{cells:.3g}" if math.isfinite(cells) else "more than 1e308"
        raise ValidationError(
            f"grid step {step!r} needs {count} oracle table entries "
            f"(the smaller agents' cap vectors, or the widest agent's caps), "
            f"above the limit of {MAX_ORACLE_CELLS:,}"
        )
    points = [[eta * step + lo for eta in range(n)]
              for lo, n in zip([c.beta_min for c in curves], sizes)]
    values = [np.array(_values(c, p)) for c, p in zip(curves, points)]
    grids = [np.array(p) for p in points]

    # one table axis per tabulated agent with more than one cap, in agent
    # order (so at most 19 axes fit the limit); 0-d when there is none
    axes = [l for l in rest if sizes[l] > 1]

    def on_axis(l: int, a: np.ndarray) -> np.ndarray:
        return a.reshape([-1 if q == l else 1 for q in axes])

    sums = reduce(np.add, [on_axis(l, grids[l]) for l in rest], np.zeros(()))
    pick = np.searchsorted(grids[wide], budget - sums + TOL, side="right") - 1
    terms = [values[l][pick] if l == wide else on_axis(l, values[l])
             for l in range(len(curves))]
    tot = np.where(pick >= 0, reduce(np.add, terms, np.zeros(())), -np.inf)
    best = np.unravel_index(int(np.argmax(tot)), tot.shape)
    at = dict(zip(axes, best))
    index = [pick[best] if l == wide else at.get(l, 0) for l in range(len(curves))]
    caps = tuple(float(g[i]) for g, i in zip(grids, index))

    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = math.fsum(ch.utility for ch in contracts)
    return Allocation(caps, contracts, total, 0.0, step)


def check_ic_ir(
    agent: AgentSpec, contract: Contract, intended: tuple[int, bool]
) -> bool:
    """Whether the intended (action, safety) pair is IC and IR, to TOL * R_n slack:
    whether it is among the pairs ``agent_best_response`` chooses from."""
    return tuple(intended) in _accepted_pairs(agent, contract)
