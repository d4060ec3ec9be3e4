"""Per-agent utility curves and allocation of the inspection budget.

With m agents and B inspectors, the principal must split inspection
probability caps bar_beta^l across agents subject to sum <= B.  Inverting each
agent's beta(gamma) curve (strictly decreasing where positive) gives
gamma(beta), and composing with the principal's payoff yields

    U_l(beta) = (1 - gamma_l(beta)) * R_owner - beta * kappa_i_l,

concave on each inverted piece but discontinuous downward at envelope
breakpoints.  The object the allocator consumes is the running maximum
U_l(bar_beta) = max_{beta <= bar_beta} U_l(beta): nondecreasing, and stored as
the pieces whose peak raises the running best, each with that peak.  The
peaks are the single-agent solver's, so the curve's best point is the optimal
single-agent contract; every piece formula is a ``BetaPiece`` method.
Splitting the budget is then a multiple-choice-knapsack-style problem solved
approximately on a delta grid by dynamic programming, over each agent's list
of candidate caps; the discretization loss is bounded by the Lipschitz
constants of the curves.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BelowMinimumInspection,
    InfeasibleBudget,
    NonpositiveLowerBound,
    ValidationError,
)
from .single_agent import (
    AgentSpec,
    BetaCurve,
    BetaPiece,
    ContractChoice,
    beta_at,
    build_beta_curve,
)
from .tolerance import QUOTIENT_TOL, TOL


@dataclass(frozen=True)
class UtilityCurve:
    """Monotone envelope of the principal's utility as a function of the cap.

    ``rises[j] = (piece, beta_lo, peak)`` is the j-th beta-curve piece, in
    increasing beta, whose peak contract beats everything before it; the best
    contract left of ``beta_lo`` is the previous rise's peak, or ``base``.  Up
    to its peak the piece is concave and increasing, so below a cap the best
    contract is that previous best or the piece at min(cap, peak.beta).
    """

    beta_curve: BetaCurve
    beta_min: float
    beta_cap: float
    base: ContractChoice
    rises: tuple[tuple[BetaPiece, float, ContractChoice], ...]

    @property
    def top(self) -> ContractChoice:
        """The best contract at any cap: the last rise's peak, or ``base``."""
        return self.rises[-1][2] if self.rises else self.base


def build_utility_curve(agent: AgentSpec) -> UtilityCurve:
    """Walk the beta-curve pieces in increasing beta and keep the running best.

    ``base`` is the best peak among the clamped pieces (beta = 0), or the
    contract at gamma = 1 when no piece is clamped.  The unclamped pieces are
    then visited from gamma = 1 downward; a piece whose peak (the same one
    ``solve_single`` compares) beats the running best is recorded as a rise,
    and its peak becomes the running best.
    """
    bc = build_beta_curve(agent)
    beta_min = beta_at(bc, 1.0)

    clamped = [p.peak(agent.kappa_i) for p in bc.pieces if p.clamped]
    if clamped:
        base = max(clamped, key=attrgetter("utility"))
    else:
        last = bc.pieces[-1]
        base = ContractChoice(1.0, beta_min, last.owner, -beta_min * agent.kappa_i)

    rises: list[tuple[BetaPiece, float, ContractChoice]] = []
    cur = base
    cursor = beta_min
    for piece in reversed(bc.pieces):
        if piece.clamped:
            continue
        lo = cursor
        hi = piece.beta(piece.gamma_lo)
        if hi <= lo:
            continue
        cursor = hi
        peak = piece.peak(agent.kappa_i)
        if peak.utility > cur.utility:
            rises.append((piece, lo, peak))
            cur = peak

    return UtilityCurve(bc, beta_min, cursor, base, tuple(rises))


def best_contract_at(curve: UtilityCurve, beta_bar: float) -> ContractChoice:
    """Utility-maximizing contract among those with beta <= beta_bar.

    Ties between a rising stretch and the running max resolve toward the
    smaller beta, matching the single-agent tie-break.
    """
    if beta_bar < curve.beta_min - TOL:
        raise BelowMinimumInspection(
            f"cap {beta_bar} is below beta_min = {curve.beta_min}; "
            "no safe action is implementable within it"
        )
    b = max(beta_bar, curve.beta_min)
    j = bisect_right(curve.rises, b, key=itemgetter(1)) - 1
    if j < 0:
        return curve.base
    piece, _, peak = curve.rises[j]
    if b >= peak.beta:
        # past its peak the running best is the peak itself
        return peak
    before = curve.rises[j - 1][2] if j else curve.base
    u = piece.utility(b, curve.beta_curve.agent.kappa_i)
    if u > before.utility:
        return ContractChoice(piece.gamma(b), b, piece.owner, u)
    return before


def utility_at(curve: UtilityCurve, beta_bar: float) -> float:
    """The monotone utility envelope evaluated at cap ``beta_bar``."""
    return best_contract_at(curve, beta_bar).utility


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------


# Largest DP grid, agents x (budget steps + 1), that allocate accepts; a finer
# delta is rejected as invalid input before any grid array is built.  Each
# cell costs an int32 choice and at most one gain (a utility evaluation), so
# this bounds the grid's memory; 2e7 is 4x the m=1000, B=50, delta=0.01 grid.
MAX_DP_CELLS = 20_000_000
# Most candidate sums, sum_l len(gains_l) x (budget steps + 1), the DP may take:
# at 2-3 ns per sum a few seconds, 8x the m=100, B=10, delta=1e-3 DP.
MAX_DP_WORK = 2_000_000_000
# candidate sums per vectorized block of the DP: a block covers
# _DP_BLOCK // len(gains) budget cells (at least one), so its scratch memory
# stays near 0.25 MB unless one gain curve alone is longer
_DP_BLOCK = 1 << 15


@dataclass(frozen=True)
class AllocationProblem:
    """Agents, an integer budget of inspectors, and a grid step (or target).

    Exactly one of ``delta`` and ``epsilon`` may be given; with neither,
    delta defaults to 0.01.
    """

    agents: tuple[AgentSpec, ...]
    budget: int = 1
    delta: float | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValidationError("at least one agent is required")
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValidationError(f"budget must be a positive integer, got {self.budget!r}")
        if self.delta is not None and self.epsilon is not None:
            raise ValidationError("give delta or epsilon, not both")
        for label, v in (("delta", self.delta), ("epsilon", self.epsilon)):
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{label} must be positive, got {v!r}")


@dataclass(frozen=True)
class Allocation:
    """Caps per agent, the effective contracts below them, and quality bounds.

    ``sum(contracts[l].beta)`` may fall short of ``sum(caps)``: flat-envelope
    slack is not spent.  ``total_utility`` is within ``gap_bound`` of the best
    achievable over fractional caps.
    """

    caps: tuple[float, ...]
    contracts: tuple[ContractChoice, ...]
    total_utility: float
    gap_bound: float
    delta: float


def _lipschitz_term(agent: AgentSpec) -> float:
    # a kappa_s of 0 collapses the curve to a point, so it contributes nothing
    if agent.kappa_s == 0.0:
        return 0.0
    return max(agent.money_scale * agent.money_scale / agent.kappa_s - agent.kappa_i, 0.0)


def gap_bound(problem: AllocationProblem, delta: float) -> float:
    """Upper bound on the DP's loss to discretization at grid step delta."""
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta!r}")
    return delta * sum(_lipschitz_term(a) for a in problem.agents)


def _spare_budget(problem: AllocationProblem, curves: list[UtilityCurve]) -> float:
    """The budget left after the minimum inspections, floored at 0; raises
    InfeasibleBudget when they sum to more than budget + TOL (Assumption 3)."""
    total_min = math.fsum(c.beta_min for c in curves)
    if total_min > problem.budget + TOL:
        raise InfeasibleBudget(
            f"minimum inspections sum to {total_min} > budget {problem.budget} "
            "(Assumption 3)"
        )
    return max(problem.budget - total_min, 0.0)


def _resolve_delta(problem: AllocationProblem, curves: list[UtilityCurve]) -> float:
    """``delta``, 0.01 by default, or the step ``epsilon`` asks for.

    The epsilon conversion's lower bound on the optimum is the best allocation
    that gives all the spare budget to one agent, max_l U_l(B - sum_{k != l}
    beta_min^k) + sum_{k != l} U_k(beta_min^k); each sum over k != l is an
    ``fsum`` over all agents less agent l's term, so agent order does not matter.
    """
    if problem.delta is not None:
        return problem.delta
    if problem.epsilon is None:
        return 0.01
    mins = [c.beta_min for c in curves]
    floors = [utility_at(c, b) for c, b in zip(curves, mins)]
    total_min, total_floor = math.fsum(mins), math.fsum(floors)
    lower = max(
        utility_at(c, problem.budget - (total_min - b)) + (total_floor - f)
        for c, b, f in zip(curves, mins, floors)
    )
    if lower <= 0.0:
        raise NonpositiveLowerBound(
            "the best allocation giving one agent all the spare budget is worth "
            f"{lower} <= 0; pass delta directly"
        )
    # r * r, not r ** 2, which raises OverflowError instead of giving inf
    terms = [a.money_scale * a.money_scale / a.kappa_s for a in problem.agents if a.kappa_s > 0]
    if not terms:
        return 1.0
    return problem.epsilon * lower / (len(problem.agents) * max(terms))


def _dp(gains: list[np.ndarray], steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fill the budget-allocation table row by row.

    ``gains[l][eta]`` is agent l's utility gain from eta grid steps above its
    minimum inspection.  Returns the final value row and the per-cell units
    chosen, for backtracking.

    Each agent's row is one (max,+) convolution of the previous row with its
    gains: cell j takes the best of ``values[j-eta] + g[eta]``, read from a
    strided window view of the row padded on the left with -inf, for a block
    of cells at a time.  That is O(sum_l len(g_l) * steps) numpy work and
    O(block * max_l len(g_l)) scratch memory besides the table, where a block
    holds ``_DP_BLOCK // len(g_l)`` cells (at least one).  The sums are the
    same additions the per-cell definition makes, so values and choices do not
    depend on the blocking.  argmax takes the first maximizer, so ties
    resolve toward spending less (no inspection wasted on flat curves).
    """
    m = len(gains)
    values = np.zeros(steps + 1)
    choices = np.zeros((m, steps + 1), dtype=np.int32)
    for l, g in enumerate(gains):
        k = len(g)
        padded = np.concatenate((np.full(k - 1, -np.inf), values))
        # win[j, eta] = values[j - eta], -inf where eta > j
        win = sliding_window_view(padded, k)[:, ::-1]
        nxt = np.empty(steps + 1)
        block = max(_DP_BLOCK // k, 1)
        for lo in range(0, steps + 1, block):
            cand = win[lo : lo + block] + g
            eta = cand.argmax(axis=1)
            nxt[lo : lo + block] = np.take_along_axis(cand, eta[:, None], 1)[:, 0]
            choices[l, lo : lo + block] = eta
        values = nxt
    return values, choices


def _prepare_grid(problem: AllocationProblem, curves: list[UtilityCurve]):
    """The grid step, budget steps, and each agent's candidate caps and gains.

    Each agent's caps beta_min + eta * delta stop at the first one at or past
    where its utility envelope goes flat (later caps only tie with it, and the
    DP keeps the first of tied choices), or else at beta_cap or the spare
    budget, with a saturation cap; the size limits count caps to the latter.
    """
    spare = _spare_budget(problem, curves)
    delta = _resolve_delta(problem, curves)
    # an epsilon below what a double resolves gives delta = 0: an infinite grid
    ratio = spare / delta + QUOTIENT_TOL if delta > 0.0 else math.inf
    # a tiny delta overflows the ratio to inf, which has no floor
    steps = math.floor(ratio) if math.isfinite(ratio) else math.inf
    if len(curves) * (steps + 1) > MAX_DP_CELLS:
        raise ValidationError(
            f"delta = {delta!r} needs a DP grid of {len(curves) * (ratio + 1):.3g} cells "
            f"({len(curves)} agents x budget steps), above the limit of "
            f"{MAX_DP_CELLS:,}; use a larger delta or epsilon"
        )
    caps_x = [min(c.beta_cap - c.beta_min, spare) for c in curves]
    ns = [int(math.floor(cap / delta + QUOTIENT_TOL)) for cap in caps_x]
    work = sum(n_l + 1 for n_l in ns) * (steps + 1)
    if work > MAX_DP_WORK:
        raise ValidationError(
            f"delta = {delta!r} needs {work:.3g} DP candidate sums, above the limit of "
            f"{MAX_DP_WORK:,}; use a larger delta or epsilon"
        )
    grid, gains = [], []
    for c, cap, n_l in zip(curves, caps_x, ns):
        betas = [c.beta_min + eta * delta for eta in range(n_l + 1)]
        # at or past the last rise's peak and its beta_lo, utility_at is that peak
        end = bisect_left(betas, max(c.rises[-1][1], c.top.beta) if c.rises else c.beta_min)
        if end <= n_l:
            del betas[end + 1 :]
        elif cap > n_l * delta and n_l + 1 <= steps:
            # saturation, entry n_l + 1: reaching the flat region exactly costs a
            # rounded-up number of units but can beat every grid point before it
            betas.append(c.beta_min + cap)
        grid.append(betas)
        gains.append(np.array([utility_at(c, b) - c.base.utility for b in betas]))
    return delta, steps, gains, grid


def allocate(problem: AllocationProblem) -> Allocation:
    """Split the inspection budget across agents by dynamic programming.

    Rewrites caps as bar_beta^l = beta_min^l + x^l so every agent keeps its
    minimum, then optimizes the x^l over a delta grid, each agent's grid
    cut at its first point where its utility envelope is flat (the slack
    returns to the pool).  Budget indices are integers throughout; x^l is
    recovered by backtracking the per-cell choices.
    """
    curves = [build_utility_curve(a) for a in problem.agents]
    delta, steps, gains, grid = _prepare_grid(problem, curves)
    values, choices = _dp(gains, steps)

    caps = [0.0] * len(curves)
    j = steps
    for l in range(len(curves) - 1, -1, -1):
        units = int(choices[l, j])
        caps[l] = float(grid[l][units])
        j -= units
    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = sum(ch.utility for ch in contracts)
    check = sum(c.base.utility for c in curves) + values[steps]
    # both sides add the same m utilities and m bases in different orders
    scale = math.fsum(abs(ch.utility) + abs(c.base.utility) for c, ch in zip(curves, contracts))
    if abs(total - check) > TOL * len(curves) * scale:
        raise RuntimeError(
            f"DP value {check} disagrees with backtracked total {total}"
        )
    return Allocation(
        tuple(caps), contracts, total, gap_bound(problem, delta), delta
    )
