"""Per-agent utility curves and allocation of the inspection budget.

With m agents and B inspectors, the principal must split inspection
probability caps bar_beta^l across agents subject to sum <= B.  Inverting each
agent's beta(gamma) curve (strictly decreasing where positive) gives
gamma(beta), and composing with the principal's payoff yields

    U_l(beta) = (1 - gamma_l(beta)) * R_owner - beta * kappa_i_l,

concave on each inverted piece but discontinuous downward at envelope
breakpoints.  The object the allocator consumes is the running maximum
U_l(bar_beta) = max_{beta <= bar_beta} U_l(beta): nondecreasing, made of flat
stretches and strictly increasing concave stretches.  Splitting the budget is
then a multiple-choice-knapsack-style problem solved approximately on a delta
grid by dynamic programming; the discretization loss is bounded by the
Lipschitz constants of the curves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

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
    _beta_on_piece,
    _piece_coeffs,
    _stationary_gamma,
    beta_at,
    build_beta_curve,
)
from .tolerance import QUOTIENT_TOL, TOL


@dataclass(frozen=True)
class ContractChoice:
    """A concrete contract together with the action it implements."""

    gamma: float
    beta: float
    action: int
    utility: float


@dataclass(frozen=True)
class CurveSegment:
    """One segment of the monotone utility envelope over inspection caps.

    Flat segments carry the running-max value and the contract attaining it
    (its beta sits at or left of ``beta_lo``).  Rising segments are strictly
    increasing and concave; they reference the beta-curve piece whose inverse
    gamma(beta) they evaluate.
    """

    beta_lo: float
    beta_hi: float
    flat: bool
    anchor: ContractChoice
    piece_index: int = -1


@dataclass(frozen=True)
class UtilityCurve:
    """Monotone envelope of the principal's utility as a function of the cap."""

    agent: AgentSpec
    beta_curve: BetaCurve
    beta_min: float
    beta_cap: float
    base: ContractChoice
    top: ContractChoice
    segments: tuple[CurveSegment, ...]
    _lows: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lows", tuple(s.beta_lo for s in self.segments))


def _gamma_on_piece(agent: AgentSpec, piece: BetaPiece, beta: float) -> float:
    r_own, c_const, d = _piece_coeffs(agent, piece)
    return c_const / (r_own - (1.0 - beta) * d)


def _utility_on_piece(agent: AgentSpec, piece: BetaPiece, beta: float) -> float:
    g = _gamma_on_piece(agent, piece, beta)
    return (1.0 - g) * agent.actions[piece.owner].reward - beta * agent.kappa_i


def _rising_root(agent, piece, target, lo, hi) -> float:
    """Smallest beta in [lo, hi] with utility >= target, to one ulp."""
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return hi
        if _utility_on_piece(agent, piece, mid) < target:
            lo = mid
        else:
            hi = mid


def build_utility_curve(agent: AgentSpec) -> UtilityCurve:
    """Invert the beta curve piecewise and apply the running maximum.

    The sweep walks the unclamped pieces from gamma = 1 downward, i.e. beta
    increasing.  Within a piece the utility is concave with its peak at the
    same stationary point the single-agent solver uses; past the peak, and
    wherever the piece never climbs above the best value seen so far, the
    envelope is flat.
    """
    bc = build_beta_curve(agent)
    beta_min = beta_at(bc, 1.0)

    clamped = [p for p in bc.pieces if p.clamped]
    if clamped:
        base = None
        for p in clamped:
            u = (1.0 - p.gamma_lo) * agent.actions[p.owner].reward
            if base is None or u > base.utility:
                base = ContractChoice(p.gamma_lo, 0.0, p.owner, u)
    else:
        last = bc.pieces[-1]
        base = ContractChoice(1.0, beta_min, last.owner, -beta_min * agent.kappa_i)

    segments: list[CurveSegment] = []
    cur = base
    cursor = beta_min
    unclamped = [(i, p) for i, p in enumerate(bc.pieces) if not p.clamped]
    for idx, piece in reversed(unclamped):
        lo = cursor
        hi = _beta_on_piece(agent, piece, piece.gamma_lo)
        if hi <= lo:
            continue
        peak_gamma = _stationary_gamma(agent, piece)
        if peak_gamma >= piece.gamma_hi:
            beta_peak = lo
        elif peak_gamma <= piece.gamma_lo:
            beta_peak = hi
        else:
            beta_peak = min(max(_beta_on_piece(agent, piece, peak_gamma), lo), hi)
        u_peak = _utility_on_piece(agent, piece, beta_peak)
        if u_peak <= cur.utility:
            segments.append(CurveSegment(lo, hi, True, cur))
        else:
            start = lo
            if _utility_on_piece(agent, piece, lo) < cur.utility:
                start = _rising_root(agent, piece, cur.utility, lo, beta_peak)
                segments.append(CurveSegment(lo, start, True, cur))
            cur = ContractChoice(
                _gamma_on_piece(agent, piece, beta_peak), beta_peak, piece.owner, u_peak
            )
            if start < beta_peak:
                segments.append(CurveSegment(start, beta_peak, False, cur, idx))
            if beta_peak < hi:
                segments.append(CurveSegment(beta_peak, hi, True, cur))
        cursor = hi

    # merge runs of flat segments sharing one anchor
    merged: list[CurveSegment] = []
    for seg in segments:
        if merged and seg.flat and merged[-1].flat and merged[-1].anchor is seg.anchor:
            merged[-1] = CurveSegment(merged[-1].beta_lo, seg.beta_hi, True, seg.anchor)
        else:
            merged.append(seg)

    return UtilityCurve(agent, bc, beta_min, cursor, base, cur, tuple(merged))


def _locate(curve: UtilityCurve, beta_bar: float) -> CurveSegment:
    j = max(bisect_right(curve._lows, beta_bar) - 1, 0)
    return curve.segments[j]


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
    if beta_bar >= curve.beta_cap or not curve.segments:
        return curve.top
    seg = _locate(curve, min(max(beta_bar, curve.beta_min), curve.beta_cap))
    if seg.flat:
        return seg.anchor
    piece = curve.beta_curve.pieces[seg.piece_index]
    b = min(max(beta_bar, seg.beta_lo), seg.beta_hi)
    return ContractChoice(
        _gamma_on_piece(curve.agent, piece, b),
        b,
        piece.owner,
        _utility_on_piece(curve.agent, piece, b),
    )


def utility_at(curve: UtilityCurve, beta_bar: float) -> float:
    """The monotone utility envelope evaluated at cap ``beta_bar``."""
    return best_contract_at(curve, beta_bar).utility


def min_beta(agent: AgentSpec) -> float:
    """Cheapest inspection implementing a safe action, beta(1)."""
    return beta_at(build_beta_curve(agent), 1.0)


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------


# Largest DP grid, agents x (budget steps + 1), that allocate accepts; a finer
# delta is rejected as invalid input before any grid array is built.  Each
# cell costs an int32 choice and at most one gain (a utility evaluation), so
# this bounds the grid's memory; 2e7 is 4x the m=1000, B=50, delta=0.01 grid.
MAX_DP_CELLS = 20_000_000
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
    r_top = agent.actions[-1].reward
    return max(r_top * r_top / agent.kappa_s - agent.kappa_i, 0.0)


def gap_bound(problem: AllocationProblem, delta: float) -> float:
    """Upper bound on the DP's loss to discretization at grid step delta."""
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta!r}")
    return delta * sum(_lipschitz_term(a) for a in problem.agents)


def _resolve_delta(problem: AllocationProblem, curves: list[UtilityCurve]) -> float:
    if problem.delta is not None:
        return problem.delta
    if problem.epsilon is None:
        return 0.01
    rest = sum(c.beta_min for c in curves[1:])
    lower = utility_at(curves[0], problem.budget - rest)
    if lower <= 0.0:
        raise NonpositiveLowerBound(
            "the first agent's utility at the leftover budget is "
            f"{lower} <= 0; pass delta directly"
        )
    terms = [
        a.actions[-1].reward ** 2 / a.kappa_s for a in problem.agents if a.kappa_s > 0
    ]
    if not terms:
        return 1.0
    return problem.epsilon * lower / (len(problem.agents) * max(terms))


def _dp(
    gains: list[np.ndarray],
    sats: list[tuple[int, float] | None],
    steps: int,
    all_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill the budget-allocation table row by row.

    ``gains[l][eta]`` is agent l's utility gain from eta grid steps above its
    minimum inspection; ``sats[l]``, when present, is the extra saturation
    option (units charged, gain) that tops the agent out at its flat region.
    Returns the final value row (with ``all_rows``, every row as an
    (m+1, steps+1) table whose row 0 is the zero basis) and the per-cell units
    chosen, for backtracking.

    Each agent's row is one (max,+) convolution of the previous row with its
    gains: cell j takes the best of ``values[j-eta] + g[eta]``, read from a
    strided window view of the row padded on the left with -inf, for a block
    of cells at a time.  That is O(sum_l len(g_l) * steps) numpy work and
    O(block * max_l len(g_l)) scratch memory besides the table, where a block
    holds ``_DP_BLOCK // len(g_l)`` cells (at least one).  The sums are the
    same additions the per-cell definition makes, so values and choices do not
    depend on the blocking.  argmax takes the first maximizer and saturation
    only wins strictly, so ties resolve toward spending less (no inspection
    wasted on flat curves).
    """
    m = len(gains)
    values = np.zeros(steps + 1)
    rows = [values]
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
        sat = sats[l]
        if sat is not None and sat[0] <= steps:
            u, s = sat
            alt = values[: steps + 1 - u] + s
            wins = alt > nxt[u:]
            nxt[u:][wins] = alt[wins]
            choices[l, u:][wins] = u
        values = nxt
        if all_rows:
            rows.append(nxt)
    return (np.vstack(rows) if all_rows else values), choices


def dp_value_table(problem: AllocationProblem) -> np.ndarray:
    """All DP rows (m+1, steps+1), for diagnostics; row 0 is the zero basis."""
    curves = [build_utility_curve(a) for a in problem.agents]
    _, steps, gains, sats, _ = _prepare_grid(problem, curves)
    return _dp(gains, sats, steps, all_rows=True)[0]


def _prepare_grid(problem: AllocationProblem, curves: list[UtilityCurve]):
    total_min = math.fsum(c.beta_min for c in curves)
    if total_min > problem.budget + TOL:
        raise InfeasibleBudget(
            f"minimum inspections sum to {total_min} > budget {problem.budget} "
            "(Assumption 3)"
        )
    delta = _resolve_delta(problem, curves)
    spare = max(problem.budget - total_min, 0.0)
    ratio = spare / delta + QUOTIENT_TOL
    # a tiny delta overflows the ratio to inf, which has no floor
    steps = math.floor(ratio) if math.isfinite(ratio) else math.inf
    if len(curves) * (steps + 1) > MAX_DP_CELLS:
        raise ValidationError(
            f"delta = {delta!r} needs a DP grid of {len(curves) * (ratio + 1):.3g} cells "
            f"({len(curves)} agents x budget steps), above the limit of "
            f"{MAX_DP_CELLS:,}; use a larger delta or epsilon"
        )
    gains = []
    sats: list[tuple[int, float] | None] = []
    caps_x = []
    for c in curves:
        cap = min(c.beta_cap - c.beta_min, spare)
        caps_x.append(cap)
        n_l = int(math.floor(cap / delta + QUOTIENT_TOL))
        base = c.base.utility
        gains.append(
            np.array([utility_at(c, c.beta_min + eta * delta) - base for eta in range(n_l + 1)])
        )
        # the grid endpoint itself: reaching the flat region exactly costs a
        # rounded-up number of units but can beat every interior point
        if cap > n_l * delta + TOL and n_l + 1 <= steps:
            sats.append((n_l + 1, utility_at(c, c.beta_min + cap) - base))
        else:
            sats.append(None)
    return delta, steps, gains, sats, caps_x


def allocate(problem: AllocationProblem) -> Allocation:
    """Split the inspection budget across agents by dynamic programming.

    Rewrites caps as bar_beta^l = beta_min^l + x^l so every agent keeps its
    minimum, then optimizes the x^l over a delta grid, each agent's grid
    truncated where its utility envelope goes flat (the slack returns to the
    pool).  Budget indices are integers throughout; x^l is recovered by
    backtracking the per-cell choices.
    """
    curves = [build_utility_curve(a) for a in problem.agents]
    delta, steps, gains, sats, caps_x = _prepare_grid(problem, curves)
    values, choices = _dp(gains, sats, steps)

    units = [0] * len(curves)
    j = steps
    for l in range(len(curves) - 1, -1, -1):
        units[l] = int(choices[l, j])
        j -= units[l]
    caps = []
    for c, sat, cap_x, u in zip(curves, sats, caps_x, units):
        x = cap_x if (sat is not None and u == sat[0]) else u * delta
        caps.append(float(c.beta_min + x))
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
