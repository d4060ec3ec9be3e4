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
peaks are the single-agent solver's, compared by its tie rule, so the curve's
best point is the optimal single-agent contract; every piece formula is a
``BetaPiece`` method or ``_peak``, so money enters each only as a ratio.
``best_contract_at`` values one cap, and ``_values`` nondecreasing caps (the
grid DP's and the oracle's grids, and the price search's candidates) by the
same rule and float operations.
Splitting the budget is then a multiple-choice-knapsack-style problem.  By
default ``allocate`` solves it by Lagrangian duality (Everett 1963): it
bisects the budget's shadow price lambda over the ordered doubles of
[0, inf], in at most 64 steps whatever the money scale, takes each agent's
maximizer of U_l(beta) - lambda*beta from the rises' closed forms, and
certifies the result with the dual bound.  This module is pure Python.
Given a grid step delta ``allocate`` runs the paper's grid DP instead, and on
a duality gap it runs it too, at step 0.01; only then does it import
``grid_dp``, which brings numpy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple

from .errors import InfeasibleBudget, ValidationError
from .single_agent import (
    AgentSpec,
    BetaCurve,
    BetaPiece,
    ContractChoice,
    _beats,
    _peak,
    beta_at,
    build_beta_curve,
)
from .tolerance import TOL


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

    ``base`` is the best peak among the clamped pieces (beta = 0; the first
    of tied peaks), or the contract at gamma = 1 when no piece is clamped.
    The unclamped pieces are then visited from gamma = 1 downward; a piece
    whose peak (the same floats ``solve_single`` compares) ``_beats`` the
    running best, by ``solve_single``'s tie rule, is recorded as a rise, and
    its peak becomes the running best.  So ``top`` is ``solve_single``'s
    contract.  Only the peaks kept become ``ContractChoice`` records.
    """
    bc = build_beta_curve(agent)
    beta_min = beta_at(bc, 1.0)
    kappa_i = agent.kappa_i

    base = None
    for piece in bc.pieces:
        if piece.clamped:
            gamma, beta, u = _peak(piece, kappa_i)
            if base is None or u > base.utility:
                base = ContractChoice(gamma, beta, piece.owner, u)
    if base is None:
        base = ContractChoice(1.0, beta_min, bc.pieces[-1].owner, -beta_min * kappa_i)

    rises: list[tuple[BetaPiece, float, ContractChoice]] = []
    best = base
    cursor = beta_min
    for piece in reversed(bc.pieces):
        if piece.clamped:
            continue
        lo = cursor
        hi = piece.beta(piece.gamma_lo)
        if hi <= lo:
            continue
        cursor = hi
        gamma, beta, u = _peak(piece, kappa_i)
        if _beats(gamma, beta, u, best.gamma, best.beta, best.utility):
            best = ContractChoice(gamma, beta, piece.owner, u)
            rises.append((piece, lo, best))

    return UtilityCurve(bc, beta_min, cursor, base, tuple(rises))


def best_contract_at(curve: UtilityCurve, beta_bar: float) -> ContractChoice:
    """Utility-maximizing contract among those with beta <= beta_bar.

    Ties between a rising stretch and the running max resolve toward the
    smaller beta, matching the single-agent tie-break.
    """
    if not beta_bar >= curve.beta_min - TOL:
        raise ValueError(
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


def _values(curve: UtilityCurve, caps: list[float]) -> list[float]:
    """``utility_at`` at each of ``caps``, with ``best_contract_at``'s float
    operations, in one walk over the caps and the rises together.

    The caps must be nondecreasing and at or above beta_min, where
    ``best_contract_at`` leaves them as they are.  A cap belongs to the last
    rise whose ``beta_lo`` is at or below it, as ``bisect_right`` decides, and
    is valued by that rise's peak and ``before`` rule.
    """
    kappa_i = curve.beta_curve.agent.kappa_i
    rises = iter(curve.rises)
    rise = next(rises, None)
    # below the first rise every cap is worth base, a peak at beta = -inf
    piece, peak_beta, top, before = None, -math.inf, curve.base.utility, None
    values = []
    for b in caps:
        while rise is not None and rise[1] <= b:
            piece, _, peak = rise
            before, peak_beta, top = top, peak.beta, peak.utility
            rise = next(rises, None)
        if b >= peak_beta:
            values.append(top)
        else:
            u = piece.utility(b, kappa_i)
            values.append(u if u > before else before)
    return values


def _flat_from(curve: UtilityCurve) -> float:
    """The least cap from which the utility envelope is flat: at or past the
    last rise's peak and its beta_lo, ``utility_at`` is that peak."""
    return max(curve.rises[-1][1], curve.top.beta) if curve.rises else curve.beta_min


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocationProblem:
    """Agents, an integer budget of inspectors, and an optional grid step.

    ``delta`` selects the paper's grid DP; without it ``allocate`` solves the
    split exactly.
    """

    agents: tuple[AgentSpec, ...]
    budget: int = 1
    delta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValidationError("at least one agent is required")
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValidationError(f"budget must be a positive integer, got {self.budget!r}")
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0):
            raise ValidationError(f"delta must be positive, got {self.delta!r}")


@dataclass(frozen=True)
class Allocation:
    """Caps per agent, the effective contracts below them, and quality bounds.

    ``sum(contracts[l].beta)`` may fall short of ``sum(caps)``: flat-envelope
    slack is not spent.  ``total_utility`` is within ``gap_bound`` of the best
    achievable over fractional caps.  On the grid DP path ``gap_bound`` is the
    a-priori Lipschitz bound at grid step ``delta``, and no dual is computed
    (``dual_bound`` and ``shadow_price`` are None).  On the exact path
    ``dual_bound`` is the Lagrangian dual's value at ``shadow_price`` (lambda*,
    the value of one more unit of budget), an upper bound on every feasible
    total and never below ``total_utility``, and ``gap_bound`` is the
    certified gap ``dual_bound - total_utility``; ``delta`` is None, or 0.01
    when the grid DP that runs on a duality gap gave the better total.
    ``shadow_price`` is inf when no finite price brings the caps within the
    budget; if the minimums then use the whole budget, ``dual_bound`` is
    their total.
    """

    caps: tuple[float, ...]
    contracts: tuple[ContractChoice, ...]
    total_utility: float
    gap_bound: float
    delta: float | None
    dual_bound: float | None = None
    shadow_price: float | None = None


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


def _shifted_argmax(curve: UtilityCurve, lam: float, u0: float) -> tuple[float, float]:
    """The least cap maximizing U(cap) - lam * cap, and U there.

    Past a rise's peak the envelope is flat, and where the running best still
    beats a rise it is flat at the previous peak, so the maximizer is beta_min,
    a rise's peak, or the point of a rise where the slope of U equals lam:
    the piece's peak at price kappa_i + lam (``_peak``), clamped into
    [beta_lo, peak.beta].  ``u0`` is U(beta_min), the first candidate.  The
    others are raised to beta_min, sorted (a peak can round below its own
    beta_lo) and valued in one ``_values`` walk, so the first best is the least.
    """
    rate = curve.beta_curve.agent.kappa_i + lam
    b0 = best_b = curve.beta_min
    best_u = best_v = u0
    caps = []
    for piece, lo, peak in curve.rises:
        stationary = _peak(piece, rate)[1]
        # a peak can round below beta_min, which is not a cap
        caps += (max(min(max(stationary, lo), peak.beta), b0), max(peak.beta, b0))
    caps.sort()
    for b, u in zip(caps, _values(curve, caps)):
        v = u - lam * (b - b0)
        if v > best_v:
            best_b, best_u, best_v = b, u, v
    return best_b, best_u


class _Priced(NamedTuple):
    """Every agent's least maximizer of U_l(beta) - lam*beta, and U_l there."""

    lam: float
    caps: list[float]
    utilities: list[float]
    used: float  # fsum of the caps, so agent order does not matter


def _priced(curves: list[UtilityCurve], lam: float, top: _Priced) -> _Priced:
    """The maximizers at price lam; ``top``, the point at lam = inf, holds each
    agent's U(beta_min)."""
    points = [_shifted_argmax(c, lam, u0) for c, u0 in zip(curves, top.utilities)]
    caps = [b for b, _ in points]
    return _Priced(lam, caps, [u for _, u in points], math.fsum(caps))


def _midpoint(lo: float, hi: float) -> float:
    """The double halfway from lo to hi, two nonnegative doubles, in their order.

    Nonnegative doubles order as their IEEE bit patterns do as integers, so
    halving the patterns' sum halves the doubles left between the ends: any
    bracket in [0, inf] closes to adjacent doubles within 63 halvings,
    whatever its scale.
    """
    a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]


def _lagrangian(problem: AllocationProblem, curves: list[UtilityCurve]) -> Allocation:
    """The Lagrangian primal at the budget's shadow price, with its dual bound.

    For a price lam >= 0, D(lam) = lam*B + sum_l max_beta [U_l(beta) - lam*beta]
    bounds every feasible total from above.  lam* is bisected on the
    subgradient, the budget minus the least maximizers' sum, over the ordered
    doubles of [0, inf].  At lam = inf every cap is its beta_min, which fits
    by Assumption 3, so that point tops the bracket; halving the doubles
    between the ends (``_midpoint``) closes it to adjacent doubles lo < hi,
    infeasible and feasible, in at most 64 evaluations whatever the money
    scale.  The primal takes the maximizers at hi.  The budget they leave
    goes first to agents whose maximizer jumps between hi and lo, each taking
    its whole jump while it fits (largest first), then what remains to the
    agent it raises most, nudged down until the caps' ``fsum`` fits.  Ties in
    either go to the larger cap, not the earlier agent, so the split does not
    depend on agent order.  The dual bound is the smaller of D(lo) and D(hi),
    floored at the primal's total, which a rounded D can fall below; when the
    curves are concave it meets that total.  D(inf) is inf, or the minimums'
    total when they use the whole budget, and the shadow price is inf when no
    finite price fits.
    """
    _spare_budget(problem, curves)
    mins = [c.beta_min for c in curves]
    top = _Priced(math.inf, mins, [utility_at(c, b) for c, b in zip(curves, mins)],
                  math.fsum(mins))
    # minimums within TOL above the budget pin every agent to its minimum
    limit = max(float(problem.budget), top.used)
    lo = hi = _priced(curves, 0.0, top)
    if hi.used > limit:
        hi = top
    while lo.lam < (mid := _midpoint(lo.lam, hi.lam)) < hi.lam:
        point = _priced(curves, mid, top)
        if point.used > limit:
            lo = point
        else:
            hi = point
    # a point that uses the whole budget has no price term: inf * 0 is nan
    dual = min(math.fsum(p.utilities) + (p.lam * (limit - p.used) if p.used != limit else 0.0)
               for p in (lo, hi))

    caps = list(hi.caps)
    jumps = sorted(
        ((up - b, up, l) for l, (up, b) in enumerate(zip(lo.caps, caps)) if up > b), reverse=True
    )
    for *_, l in jumps:
        before, caps[l] = caps[l], lo.caps[l]
        if math.fsum(caps) > limit:
            caps[l] = before
    left = limit - math.fsum(caps)
    if left > 0.0:
        raises = []
        for l, (c, b) in enumerate(zip(curves, caps)):
            # past where the envelope goes flat more cap gains nothing
            cap = min(b + left, max(_flat_from(c), b))
            raises.append((utility_at(c, cap) - utility_at(c, b), cap, l))
        gain, cap, l = max(raises)
        if gain > 0.0:
            caps[l] = cap
            while math.fsum(caps) > limit:
                caps[l] = math.nextafter(caps[l], -math.inf)

    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = math.fsum(ch.utility for ch in contracts)
    # a true dual bounds every feasible total, so D's rounding below it is lost
    dual = max(dual, total)
    return Allocation(tuple(caps), contracts, total, dual - total, None, dual, hi.lam)


def allocate(problem: AllocationProblem) -> Allocation:
    """Split the inspection budget across agents.

    With ``delta`` this is the paper's grid DP (``grid_dp``).  Otherwise
    it is the Lagrangian primal (``_lagrangian``), whose ``gap_bound`` is
    certified by the dual.  A gap above ``TOL`` * sum_l R_n means the curves
    are not concave near lambda* (a duality gap); the DP then also runs, at
    step 0.01, and the better total is returned with its own certified gap.
    A grid over the size limits leaves the exact split.  Agents whose best
    or base utilities sum past the double range are invalid input: every
    split's total lies between those two sums.
    """
    curves = [build_utility_curve(a) for a in problem.agents]
    for which in ("top", "base"):
        try:
            math.fsum(getattr(c, which).utility for c in curves)
        except OverflowError:
            raise ValidationError(
                f"the agents' {which} utilities sum past the double range"
            ) from None
    if problem.delta is None:
        exact = _lagrangian(problem, curves)
        if exact.gap_bound <= math.fsum(TOL * a.money_scale for a in problem.agents):
            return exact
    # grid_dp loads numpy, which the exact split without a gap never needs
    from .grid_dp import _allocate_dp

    if problem.delta is not None:
        return _allocate_dp(problem, curves)
    try:
        grid = _allocate_dp(replace(problem, delta=0.01), curves)
    except ValidationError:
        return exact
    if grid.total_utility <= exact.total_utility:
        return exact
    dual = max(exact.dual_bound, grid.total_utility)
    return replace(grid, gap_bound=dual - grid.total_utility, dual_bound=dual,
                   shadow_price=exact.shadow_price)
