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
single-agent contract; every piece formula is a ``BetaPiece`` method, which
only ``_values`` repeats, with the same float operations over whole cap
grids, so money enters each only as a ratio.
Splitting the budget is then a multiple-choice-knapsack-style problem.  By
default ``allocate`` solves it by Lagrangian duality (Everett 1963): it
bisects the budget's shadow price lambda over the ordered doubles of
[0, inf], in at most 64 steps whatever the money scale, takes each agent's
maximizer of U_l(beta) - lambda*beta from the rises' closed forms, and
certifies the result with the dual bound; this path is pure Python.  Given a
grid step delta it runs the paper's method instead, a dynamic program over a
delta grid of each agent's candidate caps, whose discretization loss is
bounded by the Lipschitz constants of the curves; the exact split runs it
too, at step 0.01, on a duality gap.  ``_values`` prices every agent's grid
caps in one vectorized pass, and the DP fills each row of its value table
only over the band of cells a backtrack from the budget can read, in blocks
of (max,+) sums.  Only the DP and ``_values`` import numpy.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import InfeasibleBudget, ValidationError
from .single_agent import (
    AgentSpec,
    BetaCurve,
    BetaPiece,
    ContractChoice,
    beta_at,
    build_beta_curve,
)
from .tolerance import TOL, grid_steps

if TYPE_CHECKING:
    import numpy as np


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


def _flat_from(curve: UtilityCurve) -> float:
    """The least cap from which the utility envelope is flat: at or past the
    last rise's peak and its beta_lo, ``utility_at`` is that peak."""
    return max(curve.rises[-1][1], curve.top.beta) if curve.rises else curve.beta_min


# ---------------------------------------------------------------------------
# budget allocation
# ---------------------------------------------------------------------------


# Largest DP grid, agents x (budget steps + 1), that allocate accepts; a finer
# delta is rejected as invalid input before any grid array is built.  Each
# cell costs one float64 in the value table (8 bytes, 160 MB at the limit) and
# at most one gain (a utility evaluation), so this bounds the grid's memory;
# 2e7 is 4x the m=1000, B=50, delta=0.01 grid.
MAX_DP_CELLS = 20_000_000
# Most candidate sums the DP may take, counted as sum_l len(gains_l) x (budget
# steps + 1) whatever its bands leave out: 8x the m=100, B=10, delta=1e-3 DP.
# At the limit, where every band but the last is the whole row (4 agents of
# 22,361 gains, 22,360 steps), it takes about 0.4 ns per counted sum, 0.75-0.95
# s on a 2-CPU x86_64 host (numpy 2.4).  Its scratch besides the table stays
# under 2.4 MB.
MAX_DP_WORK = 2_000_000_000


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
    total, and ``gap_bound`` is the certified gap ``dual_bound -
    total_utility``; ``delta`` is None, or 0.01 when the grid DP that runs on
    a duality gap gave the better total.  ``shadow_price`` is inf when no
    finite price brings the caps within the budget; if the minimums then use
    the whole budget, ``dual_bound`` is their total.
    """

    caps: tuple[float, ...]
    contracts: tuple[ContractChoice, ...]
    total_utility: float
    gap_bound: float
    delta: float | None
    dual_bound: float | None = None
    shadow_price: float | None = None


def _curvature(agent: AgentSpec) -> float:
    """R_n^2 / kappa_s, as R_n * (R_n / kappa_s) so no money is squared; 0 for a
    kappa_s of 0, which collapses the curve to a point."""
    if agent.kappa_s == 0.0:
        return 0.0
    return agent.money_scale * (agent.money_scale / agent.kappa_s)


def gap_bound(problem: AllocationProblem, delta: float) -> float:
    """Upper bound on the DP's loss to discretization at grid step delta, in
    money: delta * sum_l max(R_n^2 / kappa_s - kappa_i, 0)."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    return delta * sum(max(_curvature(a) - a.kappa_i, 0.0) for a in problem.agents)


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


# Most candidate sums rows[l][j-eta] + g[eta] that one numpy pass of ``_dp``
# holds, 512 KB: a band is taken in chunks of at most this many cells, and a
# chunk in blocks of as many etas as fit.
_DP_PASS_SUMS = 1 << 16


def _dp(gains: list[np.ndarray], steps: int) -> np.ndarray:
    """Fill the budget-allocation value table row by row, over the cells a
    backtrack from budget ``steps`` can read.

    ``gains[l][eta]`` is agent l's utility gain from eta grid steps above its
    minimum inspection.  Returns the table ``rows``, (m + 1) x (steps + 1):
    ``rows[l][j]`` is the best gain of the first l agents within j budget
    steps, and ``rows[0]`` is 0.  Agent l reaches r_l = min(len(g_l) - 1,
    steps) steps.  A backtrack from ``steps`` leaves the first l agents at
    least lo_l = steps - sum_{l' >= l} r_l' (floored at 0), and those agents
    spend at most hi_l = sum_{l' < l} r_l' (capped at ``steps``), so every cell
    past hi_l is the largest of the same sums as cell hi_l.  Row l computes
    its band, cells min(lo_l, hi_l) to hi_l, copies cell hi_l into the cells
    above, and leaves the cells below NaN: the table answers backtracks from
    its own budget only, and a misread cell cannot pass unnoticed.

    Each band is one (max,+) convolution of the previous row with the
    agent's gains: cell j takes the largest of ``rows[l][j-eta] + g[eta]``
    for eta <= min(j, r_l).  A strided window over the previous row adds
    ``g[:, None]`` to a block of etas, over the cells they reach, and a max
    over eta folds the block into the row; each pass holds at most
    ``_DP_PASS_SUMS`` sums.  Those are the additions the per-cell definition
    makes, so every computed cell is exactly the largest of its sums, and
    ``_units`` recovers the eta that made it.  The scratch memory besides the
    table is O(``_DP_PASS_SUMS`` + max_l r_l).
    """
    import numpy as np

    size = steps + 1
    reach = [min(len(g), size) - 1 for g in gains]
    rows = np.empty((len(gains) + 1, size))
    rows[0] = 0.0
    bands, later, hi = [], sum(reach), 0
    for r in reach:
        later -= r
        hi = min(hi + r, steps)
        bands.append((min(max(steps - later, 0), hi), hi))
    pad = max(reach)
    chunk = min(max(hi - lo + 1 for lo, hi in bands), _DP_PASS_SUMS)
    # buf[pad + i] holds rows[l][c0 + i] for a chunk of cells from c0, so
    # win[i, pad - eta] is rows[l][c0 + i - eta]; where c0 + i - eta < 0 it
    # reads the pad or an earlier chunk's cell, a sum that is masked
    buf = np.zeros(pad + chunk)
    win = np.lib.stride_tricks.sliding_window_view(buf, pad + 1)
    sums = np.empty(min(_DP_PASS_SUMS, (pad + 1) * chunk))
    best = np.empty(chunk)
    count = np.arange(pad + 1)
    for l, (g, r, (lo, hi)) in enumerate(zip(gains, reach, bands)):
        prev, row = rows[l], rows[l + 1]
        for c0 in range(lo, hi + 1, chunk):
            width = min(chunk, hi + 1 - c0)
            back = min(r, c0)
            buf[pad - back : pad + width] = prev[c0 - back : c0 + width]
            band = row[c0 : c0 + width]
            per = _DP_PASS_SUMS // width
            # etas e0 to e1 - 1 have sums from cell j0 = max(c0, e0) on
            for e0 in range(0, min(r, c0 + width - 1) + 1, per):
                e1 = min(e0 + per, r + 1)
                i0 = max(e0 - c0, 0)
                j0 = c0 + i0
                cand = sums[: (e1 - e0) * (width - i0)].reshape(e1 - e0, width - i0)
                taps = win[i0:width, pad + 1 - e1 : pad + 1 - e0][:, ::-1]
                np.add(taps.T, g[e0:e1, None], out=cand)
                if e1 - 1 > j0:
                    # the block's later etas have no sum at its first cells
                    cols = min(width - i0, e1 - 1 - j0)
                    np.copyto(cand[:, :cols], -np.inf,
                              where=np.greater.outer(count[e0:e1], count[j0 : j0 + cols]))
                if e0 == 0:
                    np.maximum.reduce(cand, axis=0, out=band)
                else:
                    np.maximum.reduce(cand, axis=0, out=best[: width - i0])
                    np.maximum(band[i0:], best[: width - i0], out=band[i0:])
        row[hi + 1 :] = row[hi]
        row[:lo] = np.nan
    return rows


def _units(rows: np.ndarray, gains: list[np.ndarray], j: int) -> list[int]:
    """Each agent's grid steps in the best split of j budget steps, from the
    table ``_dp(gains, j)`` built for that budget.

    Walks the agents from last to first.  An agent's cell in ``rows`` is the
    largest of its sums ``rows[l][j-eta] + g[eta]``, so the first eta whose
    sum equals it is the least eta making it: on a tie the agent spends less
    (no inspection wasted on flat curves).  A cell no sum reproduces, such as
    a NaN cell outside the band of a table built for another budget, raises
    RuntimeError.
    """
    units = [0] * len(gains)
    for l in range(len(gains) - 1, -1, -1):
        g = gains[l]
        k = min(len(g), j + 1)
        sums = rows[l, j::-1][:k] + g[:k]
        eta = int((sums == rows[l + 1, j]).argmax())
        if not sums[eta] == rows[l + 1, j]:
            raise RuntimeError(
                f"no grid step of agent {l} reproduces the DP cell {rows[l + 1, j]} "
                f"at budget step {j}"
            )
        units[l] = eta
        j -= eta
    return units


def _values(curves: list[UtilityCurve], grids: list) -> list[np.ndarray]:
    """``utility_at`` at every cap of every agent's grid, with
    ``best_contract_at``'s float operations.

    One coefficient table holds every agent's rises, each agent's led by a
    row for its ``base`` with a peak at beta = -inf.  Each cap, raised to its
    agent's beta_min, gathers the row of the last rise starting at or below
    it (one ``searchsorted`` per agent), or the base row below the first
    rise; the arithmetic then runs once over all caps.  At or past a row's
    peak the value is the peak's, so the base row gives ``base``'s utility.
    """
    import numpy as np

    counts = [len(g) for g in grids]
    mins = np.repeat([c.beta_min for c in curves], counts)
    b = np.maximum(np.concatenate(grids), mins)
    table, lead = [], []
    for c in curves:
        lead.append(len(table))
        kappa_i = c.beta_curve.agent.kappa_i
        u = c.base.utility
        table.append((0.0, 0.0, 0.0, 0.0, -math.inf, u, u, kappa_i))
        for piece, _, peak in c.rises:
            table.append((piece.r_own, piece.d, piece.c_const, piece.gamma_hi,
                          peak.beta, peak.utility, u, kappa_i))
            u = peak.utility
    starts = np.cumsum([0] + counts)
    row = np.concatenate([
        np.searchsorted([lo for _, lo, _ in c.rises], b[start:end], side="right")
        for c, start, end in zip(curves, starts[:-1], starts[1:])
    ]) + np.repeat(lead, counts)
    r_own, d, c_const, gamma_hi, peak_beta, peak_u, before, kappa_i = np.array(table)[row].T
    denom = (r_own - d) + b * d
    flat = denom == 0.0
    # Python floats overflow to inf, and 0 * inf gives nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.where(flat, gamma_hi, c_const / np.where(flat, 1.0, denom))
        u = (1.0 - gamma) * r_own - b * kappa_i
    u = np.where(b >= peak_beta, peak_u, np.where(u > before, u, before))
    return [u[start:end] for start, end in zip(starts[:-1], starts[1:])]


def _prepare_grid(problem: AllocationProblem, curves: list[UtilityCurve]):
    """The budget steps, and each agent's candidate caps and gains.

    Each agent's caps beta_min + eta * delta stop at the first one at or past
    where its utility envelope goes flat (later caps only tie with it, and the
    DP keeps the first of tied choices), or else at beta_cap or the spare
    budget, with a saturation cap; the size limits count caps to the latter.
    The caps are built for all agents in a few array passes and kept as
    Python floats, and ``_values`` prices them all in one pass.
    """
    import numpy as np

    spare = _spare_budget(problem, curves)
    delta = problem.delta
    steps = grid_steps(spare, delta)
    if len(curves) * (steps + 1) > MAX_DP_CELLS:
        raise ValidationError(
            f"delta = {delta!r} needs a DP grid of {len(curves) * (steps + 1.0):.3g} cells "
            f"({len(curves)} agents x budget steps), above the limit of "
            f"{MAX_DP_CELLS:,}; use a larger delta"
        )
    caps_x = [min(c.beta_cap - c.beta_min, spare) for c in curves]
    sizes = [grid_steps(cap, delta) + 1 for cap in caps_x]
    work = sum(sizes) * (steps + 1)
    if work > MAX_DP_WORK:
        raise ValidationError(
            f"delta = {delta!r} needs {work:.3g} DP candidate sums, above the limit of "
            f"{MAX_DP_WORK:,}; use a larger delta"
        )
    # every agent's caps beta_min + eta * delta, eta < its size, end to end; each
    # agent's first cap at or past its flat point is its count of caps below it
    starts = np.cumsum([0] + sizes[:-1])
    eta = np.arange(sum(sizes))
    eta -= np.repeat(starts, sizes)
    betas = eta * delta
    betas += np.repeat([c.beta_min for c in curves], sizes)
    ends = np.add.reduceat(betas < np.repeat([_flat_from(c) for c in curves], sizes),
                           starts, dtype=np.intp).tolist()
    grid = []
    for c, cap, start, n, end in zip(curves, caps_x, starts.tolist(), sizes, ends):
        caps = betas[start : start + min(end + 1, n)].tolist()
        if end == n and cap > (n - 1) * delta and n <= steps:
            # saturation, entry n: reaching the flat region exactly costs a
            # rounded-up number of units but can beat every grid point before it
            caps.append(c.beta_min + cap)
        grid.append(caps)
    gains = [v - c.base.utility for c, v in zip(curves, _values(curves, grid))]
    return steps, gains, grid


def _allocate_dp(problem: AllocationProblem, curves: list[UtilityCurve]) -> Allocation:
    """The paper's method: split the budget by dynamic programming on a grid.

    Rewrites caps as bar_beta^l = beta_min^l + x^l so every agent keeps its
    minimum, then optimizes the x^l over a delta grid, each agent's grid
    cut at its first point where its utility envelope is flat (the slack
    returns to the pool).  Budget indices are integers throughout; x^l is
    recovered by backtracking through the value table.
    """
    steps, gains, grid = _prepare_grid(problem, curves)
    rows = _dp(gains, steps)

    units = _units(rows, gains, steps)
    caps = [betas[eta] for betas, eta in zip(grid, units)]
    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = math.fsum(ch.utility for ch in contracts)
    check = sum(c.base.utility for c in curves) + rows[-1, steps]
    # both sides add the same m utilities and m bases in different orders; each
    # amount is scaled before the sum, which two amounts near the double range
    # would overflow
    tol = TOL * len(curves)
    slack = math.fsum(tol * abs(u) for c, ch in zip(curves, contracts)
                      for u in (ch.utility, c.base.utility))
    if abs(total - check) > slack:
        raise RuntimeError(
            f"DP value {check} disagrees with backtracked total {total}"
        )
    return Allocation(
        tuple(caps), contracts, total, gap_bound(problem, problem.delta), problem.delta
    )


def _shifted_argmax(curve: UtilityCurve, lam: float, u0: float) -> tuple[float, float]:
    """The least cap maximizing U(cap) - lam * cap, and U there.

    Past a rise's peak the envelope is flat, and where the running best still
    beats a rise it is flat at the previous peak, so the maximizer is beta_min,
    a rise's peak, or the point of a rise where the slope of U equals lam:
    the piece's ``stationary`` point at price kappa_i + lam, clamped into
    [beta_lo, peak.beta].  ``u0`` is U(beta_min), the first candidate; each
    other candidate is valued with ``utility_at``.
    """
    rate = curve.beta_curve.agent.kappa_i + lam
    b0 = best_b = curve.beta_min
    best_u = best_v = u0
    for piece, lo, peak in curve.rises:
        # a rise's d is positive: its peak, computed already, divides by it
        stationary = piece.beta(piece.stationary(rate)) if rate > 0.0 else peak.beta
        for b in (min(max(stationary, lo), peak.beta), peak.beta):
            # a peak can round below beta_min, which is not a cap
            b = max(b, b0)
            u = utility_at(curve, b)
            v = u - lam * (b - b0)
            if v > best_v or (v == best_v and b < best_b):
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
    depend on agent order.  The dual bound is the smaller of D(lo) and D(hi);
    when the curves are concave it meets the primal's total.  D(inf) is inf,
    or the minimums' total when they use the whole budget, and the shadow
    price is inf when no finite price fits.
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
    return Allocation(
        tuple(caps), contracts, total, max(dual - total, 0.0), None, dual, hi.lam
    )


def allocate(problem: AllocationProblem) -> Allocation:
    """Split the inspection budget across agents.

    With ``delta`` this is the paper's grid DP (``_allocate_dp``).  Otherwise
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
    if problem.delta is not None:
        return _allocate_dp(problem, curves)
    exact = _lagrangian(problem, curves)
    if exact.gap_bound <= math.fsum(TOL * a.money_scale for a in problem.agents):
        return exact
    try:
        grid = _allocate_dp(replace(problem, delta=0.01), curves)
    except ValidationError:
        return exact
    if grid.total_utility <= exact.total_utility:
        return exact
    gap = max(exact.dual_bound - grid.total_utility, 0.0)
    return replace(grid, gap_bound=gap, dual_bound=exact.dual_bound,
                   shadow_price=exact.shadow_price)
