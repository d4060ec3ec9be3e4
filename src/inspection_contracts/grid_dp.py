"""The paper's budget split: a dynamic program over a grid of caps.

``allocate`` runs it given a grid step delta, and the exact split runs it
too, at step 0.01, on a duality gap.  Caps are rewritten as bar_beta^l =
beta_min^l + x^l, and the x^l range over a delta grid of each agent's
candidate caps; the loss to that discretization is bounded by the Lipschitz
constants of the curves (``gap_bound``).  Each agent's grid caps are priced
by ``multi_agent._values``, the curve's own rule, and the DP fills each row
of its value table in one numpy pass over the band of cells a backtrack from
the budget can read, in blocks of etas' (max,+) sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .multi_agent import (
    Allocation,
    AllocationProblem,
    UtilityCurve,
    _flat_from,
    _spare_budget,
    _values,
    best_contract_at,
)
from .single_agent import AgentSpec
from .tolerance import TOL, grid_steps


# Largest DP grid, agents x (budget steps + 1), that allocate accepts; a finer
# delta is rejected as invalid input before any grid array is built.  Each
# cell costs one float64 in the value table (8 bytes, 160 MB at the limit) and
# at most one gain (a utility evaluation), so this bounds the grid's memory;
# 2e7 is 4x the m=1000, B=50, delta=0.01 grid.
MAX_DP_CELLS = 20_000_000
# Most candidate sums the DP may take, counted as sum_l len(gains_l) x (budget
# steps + 1) whatever its bands leave out: 8x the m=100, B=10, delta=1e-3 DP.
# At the limit, where every band but the last is the whole row (4 agents of
# 22,361 gains, 22,360 steps), it takes about 0.32 ns per counted sum, about
# 0.65 s on a 2-CPU x86_64 host (numpy 2.4).  Each agent's gains hold at most
# one saturation entry past its counted caps, so sum_l len(gains_l) x (steps +
# 1) is at most MAX_DP_WORK + MAX_DP_CELLS, and the lesser factor, which bounds
# every band and reach of ``_dp``, is below w = isqrt of that + 1 = 44,945,
# under ``_DP_PASS_SUMS``.  So no pass holds more than ``_DP_PASS_SUMS`` sums,
# and the scratch besides the table, 8 x (max(``_DP_PASS_SUMS``, w) + 3w)
# bytes, stays under 2.4 MB (1.6 MB at the limits).
MAX_DP_WORK = 2_000_000_000


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


# Most candidate sums rows[l][j-eta] + g[eta] that one numpy pass of ``_dp``
# holds, 512 KB: a band is taken in blocks of as many etas as fit, at least one.
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
    for eta <= min(j, r_l).  The cells the band reads are copied once into a
    scratch row whose slots for budgets below 0 hold -inf, so a sum there is
    -inf (every gain is finite) and never the largest.  A strided window over
    that row adds ``g[:, None]`` to a block of etas, over the cells they
    reach, and a max over eta folds the block into the band; each pass holds
    at most ``_DP_PASS_SUMS`` sums, or one eta's.  Those are the additions the
    per-cell definition makes, so every computed cell is exactly the largest
    of its sums, and ``_units`` recovers the eta that made it.  The scratch
    memory besides the table, the pass's sums, the scratch row and a block's
    maximum, is at most max(``_DP_PASS_SUMS``, w) + 3w floats, where w =
    min(sum_l len(g_l), steps + 1) bounds every band's width and every r_l.
    """
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
    most = max(hi - lo + 1 for lo, hi in bands)
    # buf[pad + i] holds rows[l][lo + i], so win[i, pad - eta] is
    # rows[l][lo + i - eta]
    buf = np.empty(pad + most)
    win = np.lib.stride_tricks.sliding_window_view(buf, pad + 1)
    sums = np.empty(min(max(_DP_PASS_SUMS, most), (pad + 1) * most))
    best = np.empty(most)
    for l, (g, r, (lo, hi)) in enumerate(zip(gains, reach, bands)):
        prev, row = rows[l], rows[l + 1]
        width, back = hi + 1 - lo, min(r, lo)
        buf[: pad - back] = -np.inf
        buf[pad - back : pad + width] = prev[lo - back : hi + 1]
        band = row[lo : hi + 1]
        per = max(_DP_PASS_SUMS // width, 1)
        # etas e0 to e1 - 1 have sums from cell max(lo, e0) on
        for e0 in range(0, r + 1, per):
            e1 = min(e0 + per, r + 1)
            i0 = max(e0 - lo, 0)
            cand = sums[: (e1 - e0) * (width - i0)].reshape(e1 - e0, width - i0)
            taps = win[i0:width, pad + 1 - e1 : pad + 1 - e0][:, ::-1]
            np.add(taps.T, g[e0:e1, None], out=cand)
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


def _prepare_grid(problem: AllocationProblem, curves: list[UtilityCurve]):
    """The budget steps, and each agent's candidate caps and gains.

    Each agent's caps beta_min + eta * delta stop at the first one at or past
    where its utility envelope goes flat (later caps only tie with it, and the
    DP keeps the first of tied choices), or else at beta_cap or the spare
    budget, with a saturation cap; the size limits count caps to the latter.
    The caps are Python floats, built and priced (``_values``) one agent at a
    time; only the gains become arrays, for ``_dp``.
    """
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
    grid, gains = [], []
    for c, cap, n in zip(curves, caps_x, sizes):
        lo, flat, caps = c.beta_min, _flat_from(c), []
        for eta in range(n):
            b = eta * delta + lo
            caps.append(b)
            if b >= flat:
                break
        else:
            # no cap reached the flat point; saturation, entry n: reaching the
            # flat region exactly costs a rounded-up number of units but can
            # beat every grid point before it
            if cap > (n - 1) * delta and n <= steps:
                caps.append(lo + cap)
        grid.append(caps)
        gains.append(np.subtract(_values(c, caps), c.base.utility))
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
