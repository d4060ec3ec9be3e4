"""Single-agent linear contracts backed by random safety inspections.

An agent picks an effort level i and a safety bit s.  Under the linear
contract (gamma, beta) the agent is paid gamma * reward and is inspected with
probability beta; an inspected unsafe action forfeits the payment.  Agent
utilities are

    safe:    gamma*R_i - c_i - kappa_s
    unsafe:  (1 - beta)*(1 - alpha)*gamma*R_i - c_i

where alpha is the probability that skipping the safety step backfires on its
own.  The principal earns (1 - gamma)*R_i - beta*kappa_i when the implemented
action is safe, minus infinity if the agent goes unsafe, and 0 if the agent
walks away.

The key object is the inspection-requirement curve beta(gamma): the least
inspection probability that deters every unsafe deviation at payment share
gamma.  Writing u_h for the upper envelope of the lines gamma*R_i - c_i and
gamma_tilde = u_h^{-1}(u_h(gamma) - kappa_s), it has the closed form

    beta(gamma) = max(1 - gamma_tilde / (gamma*(1 - alpha)), 0)

defined for gamma >= gamma_ir = u_h^{-1}(kappa_s).  The curve is decreasing,
and convex between envelope breakpoints but not globally.  On each piece where
both the owning segment (at gamma) and the shadow segment (at gamma_tilde) are
fixed, the principal's utility is concave in gamma with its stationary point
in closed form, so each piece has one best contract (its peak).  The optimal
contract is the best peak, and the multi-agent utility curve is the running
best of the same peaks in beta order.  Each ``BetaPiece`` stores its
coefficients and owns the closed forms of beta at gamma and of gamma and
utility at beta; ``_peak`` computes its peak's floats.

No scalar parameter enters the upper envelope, so an ``AgentSpec`` holds
its checked columns and their envelope in one ``ActionSet``, which every
curve of the agent reuses and every spec made from it by
``dataclasses.replace`` shares.  A kappa_s or alpha sweep row is such a
spec, and a kappa_i sweep reuses the whole curve: kappa_i enters only the
peaks.

A solve builds a record per piece but compares the peaks as plain floats
(``_peak``), so only the best peak, or a utility curve's rises, become
records.  The solver's records (``BetaPiece``, ``BetaCurve``,
``ContractChoice`` and ``SweepPoint``) are named tuples, the cheapest
immutable record to build: hashable, equal by value, and equal to plain
tuples of the same values.  ``Contract``, ``SingleAgentSolution`` and
``AgentSpec`` are frozen dataclasses.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import NamedTuple

from .envelope import ActionSet, eval_envelope, invert_envelope
from .errors import InfeasibleSafety, ValidationError
from .tolerance import TOL


_PARAMS = ("kappa_s", "kappa_i", "alpha")


def _check_param(name: str, value: float) -> None:
    """The range check on one of ``AgentSpec``'s scalar fields."""
    if name == "kappa_s":
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"kappa_s must be >= 0, got {value!r}")
    elif name == "kappa_i":
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"kappa_i must be > 0, got {value!r}")
    elif not (0.0 <= value < 1.0):
        raise ValidationError(f"alpha must lie in [0, 1), got {value!r}")


@dataclass(frozen=True)
class AgentSpec:
    """One agent: its checked actions plus the three cost/probability parameters.

    ``actions`` is an ``ActionSet``: the columns ``rewards`` and ``costs``,
    sorted by cost and checked, and their upper envelope.  Given ``Action``
    records instead, the spec builds the set from them.  The field ranges
    are checked on construction too, after the actions; the solvers trust a
    built spec.  None of kappa_s, kappa_i or alpha enters the envelope, so
    ``dataclasses.replace`` on a scalar field shares the set, unchecked and
    unscanned, and every curve and every sweep row reuses it.  Feasibility
    of safety (Assumption 2, max(R_i - c_i) > kappa_s) is checked by
    ``check_safety``, which the curve builders and the loader call.
    """

    actions: ActionSet
    kappa_s: float
    kappa_i: float
    alpha: float

    def __post_init__(self) -> None:
        if not isinstance(self.actions, ActionSet):
            acts = tuple(self.actions)
            object.__setattr__(
                self, "actions", ActionSet([a.reward for a in acts], [a.cost for a in acts])
            )
        for name in _PARAMS:
            _check_param(name, getattr(self, name))

    @property
    def n(self) -> int:
        return len(self.actions.rewards)

    @property
    def money_scale(self) -> float:
        """R_n, the largest reward: money slacks are ``TOL * money_scale``."""
        return self.actions.rewards[-1]


@dataclass(frozen=True)
class Contract:
    """A payment share and an inspection probability, both in [0, 1]."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (-TOL <= self.gamma <= 1 + TOL):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if not (-TOL <= self.beta <= 1 + TOL):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")


class ContractChoice(NamedTuple):
    """A concrete contract together with the action it implements."""

    gamma: float
    beta: float
    action: int
    utility: float


def _beta_raw(r_own: float, c_const: float, d: float, gamma: float) -> float:
    # right-limit at gamma = 0 (reachable only when kappa_s = 0 and c_1 = 0,
    # where c_const is 0 and the piece is constant, or negative when action
    # 1's reward is 0 too and the next hull action is the shadow)
    if gamma <= 0.0:
        if c_const == 0.0:
            return 1.0 - r_own / d
        return math.inf if c_const > 0.0 else -math.inf
    return 1.0 - (r_own * gamma - c_const) / (d * gamma)


class BetaPiece(NamedTuple):
    """Maximal gamma interval on which beta(gamma) has a single closed form.

    ``owner`` is the action dominant at gamma, ``shadow`` the action whose
    envelope segment contains gamma_tilde.  The piece keeps its coefficients:
    ``r_own`` = R_owner, ``c_const`` = c_owner + kappa_s - c_shadow and ``d`` =
    R_shadow*(1 - alpha), with beta(gamma) = 1 - (r_own*gamma - c_const) /
    (d*gamma).  On a clamped piece the deterrence constraint is slack and
    beta(gamma) = 0.  Money enters every closed form only as a ratio of two
    amounts, so none overflows in any currency unit.
    """

    gamma_lo: float
    gamma_hi: float
    owner: int
    shadow: int
    clamped: bool
    r_own: float
    c_const: float
    d: float

    def beta(self, gamma: float) -> float:
        """beta(gamma), clamped into [0, 1]."""
        if self.clamped:
            return 0.0
        return min(max(_beta_raw(self.r_own, self.c_const, self.d, gamma), 0.0), 1.0)

    def gamma(self, beta: float) -> float:
        """The inverse of ``beta`` on an unclamped piece."""
        # grouped so a tiny beta is not lost to cancellation in 1 - beta
        denom = (self.r_own - self.d) + beta * self.d
        if denom == 0.0:
            # owner = shadow and alpha = 0, where beta only tends to 0 as gamma
            # grows: a beta rounded to 0 is reached at the piece's right end
            return self.gamma_hi
        return self.c_const / denom

    def utility(self, beta: float, kappa_i: float) -> float:
        """The principal's utility at inspection ``beta`` on this piece."""
        return (1.0 - self.gamma(beta)) * self.r_own - beta * kappa_i


def _peak(piece: BetaPiece, kappa_i: float) -> tuple[float, float, float]:
    """The (gamma, beta, utility) of a piece's best contract, as plain floats.

    On an unclamped piece the utility (1 - gamma)*r_own - beta(gamma)*kappa_i
    is concave and the peak is its stationary point sqrt(kappa_i*c_const /
    (r_own*d)), in ratios, clamped into the piece.  On a clamped piece beta
    is 0 and the utility falls in gamma, so the peak is the left end.
    """
    gamma_lo, gamma_hi, _, _, clamped, r_own, c_const, d = piece
    if clamped:
        return gamma_lo, 0.0, (1.0 - gamma_lo) * r_own
    root = math.sqrt(kappa_i / r_own) * math.sqrt(max(c_const / d, 0.0))
    gamma = min(max(root, gamma_lo), gamma_hi)
    beta = min(max(_beta_raw(r_own, c_const, d, gamma), 0.0), 1.0)
    return gamma, beta, (1.0 - gamma) * r_own - beta * kappa_i


def _beats(g: float, b: float, v: float, gamma: float, beta: float, u: float) -> bool:
    """Whether the peak (g, b, v) beats the peak (gamma, beta, u).

    A higher utility wins, then a smaller beta, then a smaller gamma: the
    one tie rule of ``_best_peak`` and of the utility curve's rise walk.
    """
    return v > u or (v == u and (b < beta or (b == beta and g < gamma)))


class BetaCurve(NamedTuple):
    """Piecewise closed-form representation of beta(gamma) on [gamma_ir, 1]."""

    agent: AgentSpec
    gamma_ir: float
    pieces: tuple[BetaPiece, ...]

    def piece_at(self, gamma: float) -> BetaPiece:
        j = bisect_left(self.pieces, gamma, key=attrgetter("gamma_hi"))
        return self.pieces[min(j, len(self.pieces) - 1)]


def needs_inspection(agent: AgentSpec) -> bool:
    """Whether deterrence is impossible without inspection.

    True iff alpha < kappa_s / R_n: side effects alone are then too rare to
    scare the agent into the safety step, whatever the payment.  The converse
    does not hold; False only means this particular obstruction is absent.
    """
    return agent.alpha * agent.money_scale < agent.kappa_s


def check_safety(agent: AgentSpec) -> float:
    """The hull's u_h(1) = max(R_i - c_i); InfeasibleSafety unless > kappa_s (Assumption 2)."""
    acts = agent.actions
    top = eval_envelope(acts.envelope, acts.rewards, acts.costs, 1.0)
    if top <= agent.kappa_s:
        raise InfeasibleSafety(
            f"max(R_i - c_i) = {top} does not exceed kappa_s = {agent.kappa_s} "
            "(Assumption 2)"
        )
    return top


def build_beta_curve(agent: AgentSpec) -> BetaCurve:
    """Enumerate the pieces of beta(gamma) by walking the envelope twice.

    Piece boundaries are the envelope breakpoints in (gamma_ir, 1), the
    subdivision points where gamma_tilde crosses a breakpoint, and the single
    point where beta reaches 0 (everything beyond is clamped).  Both walks are
    monotone, so there are O(n) pieces.  A piece's owner holds its midpoint
    and its shadow holds gamma_tilde there.  Deterrence needs the largest
    gamma_tilde, so when that is the flat first segment of a zero-reward
    action, the shadow is the next hull action, which owns the segment's
    right end.
    """
    rewards, costs, env = agent.actions.rewards, agent.actions.costs, agent.actions.envelope
    top = check_safety(agent)
    gamma_ir = invert_envelope(env, rewards, costs, agent.kappa_s)

    cuts = {gamma_ir, 1.0}
    for b, val in zip(env.breakpoints, env.breakpoint_values):
        if gamma_ir < b < 1.0:
            cuts.add(b)
        lifted = val + agent.kappa_s
        if lifted <= top:
            g = invert_envelope(env, rewards, costs, lifted)
            if gamma_ir < g < 1.0:
                cuts.add(g)
    bounds = sorted(cuts)
    merged = [bounds[0]]
    for g in bounds[1:-1]:
        if g - merged[-1] > TOL:
            merged.append(g)
    # 1.0 takes the place of an interior cut within TOL of it, never gamma_ir's
    if len(merged) > 1 and 1.0 - merged[-1] <= TOL:
        merged[-1] = 1.0
    else:
        merged.append(1.0)

    hull, breakpoints = env.hull_actions, env.breakpoints
    kappa_s, shade = agent.kappa_s, 1.0 - agent.alpha
    pieces: list[BetaPiece] = []
    clamped_seen = False
    for lo, hi in zip(merged, merged[1:]):
        mid = 0.5 * (lo + hi)
        # the segment owning mid (segment_at), and u_h(mid) on its line
        owner = hull[bisect_right(breakpoints, mid)]
        r_own = rewards[owner]
        lowered = (mid * r_own - costs[owner]) - kappa_s
        shadow = hull[bisect_right(breakpoints, invert_envelope(env, rewards, costs, lowered))]
        if rewards[shadow] == 0.0:
            # a flat first segment: deterrence needs its right end, the next line
            shadow = hull[1]
        c_const = costs[owner] + kappa_s - costs[shadow]
        d = rewards[shadow] * shade
        if clamped_seen or _beta_raw(r_own, c_const, d, lo) <= 0.0:
            pieces.append(BetaPiece(lo, hi, owner, shadow, True, r_own, c_const, d))
            clamped_seen = True
        elif _beta_raw(r_own, c_const, d, hi) < 0.0:
            # beta hits zero inside the piece; split there, clamp the rest
            root = min(max(c_const / (r_own - d), lo), hi)
            if _beta_raw(r_own, c_const, d, root) > 0.0:
                # the root rounds to a beta above 0: bisect to adjacent doubles
                # for the least gamma past it where beta is 0
                below, root = root, hi
                while below < (g := below + 0.5 * (root - below)) < root:
                    if _beta_raw(r_own, c_const, d, g) > 0.0:
                        below = g
                    else:
                        root = g
            pieces.append(BetaPiece(lo, root, owner, shadow, False, r_own, c_const, d))
            pieces.append(BetaPiece(root, hi, owner, shadow, True, r_own, c_const, d))
            clamped_seen = True
        else:
            pieces.append(BetaPiece(lo, hi, owner, shadow, False, r_own, c_const, d))
    return BetaCurve(agent, gamma_ir, tuple(pieces))


def beta_at(curve: BetaCurve, gamma: float) -> float:
    """Evaluate beta(gamma) for gamma in [gamma_ir, 1]."""
    if not gamma >= curve.gamma_ir - TOL:
        raise ValueError(
            f"gamma = {gamma} is below the participation threshold {curve.gamma_ir}; "
            "no safe action is implementable there"
        )
    if gamma > 1.0 + TOL:
        raise ValueError(f"gamma must not exceed 1, got {gamma}")
    g = min(max(gamma, curve.gamma_ir), 1.0)
    return curve.piece_at(g).beta(g)


# ---------------------------------------------------------------------------
# best responses and the optimal contract
# ---------------------------------------------------------------------------


def _accepted_pairs(agent: AgentSpec, contract: Contract) -> list[tuple[int, bool]]:
    """The (action index, safe?) pairs the agent accepts under ``contract``.

    Safe pair i is worth gamma*R_i - c_i - kappa_s to the agent, unsafe pair
    i (1 - beta)(1 - alpha)*gamma*R_i - c_i.  A pair is accepted when its
    utility is within ``TOL * R_n`` of the best pair's and of the outside
    option 0; the list is empty when every pair is below -TOL * R_n.
    """
    gamma, kappa_s = contract.gamma, agent.kappa_s
    shade = (1.0 - contract.beta) * (1.0 - agent.alpha) * gamma
    utils: dict[tuple[int, bool], float] = {}
    for i, (r, c) in enumerate(zip(agent.actions.rewards, agent.actions.costs)):
        utils[i, True] = gamma * r - c - kappa_s
        utils[i, False] = shade * r - c
    floor = max(max(utils.values()), 0.0) - TOL * agent.money_scale
    return [pair for pair, u in utils.items() if u >= floor]


def agent_best_response(
    agent: AgentSpec, contract: Contract
) -> tuple[int, bool] | None:
    """The agent's preferred accepted (action index, safe?) pair, or None.

    The agent accepts every pair whose utility is within ``TOL * R_n`` of the
    best pair's and of the outside option 0 (``_accepted_pairs``); among
    those it prefers the safe variant, then the higher reward action.  None
    means the outside option: every pair has utility below -TOL * R_n.
    """
    return max(_accepted_pairs(agent, contract), key=lambda p: (p[1], p[0]), default=None)


def principal_utility(
    agent: AgentSpec, contract: Contract, response: tuple[int, bool] | None
) -> float:
    """Principal's expected utility given the agent's response.

    An unsafe response is -inf (side effects are catastrophic to the
    principal); a rejected contract yields 0.
    """
    if response is None:
        return 0.0
    i, safe = response
    if not safe:
        return -math.inf
    return (1.0 - contract.gamma) * agent.actions.rewards[i] - contract.beta * agent.kappa_i


@dataclass(frozen=True)
class SingleAgentSolution:
    contract: Contract
    action: int
    utility: float


def solve_single(agent: AgentSpec) -> SingleAgentSolution:
    """Optimal linear contract for one agent: the best peak over the pieces.

    Each beta-curve piece's peak (``_peak``) is its stationary point,
    or the left end of a clamped piece; the utility is concave per piece, so
    the best peak is optimal.  Ties go to smaller beta, then smaller gamma.
    """
    return _best_peak(build_beta_curve(agent), agent.kappa_i)


def _best_peak(curve: BetaCurve, kappa_i: float) -> SingleAgentSolution:
    """``solve_single`` on a built curve; kappa_i enters only the peaks.

    One walk over the pieces keeps the best peak's floats: a later peak wins
    only if it ``_beats`` the best so far, so the first of fully tied peaks
    stays.  Only the winner becomes a record.
    """
    pieces = iter(curve.pieces)
    best = next(pieces)
    gamma, beta, u = _peak(best, kappa_i)
    for piece in pieces:
        g, b, v = _peak(piece, kappa_i)
        if _beats(g, b, v, gamma, beta, u):
            best, gamma, beta, u = piece, g, b, v
    return SingleAgentSolution(Contract(gamma, beta), best.owner, u)


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------


class SweepPoint(NamedTuple):
    """One row of a parameter sweep; solver fields are None when infeasible."""

    value: float
    gamma: float | None
    beta: float | None
    utility: float | None

    @property
    def feasible(self) -> bool:
        return self.gamma is not None


def sweep_parameter(
    agent: AgentSpec, which: str, grid: list[float]
) -> list[SweepPoint]:
    """Re-solve the agent along a parameter grid, in grid order.

    Rows where the perturbed agent is invalid or infeasible are emitted as
    infeasible markers instead of aborting the sweep.  Each row equals
    ``solve_single(replace(agent, **{which: v}))``, and a kappa_s or alpha row
    is just that: the row's spec shares the agent's ``ActionSet``.  A kappa_i
    sweep, where beta(gamma) does not depend on kappa_i, builds the curve once
    and takes each row's best peak.
    """
    if which not in _PARAMS:
        raise ValueError(f"which must be one of {_PARAMS}, got {which!r}")
    # one curve serves a whole kappa_i sweep; without one (kappa_s and alpha
    # sweeps, or an infeasible agent) each row is solved on its own spec
    curve = None
    if which == "kappa_i":
        with suppress(InfeasibleSafety):
            curve = build_beta_curve(agent)
    rows: list[SweepPoint] = []
    for v in grid:
        try:
            if curve is None:
                sol = solve_single(replace(agent, **{which: v}))
            else:
                _check_param(which, v)
                sol = _best_peak(curve, v)
        except (ValidationError, InfeasibleSafety):
            rows.append(SweepPoint(v, None, None, None))
        else:
            rows.append(SweepPoint(v, sol.contract.gamma, sol.contract.beta, sol.utility))
    return rows
