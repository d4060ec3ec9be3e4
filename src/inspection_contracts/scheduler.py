"""Random assignment of B inspectors to agents with exact marginals.

Think of the targets laid end to end on the segment [0, B]: inspector b owns
the unit interval [b-1, b], so it can only ever inspect the agents whose
stretch intersects its unit.  Consecutive inspectors share at most one agent,
the one straddling the integer boundary between them, and a conditional rule
keeps them from both picking it: inspector b may take the straddling agent
only when inspector b-1 went elsewhere.  The residual zeta_b tracks how much
of the boundary agent's target the first b inspectors have already covered,
and inductively P(inspector b picks its boundary agent) = zeta_b, which makes
every marginal land exactly on its target.

Targets may sum to less than B.  The spare mass is the idle fall-through of
the last rule: once the cumulative targets stop short of b, inspector b's
window holds every remaining agent, its branches sum below 1, and a draw
past them leaves the inspector idle.  Targets are probabilities, so at most
min(B, m + 1) inspectors hold real mass; the schedule stops there, and every
later inspector is idle by construction.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import BudgetExceeded, InvalidProbability, ValidationError
from .tolerance import QUOTIENT_TOL, TOL


@dataclass(frozen=True)
class InspectorRule:
    """Inspector b's two conditional distributions over agent indices.

    ``when_prev_hit`` applies when inspector b-1 picked its own boundary agent
    (which equals this rule's ``prev_boundary``); ``when_prev_missed``
    otherwise.  Inspector 1 always uses ``when_prev_missed``.  An empty branch
    is one that occurs with probability zero, and a draw past a branch's mass
    leaves the inspector idle.  ``boundary`` is None only on the last rule,
    whose inspector the cumulative targets never reach.
    """

    prev_boundary: int
    boundary: int | None
    when_prev_hit: tuple[tuple[int, float], ...]
    when_prev_missed: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class InspectionSchedule:
    """Chain-structured joint distribution of inspector assignments.

    ``rules[b-1]`` is inspector b's rule, for the inspectors that can reach an
    agent at all; there are at most min(budget, m + 1) of them, and the
    inspectors past ``len(rules)`` are idle.  Each rule's ``boundary`` is the
    first agent index at which the cumulative targets reach b, or None when
    they never do.

    Each rule is compiled once, here, into ``_table``: per rule the pair
    (when_prev_missed, when_prev_hit), each branch as its running sums, its
    agents with None appended and its boundary flags with False appended, so
    a draw bisects the sums instead of rescanning the branch.
    """

    targets: tuple[float, ...]
    budget: int
    rules: tuple[InspectorRule, ...] = field(repr=False)
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = []
        for b, rule in enumerate(self.rules, start=1):
            pair = []
            for branch in (rule.when_prev_missed, rule.when_prev_hit):
                # the same left-to-right additions as a linear scan, so
                # bisect_right picks the agent the scan would pick; that needs
                # the sums nondecreasing, hence no negative or NaN p
                probs = [p for _, p in branch]
                cums = tuple(accumulate(probs))
                if not all(p >= 0.0 for p in probs) or (cums and cums[-1] > 1.0 + QUOTIENT_TOL):
                    raise RuntimeError(f"inspector {b}: malformed rule {branch}")
                agents = tuple(a for a, _ in branch) + (None,)
                hits = tuple(a == rule.boundary for a, _ in branch) + (False,)
                pair.append((cums, agents, hits))
            table.append(tuple(pair))
        object.__setattr__(self, "_table", tuple(table))


def _prefix_sums(xs: list[float]) -> list[float]:
    """Running sums with Neumaier compensation.

    The residuals zeta_b are differences of these sums, so a plain running
    sum's error, which grows with the number of targets, would land directly
    on the boundary agents' marginals.
    """
    out = []
    total = comp = 0.0
    for x in xs:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        out.append(total + comp)
    return out


def build_schedule(targets: list[float] | tuple[float, ...], budget: int) -> InspectionSchedule:
    """Construct the sequential assignment rules for the given marginals.

    Runs in O(m): every agent enters exactly one inspector's window plus
    possibly the next one's boundary slot, and the rules stop after the last
    inspector that can reach an agent.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValidationError(f"budget must be a positive integer, got {budget!r}")
    cleaned = []
    for i, t in enumerate(targets):
        if not math.isfinite(t) or t < -TOL or t > 1.0 + TOL:
            raise InvalidProbability(f"target {i} = {t!r} is not a probability")
        cleaned.append(min(max(float(t), 0.0), 1.0))
    total = math.fsum(cleaned)
    # targets computed upstream each carry their own rounding error
    if total > budget + TOL * max(len(cleaned), 1):
        raise BudgetExceeded(f"targets sum to {total} > budget {budget}")

    m = len(cleaned)
    last = max((i for i, t in enumerate(cleaned) if t > 0.0), default=-1)
    cums = _prefix_sums(cleaned)
    rules: list[InspectorRule] = []
    prev_l, prev_zeta = 0, 0.0
    pos = 0
    for b in range(1, budget + 1):
        # inspector b can reach only the rest of the previous boundary agent
        # and the agents after it; with neither left it and all later idle
        if not (prev_l < m and cleaned[prev_l] > prev_zeta) and last <= prev_l:
            break
        # cumulative sums and b both grow, so one pointer serves all b
        while pos < m and cums[pos] < b - QUOTIENT_TOL:
            pos += 1
        l_b = pos if pos < m else None
        end = m if l_b is None else l_b
        window = [(i, cleaned[i]) for i in range(prev_l + 1, end) if cleaned[i] > 0.0]
        if l_b is not None:
            zeta = min(max(b - (cums[l_b - 1] if l_b > 0 else 0.0), 0.0), cleaned[l_b])
            if l_b > prev_l and zeta > 0.0:
                window.append((l_b, zeta))
        norm = 1.0 - cleaned[prev_l] + prev_zeta

        if norm > TOL:
            hit = tuple((i, w / norm) for i, w in window)
        else:
            hit = ()
        if 1.0 - prev_zeta > TOL:
            p0 = (cleaned[prev_l] - prev_zeta) / (1.0 - prev_zeta)
            missed: list[tuple[int, float]] = []
            if p0 > 0.0:
                missed.append((prev_l, p0))
            if norm > TOL:
                scale = (1.0 - p0) / norm
                missed.extend((i, w * scale) for i, w in window)
            missed_t = tuple(missed)
        else:
            missed_t = ()
        rules.append(InspectorRule(prev_l, l_b, hit, missed_t))
        if l_b is None:
            break
        prev_l, prev_zeta = l_b, zeta

    return InspectionSchedule(tuple(cleaned), budget, tuple(rules))


def exact_marginals(schedule: InspectionSchedule) -> tuple[float, ...]:
    """Each agent's total inspection probability, computed exactly.

    A single forward pass suffices: the only dependence between inspectors is
    whether the previous one picked its boundary agent, so tracking that one
    probability propagates the whole chain.
    """
    marg = [0.0] * len(schedule.targets)
    p_hit = 0.0
    for rule in schedule.rules:
        p_next = 0.0
        for branch, weight in (
            (rule.when_prev_hit, p_hit),
            (rule.when_prev_missed, 1.0 - p_hit),
        ):
            if weight <= 0.0:
                continue
            for agent, p in branch:
                marg[agent] += weight * p
                if agent == rule.boundary:
                    p_next += weight * p
        p_hit = p_next
    return tuple(marg)


def _draw(schedule: InspectionSchedule, rng: random.Random) -> list[int | None]:
    """One pick per rule, one ``rng.random()`` each: the rule's agent, or None if idle.

    ``bisect_right`` finds the first running sum above u, the agent a linear
    scan would stop at; past the branch's mass it lands on the appended None.
    """
    out: list[int | None] = []
    uniform = rng.random
    prev_hit = False
    for pair in schedule._table:
        cums, agents, hits = pair[prev_hit]
        i = bisect_right(cums, uniform())
        out.append(agents[i])
        prev_hit = hits[i]
    return out


def sample_assignment(
    schedule: InspectionSchedule, seed: int
) -> tuple[int | None, ...]:
    """Draw one joint assignment; entry b is inspector b's agent or None (idle).

    Always ``schedule.budget`` entries: the per-rule picks, then None for
    every inspector past the last rule.  Deterministic in the seed.  No agent
    can appear twice: an inspector's support is its own window, and the
    conditional rules exclude the shared boundary agent whenever the previous
    inspector took it.
    """
    picks = _draw(schedule, random.Random(seed))
    return tuple(picks) + (None,) * (schedule.budget - len(picks))
