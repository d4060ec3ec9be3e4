"""Upper envelope of the agent-utility lines h_i(gamma) = gamma*R_i - c_i.

The envelope u_h(gamma) = max_i h_i(gamma) is piecewise linear, increasing and
convex on [0, inf).  Which lines show up on it is decided by convex-hull
duality: line i survives iff the point (R_i, c_i) lies on the lower convex
hull of the point set, so a monotone-chain scan over the cost-sorted actions
builds the whole envelope in O(n log n) (O(n) here, since the actions arrive
sorted).  Segment j is owned by hull action i_j between two consecutive
breakpoints, and neighbouring hull lines intersect exactly at the breakpoint
they share.

The helpers take an agent's actions as two columns, ``rewards`` and
``costs`` (action i is (rewards[i], costs[i])), the form ``AgentSpec`` stores;
only ``build_envelope`` takes ``Action`` records, which it converts.  The
envelope is built over gamma in [0, inf); truncation to [0, 1] is a caller
concern.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import lt

from .errors import DegenerateInput, ValidationError
from .tolerance import TOL


@dataclass(frozen=True, slots=True)
class Action:
    """One effort level's reward and cost; ``AgentSpec`` checks the values."""

    reward: float
    cost: float


@dataclass(frozen=True)
class UpperEnvelope:
    """Hull actions i_1 < ... < i_k and the gamma values where ownership changes.

    ``breakpoints`` holds the k-1 interior crossings, strictly increasing;
    the implicit outer endpoints are 0 and +inf.  Segment j (0-based) is owned
    by ``hull_actions[j]``.  ``breakpoint_values`` caches u_h at each
    breakpoint so inversion can binary-search segments.  Each value is taken
    on the line of the hull action to the breakpoint's left: its reward and
    cost are the smaller, so g*R - c cancels less than on the right one.
    """

    hull_actions: tuple[int, ...]
    breakpoints: tuple[float, ...]
    breakpoint_values: tuple[float, ...]


def _increasing(xs: Sequence[float]) -> bool:
    """Whether ``xs`` strictly increases; a NaN fails every comparison."""
    return all(map(lt, xs, islice(xs, 1, None)))


def _check_actions(rewards: Sequence[float], costs: Sequence[float]) -> None:
    """The one check on action values and order (Assumption 1).

    Action i is (rewards[i], costs[i]).  A bad value raises ValidationError
    ahead of any order breach (DegenerateInput); both name the actions by value.
    """
    if not rewards:
        raise ValidationError("at least one action is required")
    # a fast path, exact for floats: strictly increasing columns whose first
    # values are >= 0 (above the float just below 0) and whose last values
    # are finite hold only finite nonnegative values
    low = -math.ulp(0.0)
    top = math.nextafter(math.inf, 0.0)  # the largest float
    if (
        low < rewards[0]
        and low < costs[0]
        and rewards[-1] <= top
        and costs[-1] <= top
        and _increasing(rewards)
        and _increasing(costs)
    ):
        return
    for r, c in zip(rewards, costs):
        if not all(math.isfinite(v) and v >= 0 for v in (r, c)):
            raise ValidationError(f"{Action(r, c)}: values must be finite and nonnegative")
    for i in range(1, len(rewards)):
        if not (rewards[i - 1] < rewards[i] and costs[i - 1] < costs[i]):
            prev, act = Action(rewards[i - 1], costs[i - 1]), Action(rewards[i], costs[i])
            raise DegenerateInput(f"{prev} and {act}: costs and rewards must strictly increase")


def build_envelope(actions: Sequence[Action]) -> UpperEnvelope:
    """Build the upper envelope of the lines gamma*R_i - c_i.

    Checks the actions as ``AgentSpec`` does: strictly increasing costs and
    rewards (Assumption 1) with finite nonnegative values.  The slope into a
    lower hull point (R_i, c_i) is the breakpoint where line i takes over; a
    point whose slope exceeds the previous one by no more than ``TOL`` is
    weakly dominated and dropped, so every segment has a unique owner.
    """
    rewards = [a.reward for a in actions]
    costs = [a.cost for a in actions]
    _check_actions(rewards, costs)
    return _scan_hull(rewards, costs)


def _scan_hull(rewards: Sequence[float], costs: Sequence[float]) -> UpperEnvelope:
    """``build_envelope`` for columns that already passed ``_check_actions``."""
    hull = [0]
    breakpoints: list[float] = []
    for i in range(1, len(rewards)):
        r, c = rewards[i], costs[i]
        while True:
            h = hull[-1]
            g = (c - costs[h]) / (r - rewards[h])
            if not breakpoints or g > breakpoints[-1] + TOL:
                break
            hull.pop()
            breakpoints.pop()
        hull.append(i)
        breakpoints.append(g)
    values = [g * rewards[i] - costs[i] for g, i in zip(breakpoints, hull)]
    if any(b >= a for a, b in zip(breakpoints[1:], breakpoints)):
        raise RuntimeError("envelope breakpoints are not strictly increasing")
    return UpperEnvelope(tuple(hull), tuple(breakpoints), tuple(values))


def segment_at(env: UpperEnvelope, gamma: float) -> int:
    """Index of the envelope segment owning ``gamma``.

    A gamma sitting exactly on a breakpoint belongs to the right (higher
    reward) segment.
    """
    return bisect_right(env.breakpoints, gamma)


def eval_envelope(
    env: UpperEnvelope, rewards: Sequence[float], costs: Sequence[float], gamma: float
) -> float:
    """u_h(gamma) = max_i (gamma*R_i - c_i), exact on the owning segment."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    i = env.hull_actions[segment_at(env, gamma)]
    return gamma * rewards[i] - costs[i]


def invert_envelope(
    env: UpperEnvelope, rewards: Sequence[float], costs: Sequence[float], y: float
) -> float:
    """The unique gamma >= 0 with u_h(gamma) = y.

    Uniqueness comes from strict monotonicity of the envelope on [0, inf).
    Raises ValueError when y < u_h(0) - TOL*R_n, where u_h(0) = -min_i c_i.
    """
    floor = -costs[env.hull_actions[0]]
    if y < floor - TOL * rewards[-1]:
        raise ValueError(f"target {y} is below the envelope minimum {floor}")
    i = env.hull_actions[bisect_left(env.breakpoint_values, y)]
    if rewards[i] <= 0.0:
        # flat first segment (zero-reward action): y can only be the floor
        return 0.0
    return max((y + costs[i]) / rewards[i], 0.0)
