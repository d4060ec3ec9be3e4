"""Correctness checks, computed apart from the package's solvers.

Everything here works from the raw model definitions on plain arrays: under
the contract (gamma, beta) an agent taking action i earns

    safe:    gamma*R_i - c_i - kappa_s
    unsafe:  (1 - beta)*(1 - alpha)*gamma*R_i - c_i

and the principal earns (1 - gamma)*R_i - beta*kappa_i from a safe action.
No envelope, curve or DP code is reused, so agreement means something.  A
failed check raises ``CheckFailed`` with the reason.

Tolerances are relative to the agent's money scale (its largest reward), so
the same check holds whatever the currency unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from harness import CheckFailed

RTOL = 1e-9
PROB_TOL = 1e-12


@dataclass(frozen=True)
class RawAgent:
    """One agent's data as the benchmark generated it, rewards ascending."""

    rewards: np.ndarray
    costs: np.ndarray
    kappa_s: float
    kappa_i: float
    alpha: float

    @classmethod
    def from_doc(cls, doc: dict) -> "RawAgent":
        acts = sorted(doc["actions"], key=lambda a: a["cost"])
        return cls(
            np.array([a["reward"] for a in acts], dtype=float),
            np.array([a["cost"] for a in acts], dtype=float),
            float(doc["kappa_s"]), float(doc["kappa_i"]), float(doc["alpha"]),
        )

    def with_param(self, which: str, value: float) -> "RawAgent":
        params = {"kappa_s": self.kappa_s, "kappa_i": self.kappa_i, "alpha": self.alpha}
        params[which] = float(value)
        return RawAgent(self.rewards, self.costs, **params)

    @property
    def tol(self) -> float:
        return RTOL * max(float(self.rewards[-1]), self.kappa_i, self.kappa_s)

    def safe(self, gamma: float) -> np.ndarray:
        return gamma * self.rewards - self.costs - self.kappa_s

    def unsafe(self, gamma: float, beta: float) -> np.ndarray:
        return (1.0 - beta) * (1.0 - self.alpha) * gamma * self.rewards - self.costs


def deters(raw: RawAgent, gamma: float, beta: float) -> bool:
    """Some safe action is individually rational and beats every unsafe one."""
    best_safe = float(raw.safe(gamma).max())
    return best_safe >= -raw.tol and best_safe >= float(raw.unsafe(gamma, beta).max()) - raw.tol


def check_contract(raw: RawAgent, gamma: float, beta: float, action: int | None,
                   utility: float, what: str) -> None:
    """IC, IR and the principal's utility of a contract implementing ``action``.

    With ``action`` None, any safe action the agent is willing to take will
    do: at a payment share where two actions tie, either may be reported.
    """
    if not (-PROB_TOL <= gamma <= 1 + PROB_TOL and -PROB_TOL <= beta <= 1 + PROB_TOL):
        raise CheckFailed(f"{what}: contract ({gamma}, {beta}) outside [0, 1]^2")
    safe = raw.safe(gamma)
    best = max(float(safe.max()), float(raw.unsafe(gamma, beta).max()))
    if action is None:
        willing = np.flatnonzero((safe >= best - raw.tol) & (safe >= -raw.tol))
        if not len(willing):
            raise CheckFailed(f"{what}: no safe action is IC and IR under ({gamma}, {beta})")
    else:
        if not 0 <= action < len(raw.rewards):
            raise CheckFailed(f"{what}: action {action} out of range")
        u = float(safe[action])
        if u < -raw.tol:
            raise CheckFailed(f"{what}: not IR, safe utility {u}")
        if u < best - raw.tol:
            raise CheckFailed(f"{what}: not IC, agent gains {best - u} by deviating")
        willing = [action]
    expected = [(1.0 - gamma) * float(raw.rewards[i]) - beta * raw.kappa_i for i in willing]
    if min(abs(utility - e) for e in expected) > raw.tol:
        raise CheckFailed(f"{what}: reported utility {utility}, recomputed {expected}")


def check_beta_samples(raw: RawAgent, samples: list[tuple[float, float]], what: str) -> None:
    """beta(gamma) samples at increasing gamma: nonincreasing, deterring, least.

    Least means that lowering beta by an amount worth ten tolerances to the
    best unsafe deviation stops deterring it.
    """
    for (g0, b0), (g1, b1) in zip(samples, samples[1:]):
        if g1 < g0:
            raise CheckFailed(f"{what}: samples not in gamma order")
        if b1 > b0 + 1e-9:
            raise CheckFailed(f"{what}: beta rises from {b0} to {b1} at gamma {g1}")
    for g, b in samples:
        if not -PROB_TOL <= b <= 1 + PROB_TOL:
            raise CheckFailed(f"{what}: beta({g}) = {b} outside [0, 1]")
        if not deters(raw, g, b):
            raise CheckFailed(f"{what}: beta({g}) = {b} does not deter unsafe actions")
        if b <= 0.0:
            continue
        j = int(np.argmax(raw.unsafe(g, b)))
        gain = (1.0 - raw.alpha) * g * float(raw.rewards[j])
        eps = 10.0 * raw.tol / gain if gain > 0 else math.inf
        if eps < b and deters(raw, g, b - eps):
            raise CheckFailed(f"{what}: beta({g}) = {b} is not the least deterring beta")


def beta_required(raw: RawAgent, gammas: np.ndarray) -> np.ndarray:
    """Least deterring beta at each gamma, in closed form; inf where none is.

    Deterring unsafe action j needs (1-beta)(1-alpha)*gamma*R_j - c_j <= S,
    S being the best safe utility, i.e. beta >= 1 - (S + c_j)/((1-alpha)*gamma*R_j).
    """
    g = gammas[:, None]
    best_safe = (g * raw.rewards[None, :] - raw.costs[None, :]).max(axis=1) - raw.kappa_s
    denom = (1.0 - raw.alpha) * g * raw.rewards[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(
            denom > 0,
            1.0 - (best_safe[:, None] + raw.costs[None, :]) / denom,
            np.where(best_safe[:, None] >= -raw.costs[None, :], -np.inf, np.inf),
        )
    beta = np.maximum(need.max(axis=1), 0.0)
    return np.where((best_safe >= 0.0) & (beta <= 1.0), beta, np.inf)


def reference_utility(raw: RawAgent, cap: float, gammas: np.ndarray) -> float:
    """Best principal utility over a gamma grid using inspection at most ``cap``.

    A feasible lower bound on the true optimum under the cap.
    """
    beta = beta_required(raw, gammas)
    safe = gammas[:, None] * raw.rewards[None, :] - raw.costs[None, :]
    n = len(raw.rewards)
    act = (n - 1) - np.argmax(safe[:, ::-1], axis=1)  # ties go to the higher reward
    util = (1.0 - gammas) * raw.rewards[act] - beta * raw.kappa_i
    ok = beta <= cap
    return float(util[ok].max()) if ok.any() else -math.inf


def check_allocation(raws: list[RawAgent], budget: int, caps, contracts, total: float,
                     what: str) -> None:
    """Caps within the budget, each contract within its cap, IC/IR, totals."""
    if len(caps) != len(raws) or len(contracts) != len(raws):
        raise CheckFailed(f"{what}: {len(caps)} caps for {len(raws)} agents")
    if math.fsum(caps) > budget + 1e-9:
        raise CheckFailed(f"{what}: caps sum to {math.fsum(caps)} > budget {budget}")
    for l, (raw, cap, ch) in enumerate(zip(raws, caps, contracts)):
        if ch.beta > cap + PROB_TOL:
            raise CheckFailed(f"{what}: agent {l} inspected at {ch.beta} above its cap {cap}")
        check_contract(raw, ch.gamma, ch.beta, ch.action, ch.utility, f"{what}: agent {l}")
    summed = math.fsum(ch.utility for ch in contracts)
    if abs(summed - total) > 1e-9 * max(1.0, abs(total)):
        raise CheckFailed(f"{what}: total {total} but contracts sum to {summed}")


def check_marginals(exact, targets, what: str) -> None:
    if len(exact) != len(targets):
        raise CheckFailed(f"{what}: {len(exact)} marginals for {len(targets)} targets")
    for i, (e, t) in enumerate(zip(exact, targets)):
        if abs(e - t) > PROB_TOL:
            raise CheckFailed(f"{what}: agent {i} marginal {e} != target {t}")


def _binom_tail(n: int, p: float, k: int) -> float:
    """Two-sided tail probability of seeing k hits of n at rate p."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0

    def pmf(j: int) -> float:
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    step = 1 if k >= n * p else -1
    tail, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        tail += term
        if term < 1e-18 * tail:
            break
        j += step
    return min(1.0, 2.0 * tail)


def check_draws(draws, targets, budget: int, what: str) -> None:
    """Each draw names each agent at most once; frequencies match the targets.

    A frequency fails when its exact binomial tail probability is below the
    two-sided 4-sigma level divided by the number of agents, so the whole
    check raises a false alarm about as often as one 4-sigma test does (a
    plain 4-sigma test per agent would fail about one seed in 160 at 100
    agents, and more often for small targets, where the normal
    approximation is poor).
    """
    m = len(targets)
    counts = [0] * m
    for k, draw in enumerate(draws):
        if len(draw) != budget:
            raise CheckFailed(f"{what}: draw {k} has {len(draw)} inspectors, not {budget}")
        seen = set()
        for agent in draw:
            if agent is None:
                continue
            if not (isinstance(agent, int) and 0 <= agent < m):
                raise CheckFailed(f"{what}: draw {k} names unknown agent {agent!r}")
            if agent in seen:
                raise CheckFailed(f"{what}: draw {k} inspects agent {agent} twice")
            seen.add(agent)
            counts[agent] += 1
    check_frequencies(counts, len(draws), targets, what)


def check_frequencies(counts, n: int, targets, what: str) -> None:
    level = math.erfc(4.0 / math.sqrt(2.0)) / max(len(targets), 1)
    for i, (c, t) in enumerate(zip(counts, targets)):
        if _binom_tail(n, min(max(t, 0.0), 1.0), c) < level:
            raise CheckFailed(f"{what}: agent {i} drawn {c} times in {n}, target rate {t}")


def check_oracle_single(solver: float, oracle: float, what: str, tol: float = 2e-2) -> None:
    if solver < oracle - tol:
        raise CheckFailed(f"{what}: solver utility {solver} below oracle {oracle} - {tol}")


def check_oracle_allocation(dp: float, coarse: float, fine: float, gap: float,
                            what: str) -> None:
    if dp < coarse - 1e-9:
        raise CheckFailed(f"{what}: DP total {dp} below coarse brute force {coarse}")
    if dp < fine - gap - 1e-9:
        raise CheckFailed(
            f"{what}: DP total {dp} more than gap_bound {gap} below fine brute force {fine}"
        )
