"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Each criterion also enforces its wall-clock budget.
"""

import time

import numpy as np
import pytest

from inspection_contracts import (
    Action,
    AgentSpec,
    AllocationProblem,
    allocate,
    beta_at,
    brute_force_allocate,
    brute_force_single,
    build_beta_curve,
    check_ic_ir,
    gap_bound,
    solve_single,
    sweep_parameter,
)
from inspection_contracts.scheduler import (
    build_schedule,
    exact_marginals,
    sample_assignment,
)
from inspection_contracts.tolerance import TOL
from conftest import STATICS_C, STATICS_R, NONCONVEX_C, NONCONVEX_R, make_agent, random_agent


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} ({elapsed:.1f}s / {budget:.0f}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def instances_200():
    rng = np.random.default_rng(20240811)
    return [random_agent(rng, n_max=8) for _ in range(200)]


def test_criterion_1_oracle_equivalence(instances_200):
    start = time.perf_counter()
    ok = True
    for agent in instances_200:
        sol = solve_single(agent)
        pair = (sol.contract.gamma, sol.contract.beta)
        _, ref = brute_force_single(agent, 1e-3, include=[pair])
        if abs(sol.utility - ref) > TOL * agent.money_scale:
            ok = False
            break
        if not check_ic_ir(agent, sol.contract, (sol.action, True)):
            ok = False
            break
    _report(1, "oracle equivalence", ok, time.perf_counter() - start, 60.0)


def test_criterion_2_beta_curve_structure(instances_200):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for agent in instances_200:
        curve = build_beta_curve(agent)
        gs = np.sort(rng.uniform(curve.gamma_ir, 1.0, 40))
        vals = [beta_at(curve, g) for g in gs]
        if any(v2 > v1 + 1e-9 for v1, v2 in zip(vals, vals[1:])):
            ok = False
            break
        cuts = [curve.gamma_ir]
        cuts += [b for b in curve.agent.actions.envelope.breakpoints if curve.gamma_ir < b < 1.0]
        cuts.append(1.0)
        for lo, hi in zip(cuts, cuts[1:]):
            for _ in range(4):
                a, b = np.sort(rng.uniform(lo, hi, 2))
                mid = 0.5 * (a + b)
                if beta_at(curve, mid) > 0.5 * (beta_at(curve, a) + beta_at(curve, b)) + 1e-9:
                    ok = False
        if not ok:
            break
    # the 6-action instance bends the wrong way across its 0.5 breakpoint
    bendy = make_agent(NONCONVEX_R, NONCONVEX_C)
    curve = build_beta_curve(bendy)
    a, b = 0.46, 0.54
    violation = beta_at(curve, 0.5 * (a + b)) - 0.5 * (beta_at(curve, a) + beta_at(curve, b))
    ok = ok and violation > 1e-6
    _report(2, "beta-curve structure", ok, time.perf_counter() - start, 10.0)


def test_criterion_3_comparative_statics():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(50):
        agent = random_agent(rng)
        ki_grid = list(np.linspace(0.2, 8.0, 20))
        rows = sweep_parameter(agent, "kappa_i", ki_grid)
        gammas = [r.gamma for r in rows]
        betas = [r.beta for r in rows]
        if any(g2 < g1 - 1e-9 for g1, g2 in zip(gammas, gammas[1:])):
            ok = False
        if any(b2 > b1 + 1e-9 for b1, b2 in zip(betas, betas[1:])):
            ok = False
        slack = max(a.reward - a.cost for a in agent.actions)
        ks_grid = list(np.linspace(0.02 * slack, 0.9 * slack, 20))
        rows = sweep_parameter(agent, "kappa_s", ks_grid)
        gammas = [r.gamma for r in rows]
        if any(g2 < g1 - 1e-9 for g1, g2 in zip(gammas, gammas[1:])):
            ok = False
        if not ok:
            break

    # beta* vs kappa_s is nonmonotone for at least one alpha in {0,...,0.2}
    found_nonmonotone = False
    ks_grid = list(np.linspace(0.05, 3.4, 41))
    for k in range(11):
        agent = make_agent(STATICS_R, STATICS_C, alpha=round(0.02 * k, 2))
        rows = sweep_parameter(agent, "kappa_s", ks_grid)
        betas = [r.beta for r in rows if r.feasible]
        rose = any(b2 > b1 + 1e-9 for b1, b2 in zip(betas, betas[1:]))
        fell = any(b2 < b1 - 1e-9 for b1, b2 in zip(betas, betas[1:]))
        if rose and fell:
            found_nonmonotone = True
            break
    ok = ok and found_nonmonotone
    _report(3, "comparative statics", ok, time.perf_counter() - start, 60.0)


def test_criterion_4_dp_correctness():
    start = time.perf_counter()
    unit1 = make_agent([10.0], [2.0])
    variant16 = make_agent([10.0], [2.0], kappa_i=16.0)
    variant_ks = make_agent([10.0], [2.0], kappa_s=2.0, alpha=0.1)
    two_act = make_agent([4.0, 9.0], [1.0, 2.5], kappa_s=1.5, kappa_i=2.0, alpha=0.05)
    families = [
        ((unit1,), 1),
        ((unit1,), 2),
        ((unit1, variant16), 1),
        ((variant_ks, two_act), 2),
        ((unit1, variant16, variant_ks), 1),
        ((unit1, two_act, variant16), 2),
    ]
    rng = np.random.default_rng(4)
    while len(families) < 9:
        m = int(rng.integers(1, 4))
        agents = tuple(random_agent(rng, n_max=4, alpha_max=0.3) for _ in range(m))
        families.append((agents, int(rng.integers(1, 3))))

    ok = True
    for agents, budget in families:
        problem = AllocationProblem(tuple(agents), budget, delta=0.01)
        try:
            alloc = allocate(problem)
        except Exception:
            continue
        coarse = brute_force_allocate(problem, 0.01)
        fine = brute_force_allocate(problem, 1e-3)
        if alloc.total_utility < coarse.total_utility - 1e-9:
            ok = False
            break
        if alloc.total_utility < fine.total_utility - gap_bound(problem, 0.01) - 1e-9:
            ok = False
            break

    four = allocate(AllocationProblem((unit1,) * 4, 1, delta=0.01))
    ok = ok and abs(four.total_utility - 23.0) <= 0.15
    _report(4, "DP correctness", ok, time.perf_counter() - start, 120.0)


def test_criterion_5_scheduling():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        budget = int(rng.integers(1, 6))
        targets = rng.uniform(0, 1, m)
        total = targets.sum()
        if total > budget:
            targets *= budget / total * rng.uniform(0.2, 1.0)
        targets = [float(t) for t in targets]
        sched = build_schedule(targets, budget)
        if any(abs(e - t) > 1e-12 for e, t in zip(exact_marginals(sched), targets)):
            ok = False
            break

    sched = build_schedule([0.6, 0.8, 0.6], 2)
    n = 10**5
    counts = np.zeros(3)
    duplicates = 0
    for seed in range(n):
        picks = sample_assignment(sched, seed)
        agents = [a for a in picks if a is not None]
        if len(agents) != len(set(agents)):
            duplicates += 1
        for a in agents:
            counts[a] += 1
    ok = ok and duplicates == 0
    for p, hits in zip((0.6, 0.8, 0.6), counts):
        if abs(hits / n - p) > 3 * np.sqrt(p * (1 - p) / n):
            ok = False
    _report(5, "scheduling", ok, time.perf_counter() - start, 30.0)


def test_criterion_6_case_study():
    start = time.perf_counter()
    # identical agents except the inspection cost; alpha = 0.35 puts beta_min at 0
    base = dict(actions=(Action(10.0, 1.0),), kappa_s=1.0, alpha=0.35)
    low = AgentSpec(kappa_i=1.0, **base)
    high = AgentSpec(kappa_i=5.0, **base)
    all_zero_from = None
    for m in range(2, 65, 2):
        agents = (low,) * (m // 2) + (high,) * (m // 2)
        alloc = allocate(AllocationProblem(agents, 1, delta=0.01))
        high_zero = all(c == 0.0 for c in alloc.caps[m // 2 :])
        if high_zero and all_zero_from is None:
            all_zero_from = m
        if not high_zero:
            all_zero_from = None
    ok = all_zero_from is not None and all_zero_from <= 64
    _report(6, "case study threshold", ok, time.perf_counter() - start, 60.0)


def test_criterion_7_complexity_smoke():
    start = time.perf_counter()

    def big_agent(n, seed):
        rng = np.random.default_rng(seed)
        rewards = np.cumsum(rng.uniform(0.5, 1.5, n))
        costs = np.cumsum(rng.uniform(0.05, 0.3, n))
        return make_agent(rewards, costs, kappa_s=1.0, kappa_i=2.0, alpha=0.1)

    small = big_agent(10**3, 0)
    large = big_agent(10**5, 1)
    t_small = min(
        _timed(lambda: solve_single(small)) for _ in range(3)
    )
    t_large = _timed(lambda: solve_single(large))
    ratio = t_large / t_small
    ok = ratio <= 300.0

    rng = np.random.default_rng(6)
    agents = []
    for _ in range(20):
        rewards = np.cumsum(rng.uniform(0.3, 2.0, 10))
        costs = np.cumsum(rng.uniform(0.05, 0.6, 10))
        slack = float(np.max(rewards - costs))
        agents.append(
            make_agent(rewards, costs, kappa_s=0.05 * slack, kappa_i=1.5,
                       alpha=float(rng.uniform(0, 0.06)))
        )
    t_alloc = _timed(
        lambda: allocate(AllocationProblem(tuple(agents), 2, delta=0.005))
    )
    ok = ok and t_alloc <= 60.0
    print(
        f"[acceptance]   solve_single ratio t(1e5)/t(1e3) = {ratio:.0f}; "
        f"allocate(m=20, n=10, B=2, delta=0.005) = {t_alloc:.2f}s"
    )
    _report(7, "complexity smoke test", ok, time.perf_counter() - start, 120.0)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
