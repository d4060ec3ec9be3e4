import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    AllocationProblem,
    Contract,
    InfeasibleBudget,
    InfeasibleError,
    NoSafeContract,
    ValidationError,
    allocate,
    brute_force_allocate,
    brute_force_single,
    build_utility_curve,
    check_ic_ir,
    gap_bound,
    solve_single,
    utility_at,
)
from inspection_contracts import multi_agent, oracle
from inspection_contracts.oracle import _grid
from inspection_contracts.tolerance import QUOTIENT_TOL, TOL, grid_steps
from conftest import allocation_agents, make_agent, priced, random_agent

# one action (10, 2) with kappa_i = 1 and alpha = 0: at step 0.01 the cap
# grids of kappa_s = 3, 1 and 0.5 have 31, 24 and 16 points
WIDE, MID, NARROW = (make_agent([10.0], [2.0], kappa_s=ks) for ks in (3.0, 1.0, 0.5))
# a utility curve with no rises over a cap range of 0.1 to 1/3, and one with
# a rise from beta_min = 0
NO_RISES = make_agent([10.0], [2.0], kappa_s=1.0, kappa_i=200.0)
FREE_START = make_agent([10.0], [2.0], kappa_s=3.0, kappa_i=0.1, alpha=0.5)
# a cap range of 0.799 to 0.7998, one grid cap at step 0.01
NEAR_FULL = make_agent([10.0], [2.0], kappa_s=7.99)


def _scan_full(agent, gammas, betas):
    """Every (gamma, beta) grid pair checked: the reference for the oracle.

    IR and deterrence hold to TOL * R_n slack.  Returns the best (utility, gamma, beta), ties to the least beta, then the
    least gamma, or None where no pair is safe.  The base payoff uses the
    highest-reward safe action within TOL * R_n of the best, as the oracle
    does.
    """
    tie = TOL * agent.money_scale
    rewards = np.array(agent.actions.rewards)
    costs = np.array(agent.actions.costs)
    safe = gammas[:, None] * rewards[None, :] - costs[None, :]
    top = safe.max(axis=1)
    best_safe = top - agent.kappa_s
    act = (len(rewards) - 1) - np.argmax((safe >= top[:, None] - tie)[:, ::-1], axis=1)
    base = (1.0 - gammas) * rewards[act]

    best = None
    for start in range(0, len(betas), 128):
        bc = betas[start : start + 128]
        shade = ((1.0 - bc) * (1.0 - agent.alpha))[:, None] * gammas[None, :]
        unsafe = (shade[:, :, None] * rewards[None, None, :] - costs[None, None, :]).max(
            axis=2
        )
        ok = (best_safe[None, :] >= unsafe - tie) & (best_safe[None, :] >= -tie)
        util = np.where(ok, base[None, :] - agent.kappa_i * bc[:, None], -np.inf)
        flat = int(np.argmax(util))
        bi, gi = divmod(flat, len(gammas))
        if util[bi, gi] > -math.inf and (best is None or util[bi, gi] > best[0]):
            best = (float(util[bi, gi]), float(gammas[gi]), float(bc[bi]))
    return best


def _scan_reference(agent, gammas):
    """``oracle._scan``'s float operations, one gamma and one action at a time."""
    tie = TOL * agent.money_scale
    betas, utils = [], []
    for gamma in map(float, gammas):
        safe = [r * gamma - c for r, c in zip(agent.actions.rewards, agent.actions.costs)]
        top = max(safe)
        best_safe = top - agent.kappa_s
        act = max(i for i, u in enumerate(safe) if u >= top - tie)
        base = (1.0 - gamma) * agent.actions.rewards[act]
        need = []
        for r, c in zip(agent.actions.rewards, agent.actions.costs):
            shade = r * ((1.0 - agent.alpha) * gamma)
            floor = best_safe + c
            if shade > 0.0:
                need.append(1.0 - floor / shade)
            else:
                need.append(0.0 if floor >= 0.0 else math.inf)
        beta = max(max(need), 0.0)
        ok = best_safe >= -tie and beta <= 1.0
        betas.append(beta)
        utils.append(base - agent.kappa_i * beta if ok else -math.inf)
    return betas, utils


def _brute_force_full(agent, step, include=()):
    """Best of the full (gamma, beta) grid scan and the exact ``include`` pairs."""
    g = _grid(step, agent.n)
    cands = [_scan_full(agent, g, g)]
    cands += [_scan_full(agent, np.array([gamma]), np.array([beta])) for gamma, beta in include]
    cands = [c for c in cands if c is not None]
    return max(cands, key=lambda c: c[0]) if cands else None


class TestBruteForceSingle:
    def test_unit1_close_to_solver(self, unit1):
        # the grid holds gamma = 0.3 to within rounding, where beta = 1/3
        contract, utility = brute_force_single(unit1, 1e-3)
        assert utility == pytest.approx(20 / 3, abs=TOL * unit1.money_scale)
        assert check_ic_ir(unit1, contract, (0, True))

    def test_no_safety_cost(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0)
        contract, utility = brute_force_single(agent, 1e-3)
        assert contract.gamma == pytest.approx(0.2, abs=1e-9)
        assert contract.beta == 0.0
        assert utility == pytest.approx(8.0, abs=1e-9)

    def test_no_safe_contract(self):
        agent = make_agent([2.0], [1.0], kappa_s=1.5)  # Assumption 2 fails
        with pytest.raises(NoSafeContract):
            brute_force_single(agent, 1e-2)

    def test_include_pairs_join_the_comparison(self, unit1):
        sol = solve_single(unit1)
        pair = (sol.contract.gamma, sol.contract.beta)
        _, coarse = brute_force_single(unit1, 0.05)
        _, seeded = brute_force_single(unit1, 0.05, include=[pair])
        assert seeded >= coarse - 1e-12
        assert seeded == pytest.approx(sol.utility, abs=1e-12)

    def test_overflowing_inspection_cost_emits_no_warning(self):
        # at gamma = 1e-300 the least deterring beta is about 5e299, and
        # kappa_i * beta overflows in a cell that is -inf anyway
        agent = make_agent([1.0], [0.0], kappa_s=0.5, kappa_i=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            brute_force_single(agent, 0.1, include=[(1e-300, 0.0)])

    def test_total_is_the_exact_sum_of_cancelling_utilities(self, unit1):
        # about 6.6e16, -0.1 and -2e17: summed in agent order the -0.1 is lost
        costly = make_agent([10.0], [2.0], kappa_s=1.0, kappa_i=200.0)
        agents = (priced(unit1, 1e16), unit1, priced(costly, 1e16))
        alloc = brute_force_allocate(AllocationProblem(agents, 3), 0.01)
        utilities = [ch.utility for ch in alloc.contracts]
        assert sum(utilities) != math.fsum(utilities)
        assert alloc.total_utility == math.fsum(utilities)
        assert alloc.total_utility == math.fsum(reversed(utilities))

    def test_bad_step(self, unit1):
        with pytest.raises(ValueError):
            brute_force_single(unit1, 0.0)
        for step in (math.nan, math.inf):
            with pytest.raises(ValueError):
                brute_force_single(unit1, step)

    # five grid points on one action: 0, 0.25, 0.5, 0.75, 1, and 0, 0.3,
    # 0.6, 0.9 plus the appended 1
    @pytest.mark.parametrize("step", [0.25, 0.3])
    def test_grid_cell_limit(self, unit1, monkeypatch, step):
        monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 5)
        brute_force_single(unit1, step)
        monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 4)
        with pytest.raises(ValidationError, match="above the limit"):
            brute_force_single(unit1, step)

    @pytest.mark.parametrize("step", [1e-9, 1e-300, 1e-308, 5e-324])
    def test_tiny_step_rejected_before_building_the_grid(self, unit1, step):
        with pytest.raises(ValidationError, match="above the limit"):
            brute_force_single(unit1, step)


class TestBruteForceAllocate:
    # cap grids are pure step multiples, so totals sit below the continuum
    # optimum by at most the Lipschitz (gap) bound for that step

    def test_single_agent_consistency(self, unit1):
        problem = AllocationProblem((unit1,), 1, delta=0.01)
        ref = brute_force_allocate(problem, 0.01)
        _, utility = brute_force_single(unit1, 1e-3)
        bound = gap_bound(problem, 0.01)
        assert utility - bound - 2e-2 <= ref.total_utility <= utility + 2e-2

    def test_two_agents_budget_slack(self, unit1):
        problem = AllocationProblem((unit1,) * 2, 2, delta=0.01)
        ref = brute_force_allocate(problem, 0.01)
        assert ref.total_utility <= 40 / 3 + 1e-9
        assert ref.total_utility >= 40 / 3 - gap_bound(problem, 0.01) - 1e-9

    def test_three_agents_budget_binds(self, unit1):
        problem = AllocationProblem((unit1,) * 3, 1, delta=0.01)
        ref = brute_force_allocate(problem, 0.01)
        assert ref.total_utility <= 20.0 + 1e-9
        assert ref.total_utility >= 20.0 - gap_bound(problem, 0.01) - 1e-9
        assert ref.caps == pytest.approx([1 / 3] * 3, abs=1e-2)

    def test_bad_step(self, unit1):
        problem = AllocationProblem((unit1,), 1, delta=0.01)
        for step in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                brute_force_allocate(problem, step)

    # no agent-count rule.  At step 0.05 the table holds the 5 x 4 x 5 cap
    # vectors of MID, NARROW and FREE_START, and WIDE is bisected; at 0.01
    # NEAR_FULL has one cap, and an axis for each of its 68 copies would pass
    # numpy's 64-axis limit
    @pytest.mark.parametrize("agents, budget, step", [
        ((WIDE, MID, NARROW, FREE_START), 1, 0.05),
        ((NEAR_FULL,) * 34 + (MID,) + (NEAR_FULL,) * 34 + (WIDE,), 56, 0.01),
    ], ids=["four", "seventy"])
    def test_many_agents_match_plain_enumeration(self, agents, budget, step):
        problem = AllocationProblem(agents, budget)
        best, grids = _enumerate_allocations(problem, step)
        alloc = brute_force_allocate(problem, step)
        assert sum(ch.utility for ch in alloc.contracts) == best
        assert alloc.total_utility == math.fsum(ch.utility for ch in alloc.contracts)
        assert all(cap in grid for cap, grid in zip(alloc.caps, grids))
        assert sum(alloc.caps) <= budget + TOL

    # the table holds 24 x 16 = 384 entries whatever the order, and one
    # agent's bisected grid 31 points
    @pytest.mark.parametrize("agents, fits", [
        ((WIDE, MID, NARROW), 384), ((NARROW, MID, WIDE), 384), ((WIDE,), 31),
    ])
    def test_table_entry_limit(self, monkeypatch, agents, fits):
        problem = AllocationProblem(agents, 1)
        monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", fits)
        brute_force_allocate(problem, 0.01)
        monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", fits - 1)
        with pytest.raises(ValidationError, match="above the limit"):
            brute_force_allocate(problem, 0.01)

    # at 2e-5 the three agents' table holds 11,667 x 7,501 entries
    @pytest.mark.parametrize("m, step", [(3, 2e-5)] + [
        (m, step) for m in (1, 2, 3) for step in (1e-9, 1e-300, 1e-308, 5e-324)
    ])
    def test_tiny_step_rejected_before_building_the_grid(self, m, step):
        problem = AllocationProblem((WIDE, MID, NARROW)[:m], 1)
        with pytest.raises(ValidationError, match="above the limit"):
            brute_force_allocate(problem, step)


    # six WIDE agents need 31^5 entries; past about 200 the product is inf
    @pytest.mark.parametrize("m, count", [(6, "2.86e+07"), (300, "more than 1e308")],
                             ids=["six", "three_hundred"])
    def test_many_agents_rejected_before_building_the_table(self, m, count):
        problem = AllocationProblem((WIDE,) * m, m)
        with pytest.raises(ValidationError, match=re.escape(f"needs {count} oracle table")):
            brute_force_allocate(problem, 0.01)


def test_value_examples_have_their_shapes():
    assert not build_utility_curve(NO_RISES).rises
    free = build_utility_curve(FREE_START)
    assert free.beta_min == 0.0 and free.rises


@settings(max_examples=100, deadline=None)
@given(allocation_agents(), st.sampled_from([1e-3, 0.01, 0.05]) | st.floats(1e-3, 0.05))
@example(NO_RISES, 0.01)
@example(FREE_START, 1e-3)
@example(WIDE, 0.01)
def test_value_fill_matches_utility_at(agent, step):
    """The whole-grid value fill is ``utility_at`` at each cap, bit for bit,
    also at each rise's ``beta_lo`` (which belongs to that rise), the double
    just below it, and each peak's beta."""
    curve = build_utility_curve(agent)
    caps = [eta * step + curve.beta_min
            for eta in range(grid_steps(curve.beta_cap - curve.beta_min, step) + 1)]
    for _, lo, peak in curve.rises:
        caps += [lo, math.nextafter(lo, -math.inf), peak.beta]
    caps = sorted(cap for cap in caps if cap >= curve.beta_min)
    expected = [utility_at(curve, cap) for cap in caps]
    assert multi_agent._values(curve, caps) == expected


class TestCheckIcIr:
    def test_accepts_binding_optimum(self, unit1):
        assert check_ic_ir(unit1, Contract(0.3, 1 / 3), (0, True))

    def test_rejects_lax_inspection(self, unit1):
        assert not check_ic_ir(unit1, Contract(0.3, 0.2), (0, True))

    def test_full_payment_certain_inspection(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            agent = random_agent(rng)
            gains = [
                a.reward - a.cost - agent.kappa_s for a in agent.actions
            ]
            best = int(np.argmax(gains))
            assert check_ic_ir(agent, Contract(1.0, 1.0), (best, True))

    def test_rejects_ir_violation(self, unit1):
        # underpaid: utility of (a_1, safe) at gamma=0.25 is -0.5
        assert not check_ic_ir(unit1, Contract(0.25, 1.0), (0, True))


class TestAgreement:
    def test_solver_never_beaten_by_grid(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            agent = random_agent(rng)
            sol = solve_single(agent)
            pair = (sol.contract.gamma, sol.contract.beta)
            _, ref = brute_force_single(agent, 1e-3, include=[pair])
            assert abs(sol.utility - ref) <= TOL * agent.money_scale

    def test_allocate_contracts_pass_ic_ir(self):
        rng = np.random.default_rng(314)
        for _ in range(10):
            agents = tuple(random_agent(rng, n_max=4) for _ in range(2))
            try:
                alloc = allocate(AllocationProblem(agents, 1, delta=0.01))
            except Exception:
                continue
            for agent, ch in zip(agents, alloc.contracts):
                assert check_ic_ir(agent, Contract(ch.gamma, ch.beta), (ch.action, True))


@st.composite
def oracle_cases(draw):
    """Agents with 1-8 actions, some with tie-forcing kappa_i, steps 0.5 to 1e-3."""
    n = draw(st.integers(1, 8))
    rewards = np.cumsum(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    costs = np.cumsum(draw(st.lists(st.floats(0.05, 0.6), min_size=n, max_size=n)))
    slack = float(np.max(rewards - costs))
    # a share above 1 breaks Assumption 2, so no contract is safe
    share = draw(st.sampled_from([0.0, 0.5, 1.2]) | st.floats(0.0, 1.2))
    agent = make_agent(
        rewards,
        costs,
        kappa_s=share * max(slack, 0.0),
        # a vanishing inspection cost makes many betas tie at each gamma
        kappa_i=draw(st.sampled_from([1e-300, 1e-12]) | st.floats(0.1, 5.0)),
        alpha=draw(st.sampled_from([0.0, 0.99]) | st.floats(0.0, 0.99)),
    )
    step = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.5]) | st.floats(1e-3, 0.5))
    include = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=3))
    if draw(st.booleans()):
        try:
            sol = solve_single(agent)
        except InfeasibleError:
            pass
        else:
            include.append((sol.contract.gamma, sol.contract.beta))
    return agent, step, include


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
# the full scan deters within TOL * R_n, so it may accept beta = 0 where the
# exact least beta is 1e-12, at a cost of kappa_i * 1e-12
@example((make_agent([1.0], [0.5], kappa_s=5e-13, kappa_i=2.0, alpha=0.0), 1e-3, []))
def test_oracle_agrees_with_full_scan(case):
    """The closed-form least beta is never worse than any grid beta; without
    ``include`` it beats the grid by at most one beta step of inspection.

    The full scan's deterrence slack moves beta by about ``TOL``, which costs
    up to ``kappa_i * TOL``: the tie is ``TOL * (R_n + kappa_i)``, as in
    ``verify``.
    """
    agent, step, include = case
    tie = TOL * (agent.money_scale + agent.kappa_i)
    ref = _brute_force_full(agent, step, include)
    try:
        _, utility = brute_force_single(agent, step, include=include)
    except NoSafeContract:
        assert ref is None
        return
    assert ref is not None
    assert utility >= ref[0] - tie
    if not include:
        assert utility <= ref[0] + agent.kappa_i * step + tie


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_oracle_contract_meets_the_raw_definition(case):
    """IR, deterring and minimal beta, and the utility it reports."""
    agent, step, include = case
    try:
        contract, utility = brute_force_single(agent, step, include=include)
    except NoSafeContract:
        return
    tie = TOL * agent.money_scale
    gamma, beta = contract.gamma, contract.beta
    safe = [gamma * a.reward - a.cost for a in agent.actions]
    best_safe = max(safe) - agent.kappa_s
    shade = (1.0 - beta) * (1.0 - agent.alpha) * gamma
    unsafe = max(shade * a.reward - a.cost for a in agent.actions)
    assert 0.0 <= beta <= 1.0
    assert best_safe >= -tie
    assert unsafe <= best_safe + tie
    if beta > 0.0:
        assert unsafe >= best_safe - tie
    act = max(i for i, u in enumerate(safe) if u >= max(safe) - tie)
    expected = (1.0 - gamma) * agent.actions.rewards[act] - agent.kappa_i * beta
    assert abs(utility - expected) <= tie


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_scan_repeats_the_scalar_arithmetic(case):
    """Every beta and utility of the scan, bit for bit, from one gamma at a time."""
    agent, step, include = case
    gammas = np.append(_grid(step, agent.n), [gamma for gamma, _ in include])
    beta, util = oracle._scan(agent, gammas)
    ref_beta, ref_util = _scan_reference(agent, gammas)
    assert np.array_equal(beta, ref_beta)
    assert np.array_equal(util, ref_util)


def _enumerate_allocations(problem, step):
    """Every cap vector on the oracle's step grids, summed in agent order.

    Returns the best total over the vectors whose caps sum to <= budget + TOL,
    or None when no vector is affordable, and each agent's grid.
    """
    curves = [build_utility_curve(a) for a in problem.agents]
    grids = []
    for c in curves:
        k = math.floor((c.beta_cap - c.beta_min) / step + QUOTIENT_TOL)
        grids.append([(c.beta_min + i * step, utility_at(c, c.beta_min + i * step))
                      for i in range(k + 1)])
    best = None
    for combo in itertools.product(*grids):
        if sum(cap for cap, _ in combo) <= problem.budget + TOL:
            total = sum(u for _, u in combo)
            if best is None or total > best:
                best = total
    return best, [[cap for cap, _ in g] for g in grids]


@st.composite
def allocation_cases(draw):
    """1-3 agents, budgets from 1 (binding) to m (slack), steps 0.01 to 0.05."""
    m = draw(st.sampled_from((1, 2, 3)))
    agents = tuple(draw(allocation_agents()) for _ in range(m))
    budget = draw(st.integers(1, m))
    step = draw(st.sampled_from([0.01, 0.05]) | st.floats(0.01, 0.05))
    return AllocationProblem(agents, budget), step


@settings(max_examples=100, deadline=None)
@given(allocation_cases())
# the agent with the widest cap grid first, and in the middle
@example((AllocationProblem((WIDE, MID, NARROW), 1), 0.01))
@example((AllocationProblem((MID, WIDE, NARROW), 1), 0.01))
def test_allocate_oracle_matches_plain_enumeration(case):
    """The bisected agent's largest affordable cap loses no allocation: the
    totals are equal, and the caps are affordable grid points.

    Each table total adds the agents' values in agent order, the bisected
    agent's included, as the enumeration's plain ``sum`` does, so the chosen
    contracts' utilities sum in that order to the same float; the reported
    total is their ``fsum``."""
    problem, step = case
    best, grids = _enumerate_allocations(problem, step)
    if best is None:
        with pytest.raises(InfeasibleBudget):
            brute_force_allocate(problem, step)
        return
    alloc = brute_force_allocate(problem, step)
    assert sum(ch.utility for ch in alloc.contracts) == best
    assert alloc.total_utility == math.fsum(ch.utility for ch in alloc.contracts)
    assert all(cap in grid for cap, grid in zip(alloc.caps, grids))
    assert sum(alloc.caps) <= problem.budget + TOL
