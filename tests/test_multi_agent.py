import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    AllocationProblem,
    InfeasibleBudget,
    ValidationError,
    allocate,
    best_contract_at,
    brute_force_allocate,
    build_utility_curve,
    gap_bound,
    solve_single,
    utility_at,
)
from inspection_contracts import grid_dp, multi_agent, oracle
from inspection_contracts.grid_dp import _dp, _prepare_grid, _units
from inspection_contracts.multi_agent import _spare_budget
from inspection_contracts.single_agent import _peak
from inspection_contracts.tolerance import QUOTIENT_TOL, TOL
from conftest import (
    CANCEL,
    FLAT_FIRST,
    NONCONVEX_C,
    NONCONVEX_R,
    allocation_agents,
    case_agent,
    make_agent,
    priced,
    random_agent,
    representable,
)

# safety costs a few ulps of R or less, where beta(1) may round to 0
TINY_KAPPA_S = (1e-12, 1e-14, 1e-15, 3e-16)


class TestUtilityCurve:
    def test_unit1_closed_form(self, unit1):
        curve = build_utility_curve(unit1)
        assert curve.beta_min == pytest.approx(0.1, abs=1e-12)
        assert curve.beta_cap == pytest.approx(1 / 3, abs=1e-12)
        # gamma(beta) = 0.1/beta, so U(b) = 10 - 1/b - b on the rising stretch
        for b in np.linspace(0.1, 1 / 3, 20):
            assert utility_at(curve, b) == pytest.approx(10 - 1 / b - b, abs=1e-9)
        assert utility_at(curve, 0.5) == pytest.approx(10 - 3 - 1 / 3, abs=1e-9)

    def test_unit1_point_values(self, unit1):
        curve = build_utility_curve(unit1)
        assert utility_at(curve, 0.2) == pytest.approx(4.8)
        assert utility_at(curve, 0.5) == pytest.approx(20 / 3, abs=1e-9)
        assert utility_at(curve, curve.beta_min) == pytest.approx(-0.1)

    def test_below_minimum(self, unit1):
        curve = build_utility_curve(unit1)
        # a NaN cap is outside the domain too
        for cap in (0.05, math.nan):
            with pytest.raises(ValueError):
                utility_at(curve, cap)

    def test_degenerate_point_curve(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0)
        curve = build_utility_curve(agent)
        assert curve.beta_min == 0.0
        assert curve.beta_cap == 0.0
        assert curve.rises == ()
        assert utility_at(curve, 0.0) == pytest.approx(8.0)
        assert utility_at(curve, 0.7) == pytest.approx(8.0)

    def test_top_matches_solver(self):
        # the curve's running best and the solver maximize the same peaks
        rng = np.random.default_rng(31)
        agents = [random_agent(rng) for _ in range(300)]
        nonconvex = make_agent(NONCONVEX_R, NONCONVEX_C)
        agents += [priced(nonconvex, 10.0**k) for k in range(-300, 301)]
        agents += [make_agent([10.0], [2.0], kappa_s=ks) for ks in TINY_KAPPA_S]
        for agent in agents:
            top, sol = build_utility_curve(agent).top, solve_single(agent)
            assert top.action == sol.action
            assert abs(top.gamma - sol.contract.gamma) <= TOL
            assert abs(top.beta - sol.contract.beta) <= TOL
            assert abs(top.utility - sol.utility) <= TOL * agent.money_scale

    def test_nondecreasing_and_continuous(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            agent = random_agent(rng)
            curve = build_utility_curve(agent)
            bs = np.linspace(curve.beta_min, max(curve.beta_cap, curve.beta_min), 200)
            vals = [utility_at(curve, b) for b in bs]
            assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
            for _, lo, _ in curve.rises:
                left = utility_at(curve, np.nextafter(lo, -np.inf))
                right = utility_at(curve, lo)
                assert right == pytest.approx(left, abs=1e-9)

    @pytest.mark.parametrize("kappa_s", TINY_KAPPA_S)
    def test_tiny_safety_cost_keeps_the_curve(self, kappa_s):
        # the whole cap range is a few times kappa_s / R wide
        agent = make_agent([10.0], [2.0], kappa_s=kappa_s)
        best = solve_single(agent).utility
        curve = build_utility_curve(agent)
        assert curve.top.utility == pytest.approx(best, rel=1e-12)
        alloc = allocate(AllocationProblem((agent,), 1, delta=0.01))
        assert alloc.total_utility == pytest.approx(best, rel=1e-12)

    # alpha = 0 makes the downward jumps between rises common
    @pytest.mark.parametrize("seed, alpha_max", [(41, 0.5), (42, 0.5), (43, 0.0), (44, 0.0)])
    def test_matches_the_raw_definition_oracle(self, seed, alpha_max):
        # oracle._scan gives each gamma its least deterring beta and the
        # principal's utility there, straight from the model's inequalities;
        # besides a step grid it scans every piece's peak gamma, so a curve
        # that misses a better contract falls short by more than rounding
        rng = np.random.default_rng(seed)
        for _ in range(40):
            agent = random_agent(rng, alpha_max=alpha_max)
            curve = build_utility_curve(agent)
            slack = TOL * (agent.money_scale + agent.kappa_i)
            peaks = [_peak(p, agent.kappa_i)[0] for p in curve.beta_curve.pieces]
            beta, util = oracle._scan(agent, np.append(oracle._grid(1e-3, agent.n), peaks))
            for cap in np.linspace(curve.beta_min, curve.beta_cap, 25):
                value = utility_at(curve, cap)
                # no grid contract within the cap beats the curve
                assert util[beta <= cap].max(initial=-np.inf) <= value + slack
                # and the curve's own contract is one the oracle accepts
                ch = best_contract_at(curve, cap)
                b, u = oracle._scan(agent, np.array([ch.gamma]))
                assert b[0] <= cap + TOL
                assert u[0] >= value - slack

    def test_best_contract_at_attains_value(self, unit1):
        curve = build_utility_curve(unit1)
        for b in (0.1, 0.15, 0.25, 0.4, 1.0):
            ch = best_contract_at(curve, b)
            assert ch.beta <= b + 1e-12
            assert ch.utility == pytest.approx(utility_at(curve, b), abs=1e-12)


class TestMinBeta:
    def test_unit1(self, unit1):
        assert build_utility_curve(unit1).beta_min == pytest.approx(0.1, abs=1e-12)

    def test_zero_safety_cost(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0)
        assert build_utility_curve(agent).beta_min == 0.0

    def test_six_action_instance(self, nonconvex6):
        # u_h(1) = 6.4; inverting 5.4 on the last segment gives 12/13
        assert build_utility_curve(nonconvex6).beta_min == pytest.approx(1 / 13, abs=1e-9)


class TestAllocate:
    def test_four_unit1_split_evenly(self, unit1):
        alloc = allocate(AllocationProblem((unit1,) * 4, 1, delta=0.01))
        assert alloc.caps == pytest.approx([0.25] * 4, abs=1e-9)
        assert alloc.total_utility == pytest.approx(23.0, abs=1e-9)
        assert alloc.gap_bound == pytest.approx(3.96)

    def test_two_unit1_budget_slack(self, unit1):
        alloc = allocate(AllocationProblem((unit1,) * 2, 2, delta=0.01))
        assert alloc.caps == pytest.approx([1 / 3] * 2, abs=1e-9)
        assert alloc.total_utility == pytest.approx(40 / 3, abs=1e-9)
        assert sum(ch.beta for ch in alloc.contracts) < 2  # slack unspent

    def test_single_agent_reduction(self, unit1):
        alloc = allocate(AllocationProblem((unit1,), 1, delta=0.01))
        sol = solve_single(unit1)
        ch = alloc.contracts[0]
        assert (ch.gamma, ch.beta) == pytest.approx(
            (sol.contract.gamma, sol.contract.beta), abs=1e-9
        )
        assert alloc.total_utility == pytest.approx(sol.utility, abs=1e-9)

    def test_grid_dp_computes_no_dual(self, unit1, monkeypatch):
        def no_dual(*args):
            raise AssertionError("the grid DP bisected the shadow price")

        monkeypatch.setattr(multi_agent, "_lagrangian", no_dual)
        alloc = allocate(AllocationProblem((unit1,) * 4, 1, delta=0.01))
        assert (alloc.delta, alloc.dual_bound, alloc.shadow_price) == (0.01, None, None)

    def test_infeasible_budget(self):
        # beta_min = 0.5 each, so three of them overrun B=1; the DP, the exact
        # split and the exhaustive search raise the one Assumption 3 error
        agent = make_agent([10.0], [2.0], kappa_s=5.0)
        assert build_utility_curve(agent).beta_min == pytest.approx(0.5)
        problem = AllocationProblem((agent,) * 3, 1, delta=0.01)
        message = "minimum inspections sum to 1.5 > budget 1 (Assumption 3)"
        for case in (problem, replace(problem, delta=None)):
            with pytest.raises(InfeasibleBudget) as exc:
                allocate(case)
            assert str(exc.value) == message
        with pytest.raises(InfeasibleBudget) as exc:
            brute_force_allocate(problem, 0.01)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "agents, kwargs, message",
        [
            (0, {}, "at least one agent is required"),
            (1, {"delta": math.nan}, "delta must be positive, got nan"),
            (1, {"delta": math.inf}, "delta must be positive, got inf"),
            (1, {"budget": 0}, "budget must be a positive integer, got 0"),
        ],
        ids=["no-agents", "nan-delta", "inf-delta", "zero-budget"],
    )
    def test_problem_validation(self, unit1, agents, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            AllocationProblem((unit1,) * agents, **kwargs)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == message

    def test_delta_is_the_only_option(self, unit1):
        with pytest.raises(TypeError):
            AllocationProblem((unit1,), 1, epsilon=0.1)

    def test_budget_monotonicity(self):
        rng = np.random.default_rng(5150)
        for _ in range(10):
            agents = tuple(random_agent(rng, n_max=4) for _ in range(3))
            try:
                a1 = allocate(AllocationProblem(agents, 1, delta=0.02))
            except InfeasibleBudget:
                continue
            a2 = allocate(AllocationProblem(agents, 2, delta=0.02))
            assert a2.total_utility >= a1.total_utility - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.sampled_from([{}, {"delta": 0.005}, {"delta": 0.01}, {"delta": 0.02}]),
           st.permutations(range(5)))
    @example(347, 3, {}, (4, 2, 0, 3, 1))
    # two agents' maximizers move by the same ulps at the shadow price
    @example(2818, 3, {}, (1, 0, 2, 3, 4))
    @example(2818, 4, {}, (1, 0, 2, 3, 4))
    def test_permuting_agents_permutes_the_allocation(self, seed, m, step, shuffled):
        rng = np.random.default_rng(seed)
        agents = tuple(random_agent(rng, n_max=5) for _ in range(m))
        budget = int(rng.integers(1, 3))
        perm = [i for i in shuffled if i < m]

        def solve(order):
            return allocate(AllocationProblem(tuple(agents[i] for i in order), budget, **step))

        try:
            alloc = solve(range(m))
        except InfeasibleBudget:
            with pytest.raises(InfeasibleBudget):
                solve(perm)
            return
        moved = solve(perm)
        assert moved.delta == alloc.delta
        assert moved.caps == tuple(alloc.caps[i] for i in perm)
        slack = TOL * m * sum(a.money_scale for a in agents)
        assert abs(moved.total_utility - alloc.total_utility) <= slack

    def test_duplicating_agents_at_least_doubles_the_total(self):
        # each copy may keep its original's cap, so the total cannot fall
        # below twice the original's; copies need not keep it, though: the
        # best total is not concave in the budget, and a doubled budget can
        # sometimes be split better
        rng = np.random.default_rng(77)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            agents = tuple(random_agent(rng, n_max=5) for _ in range(m))
            budget = int(rng.integers(1, 3))
            for step in ({"delta": 0.02}, {}):
                try:
                    alloc = allocate(AllocationProblem(agents, budget, **step))
                except InfeasibleBudget:
                    continue
                doubled = allocate(AllocationProblem(agents * 2, 2 * budget, **step))
                slack = TOL * m * sum(a.money_scale for a in agents)
                assert doubled.total_utility >= 2 * alloc.total_utility - slack

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(-300, 300),
           st.sampled_from([{}, {"delta": 0.01}]))
    # a product of two amounts overflows past 10^153 and underflows below 10^-154
    @example(1, 3, 154, {})
    @example(7, 3, 160, {"delta": 0.01})
    @example(7, 3, -200, {})
    def test_answer_does_not_depend_on_currency_unit(self, seed, m, k, step):
        rng = np.random.default_rng(seed)
        agents = tuple(random_agent(rng, n_max=5) for _ in range(m))
        budget = int(rng.integers(1, 3))
        unit = 10.0**k
        assume(all(representable(a, unit) for a in agents))

        def solve(group):
            return allocate(AllocationProblem(group, budget, **step))

        try:
            alloc = solve(agents)
        except InfeasibleBudget:
            with pytest.raises(InfeasibleBudget):
                solve(tuple(priced(a, unit) for a in agents))
            return
        scaled = solve(tuple(priced(a, unit) for a in agents))
        assert scaled.caps == pytest.approx(alloc.caps, abs=1e-9)
        slack = 1e-9 * sum(a.money_scale for a in agents)
        assert abs(scaled.total_utility / unit - alloc.total_utility) <= slack
        money = [(scaled.gap_bound, alloc.gap_bound)]
        assert (scaled.dual_bound is None) == (alloc.dual_bound is None)
        if alloc.dual_bound is not None:
            money += [(scaled.dual_bound, alloc.dual_bound),
                      (scaled.shadow_price, alloc.shadow_price)]
        for x, ref in money:
            assert x / unit == pytest.approx(ref, rel=1e-9, abs=slack)

    def test_feasibility_and_grid_membership(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            agents = tuple(random_agent(rng, n_max=5) for _ in range(m))
            problem = AllocationProblem(agents, int(rng.integers(1, 3)), delta=0.01)
            try:
                alloc = allocate(problem)
            except InfeasibleBudget:
                continue
            assert sum(alloc.caps) <= problem.budget + 1e-12
            for agent, cap, ch in zip(agents, alloc.caps, alloc.contracts):
                curve = build_utility_curve(agent)
                bmin = curve.beta_min
                x = cap - bmin
                assert x >= -1e-12
                on_grid = abs(x / 0.01 - round(x / 0.01)) < 1e-6
                at_cap = abs(cap - curve.beta_cap) < 1e-9
                assert on_grid or at_cap
                assert bmin - 1e-12 <= ch.beta <= cap + 1e-12

    def test_dp_rows_nondecreasing(self, unit1):
        problem = AllocationProblem((unit1,) * 3, 2, delta=0.01)
        curves = [build_utility_curve(a) for a in problem.agents]
        steps, gains, _ = _prepare_grid(problem, curves)
        for m in range(1, len(curves) + 1):
            rows = _dp(gains[:m], steps)
            assert rows.shape == (m + 1, steps + 1)
            for row in rows:
                # the computed cells run from the band's first to the budget
                cells = row[np.argmax(~np.isnan(row)) :]
                assert not np.isnan(cells).any()
                assert np.all(np.diff(cells) >= -1e-12)

    def test_dp_final_row_gives_allocate_total(self, nonconvex6, unit1):
        problem = AllocationProblem((nonconvex6, unit1, nonconvex6), 2, delta=0.01)
        curves = [build_utility_curve(a) for a in problem.agents]
        steps, gains, _ = _prepare_grid(problem, curves)
        rows = _dp(gains, steps)
        base = sum(c.base.utility for c in curves)
        assert allocate(problem).total_utility == pytest.approx(base + rows[-1, -1])

    def test_grid_cell_limit(self, unit1, monkeypatch):
        # two minimums of 0.1 leave 0.8 spare: 80 steps, 2 * 81 cells
        problem = AllocationProblem((unit1,) * 2, 1, delta=0.01)
        monkeypatch.setattr(grid_dp, "MAX_DP_CELLS", 162)
        allocate(problem)
        monkeypatch.setattr(grid_dp, "MAX_DP_CELLS", 161)
        with pytest.raises(ValidationError, match="162 cells"):
            allocate(problem)

    def test_dp_work_limit(self, unit1, monkeypatch):
        # 80 steps; each agent's grid stops at its cap 1/3 - 0.1 after 23
        # steps, so the DP adds 2 * 24 * 81 candidate sums
        problem = AllocationProblem((unit1,) * 2, 1, delta=0.01)
        monkeypatch.setattr(grid_dp, "MAX_DP_WORK", 3888)
        allocate(problem)
        monkeypatch.setattr(grid_dp, "MAX_DP_WORK", 3887)
        with pytest.raises(ValidationError, match="3.89e\\+03 DP candidate sums"):
            allocate(problem)

    def test_tiny_delta_rejected_before_building_the_grid(self, unit1):
        for delta in (1e-9, 5e-324):
            with pytest.raises(ValidationError, match="above the limit"):
                allocate(AllocationProblem((unit1,), 1, delta=delta))


# one action (R=10, c=2), kappa_s=1, kappa_i=1, alpha=0: U(b) = 10 - 1/b - b
# on [0.1, 1/3], so U'(b) = 1/b^2 - 1
class TestExactAllocate:
    def test_four_unit1_split_evenly(self, unit1):
        alloc = allocate(AllocationProblem((unit1,) * 4, 1))
        assert alloc.caps == pytest.approx([0.25] * 4, abs=1e-12)
        assert alloc.total_utility == pytest.approx(23.0, abs=1e-12)
        assert alloc.delta is None
        # one more inspector's worth of cap is worth U'(1/4) = 15 per unit
        assert alloc.shadow_price == pytest.approx(15.0, rel=1e-12)
        assert alloc.dual_bound == pytest.approx(23.0, abs=1e-12)
        assert alloc.gap_bound <= TOL * 40.0
        # D(lo) rounds to 22.999999999999996 here, below the total
        assert (alloc.total_utility, alloc.dual_bound, alloc.gap_bound) == (23.0, 23.0, 0.0)

    def test_slack_budget_has_zero_price(self, unit1):
        alloc = allocate(AllocationProblem((unit1,) * 2, 2))
        assert alloc.caps == pytest.approx([1 / 3] * 2, abs=1e-12)
        assert alloc.shadow_price == 0.0
        assert alloc.gap_bound == 0.0
        assert alloc.total_utility == pytest.approx(40 / 3, abs=1e-12)

    def test_single_agent_reduction(self, nonconvex6):
        sol = solve_single(nonconvex6)
        alloc = allocate(AllocationProblem((nonconvex6,), 1))
        ch = alloc.contracts[0]
        assert ch.action == sol.action
        assert (ch.gamma, ch.beta) == (sol.contract.gamma, sol.contract.beta)
        assert alloc.total_utility == sol.utility

    @pytest.mark.parametrize("seed, alpha_max", [(9, 0.5), (10, 0.0)])
    def test_no_grid_beats_the_exact_split(self, seed, alpha_max):
        # the dual bound is above every feasible total; without a duality gap
        # the exact total meets it, so no grid gets more; with one it is still
        # at least the DP's at delta = 0.01 and 0.02 (whose grid it contains)
        # and the exhaustive search's at step 0.01
        rng = np.random.default_rng(seed)
        for _ in range(60):
            m = int(rng.integers(1, 4))
            agents = tuple(random_agent(rng, n_max=5, alpha_max=alpha_max) for _ in range(m))
            problem = AllocationProblem(agents, int(rng.integers(1, 3)))
            try:
                alloc = allocate(problem)
            except InfeasibleBudget:
                continue
            slack = TOL * sum(a.money_scale for a in agents)
            assert alloc.gap_bound == max(alloc.dual_bound - alloc.total_utility, 0.0)
            assert math.fsum(alloc.caps) <= problem.budget + TOL
            assert sum(alloc.caps) <= problem.budget + TOL
            totals = {
                delta: allocate(replace(problem, delta=delta)).total_utility
                for delta in (0.02, 0.01, 1e-3)
            }
            totals["search"] = brute_force_allocate(problem, 0.01).total_utility
            for key, total in totals.items():
                assert alloc.dual_bound >= total - slack, key
                assert alloc.total_utility >= total - alloc.gap_bound - slack, key
                if key != 1e-3:
                    assert alloc.total_utility >= total - slack, key

    def test_caps_fit_a_large_budget(self):
        # forty agents share ten inspectors; each cap is the sum of a minimum
        # and a share, so a plain sum can overshoot the budget by a few ulps
        rng = np.random.default_rng(3)
        agents = tuple(random_agent(rng, n_max=5) for _ in range(40))
        alloc = allocate(AllocationProblem(agents, 10))
        assert alloc.shadow_price > 0.0
        assert math.fsum(alloc.caps) <= 10.0
        assert sum(alloc.caps) <= 10.0 + TOL
        for agent, cap, ch in zip(agents, alloc.caps, alloc.contracts):
            assert build_utility_curve(agent).beta_min <= cap <= 1.0
            assert ch.beta <= cap

    # from seed-9 draws with alpha = 0: a rise of agent 0 overtakes its
    # running best at lambda*, so the Lagrangian primal leaves budget
    # unspent, and the DP at delta = 0.01 finds a better split
    GAP_AGENTS = (
        make_agent([1.1807683193446512, 3.0903515730620246, 3.856674509704404,
                    4.327631598774597, 4.682802666694951, 5.709044664534008,
                    6.176276839359652, 7.998259549647688],
                   [0.06077359873999759, 0.26204608155364223, 0.37649533341943564,
                    0.6196222263937723, 0.834945178777152, 1.1884132485140366,
                    1.3659936414557146, 1.7466889640703438],
                   kappa_s=2.759721901457163, kappa_i=0.6480612807692433),
        make_agent([0.9307574440182724, 2.0224959694467373, 3.2898429547585666,
                    3.6266113138670004, 4.697951362670378, 5.5340884455218315,
                    6.032072498687187],
                   [0.36040544066728164, 0.4719680604708917, 0.5993239114258395,
                    1.1656594020188495, 1.755936145760018, 1.8913238113579167,
                    2.2613416568942935],
                   kappa_s=1.4323047586713267, kappa_i=1.2483887557168691),
        make_agent([1.5927923075585135, 2.828269638925968, 4.436742388374528,
                    5.700790796113244, 6.395665026197783],
                   [0.0906647548172125, 0.18389632028210542, 0.37439009223907516,
                    0.6137231685416245, 0.8366901373984585],
                   kappa_s=1.7863970525053159, kappa_i=2.95545226832728),
    )

    def test_duality_gap_takes_the_grid_dp(self):
        agents = self.GAP_AGENTS
        problem = AllocationProblem(agents, 2)
        slack = TOL * sum(a.money_scale for a in agents)
        curves = [build_utility_curve(a) for a in agents]
        primal = multi_agent._lagrangian(problem, curves)
        assert primal.gap_bound > slack
        grid = allocate(replace(problem, delta=0.01))
        assert grid.total_utility > primal.total_utility

        alloc = allocate(problem)
        assert alloc.delta == 0.01
        assert (alloc.caps, alloc.total_utility) == (grid.caps, grid.total_utility)
        assert alloc.dual_bound == primal.dual_bound
        assert alloc.shadow_price == primal.shadow_price
        assert alloc.gap_bound == alloc.dual_bound - alloc.total_utility
        fine = allocate(replace(problem, delta=1e-3)).total_utility
        assert alloc.dual_bound >= fine

    def test_grid_over_the_size_limits_keeps_the_exact_split(self, monkeypatch):
        problem = AllocationProblem(self.GAP_AGENTS, 2)
        curves = [build_utility_curve(a) for a in self.GAP_AGENTS]
        exact = multi_agent._lagrangian(problem, curves)
        monkeypatch.setattr(grid_dp, "MAX_DP_CELLS", 100)
        assert allocate(problem) == exact

    # draw 2877 of rng 7's alpha = 0 problems: the DP at delta = 0.01 ties the
    # exact split's total, 3.928424859599613, once both are correctly rounded
    # sums; a plain sum put the DP's one ulp above it
    TIE_AGENTS = (
        make_agent([0.5713622913344356, 2.512824492470861, 2.8690379602870473,
                    4.363162321914444, 6.07724621932302, 7.931383279853707],
                   [0.41792920936345906, 0.7154351480394099, 0.9853347966662019,
                    1.4816566023226403, 1.9564575904952046, 2.0404508982123764],
                   kappa_s=1.645019318717214, kappa_i=1.3668996328824665),
        make_agent([1.5542564431985688, 2.3174101559347324, 3.955195788155156,
                    5.069629128884643],
                   [0.17958677977098536, 0.7330456692070063, 1.296048438366319,
                    1.3849680830052364],
                   kappa_s=1.0574926426214717, kappa_i=2.854163168226584),
        make_agent([1.1012813098936207, 1.9245744292703086, 3.7070895411502502,
                    5.017312498650856, 5.744677264215333, 7.680160775492195,
                    9.461581334358025],
                   [0.37979601378605704, 0.7479734085682086, 1.2600384721620304,
                    1.4647742347470147, 1.878296079720882, 2.0858499121239,
                    2.2433485998391287],
                   kappa_s=1.8893535502311034, kappa_i=3.517055501800139),
        make_agent([1.2445196527802964, 1.6857367359027269],
                   [0.39461761232118997, 0.7051058460566956],
                   kappa_s=0.18554966254389588, kappa_i=1.2355568838930342),
        make_agent([1.7429363233162576, 3.7066543857124747, 5.622330556399085,
                    6.52601500233614, 8.28939922694153, 8.726833777697657,
                    9.098470072259566],
                   [0.30712890817317906, 0.7936897661546922, 1.2023767373651855,
                    1.3965578276826545, 1.4595266015449846, 1.6514876444290396,
                    2.2010349408322485],
                   kappa_s=6.066517613849811, kappa_i=3.6592733058958364),
        make_agent([1.2798330342266144], [0.06696822580347501],
                   kappa_s=0.8416714701943862, kappa_i=4.46803295350127),
    )

    def test_a_rounding_tie_keeps_the_exact_split(self):
        problem = AllocationProblem(self.TIE_AGENTS, 3)
        curves = [build_utility_curve(a) for a in self.TIE_AGENTS]
        exact = multi_agent._lagrangian(problem, curves)
        assert exact.gap_bound > TOL * sum(a.money_scale for a in self.TIE_AGENTS)
        grid = allocate(replace(problem, delta=0.01))
        assert grid.total_utility == math.fsum(ch.utility for ch in grid.contracts)
        assert grid.total_utility == exact.total_utility == 3.928424859599613
        alloc = allocate(problem)
        assert alloc == exact
        assert alloc.delta is None

    def test_minimums_just_over_the_budget_pin_every_agent(self):
        # beta_min = 0.5000000000000001 each: the minimums sum to within TOL
        # above B = 1, which Assumption 3 allows, and no shadow price brings
        # the caps below that sum, so the price search stops there instead
        agent = make_agent([10.0], [0.0], kappa_s=5.000000000000001)
        alloc = allocate(AllocationProblem((agent,) * 2, 1))
        assert alloc.caps == (0.5000000000000001,) * 2
        assert alloc.total_utility == -1.0000000000000002

    def test_minimums_that_fill_the_budget_take_an_infinite_price(self):
        # beta_min is 0.1 for big and 0.9 for small, the whole budget, yet big
        # wants more than its minimum at every finite price: only lambda = inf
        # fits, where D is the minimums' total
        big = make_agent([1e308], [0.0], kappa_s=1e307)
        small = make_agent([10.0], [0.0], kappa_s=9.0)
        alloc = allocate(AllocationProblem((big, small), 1))
        assert alloc.caps == (0.09999999999999998, 0.9)
        assert (alloc.total_utility, alloc.dual_bound, alloc.gap_bound) == (-1.0, -1.0, 0.0)
        assert alloc.shadow_price == math.inf
        assert alloc.delta is None

    # draw 124 of rng 7's alpha = 0 problems: the maximizers at the shadow
    # price leave budget unspent; spending it on the agent it raises most
    # lifts the total from 5.710331522462575
    LEFTOVER_AGENTS = (
        make_agent([1.555708801470898, 3.1122513169582997, 3.524415762124852,
                    5.241638607065001, 5.602997404419876],
                   [0.28507171658283126, 0.6601343453602669, 1.163023866706082,
                    1.2446748824154217, 1.6640288051934697],
                   kappa_s=1.2410058157543364, kappa_i=0.30080207979652196),
        make_agent([0.4408560209854131, 2.1829251804657757],
                   [0.07363412139678649, 0.2551375086546795],
                   kappa_s=0.5718894681069818, kappa_i=0.41466256351943465),
        make_agent([1.9427456130234528, 3.7811402787838055, 4.419179284535387,
                    6.13556328249555, 7.0097499099583, 7.80066292344966],
                   [0.42949757198639066, 0.5264437617312687, 0.579424938363219,
                    1.1414227321262778, 1.3860849530395818, 1.873308699252245],
                   kappa_s=2.2713798146809485, kappa_i=0.5543560392871716),
        make_agent([0.43744055967056233, 0.7696681197738835, 1.7510493235133073,
                    2.4906196673396144],
                   [0.234803468747867, 0.8137347995726529, 1.3197834309764374,
                    1.7580320847708983],
                   kappa_s=0.16090931997494715, kappa_i=3.77444374833817),
        make_agent([1.1975425141682077, 1.9036496269568959],
                   [0.164305780362078, 0.4450190105269467],
                   kappa_s=0.3630049511816619, kappa_i=4.435437307517703),
    )

    def test_the_leftover_budget_is_spent(self):
        alloc = allocate(AllocationProblem(self.LEFTOVER_AGENTS, 2))
        assert alloc.total_utility == 5.728302645304373
        assert alloc.delta is None
        assert math.fsum(alloc.caps) <= 2.0

    @pytest.mark.parametrize("kappa_i, first", [(2.0, 34), (3.0, 14), (5.0, 10)])
    def test_foregone_agents_get_cap_zero(self, kappa_i, first):
        # criterion 6's agents: half at kappa_i = 1, half at the higher cost;
        # from the threshold on, every high agent's cap is exactly 0
        low = make_agent([10.0], [1.0], kappa_s=1.0, kappa_i=1.0, alpha=0.35)
        high = make_agent([10.0], [1.0], kappa_s=1.0, kappa_i=kappa_i, alpha=0.35)
        # in closed form, an agent stays at beta_min exactly when the shadow
        # price is at least R*c*D / ((R - D) + beta_min*D)^2 - kappa_i, in its
        # first rise's coefficients
        curve = build_utility_curve(high)
        r, c, d = (getattr(curve.rises[0][0], f) for f in ("r_own", "c_const", "d"))
        threshold = r * c * d / ((r - d) + curve.beta_min * d) ** 2 - kappa_i
        assert threshold == pytest.approx(65 / 12.25 - kappa_i, rel=1e-12)
        foregone, priced_out = [], []
        for m in range(2, 65, 2):
            alloc = allocate(AllocationProblem((low,) * (m // 2) + (high,) * (m // 2), 1))
            foregone.append(all(cap == 0.0 for cap in alloc.caps[m // 2 :]))
            priced_out.append(alloc.shadow_price >= threshold)
        assert priced_out == foregone
        assert foregone.index(True) == first // 2 - 1
        assert all(foregone[first // 2 - 1 :])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(-300, 300), min_size=1, max_size=5),
       st.integers(1, 3))
# one agent x 10^300 among four: a search seeded at the largest R_n and
# bisected by value took 1,052 prices to come down to lambda* = 2.78
@example(0, [300, 0, 0, 0], 1)
@example(4, [300, 0, 0, 0], 2)
def test_price_search_cost_does_not_depend_on_money_scale(seed, ks, budget):
    rng = np.random.default_rng(seed)
    agents = [random_agent(rng, n_max=5) for _ in ks]
    assume(all(representable(a, 10.0**k) for a, k in zip(agents, ks)))
    group = tuple(priced(a, 10.0**k) for a, k in zip(agents, ks))
    prices, priced_at = [], multi_agent._priced

    def counted(curves, lam, *rest):
        prices.append(lam)
        return priced_at(curves, lam, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multi_agent, "_priced", counted)
        try:
            alloc = allocate(AllocationProblem(group, budget))
        except InfeasibleBudget:
            return
    assert len(prices) <= 64
    assert math.fsum(alloc.caps) <= budget
    assert alloc.gap_bound >= 0.0


def _doubling_priced(curves, lam):
    """``_priced`` as it was before U(beta_min) was taken once per split."""
    points = [multi_agent._shifted_argmax(c, lam, utility_at(c, c.beta_min)) for c in curves]
    caps = [b for b, _ in points]
    return multi_agent._Priced(lam, caps, [u for _, u in points], math.fsum(caps))


def _doubling_lagrangian(problem, curves):
    """The reference exact split: ``_lagrangian`` with the price search it had
    before the bisection over the ordered doubles.  The price starts at the
    largest R_n and doubles until the caps fit, then is bisected by value
    midpoints; the fill and the dual are the same."""
    _spare_budget(problem, curves)
    limit = max(float(problem.budget), math.fsum(c.beta_min for c in curves))
    lo = hi = _doubling_priced(curves, 0.0)
    if hi.used > limit:
        price = max(a.money_scale for a in problem.agents)
        while (hi := _doubling_priced(curves, price)).used > limit:
            if price == sys.float_info.max:
                raise RuntimeError("no shadow price brings the caps within the budget")
            lo, price = hi, min(2.0 * price, sys.float_info.max)
        while lo.lam < (mid := lo.lam + 0.5 * (hi.lam - lo.lam)) < hi.lam:
            point = _doubling_priced(curves, mid)
            if point.used > limit:
                lo = point
            else:
                hi = point
    dual = min(math.fsum(p.utilities) + p.lam * (limit - p.used) for p in (lo, hi))

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
            cap = min(b + left, max(multi_agent._flat_from(c), b))
            raises.append((utility_at(c, cap) - utility_at(c, b), cap, l))
        gain, cap, l = max(raises)
        if gain > 0.0:
            caps[l] = cap
            while math.fsum(caps) > limit:
                caps[l] = math.nextafter(caps[l], -math.inf)

    contracts = tuple(best_contract_at(c, cap) for c, cap in zip(curves, caps))
    total = math.fsum(ch.utility for ch in contracts)
    return multi_agent.Allocation(
        tuple(caps), contracts, total, max(dual - total, 0.0), None, dual, hi.lam
    )


# two to six agents share one or two inspectors, so about half the feasible
# draws have a positive shadow price
@settings(max_examples=300, deadline=None)
@given(st.lists(allocation_agents(), min_size=2, max_size=6), st.integers(1, 2))
@example(list(TestExactAllocate.GAP_AGENTS), 2)
@example(list(TestExactAllocate.TIE_AGENTS), 3)
@example(list(TestExactAllocate.LEFTOVER_AGENTS), 2)
@example([case_agent(case) for case in CANCEL.values()], 1)
@example([case_agent(case) for case in CANCEL.values()], 3)
# agents that need no inspection, beside four unit agents that bind the budget:
# a flat first segment, and rewards twelve orders of magnitude apart
@example([case_agent(FLAT_FIRST)] + [make_agent([10.0], [2.0])] * 4, 1)
@example([make_agent([13.9, 1e12], [0.8516, 1.325e11], kappa_s=1.025e11, kappa_i=2.668,
                     alpha=0.478)] + [make_agent([10.0], [2.0])] * 4, 1)
def test_bisecting_the_doubles_keeps_the_doubling_search_answers(agents, budget):
    problem = AllocationProblem(tuple(agents), budget)
    try:
        alloc = allocate(problem)
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget):
            _doubling_lagrangian(problem, [build_utility_curve(a) for a in agents])
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multi_agent, "_lagrangian", _doubling_lagrangian)
        ref = allocate(problem)
    slack = TOL * math.fsum(a.money_scale for a in agents)
    assert abs(alloc.total_utility - ref.total_utility) <= slack
    assert abs(alloc.dual_bound - ref.dual_bound) <= slack
    assert alloc.gap_bound <= ref.gap_bound + slack
    assert alloc.delta == ref.delta
    assert alloc.dual_bound >= alloc.total_utility


def _per_candidate_argmax(curve, lam, u0):
    """The reference ``_shifted_argmax``: as it was before its candidates were
    valued in one ``_values`` walk, each through ``utility_at`` in rise order,
    with ties to the least cap."""
    rate = curve.beta_curve.agent.kappa_i + lam
    b0 = best_b = curve.beta_min
    best_u = best_v = u0
    for piece, lo, peak in curve.rises:
        root = math.sqrt(rate / piece.r_own) * math.sqrt(max(piece.c_const / piece.d, 0.0))
        stationary = piece.beta(min(max(root, piece.gamma_lo), piece.gamma_hi))
        for b in (min(max(stationary, lo), peak.beta), peak.beta):
            b = max(b, b0)
            u = utility_at(curve, b)
            v = u - lam * (b - b0)
            if v > best_v or (v == best_v and b < best_b):
                best_b, best_u, best_v = b, u, v
    return best_b, best_u


# five actions whose second rise has its peak at beta 0.5103901686622212, one
# ulp below its own beta_lo, so at lam = 0 the candidates arrive out of order
OUT_OF_ORDER = make_agent(
    [1.193102348208734, 2.0205135366589584, 3.1464336466729996, 4.9585629650663,
     6.846436942191925],
    [0.2467873581899886, 0.611128765091357, 0.8381569301831252, 1.2150219467929584,
     1.4508731208218817],
    kappa_s=1.9017047799097584, kappa_i=4.462344324823483, alpha=0.11357879676668986,
)


@settings(max_examples=300, deadline=None)
@given(allocation_agents(),
       st.sampled_from([0.0, 5e-324, TOL, 1e300]) | st.floats(0.0, 10.0) | st.floats(0.0, 1e300))
# CANCEL["D"]'s second peak rounds below beta_min; FLAT_FIRST needs no inspection
@example(case_agent(CANCEL["D"]), 0.0)
@example(case_agent(CANCEL["D"]), CANCEL["D"][2])
@example(case_agent(FLAT_FIRST), 0.0)
@example(case_agent(FLAT_FIRST), FLAT_FIRST[2])
@example(OUT_OF_ORDER, 0.0)
def test_one_walk_keeps_the_per_candidate_argmax(agent, lam):
    curve = build_utility_curve(agent)
    u0 = utility_at(curve, curve.beta_min)
    assert multi_agent._shifted_argmax(curve, lam, u0) == _per_candidate_argmax(curve, lam, u0)


def _dp_per_cell(gains, steps):
    """The per-cell definition of the DP, the reference for the kernel: every
    row, and each cell's least maximizing eta."""
    m = len(gains)
    rows = np.zeros((m + 1, steps + 1))
    choices = np.zeros((m, steps + 1), dtype=np.int32)
    for l, g in enumerate(gains):
        for j in range(steps + 1):
            k = min(j, len(g) - 1) + 1
            cand = rows[l, j - k + 1 : j + 1][::-1] + g[:k]
            eta = int(np.argmax(cand))
            rows[l + 1, j] = cand[eta]
            choices[l, j] = eta
    return rows, choices


def _walk(choices, j):
    """Each agent's units from budget j, read off the reference choices."""
    units = [0] * len(choices)
    for l in range(len(choices) - 1, -1, -1):
        units[l] = int(choices[l, j])
        j -= units[l]
    return units


# dyadic levels make sums exact, so equal candidates really tie
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1.0, 3.0)


@st.composite
def dp_inputs(draw):
    steps = draw(st.integers(0, 40))
    gains = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, steps + 1))
        if draw(st.booleans()):
            # running-max shape: flat runs and rises, starting at 0
            rises = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25]) | st.floats(0, 1),
                                  min_size=k - 1, max_size=k - 1))
            g = np.concatenate(([0.0], np.cumsum(rises)))
        else:
            g = np.array(draw(st.lists(_LEVELS, min_size=k, max_size=k)))
        # a final saturation entry, which wins only where strictly better
        if draw(st.booleans()):
            g = np.append(g, draw(_LEVELS))
        gains.append(g)
    return gains, steps


def _band_start(gains, steps):
    """Each row's first computed cell in ``_dp(gains, steps)``: the least of
    lo_l, the budget left to the first l agents when every later agent takes
    all its units, and hi_l, the most those agents can spend."""
    reach = [min(len(g), steps + 1) - 1 for g in gains]
    return [min(max(steps - sum(reach[l:]), 0), sum(reach[:l]), steps)
            for l in range(len(gains) + 1)]


@settings(max_examples=300, deadline=None)
@given(dp_inputs())
# no budget step, and a gain curve longer than the row
@example(([np.array([0.0, 1.0])], 0))
# the second agent's later etas only tie the row, so it keeps eta = 0
@example(([np.array([0.0, 0.5]), np.array([0.0, 0.0, 0.5])], 2))
# a slack budget: each agent takes one step of five, so every band is one cell
@example(([np.array([0.0, 1.0]), np.array([0.0, 0.25])], 5))
# gain curves longer than the row, where eta is clipped at j
@example(([np.array([0.0, 0.25, 0.5, 1.0, 3.0, 3.0]), np.array([0.0, 1.0, 1.0, 2.0])], 3))
def test_dp_kernel_matches_per_cell_loop(problem):
    gains, steps = problem
    ref_rows, ref_choices = _dp_per_cell(gains, steps)
    for j in range(steps + 1):
        rows = _dp(gains, j)
        assert rows.shape == (len(gains) + 1, j + 1)
        # a cell at budget j' <= j has the same sums in the table for j; the
        # cells below each row's band are NaN
        expected = ref_rows[:, : j + 1].copy()
        for l, start in enumerate(_band_start(gains, j)):
            expected[l, :start] = np.nan
        assert np.array_equal(rows, expected, equal_nan=True)
        assert _units(rows, gains, j) == _walk(ref_choices, j)
        # every cell's eta, as the reference's choices table holds it
        for l in range(len(gains)):
            assert _units(rows[: l + 2], gains[: l + 1], j)[-1] == ref_choices[l, j]


@settings(max_examples=100, deadline=None)
@given(dp_inputs(), st.sampled_from([1, 2, 3, 7]))
def test_dp_in_small_blocks_matches_per_cell_loop(problem, block):
    """Blocks of a few sums split each band into blocks of etas, one eta
    where the band is wider than the block."""
    gains, steps = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_dp, "_DP_PASS_SUMS", block)
        rows = _dp(gains, steps)
    expected = _dp_per_cell(gains, steps)[0]
    for l, start in enumerate(_band_start(gains, steps)):
        expected[l, :start] = np.nan
    assert np.array_equal(rows, expected, equal_nan=True)


def test_units_raises_when_no_eta_makes_the_cell():
    gains = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.75, 1.0]), np.array([0.0, 1.0])]
    rows = _dp(gains, 4)
    assert _units(rows, gains, 4) == [2, 1, 1]
    # one band cell the backtrack reads, off by an ulp
    bad = rows.copy()
    bad[2, 3] = np.nextafter(bad[2, 3], np.inf)
    with pytest.raises(RuntimeError, match="agent 1 reproduces"):
        _units(bad, gains, 4)
    # a table built for budget 4 does not answer budget 1: its cells there are NaN
    assert np.isnan(rows[2, 1])
    with pytest.raises(RuntimeError, match="budget step 1"):
        _units(rows, gains, 1)


# a candidate array for a whole agent would take 500 x 20,001 x 8 bytes, 80 MB,
# or 2,000 x 4,001 x 8 bytes, 64 MB, where the middle agent's band is the row;
# in the last case row 1's band is 8,001 cells wide and its reach 8,000, so a
# scratch of (reach + 1) x band sums would take 512 MB
@pytest.mark.parametrize("m, length, steps",
                         [(2, 500, 20_000), (3, 2_000, 4_000), (2, 8_001, 8_000)])
def test_dp_scratch_memory_is_bounded(m, length, steps):
    gains = [np.linspace(0.0, 1.0, length)] * m
    tracemalloc.start()
    try:
        rows = _dp(gains, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes + 4 * 2**20


def test_dp_scratch_bound_holds_at_the_size_limits():
    """No band the limits admit is w cells wide: sum_l len(g_l) x (steps + 1)
    is at most MAX_DP_WORK + MAX_DP_CELLS, and a band is at most the lesser
    factor wide.  So every pass holds at most ``_DP_PASS_SUMS`` sums, and the
    DP's scratch, a pass of sums, the scratch row and a block's maximum,
    stays under the 2.4 MB its docs state."""
    w = math.isqrt(grid_dp.MAX_DP_WORK + grid_dp.MAX_DP_CELLS) + 1
    assert w == 44_945 < grid_dp._DP_PASS_SUMS
    assert 8 * (max(grid_dp._DP_PASS_SUMS, w) + 3 * w) < 2.4e6


@settings(max_examples=100, deadline=None)
@given(st.lists(allocation_agents(), min_size=1, max_size=4), st.integers(1, 4),
       st.sampled_from([0.01, 0.02, 0.05]))
def test_banded_dp_gives_the_full_table_allocation(agents, budget, delta):
    """Budgets up to 4 leave most groups slack, where the bands are one cell."""
    problem = AllocationProblem(tuple(agents), budget, delta=delta)
    try:
        alloc = allocate(problem)
    except InfeasibleBudget:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_dp, "_dp", lambda gains, steps: _dp_per_cell(gains, steps)[0])
        ref = allocate(problem)
    assert repr(alloc) == repr(ref)


def _full_grid(curve, spare, delta, steps):
    """The agent's caps up to beta_cap (or the spare budget), with the
    saturation cap: the grid the DP took before cutting at the flat point."""
    cap = min(curve.beta_cap - curve.beta_min, spare)
    n = math.floor(cap / delta + QUOTIENT_TOL)
    betas = [curve.beta_min + eta * delta for eta in range(n + 1)]
    if cap > n * delta and n + 1 <= steps:
        betas.append(curve.beta_min + cap)
    return betas


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([0.005, 0.01, 0.02]))
def test_dp_on_the_full_grid_picks_the_units_allocate_picks(seed, m, delta):
    rng = np.random.default_rng(seed)
    agents = tuple(random_agent(rng, n_max=5) for _ in range(m))
    problem = AllocationProblem(agents, int(rng.integers(1, 3)), delta=delta)
    curves = [build_utility_curve(a) for a in agents]
    try:
        alloc = allocate(problem)
    except InfeasibleBudget:
        return
    steps, gains, grid = _prepare_grid(problem, curves)
    full = [_full_grid(c, _spare_budget(problem, curves), delta, steps) for c in curves]
    full_gains = [np.array([utility_at(c, b) - c.base.utility for b in betas])
                  for c, betas in zip(curves, full)]
    rows = _dp(full_gains, steps)
    assert rows[-1, steps] == _dp(gains, steps)[-1, steps]
    for l, units in enumerate(_units(rows, full_gains, steps)):
        assert grid[l][: units + 1] == full[l][: units + 1]
        assert grid[l][units] == alloc.caps[l]


class TestDPvsOracle:
    def test_matches_brute_force_on_same_grid(self):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 12:
            m = int(rng.integers(1, 4))
            agents = tuple(random_agent(rng, n_max=4) for _ in range(m))
            problem = AllocationProblem(agents, int(rng.integers(1, 3)), delta=0.01)
            try:
                alloc = allocate(problem)
            except InfeasibleBudget:
                continue
            ref = brute_force_allocate(problem, 0.01)
            assert alloc.total_utility >= ref.total_utility - 1e-9
            checked += 1


class TestGapBound:
    def test_unit1(self, unit1):
        problem = AllocationProblem((unit1,), 1, delta=0.01)
        assert gap_bound(problem, 0.01) == pytest.approx(0.99)

    def test_zero_delta(self, unit1):
        assert gap_bound(AllocationProblem((unit1,), 1), 0.0) == 0.0

    def test_negative_delta_rejected(self, unit1):
        with pytest.raises(ValueError, match=r"^delta must be nonnegative, got -0\.01$"):
            gap_bound(AllocationProblem((unit1,), 1), -0.01)

    def test_additive(self, unit1):
        problem = AllocationProblem((unit1,) * 4, 1, delta=0.01)
        assert gap_bound(problem, 0.01) == pytest.approx(3.96)

    def test_zero_kappa_s_contributes_nothing(self):
        degenerate = make_agent([10.0], [2.0], kappa_s=0.0)
        problem = AllocationProblem((degenerate,), 1, delta=0.01)
        assert gap_bound(problem, 0.01) == 0.0

    def test_floored_at_zero(self):
        # kappa_i above R_n^2/kappa_s would make the raw term negative
        agent = make_agent([2.0], [0.5], kappa_s=1.0, kappa_i=100.0)
        problem = AllocationProblem((agent,), 1, delta=0.01)
        assert gap_bound(problem, 0.01) == 0.0
