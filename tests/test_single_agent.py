import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    Action,
    ActionSet,
    AgentSpec,
    BetaCurve,
    BetaPiece,
    Contract,
    ContractChoice,
    DegenerateInput,
    InfeasibleSafety,
    SingleAgentSolution,
    SweepPoint,
    ValidationError,
    agent_best_response,
    beta_at,
    build_beta_curve,
    build_envelope,
    build_utility_curve,
    check_ic_ir,
    needs_inspection,
    parse_instance,
    principal_utility,
    solve_single,
    sweep_parameter,
)
from inspection_contracts import envelope
from inspection_contracts.multi_agent import UtilityCurve
from inspection_contracts.single_agent import _best_peak
from inspection_contracts.tolerance import TOL
from conftest import (
    CANCEL,
    FLAT_FIRST,
    NONCONVEX_C,
    NONCONVEX_R,
    case_agent,
    make_agent,
    near_one_ir_agent,
    priced,
    random_agent,
    representable,
)


class TestAgentSpec:
    def test_actions_canonicalized_by_cost(self):
        agent = AgentSpec((Action(6, 2), Action(2, 1)), 0.5, 1.0, 0.0)
        assert agent.actions.costs == (1.0, 2.0)
        assert agent.actions.rewards == (2.0, 6.0)

    def test_field_ranges(self):
        acts = (Action(10, 2),)
        with pytest.raises(ValidationError):
            AgentSpec(acts, -0.1, 1.0, 0.0)
        with pytest.raises(ValidationError):
            AgentSpec(acts, 1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            AgentSpec(acts, 1.0, 1.0, 1.0)  # alpha = 1 rejected

    def test_bad_action_values_rejected(self):
        # the spec and build_envelope check values, not Action; a bad value
        # is reported ahead of the order breach it also causes
        for bad in (-1.0, math.nan, math.inf):
            for acts in ((Action(bad, 1.0), Action(3.0, 2.0)), (Action(1.0, bad), Action(3.0, 2.0))):
                for build in (lambda a: AgentSpec(a, 0.5, 1.0, 0.0), build_envelope):
                    with pytest.raises(ValidationError, match="finite and nonnegative") as err:
                        build(acts)
                    assert err.type is ValidationError

    def test_records_a_set_and_the_loader_give_one_spec(self):
        assert [f.name for f in fields(AgentSpec)] == ["actions", "kappa_s", "kappa_i", "alpha"]
        entries = [{"reward": 6.0, "cost": 2.0}, {"reward": 2.0, "cost": 1.0}]
        doc = {"agents": [{"name": "a", "actions": entries, "kappa_s": 0.5, "kappa_i": 1.0,
                           "alpha": 0.1}]}
        specs = [
            AgentSpec((Action(6.0, 2.0), Action(2.0, 1.0)), 0.5, 1.0, 0.1),
            AgentSpec(ActionSet([6.0, 2.0], [2.0, 1.0]), 0.5, 1.0, 0.1),
            parse_instance(doc).agents[0].spec,
        ]
        for spec in specs:
            assert type(spec.actions) is ActionSet
            assert spec == specs[0] and hash(spec) == hash(specs[0])
            assert repr(spec) == repr(specs[0])
            assert spec.actions.envelope == specs[0].actions.envelope

    @pytest.mark.parametrize("which", ["kappa_s", "kappa_i", "alpha"])
    def test_replace_shares_the_action_set(self, which):
        agent = make_agent(NONCONVEX_R, NONCONVEX_C)
        row = replace(agent, **{which: 0.5})
        assert row.actions is agent.actions and getattr(row, which) == 0.5
        with pytest.raises(ValidationError):
            replace(agent, **{which: -1.0})

    def test_actions_are_checked_before_the_parameters(self):
        # equal rewards and three bad parameters: the order breach is reported
        with pytest.raises(DegenerateInput):
            AgentSpec((Action(2.0, 1.0), Action(2.0, 3.0)), -1.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="kappa_s"):
            AgentSpec((Action(2.0, 1.0),), -1.0, 0.0, 1.0)

    def test_actions_checked_once_per_spec(self, monkeypatch):
        # the hull is scanned once per spec too; sweep rows and replace() on a
        # scalar field share both
        calls = {"_check_actions": [], "_scan_hull": []}
        for fn, seen in calls.items():
            original = getattr(envelope, fn)

            def counted(rewards, costs, original=original, seen=seen):
                seen.append(len(rewards))
                return original(rewards, costs)

            for name, module in list(sys.modules.items()):
                if name.startswith("inspection_contracts") and (
                    getattr(module, fn, None) is original
                ):
                    monkeypatch.setattr(module, fn, counted)
        checks, scans = calls.values()
        agent = make_agent(NONCONVEX_R, NONCONVEX_C)
        assert (len(checks), len(scans)) == (1, 1)
        solve_single(agent)
        build_beta_curve(agent)
        build_utility_curve(agent)
        for which in ("kappa_i", "kappa_s", "alpha"):
            sweep_parameter(agent, which, [0.1, 0.5])
        assert (len(checks), len(scans)) == (1, 1)
        for which in ("kappa_s", "kappa_i", "alpha"):
            replace(agent, **{which: 0.5})
        assert (len(checks), len(scans)) == (1, 1)
        build_envelope(agent.actions)
        assert (len(checks), len(scans)) == (2, 2)

    def test_contract_ranges(self):
        with pytest.raises(ValueError):
            Contract(1.2, 0.0)
        with pytest.raises(ValueError):
            Contract(0.5, -0.2)


class TestNeedsInspection:
    def test_rare_side_effects(self):
        agent = make_agent([10.0], [2.0], kappa_s=1.0, alpha=0.05)
        assert needs_inspection(agent)

    def test_zero_safety_cost(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0, alpha=0.05)
        assert not needs_inspection(agent)

    def test_frequent_side_effects(self):
        # one-directional: False does not mean beta=0 is optimal
        agent = make_agent([10.0], [2.0], kappa_s=1.0, alpha=0.2)
        assert not needs_inspection(agent)


class TestBetaCurve:
    def test_unit1_closed_form(self, unit1):
        curve = build_beta_curve(unit1)
        assert curve.gamma_ir == pytest.approx(0.3, abs=1e-12)
        assert len(curve.pieces) == 1
        piece = curve.pieces[0]
        assert (piece.gamma_lo, piece.gamma_hi) == (curve.gamma_ir, 1.0)
        assert not piece.clamped
        for g in np.linspace(0.3, 1.0, 20):
            assert beta_at(curve, g) == pytest.approx(0.1 / g, abs=1e-12)

    def test_unit1_point_values(self, unit1):
        curve = build_beta_curve(unit1)
        assert beta_at(curve, 0.5) == pytest.approx(0.2)
        assert beta_at(curve, 1.0) == pytest.approx(0.1)  # beta_min

    def test_six_action_values(self, nonconvex6):
        curve = build_beta_curve(nonconvex6)
        assert curve.gamma_ir == pytest.approx(3.1 / 7, abs=1e-9)
        # at gamma=0.9 the deviation target sits on action 4's segment
        # (u_h(0.9) - 1 = 4.1 inverts to 0.8)
        assert beta_at(curve, 0.9) == pytest.approx(1 / 9, abs=1e-9)
        assert curve.piece_at(0.91).shadow == 3

    def test_below_threshold_raises(self, nonconvex6):
        curve = build_beta_curve(nonconvex6)
        # a NaN gamma is outside the domain too
        for gamma in (0.35, math.nan):
            with pytest.raises(ValueError):
                beta_at(curve, gamma)

    def test_above_one_raises(self, nonconvex6):
        curve = build_beta_curve(nonconvex6)
        with pytest.raises(ValueError, match=r"^gamma must not exceed 1, got 1\.5$"):
            beta_at(curve, 1.5)

    def test_zero_safety_cost_curve_is_flat_zero(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0)
        curve = build_beta_curve(agent)
        assert curve.gamma_ir == pytest.approx(0.2)
        for g in np.linspace(0.2, 1.0, 15):
            assert beta_at(curve, g) == 0.0

    def test_infeasible_safety(self):
        agent = make_agent([2.0], [1.0], kappa_s=1.5)  # max(R-c)=1 <= kappa_s
        with pytest.raises(InfeasibleSafety):
            build_beta_curve(agent)

    def test_free_action_zero_safety_cost(self):
        # gamma_ir lands exactly at 0; the whole curve must clamp cleanly
        agent = make_agent([5.0], [0.0], kappa_s=0.0, alpha=0.3)
        curve = build_beta_curve(agent)
        assert curve.gamma_ir == 0.0
        assert beta_at(curve, 0.0) == 0.0
        sol = solve_single(agent)
        assert (sol.contract.gamma, sol.contract.beta) == (0.0, 0.0)
        assert sol.utility == pytest.approx(5.0)

    def test_gamma_ir_within_tol_below_one_keeps_its_piece(self):
        agent = near_one_ir_agent()
        curve = build_beta_curve(agent)
        assert 1.0 - TOL < curve.gamma_ir < 1.0
        assert [(p.gamma_lo, p.gamma_hi) for p in curve.pieces] == [(curve.gamma_ir, 1.0)]
        sol = solve_single(agent)
        assert check_ic_ir(agent, sol.contract, (sol.action, True))
        assert sweep_parameter(agent, "kappa_s", [agent.kappa_s])[0].feasible

    def test_split_piece_reaches_zero_at_its_end(self):
        # criterion 6's high agent: beta's zero root c_const / (r_own - d) =
        # 1/3.5 rounds to a beta of 1.1e-16, so the split sits just past it
        agent = make_agent([10.0], [1.0], kappa_s=1.0, kappa_i=2.0, alpha=0.35)
        rising, flat = build_beta_curve(agent).pieces
        assert not rising.clamped and flat.clamped
        assert rising.gamma_hi == flat.gamma_lo > rising.c_const / (rising.r_own - rising.d)
        assert rising.beta(rising.gamma_hi) == 0.0
        assert rising.beta(math.nextafter(rising.gamma_hi, 0.0)) > 0.0

    def test_pieces_partition_domain(self, nonconvex6):
        curve = build_beta_curve(nonconvex6)
        assert curve.pieces[0].gamma_lo == curve.gamma_ir
        assert curve.pieces[-1].gamma_hi == 1.0
        for a, b in zip(curve.pieces, curve.pieces[1:]):
            assert a.gamma_hi == b.gamma_lo
        # boundaries include the envelope breakpoints inside the domain
        bounds = {p.gamma_lo for p in curve.pieces}
        for bp in (0.5, 0.85, 0.9):
            assert any(abs(bp - g) < 1e-12 for g in bounds)


_UNIT1_PIECE = (
    "BetaPiece(gamma_lo=0.3, gamma_hi=1.0, owner=0, shadow=0, clamped=False,"
    " r_own=10.0, c_const=1.0, d=10.0)"
)


@pytest.mark.parametrize(
    "build, field, text",
    [
        (lambda a: build_beta_curve(a).pieces[0], "d", _UNIT1_PIECE),
        (
            lambda a: build_utility_curve(a).top,
            "utility",
            "ContractChoice(gamma=0.3, beta=0.33333333333333337, action=0,"
            " utility=6.666666666666667)",
        ),
        (
            build_beta_curve,
            "gamma_ir",
            "BetaCurve(agent=AgentSpec(actions=ActionSet(rewards=(10.0,), costs=(2.0,)),"
            f" kappa_s=1.0, kappa_i=1.0, alpha=0.0), gamma_ir=0.3, pieces=({_UNIT1_PIECE},))",
        ),
        (
            lambda a: sweep_parameter(a, "kappa_s", [100.0])[0],
            "gamma",
            "SweepPoint(value=100.0, gamma=None, beta=None, utility=None)",
        ),
    ],
    ids=["BetaPiece", "ContractChoice", "BetaCurve", "SweepPoint"],
)
def test_records_are_immutable_values(unit1, build, field, text):
    record, again = build(unit1), build(unit1)
    assert record is not again
    assert record == again and hash(record) == hash(again)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    assert repr(record) == text


class TestBestResponse:
    def test_tie_prefers_safe(self, unit1):
        # both the safe and the unsafe variant of action 1 earn exactly 0
        assert agent_best_response(unit1, Contract(0.3, 1 / 3)) == (0, True)

    def test_unsafe_when_inspection_lax(self, unit1):
        assert agent_best_response(unit1, Contract(0.3, 0.2)) == (0, False)

    def test_reject_when_underpaid(self, unit1):
        assert agent_best_response(unit1, Contract(0.1, 1.0)) is None

    def test_higher_reward_breaks_action_ties(self):
        # both safe actions earn exactly 0 at the breakpoint gamma = 0.25
        agent = make_agent([2.0, 6.0], [0.5, 1.5], kappa_s=0.0)
        assert agent_best_response(agent, Contract(0.25, 1.0)) == (1, True)

    def test_near_ties_are_relative_to_the_best_pair(self):
        # safe and unsafe action 1 are each within TOL * R_n of action 0's
        # utility, but unsafe beats safe by 1.15 * TOL * R_n: the safe pair is
        # not a best response, and check_ic_ir agrees
        agent = make_agent([1.0, 2.0], [0.0, 0.5 - 1.4e-12], kappa_s=2.5e-12)
        contract = Contract(0.5, 2e-13)
        assert agent_best_response(agent, contract) == (1, False)
        assert not check_ic_ir(agent, contract, (1, True))
        assert check_ic_ir(agent, contract, (1, False))


class TestPrincipalUtility:
    def test_safe_formula(self, unit1):
        u = principal_utility(unit1, Contract(0.3, 1 / 3), (0, True))
        assert u == pytest.approx(7 - 1 / 3, abs=1e-12)

    def test_unsafe_is_minus_inf(self, unit1):
        assert principal_utility(unit1, Contract(0.3, 0.2), (0, False)) == -np.inf

    def test_reject_is_zero(self, unit1):
        assert principal_utility(unit1, Contract(0.1, 1.0), None) == 0.0


class TestSolveSingle:
    def test_unit1_boundary_optimum(self, unit1):
        sol = solve_single(unit1)
        assert sol.contract.gamma == pytest.approx(0.3, abs=1e-12)
        assert sol.contract.beta == pytest.approx(1 / 3, abs=1e-12)
        assert sol.action == 0
        assert sol.utility == pytest.approx(7 - 1 / 3, abs=1e-9)

    def test_unit1_interior_optimum(self):
        agent = make_agent([10.0], [2.0], kappa_i=16.0)
        sol = solve_single(agent)
        assert sol.contract.gamma == pytest.approx(0.4, abs=1e-9)
        assert sol.contract.beta == pytest.approx(0.25, abs=1e-9)
        assert sol.utility == pytest.approx(2.0, abs=1e-9)

    def test_unit1_no_safety_cost(self):
        agent = make_agent([10.0], [2.0], kappa_s=0.0)
        sol = solve_single(agent)
        assert sol.contract.gamma == pytest.approx(0.2, abs=1e-12)
        assert sol.contract.beta == 0.0
        assert sol.utility == pytest.approx(8.0, abs=1e-12)

    def test_infeasible(self):
        agent = make_agent([2.0], [1.0], kappa_s=1.5)
        with pytest.raises(InfeasibleSafety):
            solve_single(agent)

    def test_output_is_ic_ir(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            agent = random_agent(rng)
            sol = solve_single(agent)
            resp = agent_best_response(agent, sol.contract)
            assert resp == (sol.action, True)
            gamma = sol.contract.gamma
            own = tuple(agent.actions)[sol.action]
            assert gamma * own.reward - own.cost - agent.kappa_s >= -1e-9



@st.composite
def valid_agents(draw):
    """Agents like conftest.random_agent: 1-8 actions, Assumptions 1-2 hold."""
    n = draw(st.integers(1, 8))
    rewards = np.cumsum(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    costs = np.cumsum(draw(st.lists(st.floats(0.05, 0.6), min_size=n, max_size=n)))
    slack = float(np.max(rewards - costs))
    assume(slack > 0.05)
    return make_agent(
        rewards,
        costs,
        kappa_s=draw(st.floats(0.0, 0.9)) * slack,
        kappa_i=draw(st.floats(0.1, 5.0)),
        alpha=draw(st.floats(0.0, 0.5)),
    )


@settings(max_examples=300, deadline=None)
@given(valid_agents(), st.integers(-300, 300))
# a product of two amounts overflows past 10^153 and underflows below 10^-154
@example(make_agent(NONCONVEX_R, NONCONVEX_C), 154)
@example(make_agent(NONCONVEX_R, NONCONVEX_C), 160)
@example(make_agent(NONCONVEX_R, NONCONVEX_C), -200)
def test_answer_does_not_depend_on_currency_unit(agent, k):
    unit = 10.0**k
    assume(representable(agent, unit))
    base, sol = solve_single(agent), solve_single(priced(agent, unit))
    assert sol.action == base.action
    assert sol.contract.gamma == pytest.approx(base.contract.gamma, abs=1e-9)
    assert sol.contract.beta == pytest.approx(base.contract.beta, abs=1e-9)
    assert sol.utility == pytest.approx(base.utility * unit, rel=1e-9)
    assert check_ic_ir(priced(agent, unit), sol.contract, (sol.action, True))


def _reference_peak(piece, kappa_i):
    """``_peak``'s reference, with the owner: its closed form written out on
    its own, through the piece's ``beta``."""
    if piece.clamped:
        gamma = piece.gamma_lo
    else:
        root = math.sqrt(kappa_i / piece.r_own) * math.sqrt(max(piece.c_const / piece.d, 0.0))
        gamma = min(max(root, piece.gamma_lo), piece.gamma_hi)
    beta = piece.beta(gamma)
    u = (1.0 - gamma) * piece.r_own - beta * kappa_i
    return ContractChoice(gamma, beta, piece.owner, u)


def _rank(choice):
    """The solver's tie rule as a sort key: utility, then smaller beta, then smaller gamma."""
    return choice.utility, -choice.beta, -choice.gamma


def _max_peak(curve, kappa_i):
    """``_best_peak``'s reference: a record per peak, and ``max`` over them."""
    peaks = (_reference_peak(p, kappa_i) for p in curve.pieces)
    best = max(peaks, key=_rank)
    return SingleAgentSolution(Contract(best.gamma, best.beta), best.action, best.utility)


def _reference_utility_curve(agent):
    """``build_utility_curve``'s reference: every peak as a record."""
    bc = build_beta_curve(agent)
    beta_min = beta_at(bc, 1.0)
    clamped = [_reference_peak(p, agent.kappa_i) for p in bc.pieces if p.clamped]
    if clamped:
        base = max(clamped, key=lambda c: c.utility)
    else:
        base = ContractChoice(1.0, beta_min, bc.pieces[-1].owner, -beta_min * agent.kappa_i)
    rises = []
    cur, cursor = base, beta_min
    for piece in reversed(bc.pieces):
        if piece.clamped:
            continue
        lo, hi = cursor, piece.beta(piece.gamma_lo)
        if hi <= lo:
            continue
        cursor = hi
        peak = _reference_peak(piece, agent.kappa_i)
        if _rank(peak) > _rank(cur):
            rises.append((piece, lo, peak))
            cur = peak
    return UtilityCurve(bc, beta_min, cursor, base, tuple(rises))


# two actions and no safety cost: both pieces are clamped, on [0.5, 0.75] and
# [0.75, 1], and at kappa_i = 1 both peaks are worth exactly 2, (1 - 0.5)*4
# and (1 - 0.75)*8; the first is the utility curve's base
TIED_CLAMPED = make_agent([4.0, 8.0], [2.0, 5.0], kappa_s=0.0)
CLAMPED_HALF, CLAMPED_THREE_QUARTERS = build_beta_curve(TIED_CLAMPED).pieces
# an unclamped piece whose peak is worth 2 too: gamma = 0.25, where beta = 1
# and (1 - 0.25)*4 - 1 = 2
STEEP = BetaPiece(0.25, 0.5, 2, 2, False, 4.0, 1.0, 4.0)


def _tie_curve(*pieces):
    """A hand-built curve: ``_best_peak`` reads only its pieces."""
    return BetaCurve(TIED_CLAMPED, pieces[0].gamma_lo, pieces)


TIES = [
    # a tie in utility and beta goes to the smaller gamma, wherever it is
    (build_beta_curve(TIED_CLAMPED), (0.5, 0.0, 0)),
    (_tie_curve(CLAMPED_THREE_QUARTERS, CLAMPED_HALF), (0.5, 0.0, 0)),
    # a tie in utility goes to the smaller beta, before the smaller gamma
    (_tie_curve(STEEP, CLAMPED_THREE_QUARTERS), (0.75, 0.0, 1)),
    (_tie_curve(CLAMPED_THREE_QUARTERS, STEEP), (0.75, 0.0, 1)),
    # a full tie goes to the first piece
    (_tie_curve(CLAMPED_HALF, CLAMPED_HALF._replace(owner=1)), (0.5, 0.0, 0)),
    (_tie_curve(CLAMPED_HALF._replace(owner=1), CLAMPED_HALF), (0.5, 0.0, 1)),
]


@pytest.mark.parametrize("curve, winner", TIES)
def test_tied_peaks_follow_the_documented_rule(curve, winner):
    sol = _best_peak(curve, 1.0)
    assert (sol.contract.gamma, sol.contract.beta, sol.action, sol.utility) == (*winner, 2.0)


@st.composite
def curves_and_prices(draw):
    """A valid agent's curve and a kappa_i: a multiple of the agent's own, or
    one near either end of the double range."""
    agent = draw(valid_agents())
    kappa_i = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]).map(lambda f: f * agent.kappa_i)
                   | st.floats(1e-301, 1e-299) | st.floats(1e299, 1e301))
    return build_beta_curve(agent), kappa_i


def _case_curve(case):
    agent = case_agent(case)
    return build_beta_curve(agent), agent.kappa_i


@settings(max_examples=300, deadline=None)
@given(curves_and_prices())
@example(_case_curve(CANCEL["A"]))
@example(_case_curve(CANCEL["B"]))
@example(_case_curve(CANCEL["C"]))
@example(_case_curve(CANCEL["D"]))
@example(_case_curve(FLAT_FIRST))
@example((build_beta_curve(make_agent(NONCONVEX_R, NONCONVEX_C)), 1.0))
@example((TIES[0][0], 1.0))
@example((TIES[2][0], 1.0))
@example((TIES[3][0], 1.0))
@example((TIES[5][0], 1.0))
def test_one_walk_keeps_the_best_peak_by_max(case):
    curve, kappa_i = case
    # bit for bit: repr tells -0.0 from 0.0 and prints each double exactly
    assert repr(_best_peak(curve, kappa_i)) == repr(_max_peak(curve, kappa_i))
    agent = replace(curve.agent, kappa_i=kappa_i)
    assert repr(build_utility_curve(agent)) == repr(_reference_utility_curve(agent))


@settings(max_examples=300, deadline=None)
@given(valid_agents())
# two peaks tied in utility, 1.1e-16 apart in beta: the curve kept the first
# in beta order, the larger beta, until both walks shared one tie rule
@example(make_agent([1.7082911027108005, 3.324784959859281],
                    [0.21840037874196172, 0.5180680620343416], kappa_s=0.7439184575522756,
                    kappa_i=1.8970174414884304, alpha=0.2247135937148101))
def test_utility_curve_top_is_the_solvers_contract(agent):
    sol = solve_single(agent)
    top = build_utility_curve(agent).top
    assert tuple(top) == (sol.contract.gamma, sol.contract.beta, sol.action, sol.utility)


@st.composite
def near_tie_contracts(draw, agent):
    """The solver's contract, or one where two pairs (or a pair and the
    outside option) tie, nudged by a few ulps up to a few TOL."""
    rewards, costs, k_s = agent.actions.rewards, agent.actions.costs, agent.kappa_s
    i, j = draw(st.integers(0, agent.n - 1)), draw(st.integers(0, agent.n - 1))
    kind = draw(st.sampled_from(["solver", "ir", "safe-safe", "safe-unsafe"]))
    beta = draw(st.floats(0.0, 1.0))
    if kind == "solver":
        sol = solve_single(agent)
        gamma, beta = sol.contract.gamma, sol.contract.beta
    elif kind == "ir":  # safe pair i earns 0
        gamma = (costs[i] + k_s) / rewards[i]
    elif kind == "safe-safe" and i != j:  # safe pairs i and j earn the same
        gamma = (costs[j] - costs[i]) / (rewards[j] - rewards[i])
    else:  # safe pair i and unsafe pair j earn the same
        gamma = draw(st.floats(0.0, 1.0))
        shade = (1.0 - agent.alpha) * gamma * rewards[j]
        if shade > 0.0:
            beta = 1.0 - (gamma * rewards[i] - costs[i] - k_s + costs[j]) / shade
    unit = draw(st.sampled_from([1e-16, 1e-13, TOL, 3 * TOL]))
    gamma += draw(st.integers(-3, 3)) * unit
    beta += draw(st.integers(-3, 3)) * unit
    return Contract(min(max(gamma, 0.0), 1.0), min(max(beta, 0.0), 1.0))


@settings(max_examples=200, deadline=None)
@given(valid_agents(), st.data())
def test_best_response_passes_check_ic_ir(agent, data):
    contract = data.draw(near_tie_contracts(agent))
    response = agent_best_response(agent, contract)
    if response is not None:
        assert check_ic_ir(agent, contract, response)


@pytest.mark.parametrize("k", range(-300, 301))
def test_nonconvex_optimum_in_any_currency_unit(nonconvex6, k):
    agent = priced(nonconvex6, 10.0**k)
    sol = solve_single(agent)
    assert sol.action == 3
    assert sol.contract.gamma == pytest.approx(1 / 2, abs=1e-12)
    assert sol.contract.beta == pytest.approx(2 / 7, abs=1e-12)
    assert check_ic_ir(agent, sol.contract, (3, True))


class TestSweep:
    def test_kappa_i_grid(self, unit1):
        rows = sweep_parameter(unit1, "kappa_i", [1.0, 16.0, 25.0])
        assert [r.gamma for r in rows] == pytest.approx([0.3, 0.4, 0.5], abs=1e-9)
        assert [r.beta for r in rows] == pytest.approx([1 / 3, 0.25, 0.2], abs=1e-9)

    def test_kappa_s_grid(self):
        agent = make_agent([10.0], [2.0], kappa_i=16.0)
        rows = sweep_parameter(agent, "kappa_s", [1.0, 4.0])
        assert [r.gamma for r in rows] == pytest.approx([0.4, 0.8], abs=1e-9)
        assert rows[0].gamma <= rows[1].gamma

    def test_empty_grid(self, unit1):
        assert sweep_parameter(unit1, "kappa_i", []) == []

    def test_infeasible_rows_marked(self, unit1):
        rows = sweep_parameter(unit1, "kappa_s", [1.0, 100.0])
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].value == 100.0

    def test_bad_parameter_name(self, unit1):
        with pytest.raises(ValueError):
            sweep_parameter(unit1, "kappa_x", [1.0])


def _solved_row(agent, which, v):
    """One sweep row the long way: a fresh spec and a full solve."""
    try:
        sol = solve_single(replace(agent, **{which: v}))
    except (ValidationError, InfeasibleSafety):
        return SweepPoint(v, None, None, None)
    return SweepPoint(v, sol.contract.gamma, sol.contract.beta, sol.utility)


@st.composite
def sweep_cases(draw):
    """An agent, a swept field and a grid mixing valid and invalid values."""
    agent = draw(valid_agents())
    which = draw(st.sampled_from(["kappa_i", "kappa_s", "alpha"]))
    slack = max(a.reward - a.cost for a in agent.actions)
    edges = [math.nan, math.inf, -1.0, 0.0, 1.0, 1.5]
    if which == "kappa_s":
        # at and past max(R - c) safety is infeasible; one ulp below, gamma_ir ~ 1
        edges += [slack, 2.0 * slack, math.nextafter(slack, 0.0)]
        inside = st.floats(0.0, 1.0).map(lambda f: f * slack)
    elif which == "kappa_i":
        inside = st.floats(1e-6, 50.0)
    else:
        inside = st.floats(0.0, 1.0, exclude_max=True)
    grid = draw(st.lists(st.sampled_from(edges) | inside, max_size=8))
    return agent, which, grid


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_sweep_equals_solving_each_row(case):
    agent, which, grid = case
    assert agent.actions.envelope == build_envelope(agent.actions)
    assert sweep_parameter(agent, which, grid) == [_solved_row(agent, which, v) for v in grid]


@settings(max_examples=200, deadline=None)
@given(valid_agents(), st.floats(0.01, 20.0), st.floats(0.01, 20.0))
def test_pay_rises_and_inspection_falls_with_kappa_i(agent, k1, k2):
    assume(k1 != k2)
    lo, hi = (solve_single(replace(agent, kappa_i=k)) for k in sorted((k1, k2)))
    assert hi.contract.gamma >= lo.contract.gamma - TOL
    assert hi.contract.beta <= lo.contract.beta + TOL


@settings(max_examples=200, deadline=None)
@given(valid_agents(), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
def test_pay_rises_with_kappa_s(agent, f1, f2):
    assume(f1 != f2)
    slack = max(a.reward - a.cost for a in agent.actions)
    lo, hi = (solve_single(replace(agent, kappa_s=f * slack)) for f in sorted((f1, f2)))
    assert hi.contract.gamma >= lo.contract.gamma - TOL


class TestCurveShape:
    def setup_method(self):
        self.rng = np.random.default_rng(2024)

    def test_monotone_decreasing(self):
        for _ in range(40):
            agent = random_agent(self.rng)
            curve = build_beta_curve(agent)
            gs = np.sort(self.rng.uniform(curve.gamma_ir, 1.0, 30))
            vals = [beta_at(curve, g) for g in gs]
            for (g1, v1), (g2, v2) in zip(zip(gs, vals), zip(gs[1:], vals[1:])):
                assert v1 >= v2 - 1e-9
                if v2 > 1e-9 and g2 - g1 > 1e-6:
                    assert v1 > v2  # strictly decreasing while positive

    def test_midpoint_convex_within_breakpoint_intervals(self):
        for _ in range(40):
            agent = random_agent(self.rng)
            curve = build_beta_curve(agent)
            cuts = [curve.gamma_ir]
            breakpoints = curve.agent.actions.envelope.breakpoints
            cuts += [b for b in breakpoints if curve.gamma_ir < b < 1]
            cuts.append(1.0)
            for lo, hi in zip(cuts, cuts[1:]):
                a, b = np.sort(self.rng.uniform(lo, hi, 2))
                mid = 0.5 * (a + b)
                assert beta_at(curve, mid) <= 0.5 * (
                    beta_at(curve, a) + beta_at(curve, b)
                ) + 1e-9

    def test_six_action_global_nonconvexity(self, nonconvex6):
        # spanning the breakpoint at 0.5 the curve bends the wrong way
        curve = build_beta_curve(nonconvex6)
        a, b = 0.46, 0.54
        mid = 0.5 * (a + b)
        assert beta_at(curve, mid) > 0.5 * (beta_at(curve, a) + beta_at(curve, b)) + 1e-6

    def test_raising_kappa_s_raises_beta_pointwise(self):
        for _ in range(25):
            agent = random_agent(self.rng, alpha_max=0.3)
            slack = max(a.reward - a.cost for a in agent.actions)
            lo_ks = 0.2 * slack
            hi_ks = 0.7 * slack
            low = AgentSpec(agent.actions, lo_ks, agent.kappa_i, agent.alpha)
            high = AgentSpec(agent.actions, hi_ks, agent.kappa_i, agent.alpha)
            c_low, c_high = build_beta_curve(low), build_beta_curve(high)
            start = max(c_low.gamma_ir, c_high.gamma_ir)
            for g in np.linspace(start, 1.0, 25):
                assert beta_at(c_high, g) >= beta_at(c_low, g) - 1e-12
