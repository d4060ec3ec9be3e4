"""Each correctness check accepts the program's answer and rejects a wrong one."""

from dataclasses import replace

import numpy as np
import pytest

import inputs
from checks import (
    RawAgent,
    check_allocation,
    check_beta_samples,
    check_contract,
    check_draws,
    check_frequencies,
    check_oracle_allocation,
    check_oracle_single,
)
from harness import CheckFailed, Op
from workloads import ContractDesign, equal_split_reference, spec_of

from inspection_contracts import (
    AllocationProblem,
    allocate,
    beta_at,
    build_beta_curve,
    build_schedule,
    sample_assignment,
    solve_single,
)


@pytest.fixture
def doc():
    return inputs.small_agent(np.random.default_rng(7), "a", 5, kappa_s_frac=(0.3, 0.5),
                              alpha=(0.0, 0.1))


def test_contract_check_rejects_lowered_beta(doc):
    raw, sol = RawAgent.from_doc(doc), solve_single(spec_of(doc))
    c = sol.contract
    check_contract(raw, c.gamma, c.beta, sol.action, sol.utility, "solver")
    assert c.beta > 0.01
    with pytest.raises(CheckFailed, match="not IC"):
        check_contract(raw, c.gamma, c.beta - 0.01, sol.action,
                       sol.utility + 0.01 * raw.kappa_i, "lowered")
    with pytest.raises(CheckFailed, match="utility"):
        check_contract(raw, c.gamma, c.beta, sol.action, sol.utility + 1e-3, "wrong utility")


def test_beta_sample_check_rejects_beta_below_the_curve(doc):
    raw, curve = RawAgent.from_doc(doc), build_beta_curve(spec_of(doc))
    gammas = np.linspace(curve.gamma_ir, 1.0, 9)
    samples = [(float(g), beta_at(curve, g)) for g in gammas]
    check_beta_samples(raw, samples, "curve")
    k = next(i for i, (_, b) in enumerate(samples) if b > 0.02)
    lowered = list(samples)
    lowered[k] = (samples[k][0], samples[k][1] - 0.01)
    with pytest.raises(CheckFailed, match="does not deter"):
        check_beta_samples(raw, lowered, "lowered")
    raised = [(g, min(b + 0.01, 1.0)) for g, b in samples]
    with pytest.raises(CheckFailed, match="not the least"):
        check_beta_samples(raw, raised, "raised")


@pytest.fixture
def allocation():
    rng = np.random.default_rng(3)
    docs = inputs.feasible_group(rng, 4, 1, lambda l: 3, share=0.5, kappa_s_frac=(0.1, 0.3),
                                 alpha=(0.0, 0.1))
    raws = [RawAgent.from_doc(d) for d in docs]
    alloc = allocate(AllocationProblem(tuple(spec_of(d) for d in docs), 1, delta=0.01))
    return raws, alloc


def test_allocation_check_rejects_caps_above_budget(allocation):
    raws, alloc = allocation
    check_allocation(raws, 1, alloc.caps, alloc.contracts, alloc.total_utility, "dp")
    over = [c * 1.5 + 0.1 for c in alloc.caps]
    with pytest.raises(CheckFailed, match="caps sum"):
        check_allocation(raws, 1, over, alloc.contracts, alloc.total_utility, "over")
    below = list(alloc.caps)
    k = max(range(len(below)), key=lambda l: alloc.contracts[l].beta)
    below[k] = alloc.contracts[k].beta - 0.01
    with pytest.raises(CheckFailed, match="above its cap"):
        check_allocation(raws, 1, below, alloc.contracts, alloc.total_utility, "cap")


def test_equal_split_reference_is_a_lower_bound(allocation):
    raws, alloc = allocation
    ref = equal_split_reference(raws, 1, 0.01)
    assert np.isfinite(ref) and ref <= alloc.total_utility + 1e-9


def test_draw_check_rejects_an_agent_drawn_twice():
    targets = [0.6, 0.8, 0.6]
    sched = build_schedule(targets, 2)
    draws = [sample_assignment(sched, s) for s in range(4000)]
    check_draws(draws, targets, 2, "draws")
    k = next(i for i, d in enumerate(draws) if None not in d)
    draws[k] = (draws[k][0], draws[k][0])
    with pytest.raises(CheckFailed, match="twice"):
        check_draws(draws, targets, 2, "doubled")


def test_frequency_check_rejects_a_biased_rate():
    check_frequencies([600, 0, 1000], 1000, [0.6, 0.0, 1.0], "exact")
    with pytest.raises(CheckFailed, match="drawn"):
        check_frequencies([700], 1000, [0.6], "biased")
    with pytest.raises(CheckFailed, match="drawn"):
        check_frequencies([1], 1000, [0.0], "never")


def test_oracle_checks_reject_a_solver_below_the_oracle():
    check_oracle_single(1.0, 1.015, "close")
    with pytest.raises(CheckFailed, match="below oracle"):
        check_oracle_single(1.0, 1.03, "below")
    check_oracle_allocation(2.0, 2.0, 2.05, 0.1, "ok")
    with pytest.raises(CheckFailed, match="coarse"):
        check_oracle_allocation(1.9, 2.0, 2.0, 0.5, "coarse")
    with pytest.raises(CheckFailed, match="gap_bound"):
        check_oracle_allocation(2.0, 2.0, 2.2, 0.1, "fine")


def test_raw_agent_sorts_actions_by_cost(doc):
    doc = dict(doc, actions=list(reversed(doc["actions"])))
    raw = RawAgent.from_doc(doc)
    assert np.all(np.diff(raw.costs) > 0) and np.all(np.diff(raw.rewards) > 0)


@pytest.mark.parametrize("k", [0, 3])
def test_rescale_check_rejects_a_copy_off_the_known_optimum(k):
    doc = inputs.nonconvex_scaled(k)
    state = {"scaled_raws": {k: RawAgent.from_doc(doc)}}
    sol = solve_single(spec_of(doc))
    ContractDesign._check_rescale(state, Op("rescale", k, sol))
    # under the same contract action 3 (index 2) ties with the optimum's
    # action and passes IC/IR, but pays the principal less
    beta = sol.contract.beta
    other = replace(sol, action=2, utility=(0.5 * 7.0 - beta) * 10.0**k)
    with pytest.raises(CheckFailed, match="action"):
        ContractDesign._check_rescale(state, Op("rescale", k, other))
