import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    BudgetExceeded,
    InspectionSchedule,
    InvalidProbability,
    ValidationError,
    build_schedule,
    exact_marginals,
    sample_assignment,
)
from inspection_contracts.scheduler import InspectorRule, _draw


class TestBuild:
    def test_single_inspector_with_idle(self):
        s = build_schedule([0.3, 0.5], 1)
        rule = s.rules[0].when_prev_missed
        probs = dict(rule)
        assert probs[0] == pytest.approx(0.3)
        assert probs[1] == pytest.approx(0.5)
        # the remaining 0.2 is the idle fall-through
        assert sum(p for _, p in rule) == pytest.approx(0.8)
        assert exact_marginals(s) == pytest.approx([0.3, 0.5])

    def test_three_agents_two_inspectors(self):
        s = build_schedule([0.6, 0.8, 0.6], 2)
        assert tuple(rule.boundary for rule in s.rules) == (1, 2)
        first = dict(s.rules[0].when_prev_missed)
        assert first[0] == pytest.approx(0.6)
        # inspector 1 picks its boundary agent with probability zeta_1 = 0.4
        assert first[1] == pytest.approx(0.4)
        # inspector 2, given inspector 1 took agent 2 (the boundary)
        hit = dict(s.rules[1].when_prev_hit)
        assert hit[2] == pytest.approx(1.0)
        # and given it did not
        miss = dict(s.rules[1].when_prev_missed)
        assert miss[1] == pytest.approx(2 / 3)
        assert miss[2] == pytest.approx(1 / 3)
        # inspector 2 picks its boundary agent with probability zeta_2 = 0.6
        assert first[1] * hit[2] + (1 - first[1]) * miss[2] == pytest.approx(0.6)

    def test_deterministic_full_target(self):
        s = build_schedule([1.0], 1)
        for seed in (0, 1, 42):
            assert sample_assignment(s, seed) == (0,)

    def test_boundary_never_reached_is_none(self):
        s = build_schedule([0.2, 0.1], 3)
        assert tuple(rule.boundary for rule in s.rules) == (None,)

    def test_exact_cumulative_boundary(self):
        # cumulative hits 1 exactly at agent 2; residual equals its target
        s = build_schedule([0.4, 0.6, 0.5], 2)
        assert s.rules[0].boundary == 1
        # so inspector 1 picks its boundary agent with probability zeta_1 = 0.6
        assert dict(s.rules[0].when_prev_missed)[1] == pytest.approx(0.6)
        assert exact_marginals(s) == pytest.approx([0.4, 0.6, 0.5])

    def test_rejects_bad_targets(self):
        with pytest.raises(InvalidProbability):
            build_schedule([0.5, 1.2], 2)
        with pytest.raises(InvalidProbability):
            build_schedule([-0.1], 1)
        with pytest.raises(BudgetExceeded):
            build_schedule([0.9, 0.9], 1)
        with pytest.raises(ValidationError):
            build_schedule([0.5], 0)

    def test_zero_targets(self):
        s = build_schedule([0.0, 0.0, 0.0], 1)
        assert exact_marginals(s) == pytest.approx([0.0, 0.0, 0.0])
        assert sample_assignment(s, 7) == (None,)


class TestMarginals:
    def test_example_forward_pass(self):
        s = build_schedule([0.6, 0.8, 0.6], 2)
        assert exact_marginals(s) == pytest.approx([0.6, 0.8, 0.6], abs=1e-15)

    def test_random_targets_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(1, 51))
            budget = int(rng.integers(1, 6))
            targets = rng.uniform(0, 1, m)
            total = targets.sum()
            if total > budget:
                targets *= budget / total * rng.uniform(0.2, 1.0)
            targets = [float(t) for t in targets]
            s = build_schedule(targets, budget)
            for got, want in zip(exact_marginals(s), targets):
                assert abs(got - want) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    st.integers(1, 4),
)
# agent 1 lies inside inspector 1's unit, 1e-9 short of its end: a boundary
# placed on agent 0 left agent 1 to an inspector 2 that the budget lacks
@example([0.9999999995, 3e-10], 1)
def test_marginals_match_any_feasible_targets(raw, budget):
    total = sum(raw)
    targets = [t * budget / total * 0.99 for t in raw] if total > budget else raw
    s = build_schedule(targets, budget)
    for got, want in zip(exact_marginals(s), targets):
        assert abs(got - want) <= 1e-12


def test_full_budget_many_targets():
    # a plain float sum of these targets is 300.0000000000056
    s = build_schedule([0.3] * 1000, 300)
    assert all(abs(got - 0.3) <= 1e-12 for got in exact_marginals(s))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.floats(0.0, 1.0))
def test_uniform_full_budget_marginals(m, share):
    budget = max(1, round(share * m))
    target = budget / m
    s = build_schedule([target] * m, budget)
    assert all(abs(got - target) <= 1e-12 for got in exact_marginals(s))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0])),
        max_size=30,
    ),
    st.integers(0, 3),
    st.integers(1, 50),
    st.integers(0, 2**32),
)
@example([0.9999999999999999, 9.145504928400479e-94], 0, 1, 0)
def test_spare_inspectors_are_idle(targets, extra, k, seed):
    # rules hold real mass only, so past the targets' sum a larger budget adds
    # only idle inspectors; at a budget equal to the sum, the last boundary
    # agent may keep a rounding residue that one more inspector would take
    budget = math.floor(math.fsum(targets)) + 1 + extra
    small = build_schedule(targets, budget)
    large = build_schedule(targets, budget + k)
    assert large.rules == small.rules
    assert exact_marginals(large) == exact_marginals(small)
    assert sample_assignment(large, seed) == sample_assignment(small, seed) + (None,) * k


def test_huge_budget_builds_real_rules_only():
    s = build_schedule([0.5] * 10, 10**8)
    assert len(s.rules) == 5
    assert exact_marginals(s) == pytest.approx([0.5] * 10, abs=1e-15)


class TestSampling:
    def test_deterministic_given_seed(self):
        s = build_schedule([0.6, 0.8, 0.6], 2)
        assert sample_assignment(s, 123) == sample_assignment(s, 123)

    def test_no_duplicate_inspections_and_windows(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            m = int(rng.integers(2, 12))
            budget = int(rng.integers(1, 5))
            targets = rng.uniform(0, 1, m)
            total = targets.sum()
            if total > budget:
                targets *= budget / total
            s = build_schedule([float(t) for t in targets], budget)
            for seed in range(50):
                picks = sample_assignment(s, seed)
                agents = [a for a in picks if a is not None]
                assert len(agents) == len(set(agents))
                # one entry per inspector; those past the last rule are idle
                assert len(picks) == budget
                assert all(a is None for a in picks[len(s.rules) :])
                # inspector b's agent lies within its window (consecutive
                # windows overlap in at most the shared boundary)
                for b, a in enumerate(picks[: len(s.rules)]):
                    if a is None:
                        continue
                    lo = s.rules[b].prev_boundary
                    hi = s.rules[b].boundary
                    assert lo <= a <= (len(targets) - 1 if hi is None else max(hi, lo))
                # inspectors b-1 and b never both pick the shared boundary
                for b in range(1, len(s.rules)):
                    shared = s.rules[b].prev_boundary
                    assert not (picks[b - 1] == shared and picks[b] == shared)

    def test_empirical_marginals(self):
        s = build_schedule([0.6, 0.8, 0.6], 2)
        n = 20000
        counts = np.zeros(3)
        for seed in range(n):
            for a in sample_assignment(s, seed):
                if a is not None:
                    counts[a] += 1
        for p, hits in zip((0.6, 0.8, 0.6), counts):
            assert abs(hits / n - p) <= 3 * np.sqrt(p * (1 - p) / n)


def _scan_draw(schedule, rng):
    """Reference draw: rescan each branch's running sum until it passes u."""
    out = []
    prev_hit = False
    for rule in schedule.rules:
        branch = rule.when_prev_hit if prev_hit else rule.when_prev_missed
        u = rng.random()
        agent = None
        acc = 0.0
        for a, p in branch:
            acc += p
            if u < acc:
                agent = a
                break
        prev_hit = agent is not None and agent == rule.boundary
        out.append(agent)
    return out


# ten rules: the targets sum to 10 up to rounding
TEN_RULES = [round(0.05 + 0.9 * ((i * 7) % 20) / 19, 3) for i in range(20)]

# sample_assignment(build_schedule([0.3] * 1000, 300), 0)
THOUSAND_SEED0 = (
    2, 5, 8, 10, 14, 17, 22, 24, 28, 31, 36, 38, 40, 45, 48, 50, 56, 59, 62, 66,
    67, 72, 76, 79, 81, 83, 88, 92, 96, 99, 101, 106, 107, 112, 115, 116, 122,
    124, 129, 132, 133, 138, 142, 144, 147, 152, 153, 158, 160, 166, 169, 171,
    173, 177, 181, 186, 187, 191, 195, 198, 202, 205, 209, 212, 215, 218, 221,
    224, 228, 230, 233, 237, 242, 245, 248, 250, 255, 259, 263, 266, 269, 273,
    275, 277, 282, 284, 289, 292, 296, 298, 303, 305, 308, 312, 316, 319, 322,
    323, 328, 331, 335, 339, 340, 345, 346, 350, 355, 357, 362, 363, 367, 372,
    373, 378, 383, 385, 388, 390, 395, 398, 401, 404, 407, 413, 414, 416, 423,
    424, 426, 430, 435, 439, 440, 444, 446, 450, 453, 458, 461, 463, 468, 470,
    473, 479, 480, 484, 489, 492, 496, 497, 502, 506, 507, 512, 516, 518, 520,
    525, 528, 530, 534, 537, 541, 544, 547, 551, 556, 557, 561, 563, 569, 571,
    573, 577, 580, 586, 588, 590, 594, 599, 602, 605, 609, 611, 614, 618, 620,
    623, 627, 630, 635, 637, 642, 645, 647, 651, 655, 658, 662, 663, 668, 670,
    673, 678, 681, 685, 689, 692, 694, 697, 701, 706, 709, 712, 713, 719, 722,
    723, 729, 733, 735, 738, 741, 743, 749, 750, 756, 758, 760, 763, 768, 772,
    774, 779, 780, 786, 788, 790, 794, 798, 802, 806, 807, 811, 815, 817, 822,
    824, 826, 830, 835, 838, 843, 846, 849, 850, 855, 858, 862, 865, 869, 872,
    874, 878, 880, 885, 886, 890, 894, 899, 902, 904, 908, 910, 913, 919, 920,
    924, 928, 930, 934, 937, 940, 943, 948, 950, 954, 957, 961, 963, 969, 971,
    976, 979, 981, 984, 988, 991, 994, 999
)


class TestDrawStream:
    """The draws are pinned: a faster sampler must return the same agents."""

    def test_three_agents_two_inspectors(self):
        s = build_schedule([0.6, 0.8, 0.6], 2)
        got = [sample_assignment(s, seed) for seed in range(8)]
        assert got == [(1, 2), (0, 2), (1, 2), (0, 1), (0, 1), (1, 2), (1, 2), (0, 1)]

    def test_idle_fall_through(self):
        s = build_schedule([0.3, 0.5], 1)
        got = [sample_assignment(s, seed) for seed in range(8)]
        assert got == [(None,), (0,), (None,), (0,), (0,), (1,), (1,), (1,)]

    def test_ten_rules(self):
        s = build_schedule(TEN_RULES, 10)
        assert len(s.rules) == 10
        assert [sample_assignment(s, seed) for seed in range(4)] == [
            (2, 5, 7, 8, 10, 11, 14, 15, 17, 19),
            (1, 5, 7, 8, 10, 11, 14, 16, 17, 18),
            (2, 5, 6, 7, 11, 13, 14, 15, 17, 19),
            (1, 4, 5, 8, 11, 12, 13, 16, 17, 18),
        ]

    def test_thousand_targets(self):
        s = build_schedule([0.3] * 1000, 300)
        assert sample_assignment(s, 0) == THOUSAND_SEED0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0])),
        max_size=30,
    ),
    st.integers(1, 12),
    st.integers(0, 2**32),
)
def test_draw_matches_a_linear_scan(raw, budget, seed):
    total = math.fsum(raw)
    targets = [t * budget / total for t in raw] if total > budget else raw
    s = build_schedule(targets, budget)
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert _draw(s, ours) == _scan_draw(s, ref)


class TestMalformedRule:
    """A hand-built schedule is checked when it is built, not when drawn."""

    @pytest.mark.parametrize(
        "branch",
        [((0, -0.1),), ((0, 0.5), (1, math.nan)), ((0, 0.7), (1, 0.7)), ((0, math.inf),)],
        ids=["negative", "nan", "over-one", "inf"],
    )
    @pytest.mark.parametrize("side", ["when_prev_missed", "when_prev_hit"])
    def test_rejected(self, branch, side):
        ok = ((0, 0.5),)
        branches = {"when_prev_missed": ok, "when_prev_hit": ok, side: branch}
        rule = InspectorRule(0, None, **branches)
        with pytest.raises(RuntimeError, match=r"inspector 1: malformed rule"):
            InspectionSchedule((0.5, 0.5), 1, (rule,))

    def test_rounding_above_one_is_accepted(self):
        rule = InspectorRule(0, None, (), ((0, 0.5), (1, 0.5 + 1e-12)))
        s = InspectionSchedule((0.5, 0.5), 1, (rule,))
        assert _draw(s, random.Random(3)) == _scan_draw(s, random.Random(3))
