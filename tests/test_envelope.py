import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inspection_contracts import (
    Action,
    DegenerateInput,
    ValidationError,
    build_beta_curve,
    build_envelope,
    eval_envelope,
    invert_envelope,
)
from conftest import CANCEL, NONCONVEX_C, NONCONVEX_R, case_agent


def lines(rewards, costs):
    return tuple(Action(r, c) for r, c in zip(rewards, costs))


def columns(actions):
    """The (rewards, costs) columns that evaluation and inversion take."""
    return [a.reward for a in actions], [a.cost for a in actions]


def pointwise_max(actions, gamma):
    return max(gamma * a.reward - a.cost for a in actions)


class TestBuild:
    def test_two_lines(self):
        acts = lines([2, 6], [1, 2])
        env = build_envelope(acts)
        assert env.hull_actions == (0, 1)
        assert env.breakpoints == pytest.approx([(2 - 1) / (6 - 2)])

    def test_six_action_instance_all_on_hull(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        assert env.hull_actions == (0, 1, 2, 3, 4, 5)
        assert env.breakpoints == pytest.approx([0.2, 0.225, 0.5, 0.85, 0.9], abs=1e-12)
        # frozen breakpoints double-checked against the pointwise-max oracle:
        # owners must match on a fine grid
        for g in np.arange(0.0, 1.0001, 1e-4):
            assert eval_envelope(env, *columns(acts), g) == pytest.approx(
                pointwise_max(acts, g), abs=1e-12
            )

    @pytest.mark.parametrize("k", range(-9, 10))
    def test_hull_does_not_depend_on_currency_unit(self, k):
        unit = 10.0**k
        acts = lines([r * unit for r in NONCONVEX_R], [c * unit for c in NONCONVEX_C])
        env = build_envelope(acts)
        assert env.hull_actions == (0, 1, 2, 3, 4, 5)
        assert env.breakpoints == pytest.approx([0.2, 0.225, 0.5, 0.85, 0.9], abs=1e-12)

    def test_single_action(self):
        env = build_envelope(lines([10], [2]))
        assert env.hull_actions == (0,)
        assert env.breakpoints == ()

    def test_dominated_line_dropped(self):
        # middle point sits above the chord between its neighbours
        acts = lines([2, 4, 6], [1, 3, 3.5])
        env = build_envelope(acts)
        assert env.hull_actions == (0, 2)

    def test_collinear_middle_dropped(self):
        # (4, 1.5) sits exactly on the segment between (2, 1) and (6, 2)
        acts = lines([2, 4, 6], [1, 1.5, 2])
        env = build_envelope(acts)
        assert env.hull_actions == (0, 2)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateInput):
            build_envelope(lines([2, 2], [1, 3]))
        with pytest.raises(DegenerateInput):
            build_envelope(lines([2, 6], [1, 1]))
        with pytest.raises(DegenerateInput):
            build_envelope(lines([6, 2], [1, 2]))  # reward order flips

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_envelope(())


def test_action_is_a_frozen_slotted_value():
    act = Action(10.0, 2.0)
    assert not hasattr(act, "__dict__")
    assert act == Action(10.0, 2.0) and hash(act) == hash(Action(10.0, 2.0))
    assert repr(act) == "Action(reward=10.0, cost=2.0)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        act.reward = 11.0


class TestEval:
    def test_six_action_at_03(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        assert eval_envelope(env, *columns(acts), 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_at_zero_is_minus_min_cost(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        assert eval_envelope(env, *columns(acts), 0.0) == -1.0

    def test_single_action(self):
        acts = lines([10], [2])
        env = build_envelope(acts)
        assert eval_envelope(env, *columns(acts), 0.5) == pytest.approx(3.0)

    def test_negative_gamma_rejected(self):
        acts = lines([10], [2])
        env = build_envelope(acts)
        with pytest.raises(ValueError):
            eval_envelope(env, *columns(acts), -0.1)


class TestInvert:
    def test_six_action_y1(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        assert invert_envelope(env, *columns(acts), 1.0) == pytest.approx(3.1 / 7, abs=1e-12)

    def test_single_action_root(self):
        acts = lines([10], [2])
        env = build_envelope(acts)
        assert invert_envelope(env, *columns(acts), 0.0) == pytest.approx(0.2)

    def test_left_endpoint(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        assert invert_envelope(env, *columns(acts), -1.0) == 0.0

    def test_zero_reward_first_action(self):
        # u_h is flat at 0 up to gamma = 1/2, and its least root is 0
        acts = lines([0, 2], [0, 1])
        env = build_envelope(acts)
        assert invert_envelope(env, *columns(acts), 0.0) == 0.0
        assert invert_envelope(env, *columns(acts), 1.0) == 1.0

    def test_below_range(self):
        acts = lines([10], [2])
        env = build_envelope(acts)
        with pytest.raises(ValueError):
            invert_envelope(env, *columns(acts), -2.5)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.1, 50), st.floats(0.01, 10)), min_size=1, max_size=8
    ),
    st.floats(0, 1),
)
def test_eval_matches_pointwise_max(pairs, gamma):
    rewards = np.cumsum([p[0] for p in pairs])
    costs = np.cumsum([p[1] for p in pairs])
    acts = lines(rewards, costs)
    env = build_envelope(acts)
    assert eval_envelope(env, *columns(acts), gamma) == pytest.approx(
        pointwise_max(acts, gamma), abs=1e-12
    )


class TestProperties:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def _random_lines(self):
        n = int(self.rng.integers(1, 9))
        rewards = np.cumsum(self.rng.uniform(0.3, 2.0, n))
        costs = np.cumsum(self.rng.uniform(0.05, 0.6, n))
        return lines(rewards, costs)

    def test_dense_grid_agreement(self):
        acts = lines(NONCONVEX_R, NONCONVEX_C)
        env = build_envelope(acts)
        for g in self.rng.uniform(0, 1, 1000):
            assert abs(eval_envelope(env, *columns(acts), g) - pointwise_max(acts, g)) <= 1e-12

    def test_invert_is_right_inverse(self):
        for _ in range(50):
            acts = self._random_lines()
            env = build_envelope(acts)
            for g in self.rng.uniform(0, 1.5, 20):
                y = eval_envelope(env, *columns(acts), g)
                assert invert_envelope(env, *columns(acts), y) == pytest.approx(g, abs=1e-9)

    def test_convexity_midpoint(self):
        for _ in range(50):
            acts = self._random_lines()
            env = build_envelope(acts)
            a, b = np.sort(self.rng.uniform(0, 1, 2))
            mid = 0.5 * (a + b)
            lhs = eval_envelope(env, *columns(acts), mid)
            rhs = 0.5 * (eval_envelope(env, *columns(acts), a) + eval_envelope(env, *columns(acts), b))
            assert lhs <= rhs + 1e-12

    def test_non_hull_actions_never_above(self):
        for _ in range(50):
            acts = self._random_lines()
            env = build_envelope(acts)
            for g in np.linspace(0, 1, 101):
                top = eval_envelope(env, *columns(acts), g)
                for act in acts:
                    assert g * act.reward - act.cost <= top + 1e-12


def test_breakpoint_values_come_from_the_left_hull_line():
    # the right line's reward and cost are ten orders of magnitude larger, so
    # g*R - c on it cancels to 0.0; the left line's gives about 3.4e-9
    actions = CANCEL["A"][0]
    agent = case_agent(CANCEL["A"])
    env = agent.envelope
    g = env.breakpoints[0]
    r0, c0 = actions[env.hull_actions[0]]
    assert env.breakpoint_values[0] == g * r0 - c0
    assert env.breakpoint_values[0] > 0.0
    assert build_beta_curve(agent).gamma_ir <= 1.0
