import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamgames.bandit import (
    AgentState,
    boltzmann_probabilities,
    export_q_csv,
    greedy_action,
    learning_rate,
    q_table_rows,
    uniform_action_grid,
    update_q,
)
from teamgames.errors import ConfigurationError, InputError


def agent(q, tau=0.1, k=40.0):
    q = np.asarray(q, dtype=float)
    return AgentState(q_values=q, arm_actions=np.linspace(0, 1, len(q)), tau=tau, k=k)


class TestBoltzmann:
    def test_all_equal_q_is_uniform(self):
        probs = boltzmann_probabilities(agent([5.0, 5.0, 5.0, 5.0]))
        np.testing.assert_allclose(probs, 0.25)

    def test_two_arm_low_temperature(self):
        # e^10 / (e^10 + 1) by direct evaluation
        probs = boltzmann_probabilities(agent([1.0, 0.0], tau=0.1))
        expected = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert probs[0] == pytest.approx(0.9999546, abs=1e-7)
        assert probs[1] == pytest.approx(4.54e-5, abs=1e-6)

    def test_fresh_agent_uniform_guard(self):
        state = AgentState.fresh(101)
        probs = boltzmann_probabilities(state)
        np.testing.assert_allclose(probs, 1.0 / 101)

    def test_bad_tau(self):
        with pytest.raises(ConfigurationError):
            agent([1.0, 0.0], tau=0.0)

    @given(
        q=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=101),
        tau=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_valid_distribution(self, q, tau):
        probs = boltzmann_probabilities(agent(q, tau=tau))
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(
        q=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=20),
        tau=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_q(self, q, tau):
        state = agent(q, tau=tau)
        q_max = state.q_values.max()
        if q_max <= 1e-9:
            return
        probs = boltzmann_probabilities(state)
        for i in range(len(q)):
            for j in range(len(q)):
                if q[i] > q[j]:
                    # strict once the gap is resolvable in the exponent and
                    # the weights have not underflowed to exact zero
                    if (q[i] - q[j]) / (q_max * tau) > 1e-12 and probs[i] > 0.0:
                        assert probs[i] > probs[j]
                    else:
                        assert probs[i] >= probs[j]

    def test_low_temperature_concentrates(self):
        # a unique maximiser takes essentially all the mass as tau -> 0;
        # with gaps of at least 1% of Q_max, up to ~20 competitors stay
        # below a combined 1e-3 at tau = 1e-3
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(2, 20)
            gaps = rng.uniform(0.01, 0.9, size=n - 1)
            q_max = rng.uniform(1.0, 500.0)
            q = np.concatenate([[q_max], q_max * (1.0 - gaps)])
            probs = boltzmann_probabilities(agent(q, tau=1e-3))
            assert probs[0] >= 0.999

    def test_concentration_improves_as_tau_drops(self):
        q = np.linspace(0.0, 1.0, 101)
        last = 0.0
        for tau in (1.0, 0.3, 0.1, 0.03, 0.01):
            p = boltzmann_probabilities(agent(q, tau=tau))
            assert p[-1] >= last
            last = p[-1]


class TestLearningRate:
    def test_step_zero(self):
        assert learning_rate(0, 1000.0) == 1.0

    def test_step_equals_k(self):
        assert learning_rate(1000, 1000.0) == 0.5

    def test_stochastic_approximation_sums(self):
        # sum of rates keeps growing while the sum of squares converges:
        # the linear sum gains hundreds over the second half of 10^6 steps,
        # while each doubling of the horizon adds ever less to the squares
        k = 1000.0
        steps = np.arange(1_000_000, dtype=float)
        rates = k / (k + steps)
        cum = np.cumsum(rates)
        assert cum[-1] > cum[len(cum) // 2] + 100  # no plateau in sight
        sq = rates ** 2
        first_window = sq[250_000:500_000].sum()
        second_window = sq[500_000:].sum()
        assert second_window < 0.6 * first_window

    def test_in_unit_interval(self):
        for step in (0, 1, 10, 10**6):
            assert 0 < learning_rate(step, 40.0) <= 1

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            learning_rate(0, 0.0)
        with pytest.raises(InputError):
            learning_rate(-1, 10.0)


class TestUpdateQ:
    def test_full_overwrite_on_first_pull(self):
        state = AgentState.fresh(5)
        update_q(state, 2, 10.0)
        assert state.q_values[2] == 10.0
        assert state.pull_counts[2] == 1

    def test_zero_td_error(self):
        state = agent([5.0, 5.0, 5.0])
        state.pull_counts[:] = 3
        update_q(state, 1, 5.0)
        assert state.q_values[1] == 5.0

    def test_halfway(self):
        state = agent([5.0, 0.0], k=7.0)
        state.pull_counts[0] = 7  # learning rate 7/(7+7) = 0.5
        update_q(state, 0, 10.0)
        assert state.q_values[0] == pytest.approx(7.5)

    def test_only_chosen_arm_changes(self):
        state = agent([1.0, 2.0, 3.0])
        before = state.q_values.copy()
        update_q(state, 1, 9.0)
        assert state.q_values[0] == before[0]
        assert state.q_values[2] == before[2]
        assert state.q_values[1] != before[1]

    def test_invalid_arm(self):
        with pytest.raises(InputError):
            update_q(AgentState.fresh(5), 5, 1.0)

    def test_non_finite_reward(self):
        with pytest.raises(InputError):
            update_q(AgentState.fresh(5), 0, float("nan"))

    @given(rewards=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_rewards_keep_q_nonnegative(self, rewards):
        state = AgentState.fresh(7)
        rng = np.random.default_rng(0)
        for r in rewards:
            update_q(state, int(rng.integers(0, 7)), r)
        assert np.all(state.q_values >= 0)


class TestGreedy:
    def test_unique_max(self):
        q = np.zeros(101)
        q[30] = 5.0
        assert greedy_action(agent(q)) == pytest.approx(0.30)

    def test_all_equal_tie_breaks_to_zero(self):
        assert greedy_action(agent(np.zeros(101))) == 0.0

    def test_tie_breaks_to_smallest_action(self):
        q = np.zeros(101)
        q[20] = 5.0
        q[64] = 5.0
        assert greedy_action(agent(q)) == pytest.approx(0.20)


class TestStateValidation:
    def test_grid_must_span_unit_interval(self):
        with pytest.raises(ConfigurationError):
            AgentState(q_values=np.zeros(3), arm_actions=np.array([0.0, 0.4, 0.9]))

    def test_grid_must_be_uniform(self):
        with pytest.raises(ConfigurationError):
            AgentState(q_values=np.zeros(3), arm_actions=np.array([0.0, 0.7, 1.0]))

    def test_default_grid(self):
        grid = uniform_action_grid(101)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 101
        np.testing.assert_allclose(np.diff(grid), 0.01)

    def test_csv_export(self, tmp_path):
        state = agent([1.0, 2.0, 0.5])
        path = tmp_path / "q.csv"
        export_q_csv(state, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "arm_action,q_value"
        assert len(lines) == 4
        assert q_table_rows(state)[1] == (0.5, 2.0)
