import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamgames.bandit import (
    Q_MAX_FLOOR,
    AgentState,
    _boltzmann_weights,
    uniform_action_grid,
    update_q,
)
from teamgames.errors import ConfigurationError, InputError


def agent(q, k=40.0):
    return AgentState(q_values=np.asarray(q, dtype=float), k=k)


def boltzmann(q, tau):
    """Soft-max selection probabilities of the ``(M, K)`` Q-tables ``q``:
    the trainer's weights over each row's sum."""
    out = _boltzmann_weights(q, tau, out=np.empty_like(q))
    out /= np.add.reduce(out, axis=1, keepdims=True)
    return out


def probabilities(q, tau=0.1):
    """``boltzmann`` of one agent's Q-values."""
    return boltzmann(np.asarray(q, dtype=float)[None, :], tau)[0]


class TestBoltzmann:
    def test_all_equal_q_is_uniform(self):
        probs = probabilities([5.0, 5.0, 5.0, 5.0])
        np.testing.assert_allclose(probs, 0.25)

    def test_two_arm_low_temperature(self):
        # e^10 / (e^10 + 1) by direct evaluation
        probs = probabilities([1.0, 0.0], tau=0.1)
        expected = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert probs[0] == pytest.approx(expected, rel=1e-12)
        assert probs[0] == pytest.approx(0.9999546, abs=1e-7)
        assert probs[1] == pytest.approx(4.54e-5, abs=1e-6)

    def test_fresh_agent_uniform_guard(self):
        probs = probabilities(AgentState.fresh(101).q_values)
        np.testing.assert_allclose(probs, 1.0 / 101)

    @given(
        q=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=101),
        tau=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_valid_distribution(self, q, tau):
        probs = probabilities(q, tau=tau)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(
        q=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=20),
        tau=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_q(self, q, tau):
        q_max = max(q)
        if q_max <= 1e-9:
            return
        probs = probabilities(q, tau=tau)
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
            probs = probabilities(q, tau=1e-3)
            assert probs[0] >= 0.999

    def test_concentration_improves_as_tau_drops(self):
        q = np.linspace(0.0, 1.0, 101)
        last = 0.0
        for tau in (1.0, 0.3, 0.1, 0.03, 0.01):
            p = probabilities(q, tau=tau)
            assert p[-1] >= last
            last = p[-1]


def _two_reduce_boltzmann(q, tau):
    """The soft-max as written before the shortcut: the row maximum of
    ``q / (q_max * tau)`` taken by a second full pass."""
    q_max = np.maximum.reduce(q, axis=1, keepdims=True)
    uniform = q_max[:, 0] <= Q_MAX_FLOOR
    q_max[uniform] = 1.0
    out = q / (q_max * tau)
    out -= np.maximum.reduce(out, axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1, keepdims=True)
    out[uniform] = 1.0 / q.shape[1]
    return out


class TestBoltzmannKernel:
    """``_boltzmann_weights`` subtracts ``q_max / (q_max * tau)`` in place of
    a second row maximum, and keeps the full pass when any row is uniform."""

    def test_equals_two_reduce_formula_bitwise(self):
        rng = np.random.default_rng(13)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-9, 1e300, -1e300, 3e299])
        checked = {"trimmed": 0, "full": 0}
        for table in range(3000):
            rows, arms = int(rng.integers(1, 9)), int(rng.integers(2, 102))
            q = rng.normal(0.0, 10.0 ** rng.integers(-12, 6), (rows, arms))
            mask = rng.random(q.shape) < 0.2
            q[mask] = rng.choice(special, size=int(mask.sum()))
            # at least one informative value per row, unless a row is meant uniform
            q[np.arange(rows), rng.integers(0, arms, rows)] = rng.choice([1.0, 1e300, 7.5e-3])
            if table % 2:
                q[rng.integers(0, rows)] = rng.choice([0.0, -1.0, 5e-324, 1e-10])
            tau = float(rng.choice([1e-3, 0.02, 0.1, 1.0, 10.0]))
            expected = _two_reduce_boltzmann(q.copy(), tau)
            got = boltzmann(q, tau)
            assert np.array_equal(got, expected, equal_nan=True), table
            checked["full" if (q.max(axis=1) <= Q_MAX_FLOOR).any() else "trimmed"] += 1
        assert min(checked.values()) > 1000

    def test_fresh_and_negative_rows_at_low_temperature_do_not_warn(self):
        # a uniform row shifted by 1 / tau would underflow to a 0 / 0 sum
        q = np.zeros((3, 101))
        q[1] = -1.0
        q[2, :50] = 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = boltzmann(q, 1e-3)
        assert np.array_equal(probs, np.full(q.shape, 1.0 / 101))

    def test_fresh_and_negative_rows_weigh_one_without_warning(self):
        q = np.zeros((3, 101))
        q[1] = -1.0
        q[2, :50] = 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = _boltzmann_weights(q, 1e-3, out=np.empty_like(q))
        assert np.array_equal(weights, np.ones(q.shape))


def learning_rate(step, k):
    """The share of the TD error that ``update_q`` applies to an arm pulled
    ``step`` times before."""
    state = agent([4.0, 0.0], k=k)
    state.pull_counts[0] = step
    update_q(state, 0, 10.0)
    return (state.q_values[0] - 4.0) / 6.0


class TestLearningRate:
    def test_step_zero(self):
        assert learning_rate(0, 1000.0) == 1.0

    def test_step_equals_k(self):
        assert learning_rate(1000, 1000.0) == 0.5

    def test_in_unit_interval(self):
        for step in (0, 1, 10, 10**6):
            assert 0 < learning_rate(step, 40.0) <= 1

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            agent([0.0, 0.0], k=0.0)
        with pytest.raises(ConfigurationError):
            AgentState(q_values=np.zeros(2), pull_counts=np.array([-1, 0]))

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


class TestStateValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"q_values": np.zeros((2, 3))}, "q_values must be 1-D"),
        ({"q_values": np.array([0.0, math.nan])}, "q_values must be finite"),
        ({"q_values": np.array([0.0, math.inf])}, "q_values must be finite"),
        ({"q_values": np.zeros(3), "pull_counts": np.zeros(2)}, "pull_counts must align"),
        ({"q_values": np.zeros(3), "pull_counts": np.array([0, -1, 0])},
         "pull_counts must align"),
        ({"q_values": np.zeros(3), "k": 0.0}, "k must be > 0"),
        ({"q_values": np.zeros(3), "k": -1.0}, "k must be > 0"),
    ])
    def test_refused_by_name(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            AgentState(**kwargs)

    def test_default_grid(self):
        grid = uniform_action_grid(101)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 101
        np.testing.assert_allclose(np.diff(grid), 0.01)
