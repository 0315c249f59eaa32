import math

import numpy as np
import pytest

from teamgames.bandit import AgentState
from teamgames.errors import ConfigurationError, UndefinedDispersionError
from teamgames.evaluation import EvaluationSpec
from teamgames.games import GameSpec, evaluate_joint_action
from teamgames.simulator import (
    EXPLORATION,
    LearnedOutcome,
    TrainConfig,
    dispersion,
    spawned_seed,
    _draw_arm,
    train,
)


def game(rho=1.0, expertise=(0.3, 0.8), b=7.0, kind="logistic", alpha=2.0):
    ev = EvaluationSpec("identity") if kind == "identity" else EvaluationSpec(
        kind, d=10.0, gamma=2.0, b=b)
    return GameSpec(n=len(expertise), rho=rho, betas=(1.0,) * len(expertise),
                    delta_t=10.0, expertise=expertise, alpha=alpha, evaluation=ev)


class TestPlayRound:
    """One play of the game, scored by ``evaluate_joint_action``."""

    def test_hard_additive_equilibrium_round(self):
        _, G, score, rewards = evaluate_joint_action(game(), (1 / 3, 0.75))
        assert G == pytest.approx(7.0)
        assert score == pytest.approx(5.0)
        assert rewards[0] == pytest.approx((10 * (1 - 1 / 3)) ** 2 * 5.0)
        assert rewards[1] == pytest.approx((10 * 0.25) ** 2 * 5.0)

    def test_all_zero_logistic_has_positive_floor(self):
        _, G, score, rewards = evaluate_joint_action(game(b=5.0), (0.0, 0.0))
        assert G == 0.0
        floor = 10.0 / (1.0 + math.exp(2.0 * 5.0))
        assert score == pytest.approx(floor)
        assert all(r == pytest.approx(10.0 ** 2 * floor) for r in rewards)

    def test_heaviside_below_threshold(self):
        g = game(kind="heaviside", b=5.0, expertise=(0.49, 0.49), rho=1.0)
        _, _, score, rewards = evaluate_joint_action(g, (0.5, 0.5))  # G = 4.9
        assert score == 0.0
        assert rewards.tolist() == [0.0, 0.0]


class TestTrainMechanics:
    def test_determinism_bitwise(self):
        g = game(b=5.0)
        config = TrainConfig(episodes=400, seed=123, snapshot_q=True)
        a = train(g, config)
        b = train(g, config)
        assert a == b

    def test_seed_changes_outcome(self):
        g = game(b=5.0)
        a = train(g, TrainConfig(episodes=2000, seed=0))
        b = train(g, TrainConfig(episodes=2000, seed=1))
        assert a.greedy_actions != b.greedy_actions or a.learned_G != b.learned_G

    def test_learned_G_consistent_with_actions(self):
        from teamgames.games import ces_aggregate, gifts_from_actions
        g = game(rho=-10.0, expertise=(0.5, 0.7), b=5.0)
        out = train(g, TrainConfig(episodes=1500, seed=7))
        expected = ces_aggregate(gifts_from_actions(g, out.greedy_actions), g.rho, g.betas)
        assert out.learned_G == pytest.approx(expected, abs=1e-9)

    def test_single_episode_runs(self):
        out = train(game(), TrainConfig(episodes=1, seed=0))
        assert out.episodes == 1

    def test_nonnegative_rewards_give_nonnegative_q(self):
        g = game(kind="heaviside", b=5.0)
        out = train(g, TrainConfig(episodes=800, seed=3, snapshot_q=True))
        for q in out.q_snapshots:
            assert all(v >= 0 for v in q)

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        train(game(), TrainConfig(episodes=50, seed=0, trace_path=str(path)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,action_0,action_1,G,reward_0,reward_1"
        assert len(lines) == 51

    def test_draw_rule_exploration_floor(self):
        # Below the floor the draw is uniform over arms whatever the Q-table
        # holds: here the top arm carries all the soft-max mass.
        peaked = AgentState.fresh(101, tau=0.02)
        peaked.q_values[-1] = 1.0
        for u in (0.0, 0.002, 0.0055, 0.0099):
            assert _draw_arm(peaked, u) == int(u / EXPLORATION * 101)
        for u in (0.02, 0.5, 0.999):
            assert _draw_arm(peaked, u) == 100
        # Above it the soft-max inverse CDF is read at the rescaled uniform;
        # a fresh agent's soft-max is uniform, so v in arm j's bin gives j.
        fresh = AgentState.fresh(101)
        for j in (0, 37, 50, 100):
            v = (j + 0.5) / 101
            assert _draw_arm(fresh, EXPLORATION + (1 - EXPLORATION) * v) == j

    def test_extraction_modes(self):
        g = game(b=5.0)
        for mode in ("greedy", "final_sample", "tail_average"):
            out = train(g, TrainConfig(episodes=600, seed=5, extraction=mode))
            assert all(0.0 <= a <= 1.0 for a in out.greedy_actions)

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(episodes=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(extraction="modal")
        with pytest.raises(ConfigurationError):
            TrainConfig(anneal_floor=0.5, tau=0.1)

    def test_temperature_schedule(self):
        config = TrainConfig(episodes=100, tau=0.1, anneal_floor=0.02, anneal_start=0.5)
        assert config.temperature(0) == 0.1
        assert config.temperature(49) == 0.1
        assert config.temperature(99) == pytest.approx(0.02)
        mid = config.temperature(75)
        assert 0.02 < mid < 0.1
        constant = TrainConfig(episodes=100, tau=0.1, anneal_floor=None)
        assert constant.temperature(99) == 0.1

    def test_three_player_training_runs(self):
        g = game(expertise=(0.4, 0.6, 0.8), b=5.0)
        out = train(g, TrainConfig(episodes=500, seed=0))
        assert len(out.greedy_actions) == 3

    def test_seed_sequence_accepted(self):
        g = game(b=5.0)
        seq = spawned_seed(42, 3, 1)
        out1 = train(g, TrainConfig(episodes=300, seed=seq))
        out2 = train(g, TrainConfig(episodes=300, seed=spawned_seed(42, 3, 1)))
        assert out1 == out2
        out3 = train(g, TrainConfig(episodes=300, seed=spawned_seed(42, 3, 2)))
        assert out1 != out3

    def test_outcome_serialises(self):
        out = train(game(), TrainConfig(episodes=60, seed=0))
        data = out.to_dict()
        assert set(data) == {"greedy_actions", "learned_G", "learned_score",
                             "episodes", "seed", "q_snapshots"}


class TestDispersion:
    def test_constant_sample(self):
        assert dispersion((1.0, 1.0, 1.0)) == 0.0

    def test_arithmetic(self):
        assert dispersion((0.99, 1.00, 1.01)) == pytest.approx(2.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(UndefinedDispersionError):
            dispersion((0.0, 0.0))
        with pytest.raises(UndefinedDispersionError):
            dispersion(())


class TestConvergence:
    """Desk-scale sanity that training approaches the theory on easy games."""

    def test_additive_symmetric_converges_near_equilibrium(self):
        from teamgames.equilibrium import max_achievable_utility, verify_epsilon_nash
        g = game(rho=1.0, expertise=(1.0, 1.0), b=5.0)
        out = train(g, TrainConfig(episodes=50_000, seed=11))
        eps = 0.02 * max_achievable_utility(g)
        check = verify_epsilon_nash(out.greedy_actions, g, eps)
        assert check.is_nash, (out.greedy_actions, check)
