import functools
import math

import numpy as np
import pytest

from teamgames import simulator
from teamgames.bandit import AgentState, _boltzmann, boltzmann_probabilities, uniform_action_grid
from teamgames.errors import ConfigurationError, InputError, UndefinedDispersionError
from teamgames.evaluation import EvaluationSpec, eval_score
from teamgames.games import GameSpec, _aggregate_terms, _payoffs, evaluate_joint_action
from teamgames.simulator import (
    EXPLORATION,
    LearnedOutcome,
    TrainConfig,
    dispersion,
    spawned_seed,
    _draw_arms,
    _draw_buffers,
    _draws,
    train,
    train_many,
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

    def test_draw_rule_exploration_floor(self):
        def draw_arm(agent, u):
            probs = boltzmann_probabilities(agent)[None, :]
            (draw,) = _draws(np.array([[u]]), agent.num_arms)
            arms = _draw_arms(draw, _draw_buffers(probs), np.empty(1, dtype=np.intp))
            return int(arms[0])

        # Below the floor the draw is uniform over arms whatever the Q-table
        # holds: here the top arm carries all the soft-max mass.
        peaked = AgentState.fresh(101, tau=0.02)
        peaked.q_values[-1] = 1.0
        for u in (0.0, 0.002, 0.0055, 0.0099):
            assert draw_arm(peaked, u) == int(u / EXPLORATION * 101)
        for u in (0.02, 0.5, 0.999):
            assert draw_arm(peaked, u) == 100
        # Above it the soft-max inverse CDF is read at the rescaled uniform;
        # a fresh agent's soft-max is uniform, so v in arm j's bin gives j.
        fresh = AgentState.fresh(101)
        for j in (0, 37, 50, 100):
            v = (j + 0.5) / 101
            assert draw_arm(fresh, EXPLORATION + (1 - EXPLORATION) * v) == j

    def test_draws_are_per_agent(self):
        # One episode, three agents: the exploratory one takes its uniform
        # arm, the others read their own soft-max row's inverse CDF (at
        # v = 0.49 / 0.99, in the uniform row's bin 49).
        probs = np.tile(boltzmann_probabilities(AgentState.fresh(101)), (3, 1))
        probs[1] = 0.0
        probs[1, 7] = 1.0
        (draw,) = _draws(np.array([[0.005, 0.5, 0.5]]), 101)
        arms = _draw_arms(draw, _draw_buffers(probs), np.empty(3, dtype=np.intp))
        assert arms.tolist() == [50, 7, 49]

    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.02])
    def test_sentinel_draw_matches_count_and_clamp(self, tau):
        rng = np.random.default_rng(11)
        K = 101
        q = rng.random((40, K)) * rng.random((40, 1)) * 10.0
        q[0] = 0.0                   # a fresh, uniform row
        q[1, 5:] = 0.0               # every weight past the peak underflows to zero
        q[1, :5] = 50.0
        q[1, 3] = 60.0
        probs = np.empty_like(q)
        _boltzmann(q, tau, out=probs)
        probs[2] = 0.0               # one-hot rows, at either end and inside
        probs[2, 0] = 1.0
        probs[3] = 0.0
        probs[3, -1] = 1.0
        probs[4] = 0.0
        probs[4, 40] = 1.0
        u = rng.random((300, len(q)))
        u[::7] *= 2 * EXPLORATION    # rows with explorers
        u[-1] = np.nextafter(1.0, 0.0)  # v past the last weight of rows that sum below 1
        u[-2] = EXPLORATION          # v = 0, the first arm of positive weight
        buffers = _draw_buffers(probs)
        arms = np.empty(len(q), dtype=np.intp)
        clamped = 0
        for draw in _draws(u, K):
            v, exploring = draw
            # the count-and-clamp rule: cumulative weights at or below v, at most K - 1
            count = (np.cumsum(probs, axis=1) <= v).sum(axis=1)
            expected = np.minimum(count, K - 1)
            if exploring is not None:
                expected = np.where(exploring[0], exploring[1], expected)
            clamped += int((count == K).sum())
            assert _draw_arms(draw, buffers, arms).tolist() == expected.tolist()
        assert clamped > 0  # the count-and-clamp rule's clamp was reached

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(episodes=0)
        with pytest.raises(ConfigurationError):
            TrainConfig(anneal_floor=0.5, tau=0.1)

    @pytest.mark.parametrize("key, value", [
        ("k", -5.0), ("k", 0.0), ("k", math.inf), ("k", math.nan),
        ("tau", 0.0), ("tau", -1.0), ("tau", math.nan), ("tau", math.inf),
        ("num_arms", 0), ("num_arms", 1)])
    def test_malformed_learning_parameters_named(self, key, value):
        # a constant temperature, so no anneal_floor check can catch a bad tau
        with pytest.raises(ConfigurationError, match=f"^{key} must"):
            TrainConfig(anneal_floor=None, **{key: value})

    def test_temperature_schedule(self):
        config = TrainConfig(episodes=100, tau=0.1, anneal_floor=0.02, anneal_start=0.5)
        assert config.temperature(0) == 0.1
        assert config.temperature(49) == 0.1
        assert config.temperature(99) == pytest.approx(0.02)
        mid = config.temperature(75)
        assert 0.02 < mid < 0.1
        constant = TrainConfig(episodes=100, tau=0.1, anneal_floor=None)
        assert constant.temperature(99) == 0.1

    @pytest.mark.parametrize("overrides", [
        {}, {"anneal_floor": None}, {"anneal_floor": 0.1}, {"episodes": 1},
        {"anneal_start": 0.0}, {"episodes": 2, "anneal_start": 0.5},
        {"episodes": 3, "anneal_start": 0.9}, {"episodes": 7919, "anneal_start": 0.37,
                                                "tau": 0.3, "anneal_floor": 0.011}])
    def test_schedule_in_one_pass_equals_temperature(self, overrides):
        config = TrainConfig(**{"episodes": 1000, "tau": 0.1, **overrides})
        expected = [config.temperature(t) for t in range(config.episodes)]
        assert config.temperatures() == expected
        assert all(type(x) is float for x in config.temperatures())

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


def _mixed_jobs(n):
    """Jobs of one player count mixing evaluations, two temperature
    schedules and two values of k."""
    expertise = {2: (0.3, 0.8), 3: (0.4, 0.6, 0.8), 4: (0.3, 0.5, 0.7, 0.9)}[n]
    num_arms = 21 if n == 3 else 101  # keeps the n = 3 case quick
    jobs = []
    for j, (rho, kind) in enumerate([
            (1.0, "logistic"), (-10.0, "logistic"), (10.0, "logistic"), (1.0, "heaviside"),
            (10.0, "identity"), (-10.0, "logistic"), (1.0, "logistic")]):
        config = TrainConfig(episodes=400, seed=spawned_seed(9, n, j), num_arms=num_arms,
                             k=(40.0, 7.0)[j % 2], snapshot_q=True,
                             anneal_floor=(0.02, None)[j % 3 == 2])
        jobs.append((game(rho=rho, expertise=expertise, b=5.0, kind=kind), config))
    return jobs


@functools.cache
def _serial(n):
    return [train(g, c) for g, c in _mixed_jobs(n)]


@pytest.fixture
def update_calls(monkeypatch):
    """The cells and rewards of every ``simulator._update_q`` call, that is,
    of every episode of every lockstep chunk, in call order."""
    calls = []
    update = simulator._update_q

    def spy(q, counts, k, cells, rewards):
        calls.append((cells.copy(), rewards.copy()))
        return update(q, counts, k, cells, rewards)

    monkeypatch.setattr(simulator, "_update_q", spy)
    return calls


def _runs(calls, n, num_arms, episodes):
    """Each run's arms and rewards by episode, ``(episodes, n)`` each, from
    recorded ``_update_q`` calls.  A chunk makes ``episodes`` consecutive
    calls over its runs' agents, so runs come out chunk by chunk: in job
    order when each group's jobs are contiguous."""
    assert len(calls) % episodes == 0
    runs = []
    for start in range(0, len(calls), episodes):
        cells = np.array([c for c, _ in calls[start:start + episodes]])
        rewards = np.array([r for _, r in calls[start:start + episodes]])
        for rows in range(0, cells.shape[1], n):
            runs.append((cells[:, rows:rows + n] % num_arms, rewards[:, rows:rows + n]))
    return runs


class TestTrainMany:
    """``train_many`` equals one ``train`` call per job, however it batches."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("runs_per_chunk", [1, 3, None])
    def test_equals_serial_train(self, monkeypatch, n, runs_per_chunk):
        jobs = _mixed_jobs(n)
        budget = (1 << 40 if runs_per_chunk is None
                  else runs_per_chunk * simulator._run_bytes(n, jobs[0][1].num_arms))
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", budget)
        outcomes = train_many(jobs)
        assert outcomes == _serial(n)
        assert all(out.q_snapshots is not None for out in outcomes)

    def test_job_order_and_mixed_player_counts(self):
        jobs = _mixed_jobs(4)[:3] + _mixed_jobs(2)
        expected = _serial(4)[:3] + _serial(2)
        order = [9, 0, 4, 2, 7, 1, 6, 3, 8, 5]
        assert train_many([jobs[j] for j in order]) == [expected[j] for j in order]
        assert train_many([]) == []

    @pytest.mark.parametrize("n", [2, 4])
    def test_episodes_unchanged_in_a_batch(self, update_calls, n):
        # job 1 shares a chunk with job 0; job 2 has another schedule
        jobs = _mixed_jobs(n)[:3]
        config = jobs[1][1]
        train(*jobs[1])
        (alone,) = _runs(update_calls, n, config.num_arms, config.episodes)
        update_calls.clear()
        train_many(jobs)
        batched = _runs(update_calls, n, config.num_arms, config.episodes)
        assert len(batched) == 3
        assert alone[0].shape == (config.episodes, n)
        for lone, in_batch in zip(alone, batched[1]):
            assert np.array_equal(lone, in_batch)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_rewards_rejected(self, n):
        # (10 * 1e200) ** 2 overflows: the run is refused when its term tables are built
        g = GameSpec(n=n, rho=1.0, betas=(1.0,) * n, delta_t=1e200, expertise=(0.5,) * n,
                     alpha=2.0, evaluation=EvaluationSpec("identity"))
        with pytest.raises(InputError):
            train_many([(game(), TrainConfig(episodes=5)), (g, TrainConfig(episodes=5))])

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_bound_refused_before_the_first_episode(self, monkeypatch, n):
        g = GameSpec(n=n, rho=1.0, betas=(1.0,) * n, delta_t=1e200, expertise=(0.5,) * n,
                     alpha=2.0, evaluation=EvaluationSpec("identity"))
        episodes = []
        boltzmann = simulator._boltzmann
        monkeypatch.setattr(simulator, "_boltzmann",
                            lambda *args, **kwargs: episodes.append(1) or boltzmann(*args, **kwargs))
        with pytest.raises(InputError, match="bound"):
            train(g, TrainConfig(episodes=5))
        assert episodes == []

    def test_default_budget_learns_a_sweep_in_one_chunk(self, monkeypatch):
        chunks = []
        monkeypatch.setattr(simulator, "_train_lockstep",
                            lambda jobs: chunks.append(len(jobs)) or [None] * len(jobs))
        train_many([(game(), TrainConfig(episodes=5, seed=j)) for j in range(90)])
        train_many([(game(expertise=(0.4, 0.6, 0.8)), TrainConfig(episodes=5, seed=j))
                    for j in range(60)])
        assert chunks == [90, 60]


@pytest.fixture
def score_calls(monkeypatch):
    """The run count of every ``simulator._score`` call, in call order."""
    calls = []
    score = simulator._score

    def spy(kind, G, d, gamma, b):
        calls.append(len(G))
        return score(kind, G, d, gamma, b)

    monkeypatch.setattr(simulator, "_score", spy)
    return calls


class TestScoreMemo:
    """A lone run scores each distinct joint action once; a chunk of runs
    scores every episode, once per evaluation kind."""

    @pytest.mark.parametrize("n,num_arms", [(2, 101), (4, 5)])
    @pytest.mark.parametrize("kind", ["logistic", "identity", "heaviside"])
    def test_lone_run_scores_each_joint_action_once(self, update_calls, score_calls,
                                                    n, num_arms, kind):
        g = game(rho=-10.0, expertise=(0.3, 0.5, 0.7, 0.9)[:n], b=5.0, kind=kind)
        train(g, TrainConfig(episodes=3000, num_arms=num_arms, seed=spawned_seed(5, n)))
        distinct = {cells.tobytes() for cells, _ in update_calls}
        assert len(update_calls) == 3000
        assert score_calls == [1] * len(distinct)
        assert len(distinct) < 3000  # the memo was hit

    def test_chunk_scores_once_per_kind_and_episode(self, update_calls, score_calls):
        jobs = [(game(b=b, kind=kind), TrainConfig(episodes=200, seed=j))
                for j, (b, kind) in enumerate([(3.0, "logistic"), (5.0, "heaviside"),
                                               (5.0, "logistic"), (7.0, "logistic")])]
        train_many(jobs)
        assert len(update_calls) == 200
        assert score_calls == [3, 1] * 200


def _term_table_rewards(g, arm_actions, joint):
    """The trainer's team outcomes and rewards at the joint arm indices
    ``joint`` (one row per player), from its term tables."""
    T, L = simulator._term_tables([g], arm_actions)
    player = np.arange(g.n).reshape((g.n,) + (1,) * (joint.ndim - 1))
    with np.errstate(divide="ignore"):
        G = _aggregate_terms(T[player, joint], g.rho)
    return G, L[player, joint] * eval_score(g.evaluation, G)


class TestRewardTables:
    """The trainer's rewards, from per-player term tables, equal ``_payoffs``' exactly."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["logistic", "identity", "heaviside"])
    def test_factorisation_is_exact(self, n, kind):
        arm_actions = np.linspace(0.0, 1.0, 11 if n == 3 else 101)
        joint = np.indices((len(arm_actions),) * n)
        checked = 0
        for rho in (-100.0, -10.0, 0.5, 1.0, 3.0, 10.0, 100.0):
            for alpha in (0.5, 1.0, 1.5, 2.0, 3.7):
                for b in (1.0, 3.0, 5.0, 7.0, 9.0):
                    g = game(rho=rho, expertise=(0.3, 0.8, 0.55)[:n], b=b, kind=kind,
                             alpha=alpha)
                    G_terms, factored = _term_table_rewards(g, arm_actions, joint)
                    G, _, rewards = _payoffs(g, arm_actions[joint])
                    assert np.array_equal(G_terms, G), (rho, alpha, b)
                    for i in range(n):
                        assert np.array_equal(factored[i], rewards[i]), (rho, alpha, b, i)
                    checked += 1
        assert checked == 175  # 1,050 grids over the six parametrisations

    @pytest.mark.parametrize("n", range(2, 17))
    def test_episode_rewards_equal_payoffs(self, update_calls, n):
        # Each episode's rewards are _payoffs' on its joint action alone, whose
        # gifts numpy sums pairwise from n = 8.  Three arms (0, 0.5, 1) at a
        # high temperature make zero gifts common, under rho < 0 and rho > 0.
        rng = np.random.default_rng(n)
        arm_actions = uniform_action_grid(3)
        for rho, evaluation in ((-10.0, EvaluationSpec("logistic", d=10.0, gamma=2.0, b=5.0)),
                                (0.5, EvaluationSpec("identity")),
                                (3.0, EvaluationSpec("heaviside", d=10.0, b=5.0))):
            g = GameSpec(n=n, rho=rho, betas=rng.uniform(0.5, 2.0, n), delta_t=10.0,
                         expertise=rng.uniform(0.1, 1.0, n), alpha=1.5, evaluation=evaluation,
                         leisure_capacity=rng.uniform(0.5, 1.0, n))

            def config(j):
                return TrainConfig(episodes=60, num_arms=3, tau=10.0, anneal_floor=None,
                                   seed=spawned_seed(n, j))
            # a lone run, and two runs of g in a batch with another game
            update_calls.clear()
            train(g, config(0))
            train_many([(g, config(1)), (game(rho=rho, expertise=(0.5,) * n), config(1)),
                        (g, config(2))])
            lone, first, _, second = _runs(update_calls, n, 3, 60)
            for run, (arms, rewards) in zip(("lone", "first", "second"), (lone, first, second)):
                actions = arm_actions[arms]
                assert (actions == 0.0).any()
                for episode, (joint, got) in enumerate(zip(actions, rewards)):
                    _, _, expected = _payoffs(g, joint)
                    assert got.tolist() == expected.tolist(), (rho, run, episode)


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
