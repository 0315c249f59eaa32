import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from teamgames import games, simulator
from teamgames.bandit import _boltzmann_weights, uniform_action_grid
from teamgames.errors import ConfigurationError, InputError, UndefinedDispersionError
from teamgames.equilibrium import _scalar_ces
from teamgames.evaluation import EvaluationSpec, _score, eval_score, score_scalar
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


def _arm_major_draws(weights, draw):
    """``_draw_arms`` of ``draw`` on ``weights`` in arm-major (Fortran) order,
    over all M rows and over the first M - 1: both an even and an odd row
    count when M is even."""
    v, exploring = draw
    arms = []
    for rows in (len(weights), len(weights) - 1):
        buffers = _draw_buffers(np.asfortranarray(weights[:rows]))
        part = None if exploring is None else (exploring[0][:rows], exploring[1][:rows])
        arms.append(_draw_arms((v[:rows], part), buffers, np.empty(rows, dtype=np.intp)))
    return arms


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
        from teamgames.games import ces_aggregate
        g = game(rho=-10.0, expertise=(0.5, 0.7), b=5.0)
        out = train(g, TrainConfig(episodes=1500, seed=7))
        gifts = np.asarray(out.greedy_actions) * g.full_time_gifts()
        expected = ces_aggregate(gifts, g.rho, g.betas)
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
        def draw_arm(q_values, tau, u):
            q = q_values[None, :]
            weights = _boltzmann_weights(q, tau, out=np.empty_like(q))
            (draw,) = _draws(np.array([[u]]), len(q_values))
            arms = _draw_arms(draw, _draw_buffers(weights), np.empty(1, dtype=np.intp))
            return int(arms[0])

        # Below the floor the draw is uniform over arms whatever the Q-table
        # holds: here the top arm carries all the soft-max mass.
        peaked = np.zeros(101)
        peaked[-1] = 1.0
        for u in (0.0, 0.002, 0.0055, 0.0099):
            assert draw_arm(peaked, 0.02, u) == int(u / EXPLORATION * 101)
        for u in (0.02, 0.5, 0.999):
            assert draw_arm(peaked, 0.02, u) == 100
        # Above it the soft-max inverse CDF is read at the rescaled uniform;
        # a fresh agent's soft-max is uniform, so v in arm j's bin gives j.
        fresh = np.zeros(101)
        for j in (0, 37, 50, 100):
            v = (j + 0.5) / 101
            assert draw_arm(fresh, 0.1, EXPLORATION + (1 - EXPLORATION) * v) == j

    def test_draws_are_per_agent(self):
        # One episode, three agents: the exploratory one takes its uniform
        # arm, the others read their own soft-max row's inverse CDF (at
        # v = 0.49 / 0.99, in the uniform row's bin 49).
        q = np.zeros((3, 101))
        weights = _boltzmann_weights(q, 0.1, out=np.empty_like(q))
        weights[1] = 0.0
        weights[1, 7] = 1.0
        (draw,) = _draws(np.array([[0.005, 0.5, 0.5]]), 101)
        arms = _draw_arms(draw, _draw_buffers(weights), np.empty(3, dtype=np.intp))
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
        weights = np.empty_like(q)
        _boltzmann_weights(q, tau, out=weights)
        weights[2] = 0.0             # one-hot rows, at either end and inside
        weights[2, 0] = 1.0
        weights[3] = 0.0
        weights[3, -1] = 1.0
        weights[4] = 0.0
        weights[4, 40] = 1.0
        u = rng.random((300, len(q)))
        u[::7] *= 2 * EXPLORATION    # rows with explorers
        u[-1] = np.nextafter(1.0, 0.0)  # the largest v, past every weight but the last
        u[-2] = EXPLORATION          # v = 0, the first arm of positive weight
        buffers = _draw_buffers(weights)
        arms = np.empty(len(q), dtype=np.intp)
        cum = np.cumsum(weights, axis=1)
        capped = 0
        for draw in _draws(u, K):
            v, exploring = draw
            v = v[:, None]  # each row's v, as a column
            # the count-and-clamp rule: cumulative weights at or below v times
            # the row total, at most K - 1
            count = (cum <= v * cum[:, -1:]).sum(axis=1)
            expected = np.minimum(count, K - 1)
            if exploring is not None:
                expected = np.where(exploring[0], exploring[1], expected)
            capped += int((count >= K - 1).sum())
            assert _draw_arms(draw, buffers, arms).tolist() == expected.tolist()
            for arm_major in _arm_major_draws(weights, draw):
                assert arm_major.tolist() == arms[:len(arm_major)].tolist()
        # every sum but the last lay at or below v * total: only the +inf
        # sentinel ended the count
        assert capped > 0

    @pytest.mark.parametrize("num_arms", [255, 256, 257, 300])
    def test_arm_major_draws_equal_row_major_draws(self, num_arms):
        # arm-major counts are summed as bytes while one fits (K <= 256)
        rng = np.random.default_rng(num_arms)
        q = rng.random((40, num_arms)) * rng.random((40, 1)) * 10.0
        q[0] = 0.0                   # a uniform row, whose counts reach K - 1
        weights = _boltzmann_weights(q, 0.1, out=np.empty_like(q))
        u = rng.random((300, len(q)))
        u[::7] *= 2 * EXPLORATION    # rows with explorers
        u[-1] = np.nextafter(1.0, 0.0)  # the largest v
        buffers = _draw_buffers(weights)
        arms = np.empty(len(q), dtype=np.intp)
        top = 0
        for draw in _draws(u, num_arms):
            expected = _draw_arms(draw, buffers, arms).tolist()
            for arm_major in _arm_major_draws(weights, draw):
                assert arm_major.tolist() == expected[:len(arm_major)]
            top = max(top, *expected)
        assert top == num_arms - 1

    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.02, 1e-3])
    def test_unnormalised_draw_matches_normalised_inverse_cdf(self, tau):
        rng = np.random.default_rng(17)
        K = 101
        q = rng.random((60, K)) * rng.random((60, 1)) * 10.0
        q[0] = 0.0                   # fresh and negative rows: uniform
        q[1] = -1.0
        q[2, 5:] = 0.0               # a tail far below the peak
        q[2, :5] = 50.0
        q[2, 3] = 60.0
        weights = _boltzmann_weights(q, tau, out=np.empty_like(q))
        probs = weights / np.add.reduce(weights, axis=1, keepdims=True)
        for row, arm in ((3, 0), (4, K - 1), (5, 40)):  # one-hot rows
            weights[row] = probs[row] = 0.0
            weights[row, arm] = probs[row, arm] = 1.0
        bounds = np.cumsum(probs, axis=1)
        u = rng.random((2000, len(q)))
        u[::7] *= 2 * EXPLORATION    # rows with explorers
        buffers = _draw_buffers(weights)
        arms = np.empty(len(q), dtype=np.intp)
        compared = 0
        for draw in _draws(u, K):
            v, exploring = draw
            v = v[:, None]  # each row's v, as a column
            # the normalised inverse CDF: cumulative probabilities at or
            # below v, at most K - 1
            expected = np.minimum((bounds <= v).sum(axis=1), K - 1)
            clear = np.abs(bounds - v).min(axis=1) > 1e-12
            if exploring is not None:
                expected = np.where(exploring[0], exploring[1], expected)
                clear |= exploring[0]
            got = _draw_arms(draw, buffers, arms)
            assert got[clear].tolist() == expected[clear].tolist()
            for arm_major in _arm_major_draws(weights, draw):
                assert arm_major.tolist() == got[:len(arm_major)].tolist()
            compared += int(clear.sum())
        assert compared > 0.99 * u.size

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
    """The cells and rewards of every episode's update, in call order:
    every ``simulator._update_q`` call, one per episode of a lockstep chunk
    of runs, and every ``simulator._update_arms`` call, one per episode of
    a lone run."""
    calls = []
    update_q, update_arms = simulator._update_q, simulator._update_arms

    def spy_q(q, counts, k, cells, rewards):
        calls.append((cells.copy(), rewards.copy()))
        return update_q(q, counts, k, cells, rewards)

    def spy_arms(q, counts, k, arms, rewards, stride, offsets):
        cells = [arm * stride + offset for arm, offset in zip(arms, offsets)]
        calls.append((np.array(cells), np.array(rewards)))
        return update_arms(q, counts, k, arms, rewards, stride, offsets)

    monkeypatch.setattr(simulator, "_update_q", spy_q)
    monkeypatch.setattr(simulator, "_update_arms", spy_arms)
    return calls


def _runs(calls, n, num_arms, episodes):
    """Each run's arms and rewards by episode, ``(episodes, n)`` each, from
    recorded update calls.  A chunk makes ``episodes`` consecutive
    calls over its runs' agents, so runs come out chunk by chunk: in job
    order when each group's jobs are contiguous.  A cell is
    ``agent * K + arm`` in a row-major chunk and ``arm * agents + agent`` in
    an arm-major one, of at least ``simulator._ARM_MAJOR_AGENTS`` agents."""
    assert len(calls) % episodes == 0
    runs = []
    for start in range(0, len(calls), episodes):
        cells = np.array([c for c, _ in calls[start:start + episodes]])
        rewards = np.array([r for _, r in calls[start:start + episodes]])
        agents = cells.shape[1]
        arms = (cells // agents if agents >= simulator._ARM_MAJOR_AGENTS
                else cells % num_arms)
        for rows in range(0, agents, n):
            runs.append((arms[:, rows:rows + n], rewards[:, rows:rows + n]))
    return runs


class TestGreedy:
    """The learned action is the best-valued arm, the smallest on a tie."""

    def test_unique_max(self):
        out = train(game(b=5.0), TrainConfig(episodes=400, seed=123, snapshot_q=True))
        grid = uniform_action_grid(101)
        for action, q in zip(out.greedy_actions, out.q_snapshots):
            best = int(np.argmax(q))
            assert action == grid[best]
            assert all(v < q[best] for j, v in enumerate(q) if j != best)

    def test_all_equal_tie_breaks_to_zero(self):
        # the pair can never reach the threshold, so every Q-value stays 0
        g = game(kind="heaviside", b=5.0, expertise=(0.1, 0.1))
        out = train(g, TrainConfig(episodes=200, seed=0, snapshot_q=True))
        assert all(v == 0.0 for q in out.q_snapshots for v in q)
        assert out.greedy_actions == (0.0, 0.0)


class TestTrainMany:
    """``train_many`` equals one ``train`` call per job, however it batches."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("runs_per_chunk", [1, 3, None])
    @pytest.mark.parametrize("arm_major_agents", [0, 1 << 40], ids=["arm_major", "row_major"])
    def test_equals_serial_train(self, monkeypatch, n, runs_per_chunk, arm_major_agents):
        # every chunk forced into one layout; n = 3 gives odd agent counts
        jobs = _mixed_jobs(n)
        expected = _serial(n)
        budget = (1 << 40 if runs_per_chunk is None
                  else runs_per_chunk * simulator._run_bytes(n, jobs[0][1].num_arms))
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(simulator, "_ARM_MAJOR_AGENTS", arm_major_agents)
        outcomes = train_many(jobs)
        assert outcomes == expected
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

    @pytest.mark.parametrize("case", ["floor", "n1", "n33"])
    @pytest.mark.parametrize("arm_major_agents", [0, None, 1 << 40],
                             ids=["arm_major", "by_count", "row_major"])
    def test_lone_run_equals_its_chunk(self, monkeypatch, update_calls, case,
                                       arm_major_agents):
        # the lone loop's edges: rows that cross Q_MAX_FLOOR mid-run (rewards
        # of about 1e-9), one player, and 33 players, arm-major by agent count
        if arm_major_agents is not None:
            monkeypatch.setattr(simulator, "_ARM_MAJOR_AGENTS", arm_major_agents)
        expertise = {"floor": (0.3, 0.8), "n1": (0.6,), "n33": tuple(np.linspace(0.1, 0.9, 33))}
        g = GameSpec(n=len(expertise[case]), rho=1.0, betas=(1.0,) * len(expertise[case]),
                     delta_t=10.0, expertise=expertise[case], alpha=2.0,
                     evaluation=EvaluationSpec("logistic", d=6e-11 if case == "floor" else 10.0,
                                               gamma=2.0, b=5.0))
        episodes = 400 if case == "floor" else 200
        jobs = [(g, TrainConfig(episodes=episodes, seed=spawned_seed(3, j), snapshot_q=True))
                for j in range(2)]
        uniform = []  # the lone run's episodes with a row at or below the floor
        weights = simulator._boltzmann_weights
        monkeypatch.setattr(simulator, "_boltzmann_weights", lambda *args, **kwargs: (
            uniform.append(len(update_calls)) or weights(*args, **kwargs)))
        lone = train(*jobs[0])
        if case == "floor":
            # every row above the floor at some episode, and one back at it later
            clear = sorted(set(range(episodes)) - set(uniform))
            assert clear and uniform[-1] > clear[0]
        assert train_many(jobs)[0] == lone

    @pytest.mark.parametrize("k", [40, np.float32(7.3), Fraction(1, 3)],
                             ids=["int", "float32", "Fraction"])
    def test_lone_run_equals_its_chunk_for_any_real_k(self, k):
        jobs = [(game(b=5.0), TrainConfig(episodes=300, k=k, seed=j, snapshot_q=True))
                for j in range(2)]
        assert train_many(jobs)[0] == train(*jobs[0])

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
        weights = simulator._boltzmann_weights
        monkeypatch.setattr(simulator, "_boltzmann_weights",
                            lambda *args, **kwargs: episodes.append(1) or weights(*args, **kwargs))
        with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
            train(g, TrainConfig(episodes=5))
        assert episodes == []

    def test_learner_and_oracle_refuse_the_same_games(self):
        # seeded games with leisure capacities below 1 and alpha within 0.5% of
        # where (delta_t * max capacity) ** alpha alone overflows: the score
        # factor puts games on both sides of the bound
        from teamgames.equilibrium import verify_epsilon_nash
        rng = np.random.default_rng(23)
        refused = {"learner": [], "oracle": []}
        tried = 0
        for k in range(150):
            n = int(rng.integers(1, 5))
            capacity = tuple(rng.uniform(0.02, 1.0, n))
            x = 10.0 * max(capacity)
            if x <= 1.0:
                continue
            ev = EvaluationSpec("identity") if k % 3 == 0 else EvaluationSpec(
                ("logistic", "heaviside")[k % 3 - 1], d=float(rng.uniform(0.5, 20.0)),
                gamma=2.0, b=3.0)
            g = GameSpec(n=n, rho=float(rng.choice([-3.0, 0.5, 1.0, 3.0])), betas=(1.0,) * n,
                         delta_t=10.0, expertise=tuple(rng.uniform(0.1, 1.0, n)),
                         leisure_capacity=capacity, evaluation=ev,
                         alpha=308.25 / math.log10(x) * float(rng.uniform(0.995, 1.005)))
            tried += 1
            for side, call in (("learner", lambda: train(g, TrainConfig(episodes=1))),
                               ("oracle", lambda: verify_epsilon_nash([0.5] * n, g, 1.0))):
                try:
                    call()
                except InputError:
                    refused[side].append(k)
        assert refused["learner"] == refused["oracle"]
        assert 0 < len(refused["learner"]) < tried

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
    """The run count of every ``simulator._score`` call, and 1 for every
    ``simulator.score_scalar`` call (a lone run's miss), in call order."""
    calls = []
    score, score_scalar = simulator._score, simulator.score_scalar

    def spy(kind, G, d, gamma, b):
        calls.append(len(G))
        return score(kind, G, d, gamma, b)

    def scalar_spy(*args):
        calls.append(1)
        return score_scalar(*args)

    monkeypatch.setattr(simulator, "_score", spy)
    monkeypatch.setattr(simulator, "score_scalar", scalar_spy)
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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestScalarMisses:
    """A lone run below ``games._PAIRWISE_TERMS`` players scores a joint
    action it has not played in floats, through the scalar CES and sigma
    with numpy's exp and log: the array kernels' results, bit for bit."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 709.78, -745.13, -708.5, -740.0,
             -744.5, 5e-324, 2.2250738585072014e-308, 1e-310, 1.0, 2.0, 0.5]

    def test_numpy_exp_and_log_of_a_float_are_the_array_kernels_bits(self):
        rng = np.random.default_rng(33)
        exp_in = np.concatenate([rng.uniform(-760.0, 720.0, 50_000), self.EDGES])
        # logs of every float magnitude, subnormals included, and the edges
        log_in = np.concatenate([10.0 ** rng.uniform(-323.0, 308.0, 50_000), self.EDGES,
                                 [-1.0, -5e-324]])
        with np.errstate(all="ignore"):
            for func, values in ((np.exp, exp_in), (np.log, log_in)):
                arrays = func(values)  # contiguous, and one value at a time as a column
                columns = [func(values[i:i + 1, None])[0, 0] for i in range(0, len(values), 97)]
                scalars = [func(x) for x in values.tolist()]
                assert _bits(scalars) == _bits(arrays), func
                assert _bits(columns) == _bits(scalars[::97]), func

    @pytest.mark.parametrize("n", range(1, simulator._PAIRWISE_TERMS))
    def test_scalar_ces_and_score_equal_the_kernels_for_every_zero_pattern(self, n):
        rng = np.random.default_rng(n)
        specs = [EvaluationSpec("logistic", d=10.0, gamma=2.0, b=5.0),
                 EvaluationSpec("logistic", d=3.0, gamma=0.5, b=0.5),
                 EvaluationSpec("identity"), EvaluationSpec("heaviside", d=10.0, b=5.0)]
        checked = zeros = 0
        for zero in itertools.product((False, True), repeat=n):
            for rho in (-500.0, -100.0, -10.0, -0.5, 0.5, 1.0, 3.0, 10.0, 100.0, 500.0):
                # gifts over five decades, some as in the learner's grid
                gifts = 10.0 ** rng.uniform(-3.0, 2.0, (n, 3))
                gifts[:, 0] = rng.integers(0, 101, n) / 100 * rng.uniform(0.1, 10.0, n)
                gifts[np.array(zero)] = 0.0
                log_b = np.log(rng.uniform(0.5, 2.0, n))
                with np.errstate(over="ignore", divide="ignore"):
                    grid = games._ces(gifts, rho, log_b)
                    for cell in range(gifts.shape[1]):
                        column = gifts[:, cell]
                        G = _scalar_ces(column.tolist(), log_b.tolist(), rho, np.exp, np.log)
                        assert _bits([G, G]) == _bits([games._ces(column, rho, log_b),
                                                       grid[cell]]), (zero, rho, cell)
                        zeros += G == 0.0
                        for spec in specs:
                            sigma = score_scalar(spec, G, np.exp)
                            kernel = _score(spec.kind, np.array([G]), spec.d, spec.gamma, spec.b)
                            assert _bits([sigma]) == _bits(kernel), (zero, rho, spec)
                        checked += 1
        assert checked == 2 ** n * 10 * 3
        # at least the cells of the four rho < 0 with a zero gift and of the six rho > 0 with
        # no positive gift
        assert zeros >= (2 ** n - 1) * 4 * 3 + 6 * 3

    @pytest.mark.parametrize("n,rho,in_floats", [
        (simulator._PAIRWISE_TERMS - 1, 1.0, True), (simulator._PAIRWISE_TERMS, 1.0, False),
        # |rho| at its declared bound: every positive gift's log-term is still finite
        (3, -1e300, True), (3, 1e300, True)])
    @pytest.mark.parametrize("kind", ["logistic", "heaviside"])  # identity's G overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_a_miss_takes_the_kernels_where_floats_would_differ(self, monkeypatch, n, rho,
                                                                in_floats, kind):
        # from _PAIRWISE_TERMS players a lone run takes the chunk loop, which
        # updates through _update_q, not _update_arms
        scalar, updates = [], []
        monkeypatch.setattr(simulator, "_scalar_ces",
                            lambda *args: scalar.append(1) or _scalar_ces(*args))
        update_arms = simulator._update_arms
        monkeypatch.setattr(simulator, "_update_arms",
                            lambda *args: updates.append(1) or update_arms(*args))
        jobs = [(game(rho=rho, expertise=tuple(np.linspace(0.3, 0.8, n)), b=5.0, kind=kind),
                 TrainConfig(episodes=200, seed=spawned_seed(4, j), snapshot_q=True))
                for j in range(2)]
        lone = train(*jobs[0])
        assert bool(scalar) == bool(updates) == in_floats
        assert train_many(jobs)[0] == lone


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

    def test_tables_in_either_memory_order(self):
        games = [game(rho=rho) for rho in (-10.0, 0.5, 10.0)]
        arm_actions = uniform_action_grid(101)
        row_major = simulator._term_tables(games, arm_actions)
        arm_major = simulator._term_tables(games, arm_actions, "F")
        for rows, arms in zip(row_major, arm_major):
            assert arms.flags.f_contiguous and not arms.flags.c_contiguous
            assert np.array_equal(rows, arms)

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

    @pytest.mark.parametrize("sample", [[1.7e308, 1.0e308], [-1e308, 1e308, 1e308]])
    def test_overflowing_sample_gives_its_scaled_twins_value(self, sample):
        # the sum of the first and the range of the second leave the float range;
        # tier-1 turns the RuntimeWarning that would show it into an error
        scale = max(abs(v) for v in sample)
        twin = [v / scale for v in sample]
        assert dispersion(sample) == dispersion(twin)
        assert math.isfinite(dispersion(sample)) and dispersion(sample) > 0.0

    def test_finite_sample_keeps_its_arithmetic(self):
        rng = np.random.default_rng(31)
        for sample in ([1e307, 2e307, 3e307], *rng.uniform(0.1, 5.0, (20, 5)).tolist()):
            arr = np.asarray(sample)
            expected = float((arr.max() - arr.min()) / float(arr.mean()) * 100.0)
            assert dispersion(sample).hex() == expected.hex()


class TestConvergence:
    """Desk-scale sanity that training approaches the theory on easy games."""

    def test_additive_symmetric_converges_near_equilibrium(self):
        from teamgames.equilibrium import max_achievable_utility, verify_epsilon_nash
        g = game(rho=1.0, expertise=(1.0, 1.0), b=5.0)
        out = train(g, TrainConfig(episodes=50_000, seed=11))
        eps = 0.02 * max_achievable_utility(g)
        check = verify_epsilon_nash(out.greedy_actions, g, eps)
        assert check.is_nash, (out.greedy_actions, check)
