"""One-shot teamwork environment and the episodic training loop.

An episode is a single play of the underlying game: every agent samples an
arm from its Boltzmann distribution, the joint action is scored, and each
agent updates only its own arm from its own reward (independent learners).
A fixed share ``EXPLORATION`` of each agent's draws is taken uniformly over
all arms instead, so no arm is left at its zero initialisation or frozen at
a value sampled against a long-gone partner.  An arm valued at zero has
``exp(-1 / tau)`` of the best arm's soft-max weight, and at low temperature
the soft-max alone leaves most arms untried.

``train_many`` learns many runs in lockstep: runs that share a player
count, an arm count, a temperature schedule and an evaluation kind keep
their Q-tables in one ``(runs * n, K)`` array, and every episode does
one soft-max, one draw, one reward computation and one update for all of
them (``train`` is its one-run case).  The soft-max is left unnormalised:
each agent's arm is read from its row of weights against ``v`` times the
row total, which picks the normalised inverse CDF's arm without a row sum
or a division.  A chunk of
at least ``_ARM_MAJOR_AGENTS`` agents keeps its ``(agents, K)`` tables in
arm-major (Fortran) order: the draw's running sums then advance one arm
per step over every agent at once, two agents per add, where row-major
order chains K dependent adds per agent.  A smaller chunk would walk K
short rows in every op, so it stays row-major.  Both orders give the same
sums bit for bit.  Rewards take one path for every team size: each
player's CES log-term and leisure factor are tabulated per arm before the
first episode, and each episode gathers every run's terms into one column,
finishes them with ``games._aggregate_terms`` (the log-sum-exp of
``ces_aggregate``), scores the outcomes in one ``evaluation._score`` pass
and multiplies by the leisure factors.  The kernel sums each column in
player order, so the rewards equal ``games._payoffs`` bit for bit on each
joint action alone or over an ``(n, cells)`` grid of them.

A row-major chunk of one run of fewer than ``_LONE_PLAYERS`` players has
an episode loop of its own, because a handful of cells costs more in numpy
calls than in arithmetic.  It keeps the rewards of each joint action it
has played (the memo) and reuses them when it plays the action again, and
it keeps its pull counts in a list and updates its n pulled cells one at a
time in Python floats (``_update_arms``), with the same correctly rounded
operations as ``bandit._update_q``.  A joint action it has not played (a
memo miss) is scored in floats too: its log-terms from the term table,
finished by ``games._aggregate_scalar``, and ``evaluation.score_scalar``,
with numpy's ``exp`` and ``log``, which give a float the array kernels'
bits.  Any other chunk takes the chunk loop.  The lone loop's soft-max
repeats ``_boltzmann_weights``' operations on same-shape ``(n, K)``
arrays.

Each run draws from its own counter-based stream, so an outcome is bitwise
the same whatever it is batched with; sweep seeds are derived from a base
seed with spawn keys, so parallel runs match serial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bandit import Q_MAX_FLOOR, _boltzmann_weights, _update_q, uniform_action_grid
from .bandit import update_q  # noqa: F401  (bound here for perfbench's tracer tests)
from .errors import (ConfigurationError, Field, InputError, UndefinedDispersionError, _FINITE,
                     _POSITIVE, _POSITIVE_OR_NONE, _SEED, _at_least, _check, _check_all)
from .evaluation import _score, score_scalar
from .games import (GameSpec, _GAME, _aggregate_scalar, _aggregate_terms, _leisure_payoff,
                    _outcome, max_achievable_utility)

# Share of each agent's draws taken uniformly over all arms, whatever the
# Q-table holds, so every arm keeps being sampled at rate >= EXPLORATION / K.
EXPLORATION = 0.01

# Bytes of per-run tables and per-episode draws that one lockstep chunk of
# runs holds at a time (about a hundred two-player runs).
_CHUNK_BYTES = 1 << 20

# Agent count from which a lockstep chunk keeps its (agents, K) tables in
# arm-major (Fortran) order, where the draw's cumulative sum adds two agents
# per step; below it every op would walk K short rows, and row-major is as
# fast or faster (BENCH_24: the two break even at 20 to 28 agents).
_ARM_MAJOR_AGENTS = 32

# Player count from which a lone run takes the chunk loop: the lone loop's memo,
# a list of n rewards per joint action played, grows with n.  At 8 players a
# 50,000-episode run took 1.21 s at 62 MB peak RSS there and 1.99 s at 37 MB in
# the chunk loop (one CPU of a 2-CPU x86-64 host, numpy 2.4; README).
_LONE_PLAYERS = 8

# Each TrainConfig field's declaration; anneal_floor must also be at most tau.  A seed
# may be a SeedSequence, named at the check so that this import leaves numpy.random unloaded.
_TRAIN_FIELDS = {"episodes": _at_least(1), "tau": _POSITIVE, "k": _POSITIVE,
                 "seed": _SEED._replace(also=lambda v: isinstance(v, np.random.SeedSequence)),
                 "num_arms": _at_least(2), "anneal_floor": _POSITIVE_OR_NONE,
                 "anneal_start": Field(float, "in [0, 1)", lambda v: 0 <= v < 1),
                 "snapshot_q": Field(bool)}


@dataclass(frozen=True)
class TrainConfig:
    """Training-run parameters.

    The temperature stays at ``tau`` for the first ``anneal_start`` fraction
    of the episodes, then decays geometrically to ``anneal_floor``: agents
    first learn the landscape under live exploration and afterwards settle
    into the low-temperature limit where the smooth best responses approach
    exact ones.  Set ``anneal_floor=None`` for a constant temperature.

    Whatever the temperature, a share ``EXPLORATION`` of the draws is
    uniform over the arms.  The learned actions are each agent's greedy
    arm, read from the Q-table alone.
    """

    episodes: int = 50_000
    tau: float = 0.1
    k: float = 40.0
    seed: int | np.random.SeedSequence = 0
    num_arms: int = 101
    anneal_floor: float | None = 0.02
    anneal_start: float = 0.5
    snapshot_q: bool = False

    def __post_init__(self):
        _check_all(_TRAIN_FIELDS, vars(self))
        if self.anneal_floor is not None and self.anneal_floor > self.tau:
            raise ConfigurationError(f"anneal_floor must be <= tau, got {self.anneal_floor}")

    def temperature(self, episode: int) -> float:
        """Temperature used at the given episode index."""
        if self.anneal_floor is None or self.anneal_floor == self.tau:
            return self.tau
        t_switch = int(self.anneal_start * self.episodes)
        if episode < t_switch or self.episodes - 1 <= t_switch:
            return self.tau
        frac = (episode - t_switch) / (self.episodes - 1 - t_switch)
        return self.tau * (self.anneal_floor / self.tau) ** frac

    def temperatures(self) -> list[float]:
        """``temperature(t)`` for every episode t, bit for bit, in one pass."""
        t_switch = int(self.anneal_start * self.episodes)
        span = self.episodes - 1 - t_switch
        if self.anneal_floor is None or self.anneal_floor == self.tau or span <= 0:
            return [self.tau] * self.episodes
        ratio = self.anneal_floor / self.tau
        return [self.tau] * t_switch + [self.tau * ratio ** ((t - t_switch) / span)
                                        for t in range(t_switch, self.episodes)]


_CONFIG = Field(TrainConfig)  # a job's config, read by train_many


@dataclass(frozen=True)
class LearnedOutcome:
    """Result of one training run: the greedy policy and its outcome."""

    greedy_actions: tuple[float, ...]
    learned_G: float
    learned_score: float
    episodes: int
    seed: int
    q_snapshots: tuple[tuple[float, ...], ...] | None = None


def _seed_sequence(seed) -> tuple[np.random.SeedSequence, int]:
    if isinstance(seed, np.random.SeedSequence):
        return seed, int(seed.generate_state(1)[0])
    return np.random.SeedSequence(int(seed)), int(seed)


def _run_bytes(n: int, num_arms: int) -> int:
    """Bytes one run holds in a lockstep chunk: about six ``(n, K)`` arrays
    (Q-values, pull counts, the soft-max and its draw buffers, and the two
    term tables)."""
    return 8 * 6 * n * num_arms


def _term_tables(games, arm_actions: np.ndarray, order: str = "C"):
    """Per player of each run and per arm, laid out ``(runs * n, K)`` in
    memory order ``order`` like the Q-tables: the CES log-term
    ``T = log(beta_i) + rho * log(g_i)`` of the arm's gift and the leisure
    factor ``L = x ** alpha``, by the elementwise steps of
    ``ces_aggregate`` and ``_leisure_payoff``.  Each run passes
    ``max_achievable_utility`` first, so no reward overflows.
    """
    n = games[0].n
    arms = np.broadcast_to(arm_actions, (n, len(arm_actions)))
    T = np.empty((len(games) * n, len(arm_actions)), order=order)
    L = np.empty_like(T)
    for r, game in enumerate(games):
        max_achievable_utility(game)  # refuses a game whose rewards overflow
        rows = slice(r * n, (r + 1) * n)
        with np.errstate(divide="ignore"):  # a zero gift's log
            T[rows] = np.log(game.betas)[:, None] + game.rho * np.log(
                arms * game.full_time_gifts()[:, None])
        L[rows] = _leisure_payoff(game, arms)
    return T, L


def _draws(u: np.ndarray, num_arms: int):
    """Per episode (row of the uniforms ``u``, one column per agent), what
    ``_draw_arms`` needs: every agent's rescaled uniform for the soft-max
    and, when any agent explores, which ones do and their arms."""
    explore = u < EXPLORATION
    explore_arms = (u / EXPLORATION * num_arms).astype(np.intp)
    v = (u - EXPLORATION) / (1.0 - EXPLORATION)
    for e, any_explore in enumerate(explore.any(axis=1).tolist()):
        yield v[e], (explore[e], explore_arms[e]) if any_explore else None


def _draw_buffers(weights: np.ndarray) -> tuple:
    """``_draw_arms``' work buffers for the ``(M, K)`` soft-max weights
    ``weights``, in their memory order: the first K - 1 columns of the
    weights and of the cumulative weights as ``np.add.accumulate`` sums
    them, with its axis; views of the last column of the weights and of
    column K - 2 of the cumulative weights; an ``(M, 1)`` view for ``v``
    times each row total; and what finds each row's count of cumulative
    weights at or below it.  The last column of the cumulative weights is a
    permanent ``+inf`` sentinel.

    Row-major weights are summed along each row, into the imaginary parts
    of a complex table whose real parts are the row indices: flattened, the
    table is sorted in numpy's complex order (real part first), so one
    ``searchsorted`` of the complex keys ``row + 1j * threshold`` finds
    every row's count.  Arm-major (Fortran-order) weights are summed down
    the ``(K - 1, M)`` transpose, one arm per step; for an even M as
    ``complex128`` pairs, so each step adds two agents, two correctly
    rounded float adds, and every sum is the row-major one.  Their counts
    are the True entries of a bool table, summed down the arms as bytes
    while a count fits in one (K <= 256), as ``intp`` beyond.
    """
    rows, num_arms = weights.shape
    if weights.flags.c_contiguous:
        table = np.empty_like(weights, dtype=np.complex128)
        table.real = np.arange(rows)[:, None]
        keys = np.arange(rows, dtype=np.complex128)
        cum, threshold = table.imag, keys.imag
        head, cum_head, axis = weights[:, :-1], cum[:, :-1], 1
        find = (table.ravel(), keys, np.arange(0, rows * num_arms, num_arms))
    else:
        cum, column = np.empty_like(weights), np.empty((rows, 1))
        threshold = column[:, 0]
        head, cum_head, axis = weights.T[:-1], cum.T[:-1], 0
        if rows % 2 == 0:
            head, cum_head = head.view(np.complex128), cum_head.view(np.complex128)
        find = (cum, column, np.empty_like(weights, dtype=bool),
                np.empty(rows, dtype=np.uint8 if num_arms <= 256 else np.intp))
    cum[:, -1] = np.inf
    return head, axis, weights[:, -1], cum_head, cum[:, -2], threshold, find


def _draw_arms(draw, buffers: tuple, arms: np.ndarray) -> np.ndarray:
    """Each agent's arm for one episode, into ``arms``.

    An agent whose uniform ``u`` is below ``EXPLORATION`` takes arm
    ``int(u / EXPLORATION * K)``; any other reads the inverse CDF of its
    soft-max row at ``v = (u - EXPLORATION) / (1 - EXPLORATION)`` from the
    row's unnormalised weights (``bandit._boltzmann_weights``): the count
    of its cumulative weights at or below ``v`` times the row total, at
    most K - 1, which is the normalised inverse CDF's arm unless ``v`` lies
    within rounding of one of its boundaries.  ``buffers`` is
    ``_draw_buffers(weights)``: only the first K - 1 weights are summed,
    the row total is the last of those sums plus the last weight, and the
    ``+inf`` sentinel caps the count at K - 1.  The weights may be
    row-major or arm-major: the sums, and so the arms, are the same bit for
    bit.
    """
    v, exploring = draw
    head, axis, last, cum_head, head_total, threshold, find = buffers
    np.add.accumulate(head, axis=axis, out=cum_head)  # np.cumsum, without its wrapper
    np.add(head_total, last, out=threshold)
    np.multiply(threshold, v, out=threshold)
    if axis:
        table, keys, row_start = find
        np.subtract(table.searchsorted(keys, "right"), row_start, out=arms)
    else:
        cum, column, below, count = find
        np.less_equal(cum, column, out=below)
        np.add.reduce(below.view(np.uint8), axis=1, dtype=count.dtype, out=count)
        np.copyto(arms, count)
    if exploring is not None:
        explore, explore_arms = exploring
        np.copyto(arms, explore_arms, where=explore)
    return arms


def _update_arms(q: np.ndarray, counts: list, k: float, arms: list, rewards: list,
                 offsets: list) -> None:
    """``bandit._update_q`` for one row-major run, on Python scalars: agent
    i's pulled cell ``arms[i] + offsets[i]`` of the flat Q-table ``q``
    moves towards ``rewards[i]``, and its count in the list ``counts``
    advances.  The float operations are ``_update_q``'s, each correctly
    rounded, so the Q-values are the same bit for bit."""
    for arm, offset, reward in zip(arms, offsets, rewards):
        cell = arm + offset
        count = counts[cell]
        old = q.item(cell)
        q[cell] = old + k / (k + count) * (reward - old)
        counts[cell] = count + 1


def train_many(jobs) -> list[LearnedOutcome]:
    """Train every ``(game, config)`` job; outcome j equals ``train(*jobs[j])``.

    Jobs with the same player count, arm count, episode count, temperature
    schedule and evaluation kind advance in lockstep, a chunk of runs at a
    time: their Q-tables are one ``(runs * n, K)`` array, and every episode
    does one soft-max, one draw, one reward computation and one update for
    all of them.  Rewards take one path for every team size, through
    per-player CES term tables, and a chunk scores its outcomes in one
    ``_score`` call; a chunk is sized by its runs' ``(n, K)`` arrays alone
    (``_run_bytes``).  A lone run of fewer than ``_LONE_PLAYERS`` players
    has a reward memo and a loop of its own (see the module docstring),
    bit for bit as a chunk of runs.  ``k``, the game and the seed may
    differ within a chunk.  Each run keeps its own random stream, so
    outcomes do not depend on how the jobs are grouped or chunked.
    """
    try:
        jobs = list(jobs)
    except TypeError:
        raise InputError(f"jobs must be (game, config) pairs, got {jobs!r}") from None
    groups: dict[tuple, list[int]] = {}
    for j, job in enumerate(jobs):
        try:
            game, config = job
        except (TypeError, ValueError):
            raise InputError(f"job {j} must be a (game, config) pair, got {job!r}") from None
        _check(f"job {j}'s game", game, _GAME, InputError)
        _check(f"job {j}'s config", config, _CONFIG, InputError)
        key = (game.n, config.num_arms, config.episodes, config.tau,
               config.anneal_floor, config.anneal_start, game.evaluation.kind)
        groups.setdefault(key, []).append(j)
    outcomes: list = [None] * len(jobs)
    for (n, num_arms, *_), members in groups.items():
        size = max(1, _CHUNK_BYTES // _run_bytes(n, num_arms))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            for j, outcome in zip(chunk, _train_lockstep([jobs[j] for j in chunk])):
                outcomes[j] = outcome
    return outcomes


def _train_lockstep(jobs) -> list[LearnedOutcome]:
    """Run jobs that share n, K, the temperature schedule and the
    evaluation kind in lockstep.

    Per episode: one table of unnormalised soft-max weights over every
    Q-table, one draw from it, then the rewards, gathered and scored in
    one ``_score`` call with each run's ``d``, ``gamma`` and ``b``, and one
    update.  A row-major lone run of fewer than ``_LONE_PLAYERS``
    players takes the lone loop of the module docstring.  The Q-values, pull
    counts, weights and term tables keep the logical shape ``(agents, K)``.
    From ``_ARM_MAJOR_AGENTS`` agents they are stored arm-major, where the
    draw's cumulative sum runs down the arms two agents per add; below it
    they are row-major, where each op walks a few long rows instead of K
    short ones.
    """
    games = [game for game, _ in jobs]
    configs = [config for _, config in jobs]
    schedule = configs[0]
    n, num_arms, episodes, runs = games[0].n, schedule.num_arms, schedule.episodes, len(jobs)
    agents = runs * n
    arm_actions = uniform_action_grid(num_arms)
    seeds = [_seed_sequence(config.seed) for config in configs]
    rngs = [np.random.Generator(np.random.Philox(seq)) for seq, _ in seeds]

    # a cell's flat index is agent * K + arm in row-major order and
    # arm * agents + agent in arm-major order
    arm_major = agents >= _ARM_MAJOR_AGENTS
    order = "F" if arm_major else "C"
    q = np.zeros((agents, num_arms), order=order)
    q_flat = q.ravel(order="K")
    weights = np.empty_like(q)
    draw_buffers = _draw_buffers(weights)
    arms = np.empty(agents, dtype=np.intp)
    cells = np.empty(agents, dtype=np.intp)
    agent_ids = np.arange(agents)
    row_start = agent_ids * num_arms

    # flat in memory order, as cells index them
    T, L = (table.ravel(order="K") for table in _term_tables(games, arm_actions, order))
    rho = np.array([game.rho for game in games])
    player_cells = cells.reshape(runs, n).T  # a view: the cells player by player
    terms = np.empty((n, runs))  # row-major: the kernel's row adds run on contiguous rows
    # the chunk's one evaluation kind, and each run's d, gamma and b, bound once
    kind = games[0].evaluation.kind
    d, gamma, b = (np.array([getattr(game.evaluation, key) for game in games])
                   for key in ("d", "gamma", "b"))

    def scores():
        """The cells of every run's joint action in ``arms``, into
        ``cells``, and sigma(G) of each."""
        if arm_major:
            np.multiply(arms, agents, out=cells)
            np.add(cells, agent_ids, out=cells)
        else:
            np.add(row_start, arms, out=cells)
        T.take(player_cells, out=terms)
        return _score(kind, _aggregate_terms(terms, rho), d, gamma, b)

    temperatures = schedule.temperatures()
    # about 32 bytes of draws per agent-episode; a block takes 1/8 of the budget
    block = max(1, _CHUNK_BYTES // (256 * agents))

    def blocks():
        """Each block of episodes' temperatures and draws, from the runs'
        uniforms for those episodes, one column per agent."""
        for start in range(0, episodes, block):
            stop = min(episodes, start + block)
            u = np.concatenate([rng.random((stop - start, n)) for rng in rngs], axis=1)
            yield zip(temperatures[start:stop], _draws(u, num_arms))

    with np.errstate(divide="ignore"):  # log(0) of a team with no positive gift
        if runs > 1 or n >= _LONE_PLAYERS or arm_major:
            counts = np.zeros((agents, num_arms), dtype=np.int64, order=order)
            counts_flat = counts.ravel(order="K")
            k = np.repeat([float(config.k) for config in configs], n)
            rewards = np.empty(agents)
            run_rewards = rewards.reshape(runs, n)
            for tau, draw in chain.from_iterable(blocks()):
                _boltzmann_weights(q, tau, out=weights)
                _draw_arms(draw, draw_buffers, arms)
                S = scores()
                L.take(cells, out=rewards)
                run_rewards *= S[:, None]
                _update_q(q_flat, counts_flat, k, cells, rewards)
        else:
            # A joint action fixes its rewards: the memo keeps each one's list,
            # at most min(episodes, K**n) of them.  Bookkeeping and a miss's
            # scoring are in Python scalars, where n cells cost less than numpy
            # calls; the soft-max is _boltzmann_weights' operations on same-shape
            # arrays, or the kernel itself while a row's best is <= Q_MAX_FLOOR.
            memo = {}
            counts = [0] * (agents * num_arms)
            k = float(schedule.k)
            offsets = row_start.tolist()
            log_terms, leisure = T.tolist(), L.tolist()
            rho, spec = games[0].rho, games[0].evaluation
            q_max = np.empty((agents, 1))
            q_max_row = q_max[:, 0]
            q_best, scale = np.empty((2, agents, num_arms))
            for tau, draw in chain.from_iterable(blocks()):
                np.maximum.reduce(q, axis=1, keepdims=True, out=q_max)
                if min(q_max_row.tolist()) <= Q_MAX_FLOOR:
                    _boltzmann_weights(q, tau, out=weights)
                else:
                    np.copyto(q_best, q_max)
                    np.multiply(q_best, tau, out=scale)
                    np.divide(q, scale, out=weights)
                    np.divide(q_best, scale, out=scale)
                    np.subtract(weights, scale, out=weights)
                    np.exp(weights, out=weights)
                played = _draw_arms(draw, draw_buffers, arms).tolist()
                key = tuple(played)
                rewards = memo.get(key)
                if rewards is None:
                    pulled = [a + offset for a, offset in zip(played, offsets)]
                    G = _aggregate_scalar([log_terms[c] for c in pulled], rho, np.exp, np.log)
                    sigma = score_scalar(spec, G, np.exp)
                    rewards = memo[key] = [leisure[c] * sigma for c in pulled]
                _update_arms(q_flat, counts, k, played, rewards, offsets)

    greedy = arm_actions[q.argmax(axis=1)]
    outcomes = []
    for r, (game, config) in enumerate(jobs):
        rows = slice(r * n, (r + 1) * n)
        learned = greedy[rows].tolist()
        learned_G, learned_score = _outcome(game, np.asarray(learned))
        snapshots = None
        if config.snapshot_q:
            snapshots = tuple(tuple(row) for row in q[rows].tolist())
        outcomes.append(LearnedOutcome(
            greedy_actions=tuple(learned),
            learned_G=learned_G,
            learned_score=learned_score,
            episodes=episodes,
            seed=seeds[r][1],
            q_snapshots=snapshots,
        ))
    return outcomes


def train(game: GameSpec, config: TrainConfig) -> LearnedOutcome:
    """Train n independent bandits on the game for config.episodes episodes.

    Synchronous rounds: all agents pick arms, the round is played, then all
    agents update.  Each agent's arm comes from one uniform ``u`` per
    episode: ``u < EXPLORATION`` takes arm ``int(u / EXPLORATION * K)``,
    any other ``u`` reads the Boltzmann inverse CDF at the episode's
    temperature at ``(u - EXPLORATION) / (1 - EXPLORATION)``.
    Deterministic given (game, config) including the seed.  The one-job
    case of ``train_many``.
    """
    return train_many([(game, config)])[0]


def spawned_seed(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Deterministic per-cell seed derivation for sweeps; every argument is a
    non-negative integer, read as ``TrainConfig.seed`` is."""
    _check("base_seed", base_seed, _SEED)
    spawn_key = tuple(int(_check(f"key {i}", k, _SEED)) for i, k in enumerate(key))
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=spawn_key)


def dispersion(values) -> float:
    """Percentage dispersion: (max - min) / mean * 100."""
    arr = np.array(_check("dispersion sample", values, _FINITE._replace(kind=tuple),
                          UndefinedDispersionError))
    if arr.size == 0:
        raise UndefinedDispersionError("dispersion needs a non-empty sample")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, spread = float(arr.mean()), arr.max() - arr.min()
    if not (math.isfinite(mean) and math.isfinite(spread)):
        # the sum or the range overflows: the measure is scale-free, so take
        # it on the sample divided by its largest magnitude
        arr = arr / np.abs(arr).max()
        mean, spread = float(arr.mean()), arr.max() - arr.min()
    if mean <= 0:
        raise UndefinedDispersionError(f"dispersion undefined for mean {mean}")
    return float(spread / mean * 100.0)
