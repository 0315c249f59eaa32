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
count, an arm count and a temperature schedule keep their Q-tables in one
``(runs * n, K)`` array, and every episode does one soft-max, one draw, one
reward computation and one update for all of them (``train`` is its
one-run case).  Rewards take one path for every team size: each player's
CES log-term and leisure factor are tabulated per arm before the first
episode, and each episode gathers every run's terms into one column,
finishes them with ``games._aggregate_terms`` (the log-sum-exp of
``ces_aggregate``), scores the outcomes in one ``evaluation._score`` pass
per evaluation kind and multiplies by the leisure factors.  A lone run
keeps the reward row of each joint action it has played and reuses it when
it plays the action again.  With each run's column contiguous, as
``ces_aggregate`` lays out a grid, the rewards equal ``games._payoffs`` bit
for bit on each joint action alone or over an ``(n, cells)`` grid of them.
Each run draws from its own counter-based stream, so an outcome is bitwise
the same whatever it is batched with; sweep seeds are derived from a base
seed with spawn keys, so parallel runs match serial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import _boltzmann, _update_q, uniform_action_grid
from .bandit import update_q  # noqa: F401  (bound here for perfbench's tracer tests)
from .errors import ConfigurationError, InputError, UndefinedDispersionError
from .evaluation import _score, eval_score
from .games import GameSpec, _aggregate_terms, _leisure_payoff, _outcome

# Share of each agent's draws taken uniformly over all arms, whatever the
# Q-table holds, so every arm keeps being sampled at rate >= EXPLORATION / K.
EXPLORATION = 0.01

# Bytes of per-run tables and per-episode draws that one lockstep chunk of
# runs holds at a time (about a hundred two-player runs).
_CHUNK_BYTES = 1 << 20


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
        if self.episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {self.episodes}")
        for key in ("tau", "k"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ConfigurationError(f"{key} must be finite and > 0, got {value}")
        if self.num_arms < 2:
            raise ConfigurationError(f"num_arms must be >= 2, got {self.num_arms}")
        if self.anneal_floor is not None:
            if not 0 < self.anneal_floor <= self.tau:
                raise ConfigurationError(
                    f"anneal_floor must lie in (0, tau], got {self.anneal_floor}")
            if not 0.0 <= self.anneal_start < 1.0:
                raise ConfigurationError(
                    f"anneal_start must lie in [0, 1), got {self.anneal_start}")

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


def _term_tables(games, arm_actions: np.ndarray):
    """Per player of each run and per arm, laid out ``(runs * n, K)`` like
    the Q-tables: the CES log-term ``T = log(beta_i) + rho * log(g_i)`` of
    the arm's gift and the leisure factor ``L = x ** alpha``, by the
    elementwise steps of ``ces_aggregate`` and ``_leisure_payoff``.  Each
    run passes ``require_finite_rewards`` first, so no reward overflows.
    """
    n = games[0].n
    arms = np.broadcast_to(arm_actions, (n, len(arm_actions)))
    T = np.empty((len(games) * n, len(arm_actions)))
    L = np.empty_like(T)
    for r, game in enumerate(games):
        require_finite_rewards(game)
        rows = slice(r * n, (r + 1) * n)
        with np.errstate(divide="ignore"):  # a zero gift's log
            T[rows] = np.log(game.betas)[:, None] + game.rho * np.log(
                arms * game.full_time_gifts()[:, None])
        L[rows] = _leisure_payoff(game, arms)
    return T, L


def require_finite_rewards(game: GameSpec) -> None:
    """Raise ``InputError`` if a reward of ``game`` could be beyond the float
    range; ``train`` refuses such a game before its first episode.

    CES and every evaluation are non-decreasing, and leisure is largest at
    action 0, the first arm of every grid, so the rewards are finite if
    ``max(L at action 0) * sigma(G at full time)`` is.
    """
    with np.errstate(over="ignore"):
        bound = (_leisure_payoff(game, np.zeros(game.n)).max()
                 * eval_score(game.evaluation, game.max_aggregate()))
    if not np.isfinite(bound):
        raise InputError(f"rewards must be finite, got a bound of {bound}")


def _draws(u: np.ndarray, num_arms: int):
    """Per episode (row of the uniforms ``u``, one column per agent), what
    ``_draw_arms`` needs: every agent's rescaled uniform for the soft-max
    and, when any agent explores, which ones do and their arms."""
    explore = u < EXPLORATION
    explore_arms = (u / EXPLORATION * num_arms).astype(np.intp)
    v = ((u - EXPLORATION) / (1.0 - EXPLORATION))[:, :, None]
    for e, any_explore in enumerate(explore.any(axis=1).tolist()):
        yield v[e], (explore[e], explore_arms[e]) if any_explore else None


def _draw_buffers(probs: np.ndarray) -> tuple:
    """``_draw_arms``' work buffers for the soft-max rows ``probs``: views of
    the first K - 1 columns of ``probs`` and of the cumulative weights, the
    whole ``(M, K)`` cumulative weights, whose last column is a permanent
    ``+inf`` sentinel, and a bool buffer of that shape."""
    cum = np.empty_like(probs)
    cum[:, -1] = np.inf
    return probs[:, :-1], cum[:, :-1], cum, np.empty(probs.shape, dtype=bool)


def _draw_arms(draw, buffers: tuple, arms: np.ndarray) -> np.ndarray:
    """Each agent's arm for one episode, into ``arms``.

    An agent whose uniform ``u`` is below ``EXPLORATION`` takes arm
    ``int(u / EXPLORATION * K)``; any other reads the inverse CDF of its
    soft-max row at ``v = (u - EXPLORATION) / (1 - EXPLORATION)``: the
    count of its cumulative weights at or below ``v``, at most K - 1 (the
    last can round below ``v``).  ``buffers`` is ``_draw_buffers(probs)``:
    only the first K - 1 weights are summed, and the arm is the first False
    of ``cum <= v``, which is that count because the weights do not
    decrease and the ``+inf`` sentinel caps it at K - 1.
    """
    v, exploring = draw
    head, cum_head, cum, below = buffers
    np.add.accumulate(head, axis=1, out=cum_head)  # np.cumsum, without its wrapper
    np.less_equal(cum, v, out=below)
    below.argmin(axis=1, out=arms)
    if exploring is not None:
        explore, explore_arms = exploring
        np.copyto(arms, explore_arms, where=explore)
    return arms


def train_many(jobs) -> list[LearnedOutcome]:
    """Train every ``(game, config)`` job; outcome j equals ``train(*jobs[j])``.

    Jobs with the same player count, arm count, episode count and
    temperature schedule advance in lockstep, a chunk of runs at a time:
    their Q-tables are one ``(runs * n, K)`` array, and every episode does
    one soft-max, one draw, one reward computation and one update for all
    of them.  Rewards take one path for every team size, through per-player
    CES term tables, and a chunk scores its outcomes once per evaluation
    kind; a chunk is sized by its runs' ``(n, K)`` arrays alone
    (``_run_bytes``).  A group of one run computes the reward row of each
    distinct joint action once and reuses it on every replay: at most
    ``min(episodes, K ** n)`` rows of n floats.  ``k``, the game and the
    seed may differ within a chunk.  Each run keeps its own random stream, so
    outcomes do not depend on how the jobs are grouped or chunked.
    """
    jobs = list(jobs)
    groups: dict[tuple, list[int]] = {}
    for j, (game, config) in enumerate(jobs):
        key = (game.n, config.num_arms, config.episodes, config.tau,
               config.anneal_floor, config.anneal_start)
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
    """Run jobs that share n, K and the temperature schedule in lockstep.

    Per episode: one soft-max over every Q-table, one draw, then the rewards,
    gathered and scored, or for a lone run the joint action's memoised
    reward row, and one update.
    """
    games = [game for game, _ in jobs]
    configs = [config for _, config in jobs]
    schedule = configs[0]
    n, num_arms, episodes, runs = games[0].n, schedule.num_arms, schedule.episodes, len(jobs)
    agents = runs * n
    arm_actions = uniform_action_grid(num_arms)
    seeds = [_seed_sequence(config.seed) for config in configs]
    rngs = [np.random.Generator(np.random.Philox(seq)) for seq, _ in seeds]

    q = np.zeros((agents, num_arms))
    counts = np.zeros((agents, num_arms), dtype=np.int64)
    q_flat, counts_flat = q.ravel(), counts.ravel()
    k = np.repeat([config.k for config in configs], n)
    row_start = np.arange(agents) * num_arms
    probs = np.empty_like(q)
    draw_buffers = _draw_buffers(probs)
    arms = np.empty(agents, dtype=np.intp)
    cells = np.empty(agents, dtype=np.intp)
    rewards = np.empty(agents)
    run_rewards = rewards.reshape(runs, n)

    T, L = _term_tables(games, arm_actions)  # take() reads them flat, as cells index
    rho = np.array([game.rho for game in games])
    player_cells = cells.reshape(runs, n).T  # a view: the cells player by player
    # each run's terms contiguous, so they sum as its own joint action's gifts
    terms = np.empty((n, runs), order="F")
    S = np.empty(runs)
    # one _score call per evaluation kind, with each run's d, gamma and b
    # bound once; a lone kind takes every run as a view
    specs = [game.evaluation for game in games]
    by_kind = []
    for kind in dict.fromkeys(spec.kind for spec in specs):
        rows = [r for r, spec in enumerate(specs) if spec.kind == kind]
        members = slice(None) if len(rows) == runs else np.array(rows)
        by_kind.append((kind, members, *(np.array([getattr(specs[r], key) for r in rows])
                                         for key in ("d", "gamma", "b"))))

    def scores():
        """sigma(G) of every run's joint action in ``cells``, into ``S``."""
        T.take(player_cells, out=terms)
        G = _aggregate_terms(terms, rho)
        for kind, members, d, gamma, b in by_kind:
            S[members] = _score(kind, G[members], d, gamma, b)
        return S

    # A lone run replays most joint actions many times, and a joint action
    # fixes its rewards: keep each one's reward row, at most min(episodes, K**n)
    # of them, in one table the memo indexes.  A chunk of runs rarely replays
    # every run's joint action at once.
    memo = None
    if runs == 1:
        memo, memo_rows = {}, np.empty((min(episodes, num_arms ** n), n))

    temperatures = schedule.temperatures()
    # about 32 bytes of draws per agent-episode; a block takes 1/8 of the budget
    block = max(1, _CHUNK_BYTES // (256 * agents))
    with np.errstate(divide="ignore"):  # log(0) of a team with no positive gift
        for start in range(0, episodes, block):
            stop = min(episodes, start + block)
            # the runs' uniforms for these episodes, one column per agent
            u = np.concatenate([rng.random((stop - start, n)) for rng in rngs], axis=1)
            for t, draw in zip(range(start, stop), _draws(u, num_arms)):
                _boltzmann(q, temperatures[t], out=probs)
                _draw_arms(draw, draw_buffers, arms)
                np.add(row_start, arms, out=cells)

                if memo is None:
                    L.take(cells, out=rewards)
                    run_rewards *= scores()[:, None]
                    played = rewards
                else:
                    key = cells.tobytes()
                    row = memo.get(key)
                    if row is None:
                        row = memo[key] = len(memo)
                        L.take(cells, out=memo_rows[row])
                        memo_rows[row] *= scores()[0]
                    played = memo_rows[row]
                _update_q(q_flat, counts_flat, k, cells, played)

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
    """Deterministic per-cell seed derivation for sweeps."""
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))


def dispersion(values) -> float:
    """Percentage dispersion: (max - min) / mean * 100."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise UndefinedDispersionError("dispersion needs a non-empty sample")
    mean = float(arr.mean())
    if mean <= 0:
        raise UndefinedDispersionError(f"dispersion undefined for mean {mean}")
    return float((arr.max() - arr.min()) / mean * 100.0)
