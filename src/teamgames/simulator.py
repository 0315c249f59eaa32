"""One-shot teamwork environment and the episodic training loop.

An episode is a single play of the underlying game: every agent samples an
arm from its Boltzmann distribution, the joint action is scored, and each
agent updates only its own arm from its own reward (independent learners).
A fixed share ``EXPLORATION`` of each agent's draws is taken uniformly over
all arms instead, so no arm is left at its zero initialisation or frozen at
a value sampled against a long-gone partner.  An arm valued at zero has
``exp(-1 / tau)`` of the best arm's soft-max weight, and at low temperature
the soft-max alone leaves most arms untried.
Two train calls with the same game, config, and seed produce bitwise
identical outcomes; sweep seeds are derived from a base seed with spawn
keys on a counter-based generator so parallel runs match serial ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bandit import AgentState, boltzmann_probabilities, greedy_action, update_q
from .errors import ConfigurationError, UndefinedDispersionError
from .games import GameSpec, _payoffs, evaluate_joint_action

EXTRACTION_MODES = ("greedy", "final_sample", "tail_average")

# Share of each agent's draws taken uniformly over all arms, whatever the
# Q-table holds, so every arm keeps being sampled at rate >= EXPLORATION / K.
EXPLORATION = 0.01


@dataclass(frozen=True)
class TrainConfig:
    """Training-run parameters.

    The temperature stays at ``tau`` for the first ``anneal_start`` fraction
    of the episodes, then decays geometrically to ``anneal_floor``: agents
    first learn the landscape under live exploration and afterwards settle
    into the low-temperature limit where the smooth best responses approach
    exact ones.  Set ``anneal_floor=None`` for a constant temperature.

    Whatever the temperature, a share ``EXPLORATION`` of the draws is
    uniform over the arms.  The ``final_sample`` and ``tail_average``
    extraction modes read the drawn arms and so include these exploratory
    draws; ``greedy`` extraction reads only the Q-table.
    """

    episodes: int = 50_000
    tau: float = 0.1
    k: float = 40.0
    seed: int | np.random.SeedSequence = 0
    num_arms: int = 101
    extraction: str = "greedy"
    anneal_floor: float | None = 0.02
    anneal_start: float = 0.5
    snapshot_q: bool = False
    trace_path: str | None = None

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigurationError(f"episodes must be >= 1, got {self.episodes}")
        if self.extraction not in EXTRACTION_MODES:
            raise ConfigurationError(
                f"extraction must be one of {EXTRACTION_MODES}, got {self.extraction!r}")
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


@dataclass(frozen=True)
class LearnedOutcome:
    """Result of one training run: the extracted policy and its outcome."""

    greedy_actions: tuple[float, ...]
    learned_G: float
    learned_score: float
    episodes: int
    seed: int
    q_snapshots: tuple[tuple[float, ...], ...] | None = None

    def to_dict(self) -> dict:
        return {
            "greedy_actions": list(self.greedy_actions),
            "learned_G": self.learned_G,
            "learned_score": self.learned_score,
            "episodes": self.episodes,
            "seed": self.seed,
            "q_snapshots": (
                [list(q) for q in self.q_snapshots] if self.q_snapshots is not None else None),
        }


def _seed_sequence(seed) -> tuple[np.random.SeedSequence, int]:
    if isinstance(seed, np.random.SeedSequence):
        return seed, int(seed.generate_state(1)[0])
    return np.random.SeedSequence(int(seed)), int(seed)


def _reward_tables(game: GameSpec, arm_actions: np.ndarray):
    """``(G, score, rewards)`` over the joint arm grid (small teams only).

    ``G[arms]`` is the team outcome and ``rewards[i][arms]`` player i's
    reward when each player j plays ``arm_actions[arms[j]]``.
    """
    if game.n > 3 or len(arm_actions) ** game.n > 3_000_000:
        return None
    grid = np.stack(np.meshgrid(*[arm_actions] * game.n, indexing="ij"))
    return _payoffs(game, grid)


def _draw_arm(agent: AgentState, u: float) -> int:
    """Arm for one episode from one uniform draw ``u`` in [0, 1).

    ``u < EXPLORATION`` picks an arm uniformly, ``int(u / EXPLORATION * K)``;
    otherwise the soft-max inverse CDF is read at the rescaled
    ``(u - EXPLORATION) / (1 - EXPLORATION)``.  The soft-max is evaluated
    on every draw, exploratory or not, so each episode makes the same
    kernel calls.
    """
    cum = np.cumsum(boltzmann_probabilities(agent))
    if u < EXPLORATION:
        return int(u / EXPLORATION * agent.num_arms)
    arm = int(np.searchsorted(cum, (u - EXPLORATION) / (1.0 - EXPLORATION), side="right"))
    return min(arm, agent.num_arms - 1)


def train(game: GameSpec, config: TrainConfig) -> LearnedOutcome:
    """Train n independent bandits on the game for config.episodes episodes.

    Synchronous rounds: all agents pick arms, the round is played, then all
    agents update.  Each agent's arm comes from one uniform per episode:
    below ``EXPLORATION`` it picks an arm uniformly, otherwise the Boltzmann
    distribution at the episode's temperature (see ``_draw_arm``).
    Deterministic given (game, config) including the seed.
    """
    seq, seed_label = _seed_sequence(config.seed)
    rng = np.random.Generator(np.random.Philox(seq))
    agents = [AgentState.fresh(config.num_arms, tau=config.tau, k=config.k)
              for _ in range(game.n)]
    arm_actions = agents[0].arm_actions
    tables = _reward_tables(game, arm_actions)
    uniforms = rng.random((config.episodes, game.n))

    trace_fh = None
    trace = None
    if config.trace_path is not None:
        trace_fh = open(config.trace_path, "w", newline="")
        trace = csv.writer(trace_fh)
        trace.writerow(
            ["episode"]
            + [f"action_{i}" for i in range(game.n)]
            + ["G"]
            + [f"reward_{i}" for i in range(game.n)])

    tail_start = config.episodes - max(1, config.episodes // 10)
    tail_sum = np.zeros(game.n)
    tail_count = 0
    last_arms = [0] * game.n
    try:
        for t in range(config.episodes):
            tau_t = config.temperature(t)
            arms = []
            for i, agent in enumerate(agents):
                agent.tau = tau_t
                arms.append(_draw_arm(agent, uniforms[t, i]))
            if tables is not None:
                G = tables[0][tuple(arms)]
                rewards = tables[2][(slice(None), *arms)].tolist()
            else:
                actions = [float(arm_actions[a]) for a in arms]
                _, G, _, reward_arr = evaluate_joint_action(game, actions)
                rewards = [float(r) for r in reward_arr]
            for i, agent in enumerate(agents):
                update_q(agent, arms[i], rewards[i])
            if t >= tail_start:
                tail_sum += [arm_actions[a] for a in arms]
                tail_count += 1
            last_arms = arms
            if trace is not None:
                actions = [float(arm_actions[a]) for a in arms]
                trace.writerow([t] + [repr(a) for a in actions]
                               + [repr(float(G))] + [repr(r) for r in rewards])
    finally:
        if trace_fh is not None:
            trace_fh.close()

    if config.extraction == "greedy":
        learned = [greedy_action(agent) for agent in agents]
    elif config.extraction == "final_sample":
        learned = [float(arm_actions[a]) for a in last_arms]
    else:
        learned = [float(v) for v in tail_sum / tail_count]

    learned_G, learned_score, _ = _payoffs(game, np.asarray(learned))
    snapshots = None
    if config.snapshot_q:
        snapshots = tuple(tuple(float(q) for q in agent.q_values) for agent in agents)
    return LearnedOutcome(
        greedy_actions=tuple(learned),
        learned_G=learned_G,
        learned_score=learned_score,
        episodes=config.episodes,
        seed=seed_label,
        q_snapshots=snapshots,
    )


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
