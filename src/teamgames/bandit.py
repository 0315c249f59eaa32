"""Independent k-armed bandit agents with Boltzmann action selection.

Each agent owns a Q-table over a uniform action grid (101 arms by default,
one per whole percent of the turn).  Selection probabilities are a soft-max
of the Q-values normalised by the current best value,
``P(a) proportional to exp(Q(a) / (Q_max * tau))``, which keeps the
temperature scale-free across games with different reward magnitudes.  The
value update is the standard incremental rule ``Q += l_r * (R - Q)`` with a
learning rate that decays as ``k / (k + t)`` where ``t`` counts previous
selections of the updated arm; the first sample of an arm therefore
overwrites its zero initialisation, and each arm's estimate satisfies
``sum l_r = inf`` and ``sum l_r**2 < inf`` along its own sample sequence.
That sequence is infinite only because the training loop's exploration
floor (``simulator.EXPLORATION``) keeps every arm's draw probability at or
above ``EXPLORATION / K`` for K arms; the soft-max alone gives an arm valued
at zero a weight of ``exp(-1 / tau)`` relative to the best arm.

The soft-max and the update are written once, for a stack of Q-tables with
one row per agent (``_boltzmann`` and ``_update_q``): the lockstep trainer
(``simulator.train_many``) runs them over every agent of every run at once,
and ``boltzmann_probabilities`` and ``update_q`` are their one-agent case on
an ``AgentState``.  An AgentState is owned by one caller at a time; nothing
here is shared between agents.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError

# Below this best-value the Q-table is treated as uninformative and the
# selection distribution falls back to uniform.
Q_MAX_FLOOR = 1e-9


def uniform_action_grid(num_arms: int = 101) -> np.ndarray:
    """Evenly spaced arm actions from 0 to 1 inclusive."""
    if num_arms < 2:
        raise ConfigurationError(f"need at least 2 arms, got {num_arms}")
    return np.linspace(0.0, 1.0, num_arms)


@dataclass
class AgentState:
    """One bandit: Q-values, temperature, learning-rate constant, pull counts.

    ``pull_counts`` counts selections per arm and drives the learning-rate
    schedule.
    """

    q_values: np.ndarray
    arm_actions: np.ndarray
    tau: float = 0.1
    k: float = 40.0
    pull_counts: np.ndarray | None = None

    def __post_init__(self):
        self.q_values = np.asarray(self.q_values, dtype=float)
        self.arm_actions = np.asarray(self.arm_actions, dtype=float)
        if self.pull_counts is None:
            self.pull_counts = np.zeros(len(self.q_values), dtype=np.int64)
        else:
            self.pull_counts = np.asarray(self.pull_counts, dtype=np.int64)
        if self.q_values.shape != self.arm_actions.shape or self.q_values.ndim != 1:
            raise ConfigurationError("q_values and arm_actions must be 1-D and aligned")
        if self.pull_counts.shape != self.q_values.shape or np.any(self.pull_counts < 0):
            raise ConfigurationError("pull_counts must align with q_values and be >= 0")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be > 0, got {self.tau}")
        if not self.k > 0:
            raise ConfigurationError(f"k must be > 0, got {self.k}")
        acts = self.arm_actions
        if acts[0] != 0.0 or acts[-1] != 1.0:
            raise ConfigurationError("arm_actions must start at 0 and end at 1")
        spacing = np.diff(acts)
        if np.any(spacing <= 0) or not np.allclose(spacing, spacing[0], rtol=0, atol=1e-12):
            raise ConfigurationError("arm_actions must be strictly increasing and uniform")
        if not np.all(np.isfinite(self.q_values)):
            raise ConfigurationError("q_values must be finite")

    @classmethod
    def fresh(cls, num_arms: int = 101, tau: float = 0.1, k: float = 40.0) -> "AgentState":
        """Zero-initialised agent; the first draw is uniform by the Q_max guard."""
        return cls(q_values=np.zeros(num_arms), arm_actions=uniform_action_grid(num_arms),
                   tau=tau, k=k)

    @property
    def num_arms(self) -> int:
        return len(self.q_values)


def _boltzmann(q: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """Row-wise soft-max of the ``(M, K)`` Q-tables ``q`` at ``tau``, into ``out``.

    Each row is normalised by its own best value; a row whose best value is
    at most ``Q_MAX_FLOOR`` gets the uniform distribution.
    """
    # ufunc reductions: the same sums and maxima as the ndarray methods, with
    # less overhead per call on the few-row tables of the training loop
    q_max = np.maximum.reduce(q, axis=1, keepdims=True)
    scale = q_max * tau
    uniform = None
    # the smallest best value through argmin, cheaper than a ufunc reduction
    # on these few-row tables; a NaN is the minimum of both, so the bool is
    # the same
    if q_max[q_max.argmin(), 0] <= Q_MAX_FLOOR:
        uniform = q_max[:, 0] <= Q_MAX_FLOOR
        scale[uniform] = tau  # any positive scale: these rows are overwritten below
    np.divide(q, scale, out=out)
    # each row's best value: division by a positive scale is monotone and
    # correctly rounded, so no second pass over the row is needed
    out -= q_max / scale
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=1, keepdims=True)
    if uniform is not None:
        out[uniform] = 1.0 / q.shape[1]
    return out


def _update_q(q: np.ndarray, counts: np.ndarray, k, cells, rewards) -> None:
    """``Q += k / (k + count) * (R - Q)`` on the pulled cells, then count them.

    ``q`` and ``counts`` are flat Q-tables and pull counts; ``cells`` indexes
    them (one distinct cell per agent, or a single int) and ``k`` and
    ``rewards`` align with it.
    """
    count = counts[cells]
    old = q[cells]
    q[cells] = old + k / (k + count) * (rewards - old)
    counts[cells] = count + 1


def boltzmann_probabilities(state: AgentState) -> np.ndarray:
    """Soft-max selection probabilities with Q-max normalisation.

    Falls back to the uniform distribution while the best value is still
    essentially zero (fresh agents, or reward-free runs).
    """
    if not state.tau > 0:
        raise ConfigurationError(f"tau must be > 0, got {state.tau}")
    q = state.q_values[None, :]
    return _boltzmann(q, state.tau, np.empty_like(q))[0]


def learning_rate(step: int, k: float) -> float:
    """Decaying learning rate k / (k + step), in (0, 1]."""
    if not k > 0:
        raise ConfigurationError(f"k must be > 0, got {k}")
    if step < 0:
        raise InputError(f"step must be >= 0, got {step}")
    return k / (k + step)


def update_q(state: AgentState, arm: int, reward: float) -> AgentState:
    """Incremental value update on the chosen arm.

    The learning rate decays in the arm's own selection count, so an arm's
    first sample replaces its zero initialisation outright.  Advances the
    arm's pull count.  Mutates the state in place and returns it.
    """
    if not 0 <= arm < state.num_arms:
        raise InputError(f"arm must be in [0, {state.num_arms}), got {arm}")
    if not math.isfinite(reward):
        raise InputError(f"reward must be finite, got {reward}")
    _update_q(state.q_values, state.pull_counts, state.k, int(arm), reward)
    return state


def greedy_action(state: AgentState) -> float:
    """Action of the best-valued arm; ties break toward the smallest action."""
    return float(state.arm_actions[int(np.argmax(state.q_values))])


def q_table_rows(state: AgentState) -> list[tuple[float, float]]:
    return [(float(a), float(q)) for a, q in zip(state.arm_actions, state.q_values)]


def export_q_csv(state: AgentState, path) -> None:
    """Dump the Q-table as (arm_action, q_value) rows for diagnostics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm_action", "q_value"])
        for action, q in q_table_rows(state):
            writer.writerow([repr(action), repr(q)])
