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

The soft-max weights and the update are written once, for a stack of
Q-tables with one row per agent (``_boltzmann_weights`` and ``_update_q``):
the lockstep trainer (``simulator.train_many``) runs them over every agent
of every run at once and draws each arm from the unnormalised weights, so
no episode divides by a row sum.  A lone run repeats their operations in
its own episode loop: the soft-max's on same-shape arrays, and the
update's on Python floats (``simulator._update_arms``).  ``update_q`` is
the update's one-agent case, on an ``AgentState`` that holds one agent's
Q-values, learning-rate constant and pull counts.  An AgentState is owned by one caller at a time;
nothing here is shared between agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, Field, InputError, _FINITE, _at_least, _check

# Below this best-value the Q-table is treated as uninformative and the
# selection distribution falls back to uniform.
Q_MAX_FLOOR = 1e-9


def uniform_action_grid(num_arms: int = 101) -> np.ndarray:
    """Evenly spaced arm actions from 0 to 1 inclusive."""
    return np.linspace(0.0, 1.0, _check("num_arms", num_arms, _at_least(2)))


@dataclass
class AgentState:
    """One bandit: Q-values, learning-rate constant, pull counts.

    ``pull_counts`` counts selections per arm and drives the learning-rate
    schedule.
    """

    q_values: np.ndarray
    k: float = 40.0
    pull_counts: np.ndarray | None = None

    def __post_init__(self):
        self.q_values = np.asarray(self.q_values, dtype=float)
        if self.q_values.ndim != 1:
            raise ConfigurationError("q_values must be 1-D")
        if self.pull_counts is None:
            self.pull_counts = np.zeros(len(self.q_values), dtype=np.int64)
        else:
            self.pull_counts = np.asarray(self.pull_counts, dtype=np.int64)
        if self.pull_counts.shape != self.q_values.shape or np.any(self.pull_counts < 0):
            raise ConfigurationError("pull_counts must align with q_values and be >= 0")
        _check("k", self.k, Field(float, "> 0", lambda k: k > 0))
        if not np.all(np.isfinite(self.q_values)):
            raise ConfigurationError("q_values must be finite")

    @classmethod
    def fresh(cls, num_arms: int = 101, k: float = 40.0) -> "AgentState":
        """Zero-initialised agent."""
        return cls(q_values=np.zeros(num_arms), k=k)

    @property
    def num_arms(self) -> int:
        return len(self.q_values)


def _boltzmann_weights(q: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """Unnormalised soft-max weights of the ``(M, K)`` Q-tables ``q`` at
    ``tau``, into ``out``: ``exp(q / scale - q_max / scale)`` with
    ``scale = q_max * tau``, so each row's best arm weighs 1.

    A row whose best value is at most ``Q_MAX_FLOOR`` gets weight 1 on every
    arm (the uniform distribution).
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
    if uniform is not None:
        out[uniform] = 1.0
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


def update_q(state: AgentState, arm: int, reward: float) -> AgentState:
    """Incremental value update on the chosen arm.

    The learning rate decays in the arm's own selection count, so an arm's
    first sample replaces its zero initialisation outright.  Advances the
    arm's pull count.  Mutates the state in place and returns it.
    """
    n = state.num_arms
    _check("arm", arm, Field(int, f"in [0, {n})", lambda a: 0 <= a < n), InputError)
    _check("reward", reward, _FINITE, InputError)
    _update_q(state.q_values, state.pull_counts, state.k, int(arm), reward)
    return state
