"""Teamwork game domain types and the pure action-to-outcome pipeline.

A teamwork game is a one-shot public-good game: each of ``n`` players splits
one turn of length ``delta_t`` between the team task and leisure.  A player
with expertise ``p`` who spends fraction ``a`` of the turn on the task gifts
``g = a * p * delta_t`` work units; the gifts combine through a CES
aggregator ``G = (sum_i beta_i * g_i**rho) ** (1/rho)`` and every player is
paid ``x**alpha * sigma(G)`` where ``x`` is their leisure and ``sigma`` the
evaluation function.

Everything here is a pure function of its inputs; concurrent use is
unrestricted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, _cast
from .evaluation import EvaluationSpec, eval_score

_GAME_KEYS = {
    "n", "rho", "betas", "delta_t", "expertise", "leisure_capacity",
    "alpha", "evaluation",
}


def _as_tuple(name: str, values, n: int) -> tuple[float, ...]:
    t = tuple(float(v) for v in values)
    if len(t) != n:
        raise ConfigurationError(f"{name} must have length n={n}, got {len(t)}")
    return t


@dataclass(frozen=True)
class GameSpec:
    """Full description of one teamwork game.

    rho: substitution parameter (real, != 0).  rho = 1 is an additive task,
    rho < 1 conjunctive (weakest-link as rho -> -inf), rho > 1 disjunctive
    (best-shot as rho -> +inf).
    betas: positive weight per player's contribution.
    delta_t: turn length in time units (> 0).
    expertise: work units per time unit, in [0, 1] per player.
    leisure_capacity: leisure units per time unit, in [0, 1] per player.
    alpha: shared preference exponent (> 0); leisure enters utility as x**alpha.
    """

    n: int
    rho: float
    betas: tuple[float, ...]
    delta_t: float
    expertise: tuple[float, ...]
    alpha: float
    evaluation: EvaluationSpec
    leisure_capacity: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.rho == 0:
            raise ConfigurationError("rho must be nonzero (rho = 0 is not a CES exponent)")
        if not self.delta_t > 0:
            raise ConfigurationError(f"delta_t must be > 0, got {self.delta_t}")
        if not self.alpha > 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "betas", _as_tuple("betas", self.betas, self.n))
        object.__setattr__(self, "expertise", _as_tuple("expertise", self.expertise, self.n))
        lc = self.leisure_capacity
        lc = tuple(1.0 for _ in range(self.n)) if lc is None else _as_tuple(
            "leisure_capacity", lc, self.n)
        object.__setattr__(self, "leisure_capacity", lc)
        if any(b <= 0 for b in self.betas):
            raise ConfigurationError(f"betas must all be > 0, got {self.betas}")
        if any(not 0 <= p <= 1 for p in self.expertise):
            raise ConfigurationError(f"expertise must lie in [0, 1], got {self.expertise}")
        if any(not 0 <= p <= 1 for p in self.leisure_capacity):
            raise ConfigurationError(
                f"leisure_capacity must lie in [0, 1], got {self.leisure_capacity}")
        if not isinstance(self.evaluation, EvaluationSpec):
            raise ConfigurationError("evaluation must be an EvaluationSpec")

    def full_time_gifts(self) -> np.ndarray:
        """Gift each player would produce by spending the whole turn on the task."""
        return np.asarray(self.expertise) * self.delta_t

    def max_aggregate(self) -> float:
        """Team outcome when everyone works full time."""
        return ces_aggregate(self.full_time_gifts(), self.rho, self.betas)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "rho": self.rho,
            "betas": list(self.betas),
            "delta_t": self.delta_t,
            "expertise": list(self.expertise),
            "leisure_capacity": list(self.leisure_capacity),
            "alpha": self.alpha,
            "evaluation": self.evaluation.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GameSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(f"game spec must be an object, got {type(data).__name__}")
        unknown = set(data) - _GAME_KEYS
        if unknown:
            raise ConfigurationError(f"unknown game spec key(s): {sorted(unknown)}")
        missing = {"n", "rho", "betas", "delta_t", "expertise", "alpha", "evaluation"} - set(data)
        if missing:
            raise ConfigurationError(f"missing game spec key(s): {sorted(missing)}")
        return cls(
            n=_cast("n", data["n"], 0),
            rho=_cast("rho", data["rho"], 0.0),
            betas=_cast("betas", data["betas"], ()),
            delta_t=_cast("delta_t", data["delta_t"], 0.0),
            expertise=_cast("expertise", data["expertise"], ()),
            leisure_capacity=(
                _cast("leisure_capacity", data["leisure_capacity"], ())
                if data.get("leisure_capacity") is not None else None),
            alpha=_cast("alpha", data["alpha"], 0.0),
            evaluation=EvaluationSpec.from_dict(data["evaluation"]),
        )


@dataclass(frozen=True)
class JointAction:
    """Fraction of the turn each player allocates to the task."""

    actions: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(float(a) for a in self.actions))
        for i, a in enumerate(self.actions):
            if not 0.0 <= a <= 1.0:
                raise InputError(f"action {i} must lie in [0, 1], got {a}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.actions, dtype=float)


@dataclass(frozen=True)
class GiftVector:
    """Work units contributed by each player."""

    gifts: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gifts", tuple(float(g) for g in self.gifts))
        for i, g in enumerate(self.gifts):
            if g < 0:
                raise InputError(f"gift {i} must be >= 0, got {g}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.gifts, dtype=float)


def _actions_array(game: GameSpec, actions) -> np.ndarray:
    if isinstance(actions, JointAction):
        arr = actions.as_array()
    else:
        arr = np.asarray(actions, dtype=float)
    if arr.shape != (game.n,):
        raise InputError(f"expected {game.n} actions, got shape {arr.shape}")
    if ((arr < 0) | (arr > 1)).any():
        raise InputError("actions must lie in [0, 1]")
    return arr


def gift_from_action(a: float, p: float, delta_t: float) -> float:
    """Work units gifted by a player with expertise ``p`` acting ``a`` of a turn."""
    if not 0.0 <= a <= 1.0:
        raise InputError(f"action must lie in [0, 1], got {a}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"expertise must lie in [0, 1], got {p}")
    if not delta_t > 0:
        raise InputError(f"delta_t must be > 0, got {delta_t}")
    return a * p * delta_t


def private_good(a: float, p_l: float, delta_t: float) -> float:
    """Leisure units obtained from the fraction of the turn not worked."""
    if not 0.0 <= a <= 1.0:
        raise InputError(f"action must lie in [0, 1], got {a}")
    return (1.0 - a) * p_l * delta_t


def utility(x: float, score: float, alpha: float) -> float:
    """Cobb-Douglas style payoff: leisure**alpha times the team's score."""
    return x ** alpha * score


def ces_aggregate(gifts, rho: float, betas):
    """CES team outcome ``(sum_i beta_i * g_i**rho) ** (1/rho)``.

    ``gifts`` holds one row per player: a 1-D vector gives a float, an
    ``(n, ...)`` array gives one outcome per cell of the trailing axes.
    Computed in the log domain with a max shift so |rho| up to 500 is exact
    to rounding.  Zero gifts contribute nothing when rho > 0; when rho < 0 a
    single zero gift forces G = 0 (the weakest-link limit).
    """
    if rho == 0:
        raise ConfigurationError("rho must be nonzero (rho = 0 is not a CES exponent)")
    g = gifts.as_array() if isinstance(gifts, GiftVector) else np.asarray(gifts, dtype=float)
    b = np.asarray(betas, dtype=float)
    if b.ndim != 1 or g.shape[:1] != b.shape:
        raise InputError(f"gifts and betas must align on axis 0, got {g.shape} vs {b.shape}")
    if not (b > 0).all():
        raise InputError("betas must all be > 0")
    if not (g >= 0).all():
        raise InputError("gifts must all be >= 0")
    log_b = np.log(b).reshape(b.shape + (1,) * (g.ndim - 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero gift's term is rho * log(0): -inf when rho > 0, so it adds
        # nothing to the log-sum-exp, and +inf when rho < 0, which drives
        # the cell's max shift m to +inf.  Cells whose m is not finite (no
        # positive gift, or a zero gift under rho < 0) have G = 0; with m
        # set to 0 there, the sum is 0 or +inf and G comes out as exactly 0.
        t = log_b + rho * np.log(g)
        if t.ndim >= 2 and len(t) >= 8:
            # From 8 terms numpy sums a contiguous run pairwise and a strided
            # one in order; with each cell's terms contiguous, every cell sums
            # as a lone joint action does.  Below 8 every layout sums in order.
            t = np.asfortranarray(t)
        out = _aggregate_terms(t, rho)
    return float(out) if g.ndim == 1 else out


def _aggregate_terms(terms: np.ndarray, rho) -> np.ndarray:
    """CES outcomes from log-terms ``log(beta_i) + rho * log(g_i)``, one row
    per player, overwritten in place: the max-shifted log-sum-exp over axis
    0, divided by ``rho`` (a scalar or one value per column), exponentiated.
    Call it with division warnings off, for the ``log(0)`` of a column with
    no positive gift.  From 8 players a column sums as one joint action's
    gifts only if it is contiguous (see ``ces_aggregate``)."""
    m = np.maximum.reduce(terms, axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    terms -= m
    np.exp(terms, out=terms)
    return np.exp((m + np.log(np.add.reduce(terms, axis=0))) / rho)


def gifts_from_actions(game: GameSpec, actions) -> np.ndarray:
    """Map a joint action to the vector of gifts."""
    arr = _actions_array(game, actions)
    return arr * game.full_time_gifts()


def _outcome(game: GameSpec, actions: np.ndarray):
    """Team outcome and score ``(G, sigma(G))`` of validated actions, one row per player."""
    column = (game.n,) + (1,) * (actions.ndim - 1)
    G = ces_aggregate(actions * game.full_time_gifts().reshape(column), game.rho, game.betas)
    return G, eval_score(game.evaluation, G)


def _leisure_payoff(game: GameSpec, actions: np.ndarray) -> np.ndarray:
    """``x ** alpha`` of each player's leisure ``x``; ``actions`` has one row per player."""
    column = (game.n,) + (1,) * (actions.ndim - 1)
    capacity = np.asarray(game.leisure_capacity).reshape(column)
    return ((1.0 - actions) * capacity * game.delta_t) ** game.alpha


def _payoffs(game: GameSpec, actions: np.ndarray):
    """Team outcome, score and rewards of validated actions, one row per player.

    ``actions`` has shape ``(n, ...)``; every trailing cell is one joint
    action.  Returns ``(G, score, rewards)`` with ``rewards`` shaped like
    ``actions``.  The Nash oracle's utilities come from here.  The learner's
    rewards equal them bit for bit: ``simulator._term_tables`` tabulates the
    same log-terms and leisure factors per arm, and both paths finish the
    terms with ``_aggregate_terms``.
    """
    G, score = _outcome(game, actions)
    return G, score, _leisure_payoff(game, actions) * score


def evaluate_joint_action(game: GameSpec, actions):
    """Run the full pipeline: gifts, team outcome, score, per-player rewards.

    Returns ``(gifts, aggregate, score, rewards)`` as (ndarray, float, float,
    ndarray).  Works for any evaluation kind, including heaviside.
    """
    arr = _actions_array(game, actions)
    G, score, rewards = _payoffs(game, arr)
    return arr * game.full_time_gifts(), G, score, rewards
