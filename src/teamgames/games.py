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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, Field, InputError, _POSITIVE, _at_least, _check,
                     _check_all, _none, _read, _read_spec)
from .evaluation import EvaluationSpec, eval_score

_UNIT = Field(tuple, "in [0, 1]", lambda v: 0 <= v <= 1)
# Each game spec key's declaration, in the order ``from_dict`` reads and ``to_dict`` writes it.
# |log g| <= 745 for every positive double g, so with |rho| <= 1e300 every
# positive gift's log-term log(beta) + rho * log(g) is finite.
_GAME_FIELDS = {"n": _at_least(1),
                "rho": Field(float, "finite and nonzero, with |rho| <= 1e300",
                             lambda v: 0 < abs(v) <= 1e300),
                "betas": _POSITIVE._replace(kind=tuple), "delta_t": _POSITIVE, "expertise": _UNIT,
                "leisure_capacity": _UNIT._replace(also=_none), "alpha": _POSITIVE,
                "evaluation": Field(EvaluationSpec)}


@dataclass(frozen=True)
class GameSpec:
    """Full description of one teamwork game.

    rho: substitution parameter (real, != 0, |rho| <= 1e300).  rho = 1 is an additive task,
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
        read = _check_all(_GAME_FIELDS, vars(self))
        for key in ("betas", "expertise", "leisure_capacity"):  # None: full capacity
            value = tuple(1.0 for _ in range(self.n)) if read[key] is None else read[key]
            if len(value) != self.n:
                raise ConfigurationError(f"{key} must have length n={self.n}, got {len(value)}")
            object.__setattr__(self, key, value)

    def full_time_gifts(self) -> np.ndarray:
        """Gift each player would produce by spending the whole turn on the task."""
        return np.asarray(self.expertise) * self.delta_t

    def max_aggregate(self) -> float:
        """Team outcome when everyone works full time, computed once per game."""
        try:
            return self._max_aggregate
        except AttributeError:
            G = _ces(self._columns[1], self.rho, self._columns[0])
            object.__setattr__(self, "_max_aggregate", G)
            return G

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-player ``log(beta)``, full-time gift and leisure capacity, the
        payoff kernel's ``(n,)`` constants, computed once per game and read-only."""
        columns = (np.log(np.asarray(self.betas)), self.full_time_gifts(),
                   np.asarray(self.leisure_capacity))
        for column in columns:
            column.flags.writeable = False
        return columns

    def to_dict(self) -> dict:
        data = {key: list(getattr(self, key)) if field.kind is tuple else getattr(self, key)
                for key, field in _GAME_FIELDS.items()}
        return {**data, "evaluation": self.evaluation.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "GameSpec":
        return cls(**_read_spec(data, _GAME_FIELDS, "game spec",
                                required=set(_GAME_FIELDS) - {"leisure_capacity"}))


_GAME = Field(GameSpec)  # a game argument's declaration: every solver entry and train_many read it


def _require_game(game) -> None:
    _check("game", game, _GAME, InputError)


def _actions_array(game: GameSpec, actions) -> np.ndarray:
    try:
        arr = np.asarray(actions, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"actions must be {game.n} numbers, got {actions!r}") from None
    if arr.shape != (game.n,):
        raise InputError(f"expected {game.n} actions, got shape {arr.shape}")
    # its kind alone: a bool or a string is no action; the range follows
    _read("actions", actions, _UNIT, InputError)
    if not all(0.0 <= a <= 1.0 for a in arr.tolist()):  # NaN fails both
        raise InputError("actions must lie in [0, 1]")
    return arr


def utility(x: float, score: float, alpha: float) -> float:
    """Cobb-Douglas style payoff: leisure**alpha times the team's score.

    A payoff beyond the float range (``x ** alpha`` overflows from about
    ``alpha * log10(x) > 308``) raises ``InputError`` naming its inputs.
    """
    try:
        u = x ** alpha * score
    except OverflowError:
        u = math.inf
    if not math.isfinite(u):
        raise InputError(
            f"utility x ** alpha * score must be finite, got x = {x!r}, alpha = {alpha!r}, "
            f"score = {score!r}")
    return u


def max_achievable_utility(game: GameSpec) -> float:
    """The largest utility any player of ``game`` can get, ``(delta_t *
    max(leisure_capacity))**alpha * sigma(G at full time)``: CES and every
    evaluation are non-decreasing and leisure is largest at action 0.

    It scales epsilon in Nash checks, and it is the one overflow bound: a
    game for which it raises ``InputError`` (see ``utility``) is refused by
    the learner and the Nash oracle before their first payoff.  The value
    is memoised on the frozen game, like ``max_aggregate``; a refusal is
    not, so it raises on every call.
    """
    try:
        return game._max_utility
    except AttributeError:
        best_leisure = game.delta_t * max(game.leisure_capacity)
        top_score = float(eval_score(game.evaluation, game.max_aggregate()))
        u = utility(best_leisure, top_score, game.alpha)
        object.__setattr__(game, "_max_utility", u)
        return u


def ces_aggregate(gifts, rho: float, betas):
    """CES team outcome ``(sum_i beta_i * g_i**rho) ** (1/rho)``.

    ``gifts`` holds one row per player: a 1-D vector gives a float, an
    ``(n, ...)`` array gives one outcome per cell of the trailing axes.
    Computed in the log domain with a max shift so |rho| up to 500 is exact
    to rounding.  Zero gifts contribute nothing when rho > 0; when rho < 0 a
    single zero gift forces G = 0 (the weakest-link limit).
    """
    _check("rho", rho, _GAME_FIELDS["rho"])
    g = np.asarray(gifts, dtype=float)
    b = np.array(_check("betas", betas, _GAME_FIELDS["betas"], InputError))
    if g.shape[:1] != b.shape:
        raise InputError(f"gifts and betas must align on axis 0, got {g.shape} vs {b.shape}")
    if not (g >= 0).all():
        raise InputError("gifts must all be >= 0")
    return _ces(g, rho, np.log(b))


# Term count from which numpy may sum pairwise; fewer terms it sums in order in
# every layout, as _aggregate_scalar does.
_PAIRWISE_TERMS = 8


def _ces(gifts: np.ndarray, rho: float, log_b: np.ndarray):
    """``ces_aggregate`` of checked gifts ``(n, ...)`` with the logs of the
    weights ``(n,)``, without its input checks: a float for one joint action."""
    log_b = log_b.reshape(log_b.shape + (1,) * (gifts.ndim - 1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero gift's term is rho * log(0): -inf when rho > 0, so it adds
        # nothing to the log-sum-exp, and +inf when rho < 0, which drives
        # the cell's max shift m to +inf.  Cells whose m is not finite (no
        # positive gift, or a zero gift under rho < 0) have G = 0; with m
        # set to 0 there, the sum is 0 or +inf and G comes out as exactly 0.
        t = log_b + rho * np.log(gifts)
        if t.ndim >= 2 and len(t) >= _PAIRWISE_TERMS:
            # From _PAIRWISE_TERMS terms numpy sums a contiguous run pairwise
            # and a strided one in order; with each cell's terms contiguous,
            # every cell sums as a lone joint action does.  Below it every
            # layout sums in order.
            t = np.asfortranarray(t)
        out = _aggregate_terms(t, rho)
    return float(out) if gifts.ndim == 1 else out


def _aggregate_terms(terms: np.ndarray, rho) -> np.ndarray:
    """CES outcomes from log-terms ``log(beta_i) + rho * log(g_i)``, one row
    per player, overwritten in place: the max-shifted log-sum-exp over axis
    0, divided by ``rho`` (a scalar or one value per column), exponentiated.
    Call it with division warnings off, for the ``log(0)`` of a column with
    no positive gift.  From ``_PAIRWISE_TERMS`` players a column sums as one
    joint action's gifts only if it is contiguous (see ``_ces``)."""
    m = np.maximum.reduce(terms, axis=0)
    m = np.where(np.isfinite(m), m, 0.0)
    terms -= m
    np.exp(terms, out=terms)
    return np.exp((m + np.log(np.add.reduce(terms, axis=0))) / rho)


def _aggregate_scalar(terms, rho: float, exp=math.exp, log=math.log) -> float:
    """``_aggregate_terms`` of one joint action's log-terms on floats, summed
    in order as numpy sums fewer than ``_PAIRWISE_TERMS``.  A non-finite
    shift (a ``+inf`` term, or ``-inf`` ones only) gives 0.0.  With numpy's
    ``exp`` and ``log``, which give a float the array kernels' bits, it
    equals ``_aggregate_terms``; with ``math``'s, the default, to rounding."""
    m = max(terms)
    if not math.isfinite(m):
        return 0.0
    total = 0.0
    for t in terms:
        total += exp(t - m)
    return exp((m + log(total)) / rho)


def _outcome(game: GameSpec, actions: np.ndarray):
    """Team outcome and score ``(G, sigma(G))`` of validated actions, one row per player."""
    log_b, caps, _ = game._columns
    column = (game.n,) + (1,) * (actions.ndim - 1)
    G = _ces(actions * caps.reshape(column), game.rho, log_b)
    return G, eval_score(game.evaluation, G)


def _leisure_payoff(game: GameSpec, actions: np.ndarray) -> np.ndarray:
    """``x ** alpha`` of each player's leisure ``x``; ``actions`` has one row per player."""
    column = (game.n,) + (1,) * (actions.ndim - 1)
    capacity = game._columns[2].reshape(column)
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
