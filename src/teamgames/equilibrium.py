"""Nash-equilibrium computation for teamwork games.

The aggregative-game route: instead of best responses to opponents, each
player has a replacement map ``r_i(G)`` giving the contribution consistent
with an equilibrium whose team outcome is ``G``.  Equilibrium aggregates are
the fixed points of ``R(G) = CES(r_1(G), ..., r_n(G))``.

Task regimes:

* additive (rho = 1): ``r_i(G) = max(0, p_i*dt - (alpha/beta_i) * sigma/sigma')``,
  a closed form; the one fixed point is found by Brent's method.
* conjunctive (rho < 1, rho != 0): ``r_i`` solves the implicit first-order
  condition ``sigma/sigma' * G**(rho-1) = (dt - r/p) * (beta*p/alpha) * r**(rho-1)``,
  a strictly decreasing one-dimensional root problem, solved by Newton's
  method in log space so |rho| = 500 stays finite; the aggregate's fixed
  point is one bracketed Brent solve, as for rho = 1.
* disjunctive (rho > 1): the replacement map is a correspondence with a zero
  branch and a positive branch.  Equilibria are enumerated over candidate
  active sets using share functions ``s_i(G) = beta_i * r_i(G)**rho / G**rho``,
  which must sum to one over the active players.

Leisure capacity scales every utility by ``p_L**alpha`` and therefore never
moves an argmax; all solver internals use the normalised leisure
``dt - g/p``.  Solvers are deterministic pure computations; independent
games may be solved concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    Field,
    InputError,
    NoEquilibriumError,
    RegimeError,
    UnsupportedEvaluationError,
    WrongSolverError,
    _FINITE,
    _POSITIVE,
    _POSITIVE_OR_NONE,
    _check,
    _read,
)
from .evaluation import score_scalar, ratio_scalar
from .games import (GameSpec, _actions_array, _aggregate_scalar, _payoffs, _require_game,
                    max_achievable_utility, utility)

# Absolute tolerance on work units for branch and boundary comparisons.
BOUNDARY_TOL = 1e-10

# An aggregate argument's kind (a bool is none); each map refuses its own range
_AGGREGATE = Field(float)


@dataclass(frozen=True)
class EquilibriumResult:
    """One pure-strategy Nash equilibrium of a teamwork game.

    ``residual`` is ``|CES(gifts) - G|``, in work units, for the concave
    solver and for one-player disjunctive equilibria, and ``|S(G) - 1|``,
    a share, for disjunctive equilibria of two or more players.
    """

    actions: tuple[float, ...]
    gifts: tuple[float, ...]
    aggregate_G: float
    score: float
    active_set: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class CriticalThresholds:
    """Free-riding geometry of one player in a disjunctive task.

    g_star / G_star: contribution and aggregate at the indifference point;
    G_minus_star: the opponents' provision above which the player's best
    response is zero; standalone: the outcome the player would produce alone.
    """

    g_star: float
    G_minus_star: float
    G_star: float
    standalone: float


@dataclass(frozen=True)
class NashCheck:
    """Result of the brute-force grid oracle."""

    is_nash: bool
    max_gain: float
    best_deviation: tuple[int, float] | None


# ---------------------------------------------------------------------------
# scalar root-finding / log-domain helpers
# ---------------------------------------------------------------------------

# evaluations a Brent solve may take; a bracket still wider is refused
_BRENT_STEPS = 400


def _brent(f, lo, hi, *, xtol, rtol=0.0, flo=None, fhi=None):
    """Brent's method on a bracket ``[lo, hi]`` whose ends' values differ in
    sign: inverse quadratic interpolation or a secant step, falling back to
    bisection whenever the step leaves the bracket, shrinks too slowly or
    meets an infinite value.  An end at a root is returned; ends of one sign
    raise ``InputError``.

    ``b`` is the best point so far, ``c`` the other end of the bracket
    ``[b, c]`` and ``a`` the previous ``b``.  Returns ``b`` once the bracket
    is ``max(xtol, rtol*|b|)`` wide (Brent 1973, ch. 4, with the tolerance
    at half that).  An ``rtol`` of a few ulps keeps a root far below the
    bracket's width as accurate as one near it.  A bracket still wider
    after ``_BRENT_STEPS`` evaluations raises ``InputError`` naming
    ``[lo, hi]``, rather than returning a point that is no root.
    """
    fa = f(lo) if flo is None else flo
    fb = f(hi) if fhi is None else fhi
    if fa == 0:
        return lo
    if fb == 0:
        return hi
    if (fa < 0) == (fb < 0):
        raise InputError(f"no sign change on [{lo}, {hi}]: f={fa}, {fb}")
    a, b = lo, hi
    c, fc = a, fa
    step = last = b - a
    for _ in range(_BRENT_STEPS):
        if (fb < 0) == (fc < 0):
            c, fc = a, fa
            step = last = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * max(xtol, rtol * abs(b))
        half = 0.5 * (c - b)
        if fb == 0 or abs(half) <= tol:
            return b
        finite = math.isfinite(fa) and math.isfinite(fc)
        if finite and abs(last) >= tol and abs(fb) < abs(fa):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(last * q)):
                last, step = step, p / q
            else:
                last = step = half
        else:
            last = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
    raise InputError(f"Brent's method on [{lo}, {hi}] did not converge in {_BRENT_STEPS} steps")


# Each rho regime a solver entry point may require, keyed by the text its refusal states
_REGIMES = {"= 1": lambda rho: rho == 1, "< 1": lambda rho: rho < 1,
            "<= 1": lambda rho: rho <= 1, "> 1": lambda rho: rho > 1}
_UNSET = object()


def _require(game, where: str, regime: str | None = None, player=_UNSET, G=_UNSET):
    """The refusals of the solver entry point ``where``, in this order: a
    game that is no ``GameSpec``; a ``player`` (if given) that is no index of
    it; a rho outside ``regime`` (a key of ``_REGIMES``), ``WrongSolverError``;
    a heaviside evaluation, ``UnsupportedEvaluationError``; and an aggregate
    ``G`` (if given) that is no number, ``InputError``, or is below 0,
    ``RegimeError``."""
    _require_game(game)
    if player is not _UNSET and (
            isinstance(player, bool)  # a bool is an int, but no player
            or not (isinstance(player, (int, np.integer)) and 0 <= player < game.n)):
        raise InputError(f"player must be an integer in [0, {game.n - 1}], got {player!r}")
    if regime is not None and not _REGIMES[regime](game.rho):
        raise WrongSolverError(f"{where} requires rho {regime}, got rho = {game.rho}")
    if not game.evaluation.is_smooth:
        raise UnsupportedEvaluationError(
            f"{where} needs a smooth evaluation (logistic or identity); "
            "heaviside games can only be learned")
    if G is not _UNSET:
        _read("G", G, _AGGREGATE, InputError)
        if not G >= 0:
            raise RegimeError(f"aggregate must be >= 0, got {G}")


def _full_time_aggregate(game: GameSpec) -> float:
    """``max_aggregate()``, which bounds the solvers' searches, refused by name if it overflows."""
    G_max = game.max_aggregate()
    if not math.isfinite(G_max):
        raise InputError(f"the full-time aggregate must be finite to solve, got {G_max!r}")
    return G_max


def _scalar_ces(gifts, log_b, rho: float, exp=math.exp, log=math.log) -> float:
    """The payoff kernel's CES of one joint action of finite gifts, on
    floats: the log-terms ``log(beta_i) + rho*log(g_i)`` (``log_b`` holds
    the ``log(beta_i)``; a zero gift's is ``rho * log(0)``, as in the
    kernel) finished by ``games._aggregate_scalar``.  With ``math``'s
    ``exp`` and ``log``, the default, it agrees with the kernel to rounding;
    with numpy's it equals the kernel exactly, since every positive gift's
    term is finite for a declared rho (|rho| <= 1e300).  The concave
    solver's root calls it on every evaluation, and the result builder on
    every reported equilibrium."""
    terms = []  # an append loop: a comprehension costs a call before Python 3.12
    for g, log_beta in zip(gifts, log_b):
        terms.append(log_beta + rho * log(g) if g > 0.0 else -rho * math.inf)
    return _aggregate_scalar(terms, rho, exp, log)


def _first_of_type(game: GameSpec) -> list[int]:
    """For each player, the first player with its expertise and beta, the
    only per-player inputs of a gift root, so that players of one type share
    one root at a given aggregate."""
    firsts: dict = {}
    return [firsts.setdefault(pair, i) for i, pair in enumerate(zip(game.expertise, game.betas))]


# ---------------------------------------------------------------------------
# replacement maps
# ---------------------------------------------------------------------------

def replacement_additive(G: float, player: int, game: GameSpec) -> float:
    """Additive-task replacement: max(0, p*dt - (alpha/beta) * sigma/sigma')."""
    _require(game, "replacement_additive", "= 1", player, G)
    return _additive_gift(ratio_scalar(game.evaluation, G), G, game.expertise[player],
                          game.betas[player], game.alpha, game.delta_t, game.rho)


def _additive_gift(ratio_G: float, G: float, p: float, beta: float,
                   alpha: float, delta_t: float, rho: float) -> float:
    """``replacement_additive`` without its checks, from ``ratio_G = sigma/sigma'(G)``;
    the arguments are ``_conjunctive_gift``'s, so the concave solver calls either."""
    cap = p * delta_t
    r = cap - (alpha / beta) * ratio_G
    return min(cap, max(0.0, r))


# Newton steps a gift root or a best response may take; one still moving is refused
_NEWTON_STEPS = 100


def _gift_condition(r: float, cap: float, rho: float, k: float) -> float:
    """The first-order condition of a gift ``r`` in ``(0, cap)``, in logs:
    ``log(cap - r) + (rho-1)*log(r) + k``, where
    ``k = log(beta/alpha) - log(sigma/sigma'(G) * G**(rho-1))``.  It falls in
    ``r`` for rho < 1, and for rho > 1 rises up to ``cap*(1 - 1/rho)``."""
    return math.log(cap - r) + (rho - 1.0) * math.log(r) + k


def _gift_root(a: float, b: float, k: float, cap: float, z_max: float,
               p: float, G: float) -> float:
    """Root of ``phi(z) = a*z + b*log(cap - e**z) + k`` by Newton's method.

    ``phi`` is ``_gift_condition`` in ``z = log(r)`` for ``(a, b) =
    (rho-1, 1)``, or in ``z = log(cap - r)`` for ``(a, b) = (1, rho-1)``;
    the caller picks the form that is monotone up to ``z_max``, with the
    root below it.  The iteration starts at ``min(z0, z_max)``, where ``z0``
    zeroes ``phi`` without its ``e**z``: ``phi(z0) = b*log(1 - e**z0/cap)``
    has the sign of ``phi'' = -b*cap*e**z/(cap - e**z)**2``, and the caller
    makes sure that ``phi(z_max)`` has it too if ``z_max`` is the smaller.
    From there every Newton step stays on the start's side of the root and
    moves monotonically onto it.  Once a step is at most
    ``1e-9*max(1, |z|)`` one more step is taken; a root still moving after
    ``_NEWTON_STEPS`` steps raises ``InputError`` naming the gift's ``p`` and
    ``G``.
    """
    z = min(-(b * math.log(cap) + k) / a, z_max)
    final = False
    for _ in range(_NEWTON_STEPS):
        w = math.exp(z)
        v = cap - w
        step = (a * z + b * math.log(v) + k) / (a - b * w / v)
        z -= step
        if final:
            return z
        final = abs(step) <= 1e-9 * max(1.0, abs(z))
    raise InputError(
        f"the gift root for p = {p}, G = {G} did not converge in "
        f"{_NEWTON_STEPS} Newton steps")


def _conjunctive_gift(ratio_G: float, G: float, p: float, beta: float,
                      alpha: float, delta_t: float, rho: float) -> float:
    """Root of the conjunctive first-order condition, by Newton's method in log space.

    Solves (dt - r/p) * (beta*p/alpha) * r**(rho-1) = ratio_G * G**(rho-1)
    for r in (0, p*dt], in logs ``_gift_condition``.  For rho < 1 it falls
    from +inf at r -> 0+ down to -inf at r = p*dt.  This is
    ``replacement_conjunctive`` without its checks; a player with no
    expertise gifts 0.

    The sign of the condition at ``cap/2``, ``rho*log(cap/2) + k``, picks
    the side of the root, and only that side's end of the bracket
    ``[cap*1e-300, cap*(1-1e-15)]`` is evaluated: the condition falls in
    ``r``, by at least ``log 2`` from ``cap*1e-300`` to ``cap/2`` and by
    more than 33 from ``cap/2`` to ``cap*(1-1e-15)``, so the other end's
    rules cannot fire.  Below ``cap/2``, a root below the bracket is a zero
    gift and one at ``cap*1e-300`` is that end; above it, one at the top
    end is that end, and a condition there not below zero (no sign change)
    raises ``InputError`` naming the bracket.  Otherwise ``_gift_root``
    finds the root from ``cap/2`` at most: below it in ``z = log(r)``,
    where the condition is concave and falling; above it in
    ``z = log(cap - r)``, where it is convex and rising.
    """
    cap = p * delta_t
    if p == 0.0 or G == 0.0 and rho < 0:
        return 0.0
    if ratio_G == 0.0 or (math.isinf(ratio_G) and ratio_G < 0):
        # zero opportunity cost: the FOC holds with strict inequality at the cap
        return cap
    # at G = 0 the right side G**(rho-1) is +inf, like an overflowing ratio
    log_G = math.log(G) if G > 0.0 else -math.inf
    log_rhs = math.log(ratio_G) + (rho - 1.0) * log_G
    if math.isinf(log_rhs):
        return 0.0 if log_rhs > 0 else cap
    k = math.log(beta / alpha) - log_rhs

    lo = cap * 1e-300
    log_half = math.log(0.5 * cap)
    if rho * log_half + k < 0:  # the root lies below cap/2
        flo = _gift_condition(lo, cap, rho, k)
        if flo < 0:
            return 0.0  # the root lies below the smallest bracketed gift
        if flo == 0:
            return lo
        return math.exp(_gift_root(rho - 1.0, 1.0, k, cap, log_half, p, G))
    hi = cap * (1.0 - 1e-15)
    fhi = _gift_condition(hi, cap, rho, k)
    if fhi == 0:
        return hi
    if not fhi < 0:
        flo = _gift_condition(lo, cap, rho, k)
        raise InputError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    return cap - math.exp(_gift_root(1.0, rho - 1.0, k, cap, log_half, p, G))


def standalone_value(player: int, game: GameSpec) -> float:
    """Outcome the player would produce as the sole contributor."""
    _require(game, "standalone_value", player=player)
    return _standalone_pair(player, game)[1]


# Player types whose standalone point, and whose thresholds, a process keeps
# solved; the default sweep grid has 96 standalone and 36 threshold types.
# Both caches are ``typed``: an int parameter and the equal float keep apart,
# so a hit returns the bits the call would solve.
_PLAYER_TYPES = 256


def _player_type(player: int, game: GameSpec) -> tuple:
    """All that a player's standalone point and thresholds depend on, the
    tuple ``(p, beta, alpha, delta_t, rho, evaluation)`` the per-player
    internals take: its own expertise and weight, and the game's alpha,
    delta_t, rho and evaluation, never its partners."""
    return (game.expertise[player], game.betas[player], game.alpha, game.delta_t,
            game.rho, game.evaluation)


@functools.lru_cache(maxsize=_PLAYER_TYPES, typed=True)
def _type_standalone(*player_type) -> tuple[float, float]:
    """(gift, aggregate) of a lone contributor of a smooth-evaluation type:
    ``_lone_root`` with ``top = beta**(1/rho)*p*dt``, and (0, 0) for no
    expertise.  A type whose ``beta**(1/rho)`` underflows to 0, or whose
    ``top`` overflows, is refused with ``InputError`` naming ``p``, ``beta``
    and ``rho``."""
    p, beta, alpha, delta_t, rho, spec = player_type
    if p == 0.0:
        return 0.0, 0.0
    try:
        bscale = beta ** (1.0 / rho)
    except OverflowError:
        bscale = math.inf
    top = bscale * p * delta_t
    if not (0.0 < bscale and top < math.inf):
        raise InputError(
            f"the standalone point for p = {p}, beta = {beta}, rho = {rho} needs "
            f"beta**(1/rho) positive and finite, got {bscale}, and "
            f"beta**(1/rho)*p*delta_t finite, got {top}")
    G = _lone_root(top, alpha, spec)
    return G / bscale, G


def _standalone_pair(player: int, game: GameSpec) -> tuple[float, float]:
    """(gift, aggregate) of the single-contributor fixed point, solved once
    per player type (``_player_type``) in a process and kept in a bounded
    cache; a refusal is not kept, so it raises on every call."""
    return _type_standalone(*_player_type(player, game))


def _lone_root(top: float, c: float, spec) -> float:
    """Root G of ``top - c*sigma/sigma'(G) - G``, the aggregate of a lone
    contributor (or of the weakest-link limit), by one Brent solve on
    ``[0, top]`` to 1e-15 relative; 0 where the left side is <= 0 at G = 0."""
    def f(G):
        return top - c * ratio_scalar(spec, G) - G

    f0 = f(0.0)
    if f0 <= 0.0:
        return 0.0
    return _brent(f, 0.0, top, xtol=0.0, rtol=1e-15, flo=f0)


def replacement_conjunctive(G: float, player: int, game: GameSpec) -> float:
    """Conjunctive-task replacement via the implicit first-order condition.

    Valid for G >= standalone when 0 < rho < 1 and for 0 <= G <= standalone
    when rho < 0; outside, the map is undefined and a RegimeError names the
    regime.
    """
    _require(game, "replacement_conjunctive", "< 1", player, G)
    p = game.expertise[player]
    if p == 0.0:
        return 0.0
    G_bar = _standalone_pair(player, game)[1]
    if 0 < game.rho < 1 and G < G_bar - BOUNDARY_TOL:
        raise RegimeError(
            f"for 0 < rho < 1 the replacement map of player {player} is defined "
            f"only for G >= standalone ({G_bar:.6g}); got G = {G:.6g}")
    if game.rho < 0 and G > G_bar + BOUNDARY_TOL:
        raise RegimeError(
            f"for rho < 0 the replacement map of player {player} is defined "
            f"only for G <= standalone ({G_bar:.6g}); got G = {G:.6g}")
    ratio = ratio_scalar(game.evaluation, G)
    return _conjunctive_gift(ratio, G, p, game.betas[player],
                             game.alpha, game.delta_t, game.rho)


def strongly_conjunctive_limit(game: GameSpec) -> float:
    """Equilibrium aggregate in the weakest-link limit for identical players.

    Root of G + n*alpha*sigma(G)/sigma'(G) - p*dt = 0.  With full expertise
    this is the textbook symmetric expression; the common factor p keeps it
    consistent with the rho = -500 solver for weaker symmetric teams.
    """
    _require(game, "strongly_conjunctive_limit")
    p = game.expertise[0]
    if any(q != p for q in game.expertise) or any(b != game.betas[0] for b in game.betas):
        raise RegimeError(
            "the weakest-link closed form assumes identical players "
            "(equal expertise and equal weights)")
    return _lone_root(p * game.delta_t, game.n * game.alpha, game.evaluation)


# ---------------------------------------------------------------------------
# concave solver (rho <= 1)
# ---------------------------------------------------------------------------

def _result_from_gifts(game: GameSpec, gifts, reference_G: float,
                       residual: float | None = None) -> EquilibriumResult:
    """The equilibrium of the finite ``gifts``, each clamped at 0, scored
    with the payoff kernel's bits; ``residual`` defaults to
    ``|CES(gifts) - reference_G|``.

    The one joint action is scored in floats, by ``_scalar_ces`` and
    ``score_scalar`` with numpy's ``exp`` and ``log``, which give the CES
    and sigma kernels' bits as a lone learner run's misses do; both fields
    are Python floats."""
    gifts = tuple(0.0 if g <= 0.0 else float(g) for g in gifts)
    log_b, caps, _ = game._columns
    actions = tuple(min(g / cap, 1.0) if cap > 0.0 else 0.0
                    for g, cap in zip(gifts, caps.tolist()))
    aggregate = float(_scalar_ces(gifts, log_b.tolist(), game.rho, np.exp, np.log))
    score = float(score_scalar(game.evaluation, aggregate, np.exp))
    return EquilibriumResult(
        actions=actions, gifts=gifts, aggregate_G=aggregate, score=score,
        active_set=tuple(i for i, g in enumerate(gifts) if g > BOUNDARY_TOL),
        residual=abs(aggregate - reference_G) if residual is None else residual)


def solve_equilibrium_concave(game: GameSpec) -> list[EquilibriumResult]:
    """The fixed points of the aggregate replacement map for rho <= 1.

    A fixed point is a root of ``f(G) = CES(r(G)) - G``, and ``f`` changes
    sign at most once: the share-function picture of aggregative games
    (Cornes & Hartley 2007, J. Public Econ. Theory 9).  In ``y_i = r_i(G)/G``
    a contributing player's first-order condition reads
    ``(p_i*dt - G*y_i) * (beta_i/alpha) * y_i**(rho-1) = sigma/sigma'(G)``.
    For rho < 1 the left side falls in y_i and in G, and ``sigma/sigma'`` is
    ``G`` for identity evaluation and ``1/(gamma*(1 - sigma/d))`` for
    logistic, both non-decreasing; for rho = 1, ``r_i`` is the positive part
    of ``p_i*dt - (alpha/beta_i)*sigma/sigma'``.  So every ``y_i`` is
    non-increasing in G, the shares ``s_i = beta_i * y_i**rho`` sum to a
    monotone function of G, and ``CES(r(G))/G = (sum_i s_i)**(1/rho)``
    never rises: it crosses 1 at most once.

    So ``f`` is evaluated at the interval's two ends, and one Brent solve
    refines a sign change between them.  Each evaluation is scalar
    arithmetic: the replacement maps' gifts without their checks, one root
    per player type (``_first_of_type``: a gift's only per-player inputs are
    expertise and beta), and their aggregate by ``_scalar_ces``.  The gifts
    of every evaluated G are kept for the call, and each reported
    equilibrium is built from its root's (``_brent`` returns only points it
    has evaluated), scored in floats too (``_result_from_gifts``), so a
    solve calls no array kernel and solves no root twice.
    The ends keep their own rules: for rho = 1, ``|f(0)| < 1e-12`` makes
    ``G = 0`` a root (nobody contributes); for 0 < rho < 1, ``lo`` is the
    largest standalone value, a lone player's fixed point when
    ``|f(lo)| <= max(lo, 1)*1e-9``, relative to ``lo`` itself because
    ``hi`` grows like ``n**(1/rho)`` as rho nears 0;
    an exact zero at ``lo`` is a root; and ``hi`` is a root when
    ``|f(hi)| < min(hi, 1)*1e-12``, relative to ``hi`` below 1 because for
    rho < 0 near 0 ``hi``, the least standalone value, shrinks like
    ``beta**(1/rho)``, and ``f(hi)``, about ``-hi`` there, with it.  Roots
    within the dedup radius ``max(hi, 1)*1e-9`` are one.
    ``f = G*(CES(r(G))/G - 1)`` vanishes at ``G = 0`` on either
    side of the crossing, so from ``f(0) = 0`` the bracket starts at the
    radius.  No root raises NoEquilibriumError with the two ends
    ``[(lo, f(lo)), (hi, f(hi))]`` attached.  For rho < 0 the interval
    starts just above G = 0 and leaves out the trivial fixed point G = 0,
    where any zero gift forces the weakest-link outcome to 0: the fixed
    point with G > 0 is returned, the zero profile never.
    """
    _require(game, "solve_equilibrium_concave", "<= 1")
    G_max = _full_time_aggregate(game)

    standalones = [_standalone_pair(i, game)[1] for i in range(game.n)]
    if game.rho == 1:
        lo, hi = 0.0, G_max
    elif game.rho > 0:
        lo, hi = max(standalones), G_max
    else:
        # G = 0 is a trivial fixed point of the weakest-link limit (any zero
        # gift forces G = 0); the replacement theory covers only G > 0.
        hi = min(standalones)
        lo = hi * 1e-9
    if not hi > lo:
        raise NoEquilibriumError(
            f"empty interval [{lo:.6g}, {hi:.6g}]: some player has a "
            "degenerate standalone value", scan=[])

    # The replacement maps without their checks: the game is checked above,
    # and every G evaluated lies in [lo, hi], so G >= 0, and G is at least
    # every standalone value for 0 < rho < 1 (lo is their max) and at most
    # every one for rho < 0 (hi is their min).
    gift = _additive_gift if game.rho == 1 else _conjunctive_gift
    players = list(zip(game.expertise, game.betas, _first_of_type(game)))
    log_b = game._columns[0].tolist()
    spec, alpha, delta_t, rho = game.evaluation, game.alpha, game.delta_t, game.rho
    evaluated = {}  # the gifts at each G that f has evaluated, for the reported equilibria

    def f(G):
        ratio = ratio_scalar(spec, G)
        gifts = []
        for p, beta, first in players:  # a type seen before takes its first player's gift
            gifts.append(gifts[first] if first < len(gifts)
                         else gift(ratio, G, p, beta, alpha, delta_t, rho))
        evaluated[G] = gifts
        return _scalar_ces(gifts, log_b, rho) - G

    f_lo, f_hi = f(lo), f(hi)
    radius = max(hi, 1.0) * 1e-9
    roots: list[float] = []
    if (f_lo == 0.0 or game.rho == 1 and abs(f_lo) < 1e-12
            or 0 < game.rho < 1 and abs(f_lo) <= max(lo, 1.0) * 1e-9):
        roots.append(lo)  # nobody contributes at G = 0, or a lone player's fixed point
    a, f_a = lo, f_lo
    if lo == 0.0 and f_lo == 0.0 and hi > radius:
        # a root below the radius would be merged into G = 0 anyway
        a, f_a = radius, f(radius)
    if (f_a < 0) != (f_hi < 0):
        # every root lies above a, so xtol is at most 1e-15 of it
        roots.append(_brent(f, a, hi, xtol=a * 1e-15, rtol=1e-15, flo=f_a, fhi=f_hi))
    if abs(f_hi) < 1e-12 * min(hi, 1.0) and not any(abs(r - hi) < 1e-9 for r in roots):
        roots.append(hi)

    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > radius:
            deduped.append(r)
    if not deduped:
        raise NoEquilibriumError(
            f"no fixed point of the aggregate replacement map on [{lo:.6g}, {hi:.6g}]",
            scan=[(lo, f_lo), (hi, f_hi)])

    # every root is an end f was evaluated at or a point _brent evaluated
    return [_result_from_gifts(game, evaluated[G_hat], G_hat) for G_hat in deduped]


# ---------------------------------------------------------------------------
# disjunctive machinery (rho > 1)
# ---------------------------------------------------------------------------

def _u_zero(player_type, G_minus: float) -> float:
    """Free-riding's utility against G_minus: full leisure, scored at G_minus."""
    _, _, alpha, delta_t, _, spec = player_type
    return utility(delta_t, score_scalar(spec, G_minus), alpha)


def _softplus(x: float) -> tuple[float, float]:
    """``log(1 + e**x)`` without overflow, and its slope ``1/(1 + e**-x)``."""
    e = math.exp(-abs(x))
    return 0.5 * (x + abs(x)) + math.log(1.0 + e), (1.0 if x >= 0 else e) / (1.0 + e)


def _pair_aggregate(w: float, G_minus: float, rho: float) -> float:
    """``(w**rho + G_minus**rho)**(1/rho)`` for ``w > 0``: the aggregate at
    which the best response scores a gift, ``_aggregate_scalar`` of the
    log-terms ``rho*log w`` and ``rho*log G_minus``."""
    if G_minus == 0.0:
        return w
    return _aggregate_scalar((rho * math.log(w), rho * math.log(G_minus)), rho)


def _response_condition(player_type, G_minus: float):
    """The best response's first-order condition ``phi`` against G_minus, as
    a function of the gift g that returns phi and its slope in log g (see
    ``_best_positive_response``)."""
    p, beta, alpha, delta_t, rho, spec = player_type
    cap = p * delta_t
    b = None if G_minus == 0.0 else rho * math.log(G_minus)
    log_bscale = math.log(beta ** (1.0 / rho))
    base = log_bscale - math.log(alpha)
    logistic = spec.kind == "logistic"
    log_gamma = math.log(spec.gamma) if logistic else 0.0

    def phi(g):
        # _pair_aggregate's log-sum-exp: rho*log G = rho*log w + softplus(b - rho*log w)
        log_w = log_bscale + math.log(g)
        if b is None:
            log_G, out, s = log_w, base, 0.0
        else:
            lse, s = _softplus(b - rho * log_w)
            log_G = log_w + lse / rho
            out = base - (rho - 1.0) / rho * lse
        if logistic:  # sigma/sigma' = (1 + e**(gamma*(G - b))) / gamma
            G = math.exp(log_G)
            sp, sig = _softplus(spec.gamma * (G - spec.b))
            out = out - sp + log_gamma
            c = spec.gamma * G * sig
        else:
            out = out - log_G
            c = 1.0
        return out + math.log(cap - g), (rho - 1.0) * s - c * (1.0 - s) - g / (cap - g)

    return phi


def _best_positive_response(player_type, G_minus: float, *,
                            near: float | None = None) -> tuple[float, float]:
    """Best strictly positive contribution against opponents providing G_minus.

    Returns (gift, utility) for the best g > 0 of a player with positive
    expertise (both callers reach it only for a player whose standalone gift
    exceeds ``BOUNDARY_TOL``).  The interior local maxima of the utility
    u(g) are the roots where the first-order condition falls through zero: with
    ``w = beta**(1/rho) * g`` and ``G = (w**rho + G_minus**rho)**(1/rho)``,
    d log u / dg has the sign of

        phi(g) = log(beta**(1/rho)/alpha) + (rho-1)*(log w - log G)
                 - log(sigma/sigma')(G) + log(cap - g),

    which is -inf at g = cap.  phi is concave in z = log g, so it is positive
    on at most one stretch, and that stretch ends in the one interior
    maximum, the larger root of phi.  Its slope is

        phi'(z) = (rho-1)*s - c*(1-s) - g/(cap-g),

    with ``s = sigmoid(rho*log G_minus - rho*log w)`` (0 at G_minus = 0) and
    ``c = gamma*G*sigmoid(gamma*(G - b))`` for logistic evaluation, 1 for
    identity.  Newton's method in z starts at ``near`` (the maximum at a
    nearby provision) or at ``cap/2``.  Where phi falls it takes the Newton
    step: the tangent lies above the concave phi, so the step lands right of
    the root, and the steps from there fall monotonically onto it.  Where phi
    rises and is positive, or the step would reach the cap, g moves halfway
    to the cap instead.  A point reached by a Newton step where phi rises
    shows phi negative everywhere, and so does an iterate below
    ``cap*1e-12``: there is no interior maximum.  The iteration stops at a
    step of at most ``cap*1e-15``, or where a point reached by a Newton step
    scores phi >= 0, as only rounding does there; one still moving after
    ``_NEWTON_STEPS`` steps raises ``InputError`` naming the type's ``p`` and
    ``beta``.

    The root and its utility, scored in ``math`` at ``_pair_aggregate``, are
    returned.  Leisure is clamped at 0: at g = cap, ``dt - g/p`` can round
    below zero, and a non-integer alpha would turn it into NaN.

    The gift is the best *interior* one.  As g -> 0+ the utility tends to
    free-riding's (for rho > 1 a small gift adds only O(g**rho) to the
    aggregate), and that corner is no root of phi.  Where phi has no root
    the utility falls from free-riding's on every gift; ``cap / 256`` and
    its utility are returned, clearly below free-riding, rather than a
    corner a rounding error below it.
    """
    p, beta, alpha, delta_t, rho, spec = player_type
    cap = p * delta_t
    bscale = beta ** (1.0 / rho)
    phi = _response_condition(player_type, G_minus)

    def utility_at(g):
        G = _pair_aggregate(bscale * g, G_minus, rho)
        return max(delta_t - g / p, 0.0) ** alpha * score_scalar(spec, G)

    g = 0.5 * cap if near is None else near
    log_cap = math.log(cap)
    newton = False  # whether g was reached by a Newton step, which lands right of the root
    for _ in range(_NEWTON_STEPS):
        f, slope = phi(g)
        if newton and f >= 0.0:
            break  # phi <= 0 right of the root: g is the root to rounding
        if slope < 0.0:
            z = math.log(g) - f / slope
            newton = z < log_cap
            new = math.exp(z) if newton else 0.5 * (g + cap)
        elif newton:
            new = 0.0  # phi rises and is negative: no root, as below the floor
        else:
            new = 0.5 * (g + cap)
        if new < cap * 1e-12:
            stand_in = cap / 256
            return stand_in, utility_at(stand_in)
        step, g = new - g, new
        if abs(step) <= cap * 1e-15:
            break
    else:
        raise InputError(
            f"the best response for p = {p}, beta = {beta} to G_minus = {G_minus} did "
            f"not converge in {_NEWTON_STEPS} Newton steps")
    return g, utility_at(g)


def _indifference_gap(player_type, G_minus: float,
                      near: float | None) -> tuple[float, float | None, float | None]:
    """``(h, h', g)`` at ``G_minus`` for the threshold search: the gap
    ``h = u(g; G_minus) - u0(G_minus)`` between the best positive response g
    (warm-started from ``near``) and free-riding,
    and its slope in ``G_minus`` by the envelope theorem,

        h' = u/(sigma/sigma')(G) * (G_minus/G)**(rho-1) - u0/(sigma/sigma')(G_minus),

    G the aggregate at g.  Where the best response has no interior maximum
    (the ``cap/256`` stand-in) the slope belongs to no maximum, and ``h'``
    and ``g`` are None."""
    p, beta, alpha, delta_t, rho, spec = player_type
    g, u = _best_positive_response(player_type, G_minus, near=near)
    u0 = _u_zero(player_type, G_minus)
    if g == p * delta_t / 256:
        return u - u0, None, None
    # u*sigma'/sigma at each aggregate; identity's sigma/sigma' is 0 at 0, sigma' 1
    G = _pair_aggregate(beta ** (1.0 / rho) * g, G_minus, rho)
    ratio0 = ratio_scalar(spec, G_minus)
    slope = (u / ratio_scalar(spec, G) * (G_minus / G) ** (rho - 1.0)
             - (u0 / ratio0 if ratio0 > 0.0 else delta_t ** alpha))
    return u - u0, slope, g


def critical_thresholds(player: int, game: GameSpec) -> CriticalThresholds:
    """Indifference point between contributing and free-riding (rho > 1).

    The threshold G_minus_star is the root of the gap ``h(G_minus)`` between
    the best positive response's utility and free-riding's, whose slope the
    envelope theorem gives from that best response (``_indifference_gap``).
    Newton's method runs on h inside a bracket ``[lo, hi]`` with
    ``h(lo) > 0 > h(hi)``, from ``lo = 0`` and ``hi = G_bar``, the standalone
    point, whose gap is scored only if no step finds a negative one (and
    refused with ``InputError`` if positive).  On the default grid h is
    concave and decreasing left of the root, so a tangent from the left
    lands right of the root, and the steps from there fall monotonically
    onto it.  A step that would leave the bracket, or one from a best
    response with no interior maximum, whose slope belongs to another
    branch, bisects the bracket instead.  The search stops once a step or
    the bracket is at most ``xtol = max(G_bar, 1)*1e-13``, with Brent's
    contract: the root lies within ``xtol`` of the point returned.  Each
    best response starts from the last interior one's gift (the first from
    the standalone gift, the best response to no provision).  ``g_star`` is
    the best response's Newton root at ``G_minus_star`` and ``G_star`` its
    ``_pair_aggregate``, each clamped at the standalone point.

    The best response is the interior one, a root of the utility's
    first-order condition: above the threshold the corner g -> 0+ would win
    with a utility a rounding error below free-riding's, a plateau of about
    -1e-10 with no slope; the interior local maximum leaves the gap
    unchanged where it is positive and makes it clearly negative above the
    root.  (Parametrising by the gift instead collapses numerically for
    large rho, where the gift gap to the standalone point falls below float
    spacing.)

    A game whose utilities can overflow is refused with ``InputError``
    before the search.  The bound is free-riding's utility on the full-time
    aggregate, ``delta_t**alpha * sigma(G at full time)``, not
    ``max_achievable_utility``: the search works in the normalised leisure
    ``dt - g/p``, which has no leisure-capacity factor, so its utilities can
    exceed that bound when a capacity is below 1.

    Every refusal above is made first, on this game.  The search itself
    depends on the player's type alone (``_player_type``), so it runs on the
    type, once per type in a process, and its result is kept in a bounded
    cache.  A search that raises is not kept, so it runs, and raises, on
    every call; its error names the type's ``p`` and ``beta``.
    """
    _require(game, "critical_thresholds", "> 1", player)
    player_type = _player_type(player, game)
    g_bar, G_bar = _type_standalone(*player_type)
    if g_bar <= BOUNDARY_TOL:
        raise RegimeError(
            f"player {player} never contributes even alone; the contribution "
            "thresholds are undefined")

    p, beta, alpha, delta_t, rho, spec = player_type
    # single-valuedness of the positive replacement branch:
    # rho/(dt*p) >= sigma'(G_bar)/sigma(G_bar) * beta**(1/rho)/alpha
    bound = beta ** (1.0 / rho) / (alpha * ratio_scalar(spec, G_bar))
    if rho / (delta_t * p) + 1e-12 < bound:
        raise RegimeError(
            "the positive replacement branch is not single-valued here: "
            f"rho/(dt*p) = {rho / (delta_t * p):.6g} < "
            f"sigma'/sigma(standalone) * beta**(1/rho)/alpha = {bound:.6g}")

    _u_zero(player_type, game.max_aggregate())  # refuses by name a game whose utilities overflow
    return _type_thresholds(*player_type)


@functools.lru_cache(maxsize=_PLAYER_TYPES, typed=True)
def _type_thresholds(*player_type) -> CriticalThresholds:
    """``critical_thresholds``' Newton search, for a type that passed its refusals."""
    p, beta, _, _, rho, _ = player_type
    g_bar, G_bar = _type_standalone(*player_type)
    h0, slope, near = _indifference_gap(player_type, 0.0, g_bar)
    if h0 <= 0.0:
        raise RegimeError(
            f"the type p = {p}, beta = {beta} prefers free-riding even on nothing; no "
            "positive threshold exists")
    xtol = max(G_bar, 1.0) * 1e-13
    x = lo = 0.0
    hx = h0
    hi, negative = G_bar, False  # h(G_bar) is scored only if no step finds h < 0
    for _ in range(_NEWTON_STEPS):
        step = hx / slope if slope is not None and slope < 0.0 else math.nan
        if abs(step) <= 0.5 * xtol:  # such a step may round to no move at all
            x -= step
            break
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        hx, slope, g = _indifference_gap(player_type, x, near)
        near = g or near
        if hx > 0.0:
            lo = x
        elif hx < 0.0:
            hi, negative = x, True
        if hx == 0.0 or hi - lo <= xtol:
            break
    else:
        raise InputError(
            f"the critical threshold for p = {p}, beta = {beta} did not converge in "
            f"{_NEWTON_STEPS} Newton steps")
    if not negative:
        h_bar = _indifference_gap(player_type, G_bar, near)[0]
        if h_bar > 0.0:
            raise InputError(f"no sign change on [0.0, {G_bar}]: f={h0}, {h_bar}")
    G_minus_star = x
    best = _best_positive_response(player_type, G_minus_star, near=near)
    # The indifference point sits weakly left of the standalone point; the
    # root of phi and the standalone gift come from two root-finders, each
    # exact only to rounding, so the root could land a little past it.
    # Enforce the exact ordering rather than letting that noise leak into
    # subset-acceptance checks.
    g_star = min(best[0], g_bar)
    G_star = min(_pair_aggregate(beta ** (1.0 / rho) * g_star, G_minus_star, rho), G_bar)

    u_active = best[1]
    u_out = _u_zero(player_type, G_minus_star)
    scale = max(abs(u_active), abs(u_out), 1e-300)
    if abs(u_active - u_out) > 1e-5 * scale:
        raise RegimeError(
            f"indifference verification failed for p = {p}, beta = {beta}: "
            f"{u_active!r} vs {u_out!r}")
    return CriticalThresholds(
        g_star=float(g_star),
        G_minus_star=float(G_minus_star),
        G_star=float(G_star),
        standalone=float(G_bar),
    )


def _positive_branch_gift(player_type, G: float) -> float:
    """Positive replacement branch: the local-maximum gift at aggregate G.

    Solves (dt - g/p) * (beta*p/alpha) * g**(rho-1) = sigma/sigma' * G**(rho-1)
    on the rising part g in (0, peak], ``peak = p*dt*(1 - 1/rho)``, where the
    condition in logs (``_gift_condition``) is concave and rising in
    ``z = log(g)`` for rho > 1.  ``_gift_root`` climbs onto the root from
    below: with the condition >= 0 at the peak, its start lies below
    ``log(peak)`` by at least ``log(rho)/(rho-1)``.  A condition below zero
    at the peak means G sits above the bell of the local-max curve, a
    ``RegimeError`` (within ``1e-9`` it is the peak); one above zero at
    ``peak*1e-300`` leaves no root in the bracket, an ``InputError``.
    """
    p, beta, alpha, delta_t, rho, spec = player_type
    cap = p * delta_t
    peak = cap * (1.0 - 1.0 / rho)
    ratio = ratio_scalar(spec, G)
    k = math.log(beta / alpha) - (math.log(ratio) + (rho - 1.0) * math.log(G))
    f_peak = _gift_condition(peak, cap, rho, k)
    if f_peak <= 0:
        # a root at the peak, or a whisker of slack for aggregates at the very
        # top of the branch domain
        if f_peak > -1e-9:
            return peak
        raise RegimeError(
            f"no positive replacement branch at G = {G:.6g} for p = {p}, beta = {beta}")
    lo = peak * 1e-300
    flo = _gift_condition(lo, cap, rho, k)
    if flo == 0:
        return lo
    if flo > 0:
        raise InputError(f"no sign change on [{lo}, {peak}]: f={flo}, {f_peak}")
    return math.exp(_gift_root(rho - 1.0, 1.0, k, cap, math.log(peak), p, G))


def _branch_share(player_type, G: float) -> tuple[float, float]:
    """The positive-branch gift ``r`` at G and its share ``beta*r**rho/G**rho``."""
    r = _positive_branch_gift(player_type, G)
    if r <= 0.0 or G <= 0.0:
        return r, 0.0
    _, beta, _, _, rho, _ = player_type
    return r, math.exp(math.log(beta) + rho * (math.log(r) - math.log(G)))


def share_function(player: int, G: float, game: GameSpec) -> float:
    """Share map s_i(G) = beta_i * r_i(G)**rho / G**rho on the positive
    replacement branch: defined on [G_star, standalone] and strictly
    increasing, with s(standalone) = 1.  The domain comes from
    ``critical_thresholds``, whose search runs once per player type, so a
    grid of G values costs one search.
    """
    _require(game, "share_function", "> 1", player, G)
    thr = critical_thresholds(player, game)
    if not (thr.G_star - BOUNDARY_TOL <= G <= thr.standalone + BOUNDARY_TOL):
        raise RegimeError(
            f"positive branch domain is [{thr.G_star:.6g}, {thr.standalone:.6g}]; "
            f"got G = {G:.6g}")
    return _branch_share(_player_type(player, game), min(G, thr.standalone))[1]


# the most players whose active sets the disjunctive enumerator tries, all 2**n - 1 of them
_SUBSET_CAP = 10


def enumerate_disjunctive_equilibria(game: GameSpec) -> list[EquilibriumResult]:
    """All equilibria of a disjunctive task, one per admissible active set.

    A candidate active set J is accepted when the critical level
    G*(J) = max(max_{j in J} G_star_j, max_{i not in J} G_minus_star_i)
    does not exceed the smallest standalone value in J and the active shares
    at G*(J) sum to at most one; its equilibrium aggregate then solves
    sum_{j in J} s_j(G) = 1.  A sole contributor's share is 1 exactly at its
    standalone point, so a one-player set J = {j}, once admitted, reports
    that point (``_type_standalone``) without solving the share equation.
    Each evaluation of the shares, and the reported gifts at the root, solve
    one positive-branch gift per player type (``_first_of_type``) and add
    the shares in player order.  A game of more than ``_SUBSET_CAP`` players
    is refused with ``ConfigurationError``; one that admits no active set
    raises ``NoEquilibriumError`` with an empty ``scan``.
    """
    _require(game, "enumerate_disjunctive_equilibria", "> 1")
    if game.n > _SUBSET_CAP:
        raise ConfigurationError(
            f"enumeration over {game.n} players needs 2**{game.n} - 1 subsets, "
            f"above the cap of {_SUBSET_CAP} players")
    _full_time_aggregate(game)

    types = [_player_type(i, game) for i in range(game.n)]
    pairs = [_type_standalone(*player_type) for player_type in types]
    capable = [i for i in range(game.n) if pairs[i][0] > BOUNDARY_TOL]
    thresholds: dict[int, CriticalThresholds] = {
        i: critical_thresholds(i, game) for i in capable}
    firsts = _first_of_type(game)

    def branch(G, J):
        """Each player of J's positive-branch gift and share at G, one root per type."""
        solved = {}
        for j in J:
            if firsts[j] not in solved:
                solved[firsts[j]] = _branch_share(types[j], G)
        return [solved[firsts[j]] for j in J]

    results: list[EquilibriumResult] = []
    for size in range(1, len(capable) + 1):
        for J in itertools.combinations(capable, size):
            inactive = [i for i in range(game.n) if i not in J]
            g_star_level = max(thresholds[j].G_star for j in J)
            out_level = max(
                (thresholds[i].G_minus_star for i in inactive if i in thresholds),
                default=0.0)
            G_star_J = max(g_star_level, out_level)
            hi = min(thresholds[j].standalone for j in J)
            if G_star_J > hi + BOUNDARY_TOL:
                continue
            gifts = [0.0] * game.n
            if size == 1:
                gifts[J[0]], G_bar = pairs[J[0]]
                results.append(_result_from_gifts(game, gifts, G_bar))
                continue
            G_star_J = min(G_star_J, hi)

            def S(G, _J=J):
                return sum(share for _, share in branch(G, _J))

            # An end within the 1e-9 admission band but outside 1e-12 of one
            # is the root itself: a root search from it would find no sign change.
            s_lo = S(G_star_J)
            if s_lo > 1.0 + 1e-9:
                continue
            if s_lo >= 1.0 - 1e-12:
                G_hat = G_star_J
            else:
                s_hi = S(hi)
                if s_hi < 1.0 - 1e-9:
                    continue
                if s_hi <= 1.0 + 1e-12:
                    G_hat = hi
                else:
                    G_hat = _brent(lambda G: S(G) - 1.0, G_star_J, hi,
                                   xtol=max(hi, 1.0) * 1e-14,
                                   flo=s_lo - 1.0, fhi=s_hi - 1.0)
            at_root = branch(G_hat, J)
            for j, (r, _) in zip(J, at_root):
                gifts[j] = r
            residual = abs(sum(share for _, share in at_root) - 1.0)
            results.append(_result_from_gifts(game, gifts, G_hat, residual))
    if not results:
        raise NoEquilibriumError("no active set is admitted", scan=[])
    return results


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _deviation_payoffs(game: GameSpec, actions: np.ndarray, candidates):
    """The profile's utilities (column 0 of one payoff pass), and each
    player's utility for each of its own candidate actions (``candidates[i]``
    lists player i's, clipped to at most 1), the others held fixed.  A
    column's payoff does not depend on the others: the CES kernel sums
    every column in player order."""
    ends = list(itertools.accumulate(map(len, candidates), initial=1))
    profiles = np.repeat(actions[:, None], ends[-1], axis=1)
    for i, c in enumerate(candidates):
        profiles[i, ends[i]:ends[i + 1]] = c
    np.minimum(profiles, 1.0, out=profiles)
    us = _payoffs(game, profiles)[2]
    return us[:, 0], [us[i, ends[i]:ends[i + 1]] for i in range(len(candidates))]


@functools.lru_cache(maxsize=8)
def _action_grid(points: int) -> np.ndarray:
    """The oracle's ``points`` grid actions on [0, 1], built once per size, read-only."""
    grid = np.linspace(0.0, 1.0, points)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=16)
def _refine_offsets(refine_step: float, points: int) -> np.ndarray:
    """``refine_step * arange(points)``, a refine window's offsets from its
    low end, built once per step and length, read-only."""
    offsets = refine_step * np.arange(points)
    offsets.flags.writeable = False
    return offsets


def verify_epsilon_nash(actions, game: GameSpec, epsilon: float,
                        grid_step: float = 0.01,
                        refine_step: float | None = None) -> NashCheck:
    """Brute-force check of the equilibrium condition on an action grid.

    For each player, holding the others fixed, evaluates the utility of
    every grid action and reports the largest unilateral improvement; the
    profile is an epsilon-Nash point when that gain is at most epsilon.
    The profile and every player's grid deviations are scored in one payoff
    pass, and with ``refine_step`` every player's window around its best
    grid action in one more.  Works for any evaluation, including
    heaviside.  A game whose utilities can overflow is refused with
    ``InputError`` before the first payoff, as ``max_achievable_utility``
    refuses it.
    """
    _check("grid_step", grid_step, _POSITIVE, InputError)
    _check("refine_step", refine_step, _POSITIVE_OR_NONE, InputError)  # None: no refine pass
    _check("epsilon", epsilon, _FINITE, InputError)
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-9:
        raise InputError(f"grid_step must divide 1 evenly, got {grid_step}")
    _require_game(game)
    arr = _actions_array(game, actions)
    max_achievable_utility(game)  # every payoff lies below this bound; memoised

    grid_actions = _action_grid(k + 1)
    base_u, deviations = _deviation_payoffs(game, arr, [grid_actions] * game.n)
    bests = []  # each player's best deviation (action, utility)
    for us in deviations:
        j = us.argmax()
        bests.append((grid_actions.item(j), us.item(j)))
    if refine_step is not None:
        windows = []  # from lo >= 0, so the pass's clip at 1 is np.clip's
        for best_a, _ in bests:
            lo = max(0.0, best_a - grid_step)
            hi = min(1.0, best_a + grid_step)
            fine = lo + _refine_offsets(refine_step, int(round((hi - lo) / refine_step)) + 1)
            if fine.item(-1) > 1.0 + 1e-12:  # the offsets rise, so only the top can fail
                fine = fine[fine <= 1.0 + 1e-12]
            windows.append(fine)
        refined = _deviation_payoffs(game, arr, windows)[1]
        for i, (fine, us_f) in enumerate(zip(windows, refined)):
            jf = us_f.argmax()
            if us_f.item(jf) > bests[i][1]:
                bests[i] = (fine.item(jf), us_f.item(jf))

    max_gain = -math.inf
    best = None
    for i, ((best_a, best_u), u) in enumerate(zip(bests, base_u.tolist())):
        gain = best_u - u
        if gain > max_gain:
            max_gain = gain
            best = (i, best_a)
    return NashCheck(is_nash=bool(max_gain <= epsilon), max_gain=max_gain,
                     best_deviation=best)
