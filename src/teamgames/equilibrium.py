"""Nash-equilibrium computation for teamwork games.

The aggregative-game route: instead of best responses to opponents, each
player has a replacement map ``r_i(G)`` giving the contribution consistent
with an equilibrium whose team outcome is ``G``.  Equilibrium aggregates are
the fixed points of ``R(G) = CES(r_1(G), ..., r_n(G))``.

Task regimes:

* additive (rho = 1): ``r_i(G) = max(0, p_i*dt - (alpha/beta_i) * sigma/sigma')``,
  a closed form; the fixed point is found by a bracket scan plus Brent's method.
* conjunctive (rho < 1, rho != 0): ``r_i`` solves the implicit first-order
  condition ``sigma/sigma' * G**(rho-1) = (dt - r/p) * (beta*p/alpha) * r**(rho-1)``,
  a strictly decreasing one-dimensional root problem solved in log space so
  |rho| = 500 stays finite.
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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InputError,
    NoEquilibriumError,
    RegimeError,
    UnsupportedEvaluationError,
    WrongSolverError,
)
from .evaluation import eval_ratio, eval_score, score_scalar, ratio_scalar
from .games import GameSpec, _actions_array, _payoffs, ces_aggregate, utility

# Absolute tolerance on work units for branch and boundary comparisons.
BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class EquilibriumResult:
    """One pure-strategy Nash equilibrium of a teamwork game."""

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

def _bisect(f, lo, hi, *, xtol, flo=None, fhi=None, maxiter=400):
    """Plain bisection; tolerant of +/-inf function values at the ends."""
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise InputError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def _brent(f, lo, hi, *, xtol, flo=None, fhi=None, maxiter=400):
    """Brent's method with ``_bisect``'s contract: inverse quadratic
    interpolation or a secant step, falling back to bisection whenever the
    step leaves the bracket, shrinks too slowly or meets an infinite value.

    ``b`` is the best point so far, ``c`` the other end of the bracket
    ``[b, c]`` and ``a`` the previous ``b``.  Returns ``b`` once the bracket
    is ``xtol`` wide (Brent 1973, ch. 4, with the tolerance fixed at
    ``xtol / 2``).
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
    tol = 0.5 * xtol
    for _ in range(maxiter):
        if (fb < 0) == (fc < 0):
            c, fc = a, fa
            step = last = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
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
    return b


def _require_player(player, game: GameSpec):
    if not (isinstance(player, (int, np.integer)) and 0 <= player < game.n):
        raise InputError(f"player must be an integer in [0, {game.n - 1}], got {player!r}")


def _require_smooth(game: GameSpec, where: str):
    if not game.evaluation.is_smooth:
        raise UnsupportedEvaluationError(
            f"{where} needs a smooth evaluation (logistic or identity); "
            "heaviside games can only be learned"
        )


# ---------------------------------------------------------------------------
# replacement maps
# ---------------------------------------------------------------------------

def replacement_additive(G: float, player: int, game: GameSpec) -> float:
    """Additive-task replacement: max(0, p*dt - (alpha/beta) * sigma/sigma')."""
    _require_player(player, game)
    return _replacement_additive(G, player, game)


def _replacement_additive(G: float, player: int, game: GameSpec) -> float:
    if game.rho != 1:
        raise WrongSolverError(
            f"additive replacement requires rho = 1, got rho = {game.rho}")
    _require_smooth(game, "replacement function")
    p = game.expertise[player]
    if p == 0.0:
        return 0.0
    cap = p * game.delta_t
    ratio = ratio_scalar(game.evaluation, G)
    r = cap - (game.alpha / game.betas[player]) * ratio
    return min(cap, max(0.0, r))


def _conjunctive_gift(ratio_G: float, G: float, p: float, beta: float,
                      alpha: float, delta_t: float, rho: float) -> float:
    """Root of the conjunctive first-order condition, compared in log space.

    Solves (dt - r/p) * (beta*p/alpha) * r**(rho-1) = ratio_G * G**(rho-1)
    for r in (0, p*dt].  The left side is strictly decreasing for rho < 1,
    from +inf at r -> 0+ down to 0 at r = p*dt.
    """
    cap = p * delta_t
    if G == 0.0 and rho < 0:
        return 0.0
    if ratio_G == 0.0 or (math.isinf(ratio_G) and ratio_G < 0):
        # zero opportunity cost: the FOC holds with strict inequality at the cap
        return cap
    # at G = 0 the right side G**(rho-1) is +inf, like an overflowing ratio
    log_G = math.log(G) if G > 0.0 else -math.inf
    log_rhs = math.log(ratio_G) + (rho - 1.0) * log_G
    if math.isinf(log_rhs):
        return 0.0 if log_rhs > 0 else cap
    scale = math.log(beta * p / alpha)

    def f(r):
        return math.log(delta_t - r / p) + scale + (rho - 1.0) * math.log(r) - log_rhs

    lo = cap * 1e-300
    flo = f(lo)
    if flo < 0:
        return 0.0  # the root lies below the smallest bracketed gift
    hi = cap * (1.0 - 1e-15)
    return _bisect(f, lo, hi, xtol=cap * 1e-14, flo=flo)


def _replacement_gifts(game: GameSpec, G: np.ndarray) -> np.ndarray:
    """Replacement gift of every player at every aggregate in ``G``: shape ``(n, m)``.

    The array twin of ``replacement_additive`` and ``replacement_conjunctive``
    for the bracket scan, whose aggregates all lie in the maps' domain.  For
    rho < 1 all the first-order-condition roots are bisected in lockstep, each
    with ``_conjunctive_gift``'s bracket, midpoints and stopping rule, so a
    gift differs from the scalar one only where numpy's log rounds otherwise.
    Every bracket halves from ``cap`` towards ``cap * 1e-14``, so nearly all
    roots finish on the same step (about the 47th); the finished ones are
    written out and dropped from the arrays only on a step where some finish.
    """
    G = np.asarray(G, dtype=float)
    p = np.asarray(game.expertise)[:, None]
    caps = p * game.delta_t
    ratio = eval_ratio(game.evaluation, G)
    if game.rho == 1:
        r = caps - (game.alpha / np.asarray(game.betas)[:, None]) * ratio
        return np.minimum(caps, np.maximum(0.0, r))  # 0 where p = 0, as r <= 0 there

    rho, dt = game.rho, game.delta_t
    with np.errstate(divide="ignore", invalid="ignore"):
        log_rhs = np.log(ratio) + (rho - 1.0) * np.log(G)
    # _conjunctive_gift's special cases, in its order of precedence
    cap_gift = (ratio == 0.0) | (ratio == -np.inf) | (log_rhs == -np.inf)
    zero_gift = (p == 0.0) | (G == 0.0) & (rho < 0) | ~cap_gift & (log_rhs == np.inf)
    out = np.where(cap_gift & ~zero_gift, caps, 0.0)

    # the elements to bisect, flattened in scan order: aggregate-major, player-minor
    cols, rows = np.nonzero(~(zero_gift | cap_gift).T)
    q = p[rows, 0]
    cap = caps[rows, 0]
    scale = np.array([math.log(b * x / game.alpha) if x > 0 else 0.0
                      for b, x in zip(game.betas, game.expertise)])[rows]
    target = log_rhs[cols]

    def f(r):
        return np.log(dt - r / q) + scale + (rho - 1.0) * np.log(r) - target

    lo = cap * 1e-300
    hi = cap * (1.0 - 1e-15)
    xtol = cap * 1e-14
    flo = f(lo)
    fhi = f(hi)
    # the root lies below lo: a zero gift; an end at a root is that root
    out[rows, cols] = np.where(flo < 0, 0.0, np.where(flo == 0, lo, hi))
    live = ~(flo < 0) & (flo != 0) & (fhi != 0)
    stuck = live & ((flo < 0) == (fhi < 0))
    if stuck.any():
        k = int(np.argmax(stuck))
        raise InputError(
            f"no sign change on [{lo[k]}, {hi[k]}]: f={flo[k]}, {fhi[k]}")

    def keep(mask, *arrays):
        return tuple(a[mask] for a in arrays)

    rows, cols, q, scale, target, lo, hi, xtol, flo = keep(
        live, rows, cols, q, scale, target, lo, hi, xtol, flo)
    for _ in range(400):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        same = (fm < 0) == (flo < 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
        at_root = fm == 0
        done = at_root | (hi - lo <= xtol)
        if not done.any():
            continue
        out[rows[done], cols[done]] = np.where(at_root[done], mid[done],
                                               0.5 * (lo[done] + hi[done]))
        rows, cols, q, scale, target, lo, hi, xtol, flo = keep(
            ~done, rows, cols, q, scale, target, lo, hi, xtol, flo)
    out[rows, cols] = 0.5 * (lo + hi)
    return out


def standalone_value(player: int, game: GameSpec) -> float:
    """Outcome the player would produce as the sole contributor."""
    _require_player(player, game)
    return _standalone_pair(player, game)[1]


def _standalone_pair(player: int, game: GameSpec) -> tuple[float, float]:
    """(gift, aggregate) of the single-contributor fixed point."""
    _require_smooth(game, "standalone value")
    p = game.expertise[player]
    if p == 0.0:
        return 0.0, 0.0
    cap = p * game.delta_t
    bscale = game.betas[player] ** (1.0 / game.rho)
    spec = game.evaluation

    def f(g):
        return cap - (game.alpha / bscale) * ratio_scalar(spec, bscale * g) - g

    if f(0.0) <= 0.0:
        return 0.0, 0.0
    g = _bisect(f, 0.0, cap, xtol=cap * 1e-14)
    return g, bscale * g


def replacement_conjunctive(G: float, player: int, game: GameSpec,
                            *, standalone: float | None = None) -> float:
    """Conjunctive-task replacement via the implicit first-order condition.

    Valid for G >= standalone when 0 < rho < 1 and for 0 <= G <= standalone
    when rho < 0; outside, the map is undefined and a RegimeError names the
    regime.
    """
    _require_player(player, game)
    return _replacement_conjunctive(G, player, game, standalone=standalone)


def _replacement_conjunctive(G: float, player: int, game: GameSpec,
                             *, standalone: float | None = None) -> float:
    if not (game.rho < 1 and game.rho != 0):
        raise WrongSolverError(
            f"conjunctive replacement requires rho < 1 (rho != 0), got {game.rho}")
    _require_smooth(game, "replacement function")
    p = game.expertise[player]
    if p == 0.0:
        return 0.0
    G_bar = _standalone_pair(player, game)[1] if standalone is None else standalone
    if 0 < game.rho < 1 and G < G_bar - BOUNDARY_TOL:
        raise RegimeError(
            f"for 0 < rho < 1 the replacement map of player {player} is defined "
            f"only for G >= standalone ({G_bar:.6g}); got G = {G:.6g}")
    if game.rho < 0 and G > G_bar + BOUNDARY_TOL:
        raise RegimeError(
            f"for rho < 0 the replacement map of player {player} is defined "
            f"only for G <= standalone ({G_bar:.6g}); got G = {G:.6g}")
    if G < 0:
        raise RegimeError(f"aggregate must be >= 0, got {G}")
    ratio = ratio_scalar(game.evaluation, G)
    return _conjunctive_gift(ratio, G, p, game.betas[player],
                             game.alpha, game.delta_t, game.rho)


def strongly_conjunctive_limit(game: GameSpec) -> float:
    """Equilibrium aggregate in the weakest-link limit for identical players.

    Root of G + n*alpha*sigma(G)/sigma'(G) - p*dt = 0.  With full expertise
    this is the textbook symmetric expression; the common factor p keeps it
    consistent with the rho = -500 solver for weaker symmetric teams.
    """
    _require_smooth(game, "strongly conjunctive limit")
    p = game.expertise[0]
    if any(q != p for q in game.expertise) or any(b != game.betas[0] for b in game.betas):
        raise RegimeError(
            "the weakest-link closed form assumes identical players "
            "(equal expertise and equal weights)")
    cap = p * game.delta_t
    if cap == 0.0:
        return 0.0
    spec = game.evaluation

    def f(G):
        return cap - game.n * game.alpha * ratio_scalar(spec, G) - G

    if f(0.0) <= 0.0:
        return 0.0
    return _bisect(f, 0.0, cap, xtol=cap * 1e-14)


# ---------------------------------------------------------------------------
# concave solver (rho <= 1)
# ---------------------------------------------------------------------------

def _result_from_gifts(game: GameSpec, gifts: np.ndarray, reference_G: float) -> EquilibriumResult:
    gifts = np.maximum(np.asarray(gifts, dtype=float), 0.0)
    caps = game.full_time_gifts()
    actions = np.where(caps > 0, np.clip(gifts / np.where(caps > 0, caps, 1.0), 0.0, 1.0), 0.0)
    aggregate = ces_aggregate(gifts, game.rho, game.betas)
    score = float(eval_score(game.evaluation, aggregate))
    active = tuple(int(i) for i in np.nonzero(gifts > BOUNDARY_TOL)[0])
    residual = abs(aggregate - reference_G)
    return EquilibriumResult(
        actions=tuple(float(a) for a in actions),
        gifts=tuple(float(g) for g in gifts),
        aggregate_G=float(aggregate),
        score=score,
        active_set=active,
        residual=float(residual),
    )


def solve_equilibrium_concave(game: GameSpec, *, num_brackets: int = 2048) -> list[EquilibriumResult]:
    """All fixed points of the aggregate replacement map for rho <= 1.

    Scans ``num_brackets`` uniform brackets for sign changes of R(G) - G and
    refines each with Brent's method; raises NoEquilibriumError (with the
    scan trace attached) when no crossing exists.
    """
    if game.rho > 1 or game.rho == 0:
        raise WrongSolverError(
            f"concave solver requires rho <= 1 (rho != 0), got {game.rho}; "
            "use the disjunctive enumerator for rho > 1")
    _require_smooth(game, "equilibrium solver")
    if not num_brackets >= 1:
        raise InputError(f"num_brackets must be >= 1, got {num_brackets}")

    standalones = [_standalone_pair(i, game)[1] for i in range(game.n)]
    G_max = game.max_aggregate()
    if game.rho == 1:
        lo, hi = 0.0, G_max
        def gift(i, G):
            return _replacement_additive(G, i, game)
    elif game.rho > 0:
        lo, hi = max(standalones), G_max
        def gift(i, G):
            return _replacement_conjunctive(G, i, game, standalone=standalones[i])
    else:
        # G = 0 is a trivial fixed point of the weakest-link limit (any zero
        # gift forces G = 0); the replacement theory covers only G > 0.
        hi = min(standalones)
        lo = hi * 1e-9
        def gift(i, G):
            return _replacement_conjunctive(G, i, game, standalone=standalones[i])

    if not hi > lo:
        raise NoEquilibriumError(
            f"empty scan interval [{lo:.6g}, {hi:.6g}]: some player has a "
            "degenerate standalone value", scan=[])

    def f(G):
        gifts = [gift(i, G) for i in range(game.n)]
        return ces_aggregate(gifts, game.rho, game.betas) - G

    grid = np.linspace(lo, hi, num_brackets + 1)
    values = ces_aggregate(_replacement_gifts(game, grid), game.rho, game.betas) - grid

    roots: list[float] = []
    if game.rho == 1 and abs(values[0]) < 1e-12:
        roots.append(grid[0])  # nobody contributes even at G = 0
    elif 0 < game.rho < 1 and abs(values[0]) <= max(hi, 1.0) * 1e-9:
        # grid[0] is the largest standalone value; a residue within the dedup
        # radius makes it a fixed point (a lone player's equilibrium)
        roots.append(float(grid[0]))
    neg = values < 0
    for k in np.nonzero((values[:-1] == 0.0) | (neg[:-1] != neg[1:]))[0]:
        a, b, fa, fb = grid[k], grid[k + 1], values[k], values[k + 1]
        if fa == 0.0 and a not in roots:
            roots.append(float(a))
        elif neg[k] != neg[k + 1]:
            # Brent reads values, not just signs, so the ends come from the
            # scalar f, not the scan: the root is that of a point-by-point scan
            roots.append(float(_brent(f, float(a), float(b), xtol=max(hi, 1.0) * 1e-13)))
    if abs(values[-1]) < 1e-12 and not any(abs(r - grid[-1]) < 1e-9 for r in roots):
        roots.append(float(grid[-1]))

    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > max(hi, 1.0) * 1e-9:
            deduped.append(r)

    if not deduped:
        step = max(1, num_brackets // 64)
        trace = [(float(G), float(v)) for G, v in zip(grid[::step], values[::step])]
        raise NoEquilibriumError(
            f"no fixed point of the aggregate replacement map on [{lo:.6g}, {hi:.6g}]",
            scan=trace)

    results = []
    for G_hat in deduped:
        gifts = np.array([gift(i, G_hat) for i in range(game.n)])
        results.append(_result_from_gifts(game, gifts, G_hat))
    return results


# ---------------------------------------------------------------------------
# disjunctive machinery (rho > 1)
# ---------------------------------------------------------------------------

def _u_zero(game: GameSpec, G_minus: float) -> float:
    return utility(game.delta_t, score_scalar(game.evaluation, G_minus), game.alpha)


def _best_positive_response(game: GameSpec, player: int,
                            G_minus: float) -> tuple[float, float] | None:
    """Best strictly positive contribution against opponents providing G_minus.

    Returns (gift, utility) for the best g > 0, or None for a player with no
    expertise.  Scores a 256-point gift grid in one array pass, then zooms
    in: each level re-grids the two cells around the argmax with 257 points,
    128 times finer, until the bracket is ``cap * 1e-14`` wide (seven passes),
    and returns the last argmax.  Leisure is clamped at 0: at g = cap,
    ``dt - g/p`` can round below zero, and a non-integer alpha would turn it
    into NaN.

    The gift is the best *interior* one.  As g -> 0+ the utility tends to
    free-riding's (for rho > 1 a small gift adds only O(g**rho) to the
    aggregate), so while the bracket still reaches down to ``cap * 1e-12``
    and its smallest grid gift wins, the zoom moves to the best point past
    the utility's first rise on the grid, the interior local maximum, if the
    grid shows one.  Where no level shows one, the utility falls from
    free-riding's on every gift and there is no interior maximum; the
    smallest gift of the first grid, ``cap / 256``, and its utility are
    returned, clearly below free-riding, rather than the corner
    ``cap * 1e-12``, a rounding error below it.  Where an interior point
    wins anyway, nothing changes.
    """
    p = game.expertise[player]
    if p == 0.0:
        return None
    cap = p * game.delta_t
    rho = game.rho
    bscale = game.betas[player] ** (1.0 / rho)
    spec = game.evaluation
    alpha = game.alpha
    dt = game.delta_t
    b = None if G_minus == 0.0 else rho * math.log(G_minus)

    def utilities(gs):
        # the two-term CES (w**rho + G_minus**rho)**(1/rho) as a log-sum-exp;
        # rho > 1, so every w > 0 has a finite term
        w = bscale * gs
        if b is None:
            G = w
        else:
            a = rho * np.log(w)
            m = np.maximum(a, b)
            G = np.exp((m + np.log(np.exp(a - m) + np.exp(b - m))) / rho)
        return np.maximum(dt - gs / p, 0.0) ** alpha * eval_score(spec, G)

    ramp = np.arange(257) / 256
    gs = cap * ramp[1:]
    us = utilities(gs)
    smallest = float(gs[0]), float(us[0])
    corner = cap * 1e-12
    lo, hi = corner, gs[-1]
    for _ in range(200):
        j = int(np.argmax(us))
        if j == 0 and lo == corner:
            rise = np.flatnonzero(us[1:] > us[:-1])
            if rise.size:
                start = rise[0] + 1
                j = int(start + np.argmax(us[start:]))
        lo = gs[j - 1] if j > 0 else lo
        hi = gs[j + 1] if j + 1 < len(gs) else hi
        if hi - lo <= cap * 1e-14:
            break
        gs = lo + (hi - lo) * ramp
        us = utilities(gs)
    if lo == corner:
        return smallest
    return float(gs[j]), float(us[j])


def critical_thresholds(player: int, game: GameSpec) -> CriticalThresholds:
    """Indifference point between contributing and free-riding (rho > 1).

    Solved for the opponents' provision with Brent's method, each evaluation
    one best response: at G_minus_star the best positive response and
    free-riding pay the same.  The best response is the interior one: above
    the threshold the corner g -> 0+ would win with a utility a rounding
    error below free-riding's, and Brent would crawl along that plateau of
    about -1e-10 in tol-sized steps; the interior local maximum leaves the
    gap unchanged where it is positive and makes it clearly negative above
    the root.
    (Parametrising by the gift instead collapses numerically for large rho,
    where the gift gap to the standalone point falls below float spacing.)
    """
    _require_player(player, game)
    if game.rho <= 1:
        raise WrongSolverError(
            f"critical thresholds exist only for disjunctive tasks (rho > 1), "
            f"got rho = {game.rho}")
    _require_smooth(game, "critical thresholds")
    g_bar, G_bar = _standalone_pair(player, game)
    if g_bar <= BOUNDARY_TOL:
        raise RegimeError(
            f"player {player} never contributes even alone; the contribution "
            "thresholds are undefined")

    p = game.expertise[player]
    bscale = game.betas[player] ** (1.0 / game.rho)
    # single-valuedness of the positive replacement branch:
    # rho/(dt*p) >= sigma'(G_bar)/sigma(G_bar) * beta**(1/rho)/alpha
    bound = bscale / (game.alpha * ratio_scalar(game.evaluation, G_bar))
    if game.rho / (game.delta_t * p) + 1e-12 < bound:
        raise RegimeError(
            "the positive replacement branch is not single-valued here: "
            f"rho/(dt*p) = {game.rho / (game.delta_t * p):.6g} < "
            f"sigma'/sigma(standalone) * beta**(1/rho)/alpha = {bound:.6g}")

    _u_zero(game, game.max_aggregate())  # refuses by name a game whose utilities overflow

    def h(G_minus):
        best = _best_positive_response(game, player, G_minus)
        if best is None:
            return -math.inf
        return best[1] - _u_zero(game, G_minus)

    h0 = h(0.0)
    if h0 <= 0.0:
        raise RegimeError(
            f"player {player} prefers free-riding even on nothing; no "
            "positive threshold exists")
    G_minus_star = _brent(h, 0.0, G_bar, xtol=max(G_bar, 1.0) * 1e-13, flo=h0)
    best = _best_positive_response(game, player, G_minus_star)
    # The indifference point sits weakly left of the standalone point; the
    # utility is flat at the argmax, so the grid's best point can land a few
    # grid cells off it.  Enforce the exact ordering rather than letting that
    # noise leak into subset-acceptance checks.
    g_star = min(best[0], g_bar)
    G_star = min(ces_aggregate([bscale * g_star, G_minus_star], game.rho, (1.0, 1.0)), G_bar)

    u_active = best[1]
    u_out = _u_zero(game, G_minus_star)
    scale = max(abs(u_active), abs(u_out), 1e-300)
    if abs(u_active - u_out) > 1e-5 * scale:
        raise RegimeError(
            f"indifference verification failed for player {player}: "
            f"{u_active!r} vs {u_out!r}")
    return CriticalThresholds(
        g_star=float(g_star),
        G_minus_star=float(G_minus_star),
        G_star=float(G_star),
        standalone=float(G_bar),
    )


def _positive_branch_gift(game: GameSpec, player: int, G: float) -> float:
    """Positive replacement branch: the local-maximum gift at aggregate G.

    Solves (dt - g/p) * (beta*p/alpha) * g**(rho-1) = sigma/sigma' * G**(rho-1)
    on the rising part g in (0, p*dt*(1 - 1/rho)], where the left side is
    strictly increasing for rho > 1.
    """
    p = game.expertise[player]
    cap = p * game.delta_t
    rho = game.rho
    peak = cap * (1.0 - 1.0 / rho)
    ratio = ratio_scalar(game.evaluation, G)
    log_rhs = math.log(ratio) + (rho - 1.0) * math.log(G)
    scale = math.log(game.betas[player] * p / game.alpha)

    def f(g):
        return math.log(game.delta_t - g / p) + scale + (rho - 1.0) * math.log(g) - log_rhs

    f_peak = f(peak)
    if f_peak < 0:
        # G sits above the bell of the local-max curve; allow a whisker of
        # slack for aggregates at the very top of the branch domain.
        if f_peak > -1e-9:
            return peak
        raise RegimeError(
            f"no positive replacement branch at G = {G:.6g} for player {player}")
    return _bisect(f, peak * 1e-300, peak, xtol=cap * 1e-15, fhi=f_peak)


def _share_positive(game: GameSpec, player: int, G: float) -> float:
    r = _positive_branch_gift(game, player, G)
    if r <= 0.0 or G <= 0.0:
        return 0.0
    return math.exp(math.log(game.betas[player]) + game.rho * (math.log(r) - math.log(G)))


def share_function(player: int, G: float, game: GameSpec, branch: str = "positive") -> float:
    """Share map s_i(G): the fraction beta_i * r_i(G)**rho / G**rho.

    ``branch`` selects the component: "positive" is defined on
    [G_star, standalone] and strictly increasing with s(standalone) = 1;
    "zero" is defined for G >= G_minus_star and returns 0.
    """
    _require_player(player, game)
    if game.rho <= 1:
        raise WrongSolverError(
            f"share functions are used for disjunctive tasks (rho > 1), got {game.rho}")
    _require_smooth(game, "share function")
    if branch not in ("positive", "zero"):
        raise InputError(f"branch must be 'positive' or 'zero', got {branch!r}")
    g_bar, G_bar = _standalone_pair(player, game)
    if g_bar <= BOUNDARY_TOL:
        if branch == "zero":
            return 0.0
        raise RegimeError(f"player {player} has no positive branch (degenerate standalone)")
    thr = critical_thresholds(player, game)
    if branch == "zero":
        if G < thr.G_minus_star - BOUNDARY_TOL:
            raise RegimeError(
                f"zero branch undefined below G_minus_star = {thr.G_minus_star:.6g}; "
                f"got G = {G:.6g}")
        return 0.0
    if not (thr.G_star - BOUNDARY_TOL <= G <= thr.standalone + BOUNDARY_TOL):
        raise RegimeError(
            f"positive branch domain is [{thr.G_star:.6g}, {thr.standalone:.6g}]; "
            f"got G = {G:.6g}")
    return _share_positive(game, player, min(G, G_bar))


def enumerate_disjunctive_equilibria(game: GameSpec, *, subset_cap: int = 10) -> list[EquilibriumResult]:
    """All equilibria of a disjunctive task, one per admissible active set.

    A candidate active set J is accepted when the critical level
    G*(J) = max(max_{j in J} G_star_j, max_{i not in J} G_minus_star_i)
    does not exceed the smallest standalone value in J and the active shares
    at G*(J) sum to at most one; its equilibrium aggregate then solves
    sum_{j in J} s_j(G) = 1.
    """
    if game.rho <= 1:
        raise WrongSolverError(
            f"disjunctive enumeration requires rho > 1, got {game.rho}")
    _require_smooth(game, "equilibrium solver")
    if game.n > subset_cap:
        raise ConfigurationError(
            f"enumeration over {game.n} players needs 2**{game.n} - 1 subsets, "
            f"above the configured cap of {subset_cap}; raise subset_cap "
            "explicitly to proceed")

    pairs = [_standalone_pair(i, game) for i in range(game.n)]
    capable = [i for i in range(game.n) if pairs[i][0] > BOUNDARY_TOL]
    thresholds: dict[int, CriticalThresholds] = {
        i: critical_thresholds(i, game) for i in capable}

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
            G_star_J = min(G_star_J, hi)

            def S(G, _J=J):
                return sum(_share_positive(game, j, G) for j in _J)

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
            gifts = np.zeros(game.n)
            for j in J:
                gifts[j] = _positive_branch_gift(game, j, G_hat)
            result = _result_from_gifts(game, gifts, G_hat)
            residual = abs(S(G_hat) - 1.0)
            results.append(EquilibriumResult(
                actions=result.actions, gifts=result.gifts,
                aggregate_G=result.aggregate_G, score=result.score,
                active_set=result.active_set, residual=float(residual)))
    return results


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def max_achievable_utility(game: GameSpec) -> float:
    """Loose per-player utility bound used to scale epsilon in Nash checks."""
    best_leisure = game.delta_t * max(game.leisure_capacity)
    top_score = float(eval_score(game.evaluation, game.max_aggregate()))
    return utility(best_leisure, top_score, game.alpha)


def _deviation_utilities(game: GameSpec, actions: np.ndarray, player: int,
                         candidate_actions: np.ndarray) -> np.ndarray:
    """Utility of ``player`` for each candidate action, the others held fixed."""
    profiles = np.repeat(actions[:, None], len(candidate_actions), axis=1)
    profiles[player] = candidate_actions
    return _payoffs(game, profiles)[2][player]


def verify_epsilon_nash(actions, game: GameSpec, epsilon: float,
                        grid_step: float = 0.01,
                        refine_step: float | None = None) -> NashCheck:
    """Brute-force check of the equilibrium condition on an action grid.

    For each player, holding the others fixed, evaluates the utility of
    every grid action and reports the largest unilateral improvement; the
    profile is an epsilon-Nash point when that gain is at most epsilon.
    Works for any evaluation, including heaviside.  A game whose utilities
    can overflow is refused with ``InputError`` before the first payoff, as
    ``max_achievable_utility`` refuses it.
    """
    for name, step in (("grid_step", grid_step), ("refine_step", refine_step)):
        if step is not None and not (math.isfinite(step) and step > 0):
            raise InputError(f"{name} must be a finite number > 0, got {step}")
    if not math.isfinite(epsilon):
        raise InputError(f"epsilon must be a finite number, got {epsilon}")
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-9:
        raise InputError(f"grid_step must divide 1 evenly, got {grid_step}")
    arr = _actions_array(game, actions)
    max_achievable_utility(game)  # every payoff lies below this bound
    base_u = _payoffs(game, arr)[2]

    max_gain = -math.inf
    best = None
    grid_actions = np.linspace(0.0, 1.0, k + 1)
    for i in range(game.n):
        us = _deviation_utilities(game, arr, i, grid_actions)
        j = int(np.argmax(us))
        best_a, best_u = float(grid_actions[j]), float(us[j])
        if refine_step is not None:
            lo = max(0.0, best_a - grid_step)
            hi = min(1.0, best_a + grid_step)
            m = int(round((hi - lo) / refine_step))
            fine = lo + refine_step * np.arange(m + 1)
            fine = fine[fine <= 1.0 + 1e-12]
            us_f = _deviation_utilities(game, arr, i, np.clip(fine, 0.0, 1.0))
            jf = int(np.argmax(us_f))
            if us_f[jf] > best_u:
                best_a, best_u = float(fine[jf]), float(us_f[jf])
        gain = best_u - float(base_u[i])
        if gain > max_gain:
            max_gain = gain
            best = (i, best_a)
    return NashCheck(is_nash=bool(max_gain <= epsilon), max_gain=float(max_gain),
                     best_deviation=best)
