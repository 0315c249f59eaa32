"""Sweep orchestration: theory-vs-learning grids, tables, and studies.

A sweep cell is one (team, task type, threshold) combination: the cell's
game is solved for its equilibria and independently learned by the bandit
system, and both sides are recorded.  Sweeps, the pass/fail study and the
tuner hand all their training runs to ``simulator.train_many``, which
learns them in lockstep.  Runs are seeded from a base seed and their index,
so reruns, parallel runs and any batching produce identical records.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .equilibrium import (
    enumerate_disjunctive_equilibria,
    solve_equilibrium_concave,
)
from .errors import (
    ConfigurationError,
    DegenerateRegressionError,
    Field,
    InputError,
    NoEquilibriumError,
    TeamworkGameError,
    UndefinedDispersionError,
    _FINITE,
    _SEED,
    _at_least,
    _check,
    _check_all,
    _read,
    _read_spec,
)
from .evaluation import _EVALUATION_FIELDS, EvaluationSpec
from .games import _GAME_FIELDS, GameSpec, _require_game, max_achievable_utility
from .simulator import (
    _TRAIN_FIELDS,
    TrainConfig,
    _seed_sequence,
    dispersion,
    spawned_seed,
    train_many,
)
from .simulator import train  # noqa: F401  (bound here for perfbench's tracer tests)

# Every experiment input's declaration, by name: a name that a game, an
# evaluation or a training run takes keeps its declaration there.
_FIELDS = {**_GAME_FIELDS, **_EVALUATION_FIELDS, **_TRAIN_FIELDS,
           "expertise_values": _GAME_FIELDS["expertise"],
           "rho_values": _GAME_FIELDS["rho"]._replace(kind=tuple),
           "b_values": _EVALUATION_FIELDS["b"]._replace(kind=tuple),
           "evaluation_kind": _EVALUATION_FIELDS["kind"], "repetitions": _at_least(1),
           "workers": _at_least(1), "base_seed": _SEED, "budget": _at_least(0),
           "teams": Field(object)}


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition plus shared game and learner parameters."""

    expertise_values: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    rho_values: tuple[float, ...] = (-100.0, -10.0, -3.0, 0.5, 1.0, 3.0, 10.0, 100.0)
    b_values: tuple[float, ...] = (3.0, 5.0, 7.0)
    repetitions: int = 1
    episodes: int = TrainConfig.episodes
    tau: float = TrainConfig.tau
    k: float = TrainConfig.k
    evaluation_kind: str = "logistic"
    d: float = 10.0
    gamma: float = 2.0
    delta_t: float = 10.0
    alpha: float = 2.0
    base_seed: int = 0
    num_arms: int = TrainConfig.num_arms
    workers: int = 1

    def __post_init__(self):
        _check_all(_SWEEP_FIELDS, vars(self))  # the value lists stay as given

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Config from a JSON object; each value is read as its field's kind."""
        return cls(**_read_spec(data, _SWEEP_FIELDS, "sweep config"))


_SWEEP_FIELDS = {field.name: _FIELDS[field.name] for field in fields(SweepConfig)}


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell: configuration, theory side, and learned side."""

    index: int
    p1: float
    p2: float
    rho: float
    b: float
    repetition: int
    seed: int
    episodes: int
    G_hat_set: tuple[float, ...]
    equilibrium_actions: tuple[tuple[float, ...], ...]
    G_tilde: float | None
    learned_actions: tuple[float, ...] | None
    skip_reason: str | None = None


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    residuals: tuple[float, ...]


def cell_game(config: SweepConfig, p1: float, p2: float, rho: float, b: float) -> GameSpec:
    """Build the two-player game for one sweep cell."""
    if config.evaluation_kind == "identity":
        evaluation = EvaluationSpec("identity")
    else:
        evaluation = EvaluationSpec(
            config.evaluation_kind, d=config.d, gamma=config.gamma, b=b)
    return GameSpec(
        n=2, rho=rho, betas=(1.0, 1.0), delta_t=config.delta_t,
        expertise=(p1, p2), alpha=config.alpha, evaluation=evaluation)


def solve_cell(game: GameSpec):
    """Equilibria of one cell's game, routed by task type."""
    _require_game(game)
    if game.rho > 1:
        return enumerate_disjunctive_equilibria(game)
    return solve_equilibrium_concave(game)


def _cell_specs(config: SweepConfig) -> list[tuple[int, float, float, float, float]]:
    pairs = [(p1, p2) for p1, p2 in
             itertools.combinations_with_replacement(sorted(config.expertise_values), 2)]
    specs = []
    index = 0
    for rho in config.rho_values:
        for b in config.b_values:
            for p1, p2 in pairs:
                specs.append((index, p1, p2, rho, b))
                index += 1
    return specs


def _solve_record(game: GameSpec):
    """``(G_hat_set, equilibrium_actions, skip_reason)`` of one cell's game."""
    try:
        equilibria = solve_cell(game)
    except TeamworkGameError as exc:
        return (), (), f"{type(exc).__name__}: {exc}"
    return tuple(e.aggregate_G for e in equilibria), tuple(e.actions for e in equilibria), None


def _learn_refusal(game: GameSpec) -> str | None:
    """Why the learner refuses ``game``, or ``None`` if it learns it."""
    try:
        max_achievable_utility(game)
    except InputError as exc:
        return f"learner: InputError: {exc}"
    return None


def run_sweep(config: SweepConfig) -> list[ExperimentRecord]:
    """Run every cell of the sweep; cells with solver failures carry a skip
    reason instead of silently disappearing.

    Every cell is solved first; then all cells and repetitions the learner
    accepts learn through one ``train_many`` call, which advances them in
    lockstep.  A cell whose rewards would leave the float range is not
    learned: its records have no learned side and name the learner's
    refusal in the skip reason, after any solver failure.  With
    ``workers > 1`` a process pool shares out the cells to solve and
    contiguous shards of the training jobs; the records do not depend on
    the worker count.
    """
    specs = _cell_specs(config)
    games = [cell_game(config, p1, p2, rho, b) for _, p1, p2, rho, b in specs]
    jobs = [(game, TrainConfig(episodes=config.episodes, tau=config.tau, k=config.k,
                               seed=spawned_seed(config.base_seed, index, rep),
                               num_arms=config.num_arms,
                               anneal_floor=min(TrainConfig.anneal_floor, config.tau)))
            for (index, *_), game in zip(specs, games) for rep in range(config.repetitions)]
    refusals = [_learn_refusal(game) for game in games]
    learnable = [job for j, job in enumerate(jobs)
                 if refusals[j // config.repetitions] is None]
    if config.workers > 1 and len(learnable) > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs
        size = -(-len(learnable) // config.workers)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            solved = list(pool.map(_solve_record, games))
            outcomes = [out for shard in pool.map(
                train_many, [learnable[i:i + size] for i in range(0, len(learnable), size)])
                for out in shard]
    else:
        solved = [_solve_record(game) for game in games]
        outcomes = train_many(learnable)
    records = []
    learned = iter(outcomes)
    runs = iter(jobs)
    for (index, p1, p2, rho, b), (g_hats, eq_actions, skip_reason), refusal in zip(
            specs, solved, refusals):
        for rep in range(config.repetitions):
            _, train_config = next(runs)
            if refusal is None:
                outcome = next(learned)
                seed, G_tilde, actions = outcome.seed, outcome.learned_G, outcome.greedy_actions
            else:
                seed, G_tilde, actions = _seed_sequence(train_config.seed)[1], None, None
            records.append(ExperimentRecord(
                index=index, p1=p1, p2=p2, rho=rho, b=b, repetition=rep,
                seed=seed, episodes=config.episodes,
                G_hat_set=g_hats, equilibrium_actions=eq_actions,
                G_tilde=G_tilde, learned_actions=actions,
                skip_reason="; ".join(r for r in (skip_reason, refusal) if r) or None))
    return records


def nearest_equilibrium(record: ExperimentRecord) -> float | None:
    """Theoretical aggregate closest to the learned one (multi-equilibrium cells)."""
    _check("record", record, Field(ExperimentRecord), InputError)
    if not record.G_hat_set or record.G_tilde is None:
        return None
    return min(record.G_hat_set, key=lambda g: abs(g - record.G_tilde))


def fit_regression(pairs) -> RegressionReport:
    """Ordinary least squares of learned values on theoretical ones, from
    ``(theoretical, learned)`` pairs of finite numbers."""
    try:
        pts = [_check("pairs", pair, _FINITE._replace(kind=tuple), InputError) for pair in pairs]
    except (TypeError, InputError):
        pts = None
    if pts is None or any(len(pair) != 2 for pair in pts):
        raise InputError(f"pairs must be pairs of finite numbers, got {pairs!r}")
    if len(pts) < 2:
        raise DegenerateRegressionError(f"need at least 2 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    with np.errstate(over="ignore", invalid="ignore"):
        fit = _least_squares(x, y)
        if fit is None:
            # a mean or a sum of squares overflows: the fit is scale-equivariant,
            # so take it on x and y divided by their largest magnitudes
            sx, sy = np.abs(x).max(), np.abs(y).max() or 1.0
            slope, intercept, residuals, r_squared = _least_squares(x / sx, y / sy)
            slope, intercept, residuals = slope * (sy / sx), intercept * sy, residuals * sy
            if not (math.isfinite(slope) and math.isfinite(intercept)):
                raise InputError("pairs must fit a slope and intercept within the float "
                                 f"range, got {pairs!r}")
            fit = slope, intercept, residuals, r_squared
    slope, intercept, residuals, r_squared = fit
    return RegressionReport(
        slope=float(slope), intercept=float(intercept), r_squared=float(r_squared),
        n_points=len(pts), residuals=tuple(float(r) for r in residuals))


def _least_squares(x: np.ndarray, y: np.ndarray):
    """``fit_regression``'s ``(slope, intercept, residuals, r_squared)`` of
    y on x, or None where a mean or a sum of squares is not finite (a gap
    between abscissae that overflows makes ``sum((x - mean)**2)`` overflow
    too); call it with overflow warnings off.  Abscissae all close to the
    first raise ``DegenerateRegressionError``."""
    if np.allclose(x, x[0]):
        raise DegenerateRegressionError("all theoretical values are equal; slope undefined")
    xbar, ybar = x.mean(), y.mean()
    dx, dy = x - xbar, y - ybar
    sxx = (dx ** 2).sum()
    slope = float((dx * dy).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals ** 2).sum())
    ss_tot = float((dy ** 2).sum())
    if not all(map(math.isfinite, (xbar, ybar, sxx, slope, intercept, ss_res, ss_tot))):
        return None
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return slope, intercept, residuals, r_squared


def regression_from_records(records) -> RegressionReport:
    """``fit_regression`` of each solved and learned record's learned
    aggregate on its nearest equilibrium aggregate."""
    _check_slice(records)
    pairs = []
    for rec in records:
        g_hat = nearest_equilibrium(rec)
        if g_hat is not None:
            pairs.append((g_hat, rec.G_tilde))
    return fit_regression(pairs)


def _triangle_rows(levels, cells: dict, fmt) -> list[list]:
    """A team table's rows: a header of the levels p1, then one row per level
    p2 whose cell under each p1 >= p2 reads ``fmt(cells[(p2, p1)])``; cells
    below the diagonal or missing are ``""``."""
    rows = [["p2\\p1"] + [f"{p:g}" for p in levels]]
    for p2 in levels:
        row = [f"{p2:g}"]
        for p1 in levels:
            value = cells.get((p2, p1))
            row.append("" if p1 < p2 or value is None else fmt(value))
        rows.append(row)
    return rows


def _pct_pair(actions) -> tuple[int, int]:
    """A two-player action pair rounded to whole percent."""
    return int(round(actions[0] * 100)), int(round(actions[1] * 100))


def _pairs_text(pairs) -> str:
    return " | ".join(f"({a}%, {b}%)" for a, b in pairs)


@dataclass(frozen=True)
class HeatmapTable:
    """Learned team outcome per expertise pair for one (rho, b) slice."""

    rho: float
    b: float
    levels: tuple[float, ...]
    values: dict  # (p1, p2) -> float
    passed: dict  # (p1, p2) -> bool

    def cell(self, p1: float, p2: float):
        return self.values.get((min(p1, p2), max(p1, p2)))

    def to_rows(self) -> list[list]:
        return _triangle_rows(self.levels, self.values, repr)


@dataclass(frozen=True)
class StrategyTable:
    """Learned action pairs per expertise pair for one (rho, b) slice."""

    rho: float
    b: float
    levels: tuple[float, ...]
    cells: dict  # (p1, p2) -> tuple of rounded (pct, pct) action pairs

    def cell(self, p1: float, p2: float):
        return self.cells.get((min(p1, p2), max(p1, p2)))

    def to_rows(self) -> list[list]:
        return _triangle_rows(self.levels, self.cells, _pairs_text)


def _by_team(records, rho: float, b: float):
    """``(levels, teams)`` of the learned records on one (rho, b) slice:
    ``teams`` maps each (p1, p2) to its records in order, and ``levels`` are
    the sorted expertise levels the teams span.  A learned record whose
    team is not sorted (p1 > p2) raises ``ConfigurationError``."""
    teams: dict = {}
    for rec in records:
        if rec.rho == rho and rec.b == b and rec.G_tilde is not None:
            if rec.p1 > rec.p2:
                raise ConfigurationError(
                    f"team tables need p1 <= p2, got record {rec.index} with team "
                    f"({rec.p1:g}, {rec.p2:g})")
            teams.setdefault((rec.p1, rec.p2), []).append(rec)
    return tuple(sorted({p for team in teams for p in team})), teams


def _check_slice(records, **values) -> None:
    """Refuse by name records that are no list of ``ExperimentRecord``, and a bad slice."""
    if not (isinstance(records, (list, tuple))
            and all(isinstance(rec, ExperimentRecord) for rec in records)):
        raise ConfigurationError(f"records must be a list of ExperimentRecord, got {records!r}")
    _check_all({key: _FIELDS[key] for key in values}, values)


def heatmap_table(records, rho: float, b: float) -> HeatmapTable:
    """Mean learned outcome per team on the requested slice.

    Cells absent from the records stay None (explicit gaps, never zeros).
    """
    _check_slice(records, rho=rho, b=b)
    levels, teams = _by_team(records, rho, b)
    values = {team: float(np.mean([rec.G_tilde for rec in recs]))
              for team, recs in teams.items()}
    return HeatmapTable(rho=rho, b=b, levels=levels, values=values,
                        passed={team: bool(mean >= b) for team, mean in values.items()})


def strategy_table(records, rho: float, b: float) -> StrategyTable:
    """Learned greedy action pairs (rounded to whole percent) per team."""
    _check_slice(records, rho=rho, b=b)
    levels, teams = _by_team(records, rho, b)
    cells = {team: tuple(sorted({_pct_pair(rec.learned_actions) for rec in recs}))
             for team, recs in teams.items()}
    return StrategyTable(rho=rho, b=b, levels=levels, cells=cells)


@dataclass(frozen=True)
class IncrementTable:
    """Percentage increase of mean dedication across threshold transitions.

    For each expertise level the mean is taken over the teams where that
    level is the weaker-or-equal member (homogeneous teams average both
    agents).  Entries are None when the base mean is zero.
    """

    rho: float
    b_values: tuple[float, float, float]
    increments: dict  # p -> (soft_to_medium, medium_to_hard), percentages

    def to_rows(self) -> list[list]:
        b1, b2, b3 = self.b_values
        rows = [["p", f"b{b1:g}_to_b{b2:g}_pct", f"b{b2:g}_to_b{b3:g}_pct"]]
        for p in sorted(self.increments):
            rows.append([f"{p:g}"] + ["" if v is None else repr(v)
                                      for v in self.increments[p]])
        return rows


def _mean_dedication(records, rho: float, b: float) -> dict:
    """Mean action per expertise level over teams where it is the junior member."""
    samples: dict = {}
    for (p1, p2), recs in _by_team(records, rho, b)[1].items():
        a1 = float(np.mean([rec.learned_actions[0] for rec in recs]))
        a2 = float(np.mean([rec.learned_actions[1] for rec in recs]))
        samples.setdefault(p1, []).append(0.5 * (a1 + a2) if p1 == p2 else a1)
    return {p: float(np.mean(vals)) for p, vals in samples.items()}


def increment_table(records, rho: float | None = None) -> list[IncrementTable]:
    """Dedication increases from soft to medium and medium to hard thresholds."""
    _check_slice(records, **({} if rho is None else {"rho": rho}))  # None: every rho
    rhos = sorted({r.rho for r in records}) if rho is None else [rho]
    tables = []
    for r in rhos:
        bs = sorted({rec.b for rec in records if rec.rho == r})
        if len(bs) != 3:
            raise ConfigurationError(
                f"increment table needs exactly three thresholds for rho={r:g}, got {bs}")
        means = [_mean_dedication(records, r, b) for b in bs]
        increments = {p: tuple((hi[p] - lo[p]) / lo[p] * 100.0 if lo[p] > 0 else None
                               for lo, hi in zip(means, means[1:]))
                      for p in sorted(set(means[0]) & set(means[1]) & set(means[2]))}
        tables.append(IncrementTable(rho=r, b_values=(bs[0], bs[1], bs[2]),
                                     increments=increments))
    return tables


@dataclass(frozen=True)
class HeavisideTeamResult:
    team: tuple[float, float]
    outcomes: tuple[float, ...]
    mean_G: float
    dispersion_pct: float | None
    weaker_actions: tuple[float, ...] | None  # per repetition; None for homogeneous teams
    strategy_pairs: tuple[tuple[int, int], ...]


def heaviside_study(teams=None, *, b: float = 5.0, d: float = 10.0,
                    repetitions: int = 3, episodes: int = TrainConfig.episodes,
                    tau: float = 0.3, k: float = TrainConfig.k, delta_t: float = 10.0,
                    alpha: float = 2.0, base_seed: int = 0) -> list[HeavisideTeamResult]:
    """Repeated learning of additive pass/fail games.

    Each team is trained ``repetitions`` times with distinct derived seeds;
    reports the mean outcome, its percentage dispersion, and the weaker
    agent's greedy actions.  The default temperature is higher than in the
    smooth games: the step reward gives no gradient, and the wider early
    search makes the run-to-run outcome spread collapse (the dispersion
    numbers this study is about).
    """
    _check_all(_STUDY_FIELDS, locals())
    if teams is None:
        teams = list(itertools.combinations_with_replacement((0.3, 0.5, 0.7, 0.9), 2))
    evaluation = EvaluationSpec("heaviside", d=d, b=b)
    try:
        teams = [tuple(sorted(_read("teams", (p1, p2), _FIELDS["expertise"]))) for p1, p2 in teams]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"teams must be a list of expertise pairs, got {teams!r}") from None
    jobs = [(GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=delta_t,
                      expertise=team, alpha=alpha, evaluation=evaluation),
             TrainConfig(episodes=episodes, tau=tau, k=k,
                         seed=spawned_seed(base_seed, 10_000 + t_idx, rep),
                         anneal_floor=min(TrainConfig.anneal_floor, tau)))
            for t_idx, team in enumerate(teams) for rep in range(repetitions)]
    learned = iter(train_many(jobs))
    results = []
    for p1, p2 in teams:
        runs = [next(learned) for _ in range(repetitions)]
        outcomes = [out.learned_G for out in runs]
        pairs = {_pct_pair(out.greedy_actions) for out in runs}
        try:
            disp = dispersion(outcomes)
        except UndefinedDispersionError:
            disp = None
        results.append(HeavisideTeamResult(
            team=(p1, p2),
            outcomes=tuple(float(g) for g in outcomes),
            mean_G=float(np.mean(outcomes)),
            dispersion_pct=disp,
            weaker_actions=(tuple(float(out.greedy_actions[0]) for out in runs)
                            if p1 != p2 else None),
            strategy_pairs=tuple(sorted(pairs)),
        ))
    return results


# The study's and the tuner's keywords, which the CLI reads their JSON inputs by
_STUDY_FIELDS = {key: _FIELDS[key] for key in inspect.signature(heaviside_study).parameters}
_TUNE_FIELDS = {key: _FIELDS[key] for key in ("budget", "episodes", "base_seed")}


@dataclass(frozen=True)
class TuneResult:
    best_k: float
    best_tau: float
    best_score: float | None
    trials: tuple[dict, ...]


_DEFAULT_PROBE = (
    (0.3, 0.9, 1.0, 5.0),
    (0.9, 0.9, -10.0, 5.0),
    (0.5, 0.5, 10.0, 7.0),
)

# Ranges that tune_hyperparameters draws k and tau from, log-uniformly
_K_RANGE = (10.0, 1e5)
_TAU_RANGE = (0.01, 1.0)


def tune_hyperparameters(budget: int, *, probe_cells=_DEFAULT_PROBE,
                         episodes: int = TrainConfig.episodes,
                         base_seed: int = 0) -> TuneResult:
    """Random search over (k, tau), scored by mean |G_tilde - G_hat| on probes.

    k and tau are drawn log-uniformly from ``_K_RANGE`` and ``_TAU_RANGE``.
    budget = 0 returns ``TrainConfig``'s defaults untouched.
    """
    _check_all(_TUNE_FIELDS, locals())
    try:
        cells = [_read("probe_cells", (p1, p2, rho, b), Field(tuple))
                 for p1, p2, rho, b in probe_cells]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"probe_cells must be a list of (p1, p2, rho, b) cells, got {probe_cells!r}") from None
    if not cells:  # a score is the mean error over the cells
        raise ConfigurationError("probe_cells must hold at least one (p1, p2, rho, b) cell")
    if budget == 0:
        return TuneResult(best_k=TrainConfig.k, best_tau=TrainConfig.tau,
                          best_score=None, trials=())
    config = SweepConfig()
    probes = []
    for cell in cells:
        game = cell_game(config, *cell)
        try:
            eqs = solve_cell(game)
        except NoEquilibriumError:
            eqs = []
        if not eqs:  # a trial's score is each cell's distance to its nearest equilibrium
            raise ConfigurationError(
                f"probe cell {cell!r} has no equilibrium to score the learners against")
        probes.append((game, tuple(e.aggregate_G for e in eqs)))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(base_seed))))
    log_k = np.log10(_K_RANGE)
    log_tau = np.log10(_TAU_RANGE)
    trials = []
    best = (TrainConfig.k, TrainConfig.tau, math.inf)
    for trial in range(budget):
        k = float(10.0 ** rng.uniform(log_k[0], log_k[1]))
        tau = float(10.0 ** rng.uniform(log_tau[0], log_tau[1]))
        # the trial's probe cells learn together; each keeps the default
        # schedule's decay ratio at the sampled tau
        runs = train_many([
            (game, TrainConfig(episodes=episodes, tau=tau, k=k,
                               seed=spawned_seed(base_seed, 20_000 + trial, cell_idx),
                               anneal_floor=tau * 0.2))
            for cell_idx, (game, _) in enumerate(probes)])
        errs = [min(abs(out.learned_G - g) for g in g_hats)
                for out, (_, g_hats) in zip(runs, probes)]
        score = float(np.mean(errs))
        trials.append({"k": k, "tau": tau, "score": score})
        if score < best[2]:
            best = (k, tau, score)
    return TuneResult(best_k=best[0], best_tau=best[1],
                      best_score=(None if math.isinf(best[2]) else best[2]),
                      trials=tuple(trials))
