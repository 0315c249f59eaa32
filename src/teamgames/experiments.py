"""Sweep orchestration: theory-vs-learning grids, tables, and studies.

A sweep cell is one (team, task type, threshold) combination: the cell's
game is solved for its equilibria and independently learned by the bandit
system, and both sides are recorded.  Sweeps, the pass/fail study and the
tuner hand all their training runs to ``simulator.train_many``, which
learns them in lockstep.  Runs are seeded from a base seed and their index,
so reruns, parallel runs and any batching produce identical records.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .equilibrium import (
    enumerate_disjunctive_equilibria,
    solve_equilibrium_concave,
)
from .errors import (
    ConfigurationError,
    DegenerateRegressionError,
    TeamworkGameError,
    UndefinedDispersionError,
    _cast,
)
from .evaluation import EvaluationSpec
from .games import GameSpec
from .simulator import TrainConfig, dispersion, spawned_seed, train_many
from .simulator import train  # noqa: F401  (bound here for perfbench's tracer tests)


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition plus shared game and learner parameters."""

    expertise_values: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)
    rho_values: tuple[float, ...] = (-100.0, -10.0, -3.0, 0.5, 1.0, 3.0, 10.0, 100.0)
    b_values: tuple[float, ...] = (3.0, 5.0, 7.0)
    repetitions: int = 1
    episodes: int = 50_000
    tau: float = 0.1
    k: float = 40.0
    evaluation_kind: str = "logistic"
    d: float = 10.0
    gamma: float = 2.0
    delta_t: float = 10.0
    alpha: float = 2.0
    base_seed: int = 0
    num_arms: int = 101
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Config from a JSON object; each value is cast to its field's type."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"sweep config must be an object, got {type(data).__name__}")
        defaults = {field.name: field.default for field in fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ConfigurationError(f"unknown sweep config key(s): {sorted(unknown)}")
        return cls(**{key: _cast(key, value, defaults[key]) for key, value in data.items()})


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


def run_sweep(config: SweepConfig) -> list[ExperimentRecord]:
    """Run every cell of the sweep; cells with solver failures carry a skip
    reason instead of silently disappearing.

    Every cell is solved first; then all cells and repetitions learn
    through one ``train_many`` call, which advances them in lockstep.  With
    ``workers > 1`` a process pool shares out the cells to solve and
    contiguous shards of the training jobs; the records do not depend on
    the worker count.
    """
    specs = _cell_specs(config)
    games = [cell_game(config, p1, p2, rho, b) for _, p1, p2, rho, b in specs]
    jobs = [(game, TrainConfig(episodes=config.episodes, tau=config.tau, k=config.k,
                               seed=spawned_seed(config.base_seed, index, rep),
                               num_arms=config.num_arms))
            for (index, *_), game in zip(specs, games) for rep in range(config.repetitions)]
    if config.workers > 1 and len(jobs) > 1:
        size = -(-len(jobs) // config.workers)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            solved = list(pool.map(_solve_record, games))
            outcomes = [out for shard in pool.map(
                train_many, [jobs[i:i + size] for i in range(0, len(jobs), size)])
                for out in shard]
    else:
        solved = [_solve_record(game) for game in games]
        outcomes = train_many(jobs)
    records = []
    learned = iter(outcomes)
    for (index, p1, p2, rho, b), (g_hats, eq_actions, skip_reason) in zip(specs, solved):
        for rep in range(config.repetitions):
            outcome = next(learned)
            records.append(ExperimentRecord(
                index=index, p1=p1, p2=p2, rho=rho, b=b, repetition=rep,
                seed=outcome.seed, episodes=config.episodes,
                G_hat_set=g_hats, equilibrium_actions=eq_actions,
                G_tilde=outcome.learned_G, learned_actions=outcome.greedy_actions,
                skip_reason=skip_reason))
    return records


def nearest_equilibrium(record: ExperimentRecord) -> float | None:
    """Theoretical aggregate closest to the learned one (multi-equilibrium cells)."""
    if not record.G_hat_set or record.G_tilde is None:
        return None
    return min(record.G_hat_set, key=lambda g: abs(g - record.G_tilde))


def fit_regression(pairs) -> RegressionReport:
    """Ordinary least squares of learned values on theoretical ones."""
    pts = [(float(x), float(y)) for x, y in pairs]
    if len(pts) < 2:
        raise DegenerateRegressionError(f"need at least 2 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.allclose(x, x[0]):
        raise DegenerateRegressionError("all theoretical values are equal; slope undefined")
    xbar, ybar = x.mean(), y.mean()
    slope = float(((x - xbar) * (y - ybar)).sum() / ((x - xbar) ** 2).sum())
    intercept = float(ybar - slope * xbar)
    fitted = slope * x + intercept
    residuals = y - fitted
    ss_res = float((residuals ** 2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return RegressionReport(
        slope=slope, intercept=intercept, r_squared=float(r_squared),
        n_points=len(pts), residuals=tuple(float(r) for r in residuals))


def regression_from_records(records) -> RegressionReport:
    pairs = []
    for rec in records:
        g_hat = nearest_equilibrium(rec)
        if g_hat is not None:
            pairs.append((g_hat, rec.G_tilde))
    return fit_regression(pairs)


@dataclass(frozen=True)
class HeatmapTable:
    """Learned team outcome per expertise pair for one (rho, b) slice."""

    rho: float
    b: float
    levels: tuple[float, ...]
    values: dict  # (p1, p2) -> float | None
    passed: dict  # (p1, p2) -> bool | None

    def cell(self, p1: float, p2: float):
        return self.values.get((min(p1, p2), max(p1, p2)))

    def to_rows(self) -> list[list]:
        rows = [["p2\\p1"] + [f"{p:g}" for p in self.levels]]
        for p2 in self.levels:
            row = [f"{p2:g}"]
            for p1 in self.levels:
                if p1 < p2:
                    row.append("")
                    continue
                value = self.values.get((p2, p1))
                row.append("" if value is None else repr(value))
            rows.append(row)
        return rows


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
        rows = [["p2\\p1"] + [f"{p:g}" for p in self.levels]]
        for p2 in self.levels:
            row = [f"{p2:g}"]
            for p1 in self.levels:
                if p1 < p2:
                    row.append("")
                    continue
                pairs = self.cells.get((p2, p1))
                if pairs is None:
                    row.append("")
                else:
                    row.append(" | ".join(f"({a}%, {b}%)" for a, b in pairs))
            rows.append(row)
        return rows


def _slice_records(records, rho: float, b: float):
    return [r for r in records if r.rho == rho and r.b == b and r.G_tilde is not None]


def heatmap_table(records, rho: float, b: float) -> HeatmapTable:
    """Mean learned outcome per team on the requested slice.

    Cells absent from the records stay None (explicit gaps, never zeros).
    """
    slice_recs = _slice_records(records, rho, b)
    levels = tuple(sorted({p for r in slice_recs for p in (r.p1, r.p2)}))
    values: dict = {}
    passed: dict = {}
    grouped: dict = {}
    for rec in slice_recs:
        grouped.setdefault((rec.p1, rec.p2), []).append(rec.G_tilde)
    for key, vals in grouped.items():
        mean = float(np.mean(vals))
        values[key] = mean
        passed[key] = bool(mean >= b)
    return HeatmapTable(rho=rho, b=b, levels=levels, values=values, passed=passed)


def strategy_table(records, rho: float, b: float) -> StrategyTable:
    """Learned greedy action pairs (rounded to whole percent) per team."""
    slice_recs = _slice_records(records, rho, b)
    levels = tuple(sorted({p for r in slice_recs for p in (r.p1, r.p2)}))
    cells: dict = {}
    grouped: dict = {}
    for rec in slice_recs:
        if rec.learned_actions is None:
            continue
        pair = (int(round(rec.learned_actions[0] * 100)),
                int(round(rec.learned_actions[1] * 100)))
        grouped.setdefault((rec.p1, rec.p2), set()).add(pair)
    for key, pairs in grouped.items():
        cells[key] = tuple(sorted(pairs))
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
            a, b = self.increments[p]
            rows.append([f"{p:g}",
                         "" if a is None else repr(a),
                         "" if b is None else repr(b)])
        return rows


def _mean_dedication(records, rho: float, b: float) -> dict:
    """Mean action per expertise level over teams where it is the junior member."""
    slice_recs = _slice_records(records, rho, b)
    by_team: dict = {}
    for rec in slice_recs:
        if rec.learned_actions is None:
            continue
        by_team.setdefault((rec.p1, rec.p2), []).append(rec.learned_actions)
    samples: dict = {}
    for (p1, p2), action_lists in by_team.items():
        a1 = float(np.mean([a[0] for a in action_lists]))
        a2 = float(np.mean([a[1] for a in action_lists]))
        value = 0.5 * (a1 + a2) if p1 == p2 else a1
        samples.setdefault(p1, []).append(value)
    return {p: float(np.mean(vals)) for p, vals in samples.items()}


def increment_table(records, rho: float | None = None) -> list[IncrementTable]:
    """Dedication increases from soft to medium and medium to hard thresholds."""
    rhos = sorted({r.rho for r in records}) if rho is None else [rho]
    tables = []
    for r in rhos:
        bs = sorted({rec.b for rec in records if rec.rho == r})
        if len(bs) != 3:
            raise ConfigurationError(
                f"increment table needs exactly three thresholds for rho={r:g}, got {bs}")
        means = [_mean_dedication(records, r, b) for b in bs]
        increments = {}
        for p in sorted(set(means[0]) & set(means[1]) & set(means[2])):
            first = None
            second = None
            if means[0][p] > 0:
                first = (means[1][p] - means[0][p]) / means[0][p] * 100.0
            if means[1][p] > 0:
                second = (means[2][p] - means[1][p]) / means[1][p] * 100.0
            increments[p] = (first, second)
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
                    repetitions: int = 3, episodes: int = 50_000,
                    tau: float = 0.3, k: float = 40.0, delta_t: float = 10.0,
                    alpha: float = 2.0, base_seed: int = 0) -> list[HeavisideTeamResult]:
    """Repeated learning of additive pass/fail games.

    Each team is trained ``repetitions`` times with distinct derived seeds;
    reports the mean outcome, its percentage dispersion, and the weaker
    agent's greedy actions.  The default temperature is higher than in the
    smooth games: the step reward gives no gradient, and the wider early
    search makes the run-to-run outcome spread collapse (the dispersion
    numbers this study is about).
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    if teams is None:
        levels = (0.3, 0.5, 0.7, 0.9)
        teams = list(itertools.combinations_with_replacement(levels, 2))
    evaluation = EvaluationSpec("heaviside", d=d, b=b)
    try:
        teams = [tuple(sorted((float(p1), float(p2)))) for p1, p2 in teams]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"teams must be a list of expertise pairs, got {teams!r}") from None
    jobs = [(GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=delta_t,
                      expertise=team, alpha=alpha, evaluation=evaluation),
             TrainConfig(episodes=episodes, tau=tau, k=k,
                         seed=spawned_seed(base_seed, 10_000 + t_idx, rep)))
            for t_idx, team in enumerate(teams) for rep in range(repetitions)]
    learned = iter(train_many(jobs))
    results = []
    for p1, p2 in teams:
        runs = [next(learned) for _ in range(repetitions)]
        outcomes = [out.learned_G for out in runs]
        pairs = {(int(round(out.greedy_actions[0] * 100)),
                  int(round(out.greedy_actions[1] * 100))) for out in runs}
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
                         episodes: int = 50_000, base_seed: int = 0) -> TuneResult:
    """Random search over (k, tau), scored by mean |G_tilde - G_hat| on probes.

    k and tau are drawn log-uniformly from ``_K_RANGE`` and ``_TAU_RANGE``.
    budget = 0 returns ``TrainConfig``'s defaults untouched.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        return TuneResult(best_k=TrainConfig.k, best_tau=TrainConfig.tau,
                          best_score=None, trials=())
    config = SweepConfig()
    probes = []
    for p1, p2, rho, b in probe_cells:
        game = cell_game(config, p1, p2, rho, b)
        eqs = solve_cell(game)
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
