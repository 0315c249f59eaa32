"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Every workload is a closed loop with one client: each call into teamgames
is issued after the previous one returns.  A pass runs the whole workload
once, checks every output, and hashes the outputs into a digest.  Checks
recompute the team outcome and score of every reported profile with the
benchmark's own CES and evaluation code, so a wrong aggregate cannot pass
by agreeing with itself.

* ``sweep90``: one ``run_sweep`` over the 90-cell acceptance grid, then the
  2%-epsilon-Nash oracle on each learned profile.  Solver and learner both
  do real work; learning runs on the reward-table path (n = 2).
* ``solve240``: ``solve_cell`` plus the criterion-7a oracle on each of the
  240 cells of the default sweep grid.  Theory only, no learner.
* ``team4``: ``train`` on a four-player team, for four games and a few
  seeds each, then the 2% oracle.  Learner only, and no reward table, so
  every episode runs the full evaluation pipeline.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import teamgames as tg
from teamgames import experiments, simulator

# Episodes per sweep cell: enough that learning takes the larger share of
# the sweep's time (solving the 90 cells is fixed work).
SWEEP_EPISODES = 5_000
ACCEPTANCE_RHOS = (-10.0, 1.0, 10.0)
B_VALUES = (3.0, 5.0, 7.0)
EXPERTISE = (0.3, 0.5, 0.7, 0.9)
TEAM4_EPISODES = 2_000
TEAM4_SEEDS = 16
LEARNED_EPS = 0.02        # 2%-epsilon-Nash oracle on learned profiles
SOLVER_EPS = 1e-3         # criterion 7a: solver equilibria
REL_TOL = 1e-9


@dataclass
class PassResult:
    """Outputs of one pass, reduced to what the benchmark reports."""

    wall_s: float
    wall_cal: float = 0.0  # wall_s in machine-speed kernel durations; set by the runner
    cpu_s: float = 0.0     # CPU time of the workload thread; set by the runner
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    nash_checked: int = 0
    nash_missed: int = 0
    theory_gap: float | None = None
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def ces(gifts, rho: float, betas) -> float:
    """CES outcome in the log domain, with the zero-gift conventions."""
    g = np.asarray(gifts, dtype=float)
    b = np.asarray(betas, dtype=float)
    pos = g > 0
    if not pos.any() or (rho < 0 and not pos.all()):
        return 0.0
    t = np.log(b[pos]) + rho * np.log(g[pos])
    m = t.max()
    return float(np.exp((m + np.log(np.exp(t - m).sum())) / rho))


def score(evaluation, G: float) -> float:
    """sigma(G) for the logistic and heaviside evaluations the workloads use."""
    if evaluation.kind == "heaviside":
        return evaluation.d if G >= evaluation.b else 0.0
    z = evaluation.gamma * (G - evaluation.b)
    return evaluation.d / (1.0 + math.exp(-z)) if z >= 0 else (
        evaluation.d * math.exp(z) / (1.0 + math.exp(z)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-12


def _check_profile(game, actions, G, what: str, problems: list[str], on_grid: bool) -> None:
    """Actions in [0, 1] (on the 1% arm grid if learned) and G = CES(gifts)."""
    a = np.asarray(actions, dtype=float)
    if a.shape != (game.n,) or np.any(a < 0) or np.any(a > 1):
        problems.append(f"{what}: actions {actions!r} outside [0, 1]^{game.n}")
        return
    if on_grid and np.any(np.abs(a * 100 - np.round(a * 100)) > 1e-9):
        problems.append(f"{what}: learned actions {actions!r} are not arms")
    expected = ces(a * game.full_time_gifts(), game.rho, game.betas)
    if not _close(G, expected):
        problems.append(f"{what}: G = {G!r} but CES of its actions is {expected!r}")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _nash_miss(game, actions, eps_share: float, **grid) -> bool:
    eps = eps_share * tg.max_achievable_utility(game)
    return not tg.verify_epsilon_nash(actions, game, eps, **grid).is_nash


class Sweep90:
    name = "sweep90"

    def __init__(self, seed: int, *, episodes: int = SWEEP_EPISODES,
                 rho_values=ACCEPTANCE_RHOS, b_values=B_VALUES, expertise=EXPERTISE):
        self.config = experiments.SweepConfig(
            expertise_values=tuple(expertise), rho_values=tuple(rho_values),
            b_values=tuple(b_values), repetitions=1, episodes=episodes,
            evaluation_kind="logistic", base_seed=seed, workers=1)
        pairs = list(itertools.combinations_with_replacement(sorted(expertise), 2))
        self.cells = [(rho, b, p1, p2) for rho in rho_values for b in b_values
                      for p1, p2 in pairs]
        self.games = [experiments.cell_game(self.config, p1, p2, rho, b)
                      for rho, b, p1, p2 in self.cells]
        self.episodes_per_pass = episodes * len(self.cells)

    def run_pass(self) -> PassResult:
        res = PassResult(wall_s=0.0, attempted=len(self.cells))
        t0 = perf_counter()
        lines, gaps = [], []
        try:
            records = experiments.run_sweep(self.config)
        except Exception as exc:  # every cell of the one call fails
            res.failures[type(exc).__name__] += len(self.cells)
            records = []
        else:
            if [(r.rho, r.b, r.p1, r.p2) for r in records] != self.cells:
                res.problems.append("run_sweep returned records for other cells")
                records = []
        for rec, game in zip(records, self.games):
            what = f"cell {rec.index}"
            if rec.skip_reason is not None:
                res.failures[rec.skip_reason.split(":", 1)[0]] += 1
            for G_hat, eq in zip(rec.G_hat_set, rec.equilibrium_actions):
                _check_profile(game, eq, G_hat, what, res.problems, on_grid=False)
            _check_profile(game, rec.learned_actions, rec.G_tilde, what, res.problems,
                           on_grid=True)
            if rec.G_hat_set:
                gaps.append(min(abs(rec.G_tilde - g) for g in rec.G_hat_set))
            res.nash_checked += 1
            res.nash_missed += _nash_miss(game, rec.learned_actions, LEARNED_EPS)
            lines.append(f"{rec.index} {rec.G_hat_set!r} {rec.equilibrium_actions!r} "
                         f"{rec.learned_actions!r} {rec.G_tilde!r}")
        res.wall_s = perf_counter() - t0
        res.theory_gap = float(np.mean(gaps)) if gaps else None
        res.digest = _digest(lines)
        return res


class Solve240:
    name = "solve240"

    def __init__(self, seed: int, *, rho_values=None, b_values=None, expertise=None):
        defaults = experiments.SweepConfig()
        self.config = experiments.SweepConfig(
            rho_values=tuple(rho_values or defaults.rho_values),
            b_values=tuple(b_values or defaults.b_values),
            expertise_values=tuple(expertise or defaults.expertise_values))
        pairs = list(itertools.combinations_with_replacement(
            sorted(self.config.expertise_values), 2))
        cells = [(rho, b, p1, p2) for rho in self.config.rho_values
                 for b in self.config.b_values for p1, p2 in pairs]
        self.games = [experiments.cell_game(self.config, p1, p2, rho, b)
                      for rho, b, p1, p2 in cells]
        # The seed only permutes the order in which cells are issued.
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(len(cells))]
        self.episodes_per_pass = 0

    def run_pass(self) -> PassResult:
        res = PassResult(wall_s=0.0, attempted=len(self.games))
        lines = [""] * len(self.games)
        t0 = perf_counter()
        for i in self.order:
            game = self.games[i]
            t_op = perf_counter()
            try:
                equilibria = experiments.solve_cell(game)
                missed = [_nash_miss(game, e.actions, SOLVER_EPS, grid_step=0.01,
                                     refine_step=1e-4) for e in equilibria]
            except Exception as exc:  # every raise is a failed unit, by type
                res.op_ms.append((perf_counter() - t_op) * 1e3)
                res.failures[type(exc).__name__] += 1
                lines[i] = f"{i} raised {type(exc).__name__}"
                continue
            res.op_ms.append((perf_counter() - t_op) * 1e3)
            for e in equilibria:
                _check_profile(game, e.actions, e.aggregate_G, f"cell {i}", res.problems,
                               on_grid=False)
            res.nash_checked += len(missed)
            res.nash_missed += sum(missed)
            lines[i] = (f"{i} {tuple(e.aggregate_G for e in equilibria)!r} "
                        f"{tuple(e.actions for e in equilibria)!r}")
        res.wall_s = perf_counter() - t0
        if res.nash_missed:
            res.problems.append(f"{res.nash_missed} solver equilibria fail the oracle")
        res.digest = _digest(lines)
        return res


def team4_games() -> list[tg.GameSpec]:
    def game(rho, kind="logistic"):
        evaluation = tg.EvaluationSpec(kind, d=10.0, gamma=2.0, b=5.0)
        return tg.GameSpec(n=4, rho=rho, betas=(1.0,) * 4, delta_t=10.0,
                           expertise=(0.3, 0.5, 0.7, 0.9), alpha=2.0, evaluation=evaluation)
    return [game(1.0), game(-10.0), game(10.0), game(1.0, "heaviside")]


class Team4:
    name = "team4"

    def __init__(self, seed: int, *, episodes: int = TEAM4_EPISODES, seeds: int = TEAM4_SEEDS):
        self.runs = [(game, tg.TrainConfig(episodes=episodes,
                                           seed=simulator.spawned_seed(seed, g, r)))
                     for g, game in enumerate(team4_games()) for r in range(seeds)]
        self.episodes_per_pass = episodes * len(self.runs)

    def run_pass(self) -> PassResult:
        res = PassResult(wall_s=0.0, attempted=len(self.runs))
        lines = []
        t0 = perf_counter()
        for i, (game, config) in enumerate(self.runs):
            t_op = perf_counter()
            try:
                out = tg.train(game, config)
            except Exception as exc:  # every raise is a failed unit, by type
                res.op_ms.append((perf_counter() - t_op) * 1e3)
                res.failures[type(exc).__name__] += 1
                lines.append(f"{i} raised {type(exc).__name__}")
                continue
            res.op_ms.append((perf_counter() - t_op) * 1e3)
            what = f"run {i}"
            _check_profile(game, out.greedy_actions, out.learned_G, what, res.problems,
                           on_grid=True)
            if not _close(out.learned_score, score(game.evaluation, out.learned_G)):
                res.problems.append(f"{what}: score {out.learned_score!r} is not sigma(G)")
            res.nash_checked += 1
            res.nash_missed += _nash_miss(game, out.greedy_actions, LEARNED_EPS)
            lines.append(f"{i} {out.greedy_actions!r} {out.learned_G!r}")
        res.wall_s = perf_counter() - t0
        res.digest = _digest(lines)
        return res


WORKLOADS = {w.name: w for w in (Sweep90, Solve240, Team4)}
