import numpy as np
import pytest

from teamgames import simulator
from teamgames.errors import ConfigurationError, DegenerateRegressionError
from teamgames.experiments import (
    ExperimentRecord,
    SweepConfig,
    cell_game,
    fit_regression,
    heatmap_table,
    heaviside_study,
    increment_table,
    nearest_equilibrium,
    regression_from_records,
    run_sweep,
    strategy_table,
    tune_hyperparameters,
)
from teamgames.evaluation import EvaluationSpec
from teamgames.games import GameSpec
from teamgames.simulator import TrainConfig, spawned_seed, train


def tiny_sweep(**overrides):
    base = dict(expertise_values=(0.3, 0.8), rho_values=(1.0,), b_values=(5.0,),
                episodes=200, workers=1, base_seed=0)
    base.update(overrides)
    return SweepConfig(**base)


def record(p1=0.3, p2=0.5, rho=1.0, b=3.0, actions=(0.2, 0.5), g_hats=(3.0,),
           g_tilde=3.1, index=0, rep=0):
    return ExperimentRecord(
        index=index, p1=p1, p2=p2, rho=rho, b=b, repetition=rep, seed=0,
        episodes=100, G_hat_set=tuple(g_hats),
        equilibrium_actions=((0.0, 0.0),) * len(g_hats),
        G_tilde=g_tilde, learned_actions=tuple(actions))


class TestSweepConfig:
    def test_defaults_match_experiment_grid(self):
        cfg = SweepConfig()
        assert cfg.rho_values == (-100.0, -10.0, -3.0, 0.5, 1.0, 3.0, 10.0, 100.0)
        assert cfg.b_values == (3.0, 5.0, 7.0)
        assert cfg.expertise_values == (0.3, 0.5, 0.7, 0.9)
        assert cfg.episodes == 50_000

    def test_round_trip(self):
        cfg = tiny_sweep()
        assert SweepConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            SweepConfig.from_dict({"horizon": 3})

    def test_cell_game_identity_option(self):
        game = cell_game(tiny_sweep(evaluation_kind="identity"), 0.3, 0.8, 1.0, 5.0)
        assert game.evaluation.kind == "identity"


class TestRunSweep:
    def test_cell_count_and_order(self):
        cfg = tiny_sweep(expertise_values=(0.3, 0.5, 0.7, 0.9),
                         rho_values=(-10.0, 1.0, 10.0), b_values=(3.0, 5.0, 7.0))
        records = run_sweep(cfg)
        assert len(records) == 10 * 3 * 3
        assert [r.index for r in records] == list(range(90))

    def test_single_cell_smoke(self):
        records = run_sweep(tiny_sweep(expertise_values=(1.0,), episodes=150))
        assert len(records) == 1
        rec = records[0]
        assert rec.G_hat_set and rec.G_tilde is not None
        assert rec.skip_reason is None

    def test_empty_rho_values(self):
        assert run_sweep(tiny_sweep(rho_values=())) == []

    def test_worker_count_does_not_change_results(self):
        cfg1 = tiny_sweep(expertise_values=(0.3, 0.8), rho_values=(1.0, 10.0),
                          episodes=120, workers=1)
        cfg2 = SweepConfig.from_dict({**cfg1.to_dict(), "workers": 2})
        assert run_sweep(cfg1) == run_sweep(cfg2)

    @pytest.mark.parametrize("workers,runs_per_chunk", [(1, None), (1, 1), (1, 5), (2, 1)])
    def test_sweep_learns_as_serial_train(self, monkeypatch, workers, runs_per_chunk):
        cfg = tiny_sweep(rho_values=(1.0, 10.0), repetitions=2, episodes=150,
                         workers=workers)
        if runs_per_chunk is not None:
            monkeypatch.setattr(simulator, "_CHUNK_BYTES",
                                runs_per_chunk * simulator._run_bytes(2, cfg.num_arms))
        records = run_sweep(cfg)
        assert len(records) == 12
        for rec in records:
            out = train(cell_game(cfg, rec.p1, rec.p2, rec.rho, rec.b), TrainConfig(
                episodes=cfg.episodes, seed=spawned_seed(cfg.base_seed, rec.index,
                                                         rec.repetition)))
            assert (rec.learned_actions, rec.G_tilde, rec.seed) == (
                out.greedy_actions, out.learned_G, out.seed)

    def test_repetitions_use_distinct_seeds(self):
        records = run_sweep(tiny_sweep(repetitions=2, episodes=300))
        by_rep = {}
        for rec in records:
            by_rep.setdefault(rec.index, []).append(rec)
        for recs in by_rep.values():
            assert recs[0].seed != recs[1].seed

    def test_unsupported_regime_recorded_not_dropped(self):
        # rho = 2 with a strong player violates the single-valuedness bound,
        # so the solver refuses; the cell must still appear with a reason
        cfg = tiny_sweep(expertise_values=(0.9,), rho_values=(2.0,),
                         b_values=(7.0,), episodes=120)
        records = run_sweep(cfg)
        assert len(records) == 1
        assert records[0].skip_reason is not None
        assert records[0].G_hat_set == ()
        assert records[0].G_tilde is not None


class TestRegression:
    def test_exact_line(self):
        pairs = [(x, x) for x in np.linspace(1, 10, 10)]
        report = fit_regression(pairs)
        assert report.slope == pytest.approx(1.0)
        assert report.intercept == pytest.approx(0.0, abs=1e-12)
        assert report.r_squared == pytest.approx(1.0)
        assert report.n_points == 10

    def test_outlier_lowers_r_squared(self):
        pairs = [(x, x) for x in np.linspace(1, 10, 10)] + [(0.0, 10.0)]
        assert fit_regression(pairs).r_squared < 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRegressionError):
            fit_regression([(1.0, 2.0)])
        with pytest.raises(DegenerateRegressionError):
            fit_regression([(2.0, 1.0), (2.0, 3.0)])

    def test_nearest_equilibrium(self):
        rec = record(g_hats=(2.0, 6.0), g_tilde=5.1)
        assert nearest_equilibrium(rec) == 6.0
        assert nearest_equilibrium(record(g_hats=(), g_tilde=1.0)) is None

    def test_regression_from_records_skips_unsolved(self):
        records = [record(g_hats=(x,), g_tilde=x, index=i)
                   for i, x in enumerate((1.0, 2.0, 3.0))]
        records.append(record(g_hats=(), g_tilde=9.0, index=3))
        report = regression_from_records(records)
        assert report.n_points == 3
        assert report.slope == pytest.approx(1.0)


class TestTables:
    def test_heatmap_values_and_gaps(self):
        records = [record(p1=0.3, p2=0.5, rho=1.0, b=3.0, g_tilde=2.0),
                   record(p1=0.3, p2=0.5, rho=1.0, b=3.0, g_tilde=4.0, rep=1),
                   record(p1=0.5, p2=0.5, rho=1.0, b=3.0, g_tilde=3.5, index=1)]
        table = heatmap_table(records, 1.0, 3.0)
        assert table.cell(0.3, 0.5) == pytest.approx(3.0)  # mean over repetitions
        assert table.cell(0.5, 0.5) == pytest.approx(3.5)
        assert table.cell(0.3, 0.3) is None  # explicit gap, never zero
        assert table.passed[(0.3, 0.5)] is True
        assert table.passed[(0.5, 0.5)] is True
        rows = table.to_rows()
        assert rows[0] == ["p2\\p1", "0.3", "0.5"]

    def test_strategy_table_collects_equilibria(self):
        records = [record(actions=(0.67, 0.0)),
                   record(actions=(0.0, 0.67), rep=1),
                   record(actions=(0.67, 0.0), rep=2)]
        table = strategy_table(records, 1.0, 3.0)
        assert table.cell(0.3, 0.5) == ((0, 67), (67, 0))

    def test_increment_table_reproduces_learned_additive_summary(self):
        # reconstruct the dedication-increase summary from the published
        # learned strategy grids; the mean for a level runs over the teams
        # where that level is the weaker-or-equal member
        soft = {(0.3, 0.3): (46, 46), (0.3, 0.5): (20, 52), (0.3, 0.7): (0, 50),
                (0.3, 0.9): (0, 41), (0.5, 0.5): (34, 34), (0.5, 0.7): (16, 40),
                (0.5, 0.9): (0, 41), (0.7, 0.7): (27, 27), (0.7, 0.9): (23, 22),
                (0.9, 0.9): (22, 22)}
        medium = {(0.3, 0.3): (64, 64), (0.3, 0.5): (46, 68), (0.3, 0.7): (20, 66),
                  (0.3, 0.9): (0, 61), (0.5, 0.5): (52, 52), (0.5, 0.7): (34, 53),
                  (0.5, 0.9): (16, 53), (0.7, 0.7): (40, 40), (0.7, 0.9): (27, 43),
                  (0.9, 0.9): (32, 32)}
        hard = {(0.3, 0.3): (67, 67), (0.3, 0.5): (64, 78), (0.3, 0.7): (46, 77),
                (0.3, 0.9): (20, 73), (0.5, 0.5): (68, 68), (0.5, 0.7): (52, 66),
                (0.5, 0.9): (34, 63), (0.7, 0.7): (53, 53), (0.7, 0.9): (40, 53),
                (0.9, 0.9): (43, 43)}
        records = []
        idx = 0
        for b, grid in ((3.0, soft), (5.0, medium), (7.0, hard)):
            for (p1, p2), (a1, a2) in grid.items():
                records.append(record(p1=p1, p2=p2, rho=1.0, b=b,
                                      actions=(a1 / 100, a2 / 100), index=idx))
                idx += 1
        tables = increment_table(records)
        assert len(tables) == 1
        inc = tables[0].increments
        assert inc[0.3][0] == pytest.approx(96.97, abs=0.01)
        assert inc[0.5][0] == pytest.approx(104.0, abs=0.5)
        assert inc[0.9][0] == pytest.approx(45.45, abs=0.01)
        assert inc[0.3][1] == pytest.approx((49.25 - 32.5) / 32.5 * 100, abs=0.01)

    def test_increment_table_needs_three_thresholds(self):
        with pytest.raises(ConfigurationError):
            increment_table([record(b=3.0), record(b=5.0, index=1)])

    def test_increment_zero_base_is_none(self):
        records = []
        for i, b in enumerate((3.0, 5.0, 7.0)):
            records.append(record(p1=0.3, p2=0.3, b=b, actions=(0.0, 0.0) if b == 3.0
                                  else (0.5, 0.5), index=i))
        inc = increment_table(records)[0].increments
        assert inc[0.3][0] is None
        assert inc[0.3][1] == pytest.approx(0.0)


class TestHeavisideStudy:
    def test_structure(self):
        results = heaviside_study(teams=[(0.3, 0.7), (0.5, 0.5)], repetitions=2,
                                  episodes=300, base_seed=1)
        assert len(results) == 2
        het, hom = results
        assert het.team == (0.3, 0.7)
        assert het.weaker_actions is not None and len(het.weaker_actions) == 2
        assert hom.weaker_actions is None
        assert len(het.outcomes) == 2
        assert het.strategy_pairs

    def test_teams_learn_as_serial_train(self, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", 2 * simulator._run_bytes(2, 101))
        results = heaviside_study(teams=[(0.7, 0.3), (0.5, 0.5)], repetitions=2,
                                  episodes=200, base_seed=4)
        evaluation = EvaluationSpec("heaviside", d=10.0, b=5.0)
        for t_idx, result in enumerate(results):
            game = GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=10.0,
                            expertise=result.team, alpha=2.0, evaluation=evaluation)
            outs = [train(game, TrainConfig(episodes=200, tau=0.3,
                                            seed=spawned_seed(4, 10_000 + t_idx, rep)))
                    for rep in range(2)]
            assert result.outcomes == tuple(out.learned_G for out in outs)

    def test_default_grid_is_ten_teams(self):
        results = heaviside_study(repetitions=1, episodes=60)
        assert len(results) == 10


class TestTuner:
    def test_zero_budget_returns_defaults(self):
        result = tune_hyperparameters(0)
        assert result.best_k == 40.0
        assert result.best_tau == 0.1
        assert result.trials == ()
        assert result.best_score is None

    def test_search_returns_best_trial(self):
        result = tune_hyperparameters(
            2, probe_cells=((0.3, 0.8, 1.0, 5.0),), episodes=250, base_seed=3)
        assert len(result.trials) == 2
        best = min(result.trials, key=lambda t: t["score"])
        assert result.best_k == best["k"]
        assert result.best_tau == best["tau"]
        assert 10.0 <= result.best_k <= 1e5

    def test_negative_budget(self):
        with pytest.raises(ConfigurationError):
            tune_hyperparameters(-1)


class TestEdges:
    def test_impossible_passfail_team_has_undefined_dispersion(self):
        # the pair can never reach the threshold, rewards stay zero, and the
        # study reports the dispersion as undefined instead of crashing
        results = heaviside_study(teams=[(0.1, 0.1)], repetitions=2, episodes=200)
        assert results[0].mean_G == 0.0
        assert results[0].dispersion_pct is None

    def test_increment_table_single_rho_argument(self):
        records = []
        for i, b in enumerate((3.0, 5.0, 7.0)):
            records.append(record(p1=0.3, p2=0.3, b=b, actions=(0.1 * (i + 1),) * 2,
                                  index=i))
        tables = increment_table(records, rho=1.0)
        assert len(tables) == 1 and tables[0].rho == 1.0
