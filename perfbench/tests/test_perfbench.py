"""Tests of the benchmark itself: exact call counts, clean unwrapping, digests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They use shrunken versions of the workloads so the whole file takes seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import teamgames
import teamgames.bandit
import teamgames.experiments
import teamgames.simulator
from perfbench import run
from perfbench.speed import SpeedProbe
from perfbench.tracer import Tracer, teamgames_bindings
from perfbench.workloads import Solve240, Sweep90, Team4, _check_profile, ces

ROOT = Path(__file__).resolve().parents[2]
EPISODES = 150


def traced(workload):
    with SpeedProbe() as speed:
        (reference, result), tr = run.run_passes(workload, speed, trace=True, seconds=0)
    return tr, reference, result, run.per_layer(tr, workload, result, reference)


@pytest.fixture(scope="module")
def sweep():
    return traced(Sweep90(7, episodes=EPISODES, b_values=(5.0,), expertise=(0.3, 0.9)))


@pytest.fixture(scope="module")
def solve():
    return traced(Solve240(7, rho_values=(-10.0, 1.0, 3.0, 10.0), b_values=(5.0,),
                           expertise=(0.3, 0.5)))


@pytest.fixture(scope="module")
def team():
    return traced(Team4(7, episodes=EPISODES, seeds=1))


def test_update_q_calls_are_players_times_episodes(sweep, team):
    metrics = sweep[3]
    cells = 3 * 3  # three rho values, one b, three teams
    assert metrics["bandit.update_q.calls"][0] == 2 * EPISODES * cells
    assert metrics["bandit.boltzmann_probabilities.calls"][0] == 2 * EPISODES * cells
    assert metrics["simulator.train.calls"][0] == cells
    assert metrics["experiments.cells.attempted"][0] == cells
    assert metrics["games.evaluate_joint_action.calls"][0] == 0  # reward-table path

    metrics = team[3]
    runs = 4
    assert metrics["bandit.update_q.calls"][0] == 4 * EPISODES * runs
    assert metrics["games.evaluate_joint_action.calls"][0] == EPISODES * runs


def test_solve_workload_makes_no_learner_calls(solve):
    tr, _, result, metrics = solve
    for name in tr.names:
        if name.startswith(("bandit.", "simulator.")):
            assert tr.stat(name)[0] == 0, name
    assert metrics["simulator.episode_us"][0] == 0.0
    assert metrics["experiments.cells.attempted"][0] == 12
    assert metrics["experiments.cells.skipped"][0] == result.failed
    assert metrics["equilibrium.solve.disjunctive.calls"][0] == 6


def test_team_workload_opens_no_solver_spans(team):
    tr, _, _, metrics = team
    assert not [n for n in tr.names if n.startswith("equilibrium.solve")
                and tr.stat(n)[0] > 0]
    assert metrics["evaluation.ratio_scalar.calls"][0] == 0
    assert metrics["experiments.cells.attempted"][0] == 0


def test_sweep_solver_spans_split_by_regime(sweep):
    metrics = sweep[3]
    for regime in ("additive", "conjunctive", "disjunctive"):
        assert metrics[f"equilibrium.solve.{regime}.calls"][0] == 3
        assert metrics[f"equilibrium.solve.{regime}.evals"][0] > 0


@pytest.mark.parametrize("case", ["sweep", "solve", "team"])
def test_traced_and_untraced_passes_agree(case, request):
    _, reference, result, _ = request.getfixturevalue(case)
    assert reference.problems == [] and result.problems == []
    assert reference.digest == result.digest
    assert reference.failures == result.failures


def test_every_binding_shares_one_wrapper_and_is_restored():
    before = [(m.__name__, attr, fn) for m, attr, fn, _ in teamgames_bindings()]
    original = teamgames.bandit.update_q
    with Tracer():
        assert teamgames.simulator.update_q is teamgames.bandit.update_q
        assert teamgames.bandit.update_q is not original
        assert teamgames.experiments.train is teamgames.simulator.train
        assert teamgames.train.__wrapped__ is teamgames.simulator.train.__wrapped__
    after = [(m.__name__, attr, fn) for m, attr, fn, _ in teamgames_bindings()]
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for _, _, fn in after)


def test_wrappers_are_removed_when_the_pass_raises():
    before = [(attr, fn) for _, attr, fn, _ in teamgames_bindings()]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert [(attr, fn) for _, attr, fn, _ in teamgames_bindings()] == before


def test_self_time_excludes_children(sweep):
    tr = sweep[0]
    calls, self_s, total_s = tr.stat("simulator.train")
    children = tr.stat("bandit.update_q")[2] + tr.stat("bandit.boltzmann_probabilities")[2]
    assert calls > 0 and 0 < self_s < total_s
    assert self_s <= total_s - children + 1e-9


def test_checks_catch_a_wrong_aggregate():
    game = Sweep90(1, episodes=1).games[0]
    actions = (0.5, 0.25)
    G = ces((0.5 * game.expertise[0] * 10, 0.25 * game.expertise[1] * 10),
            game.rho, game.betas)
    assert G == pytest.approx(teamgames.ces_aggregate(
        [0.5 * game.expertise[0] * 10, 0.25 * game.expertise[1] * 10], game.rho, game.betas),
        rel=1e-12)
    problems = []
    _check_profile(game, actions, G, "ok", problems, on_grid=True)
    assert problems == []
    _check_profile(game, actions, G * (1 + 1e-6), "bad", problems, on_grid=True)
    _check_profile(game, (0.505, 0.25), G, "off-grid", problems, on_grid=True)
    assert len(problems) == 3


def test_metric_names_match_benchmark_json(team):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(team[3])
    e2e = run.end_to_end([team[1]], setup=(1.0, 1.0, 1.0))
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "team4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
