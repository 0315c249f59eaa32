"""The replay helpers of ``benchmarks/learner.py``, on toy functions: no
game is solved and no learner runs."""

import hashlib
import importlib.util
import statistics
import time
import types
from pathlib import Path

import pytest

from teamgames import RegimeError

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "learner.py"
_SPEC = importlib.util.spec_from_file_location("learner_harness", _PATH)
learner = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(learner)


def test_replay_is_the_median_of_its_rounds(monkeypatch):
    # each round advances a fake clock by its own duration
    durations = [7.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0][:learner.ROUNDS]
    assert len(durations) == learner.ROUNDS
    clock, pending = [0.0], list(durations)

    def work():
        clock[0] += pending.pop(0)
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    assert learner._replay([(work, (), {})]) == statistics.median(durations)
    assert pending == []


def test_replay_counts_a_refused_call_as_made():
    made = []

    def refused(value, *, key):
        made.append((value, key))
        raise RegimeError("refused")
    learner._replay([(refused, (1,), {"key": 2}), (made.append, ("after",), {})])
    assert made == [(1, 2), "after"] * learner.ROUNDS


def test_replay_builds_a_fresh_batch_before_each_round():
    batches = []

    def build():
        batches.append([])
        return [(batches[-1].append, (len(batches),), {})]
    learner._replay(build)
    assert batches == [[r] for r in range(1, learner.ROUNDS + 1)]


def _toy_module():
    """A module whose functions look up its global ``double`` per call, as
    the solvers look up theirs."""
    toy = types.ModuleType("toy")
    exec("def double(x, scale=1):\n    return 2 * x * scale\n"
         "def first(x):\n    return double(x)\n"
         "def second(x):\n    return double(x, scale=3)\n", vars(toy))
    return toy


def test_recorded_logs_every_call_or_one_callers():
    toy = _toy_module()
    double = toy.double
    with learner._recorded(toy, "double") as every:
        assert (toy.first(1), toy.second(2)) == (2, 12)
    with learner._recorded(toy, "double", "first") as from_first:
        assert (toy.first(1), toy.second(2)) == (2, 12)
    assert every == [(double, (1,), {}), (double, (2,), {"scale": 3})]
    assert from_first == [(double, (1,), {})]
    assert toy.double is double


def test_recorded_restores_the_global_after_an_error():
    toy = _toy_module()
    double = toy.double
    with pytest.raises(ValueError):
        with learner._recorded(toy, "double") as calls:
            toy.first(5)
            raise ValueError("inside the block")
    assert calls == [(double, (5,), {})]
    assert toy.double is double


def test_profiled_no_op_steps_read_zero(monkeypatch):
    # every clock read advances a fake clock by one second: a wrapped call costs two
    # reads, one inside the interval it times and one outside, and a no-op nothing
    from teamgames import simulator
    clock = [0.0]

    def read():
        clock[0] += 1.0
        return clock[0]
    steps = [attr for attrs in learner.STEPS.values() for attr in attrs]
    for attr in steps:
        monkeypatch.setattr(simulator, attr, lambda *args, **kwargs: None)
    no_ops = [getattr(simulator, attr) for attr in steps]
    monkeypatch.setattr(time, "perf_counter", read)

    def learn():
        for _ in range(3):
            for attr in steps:
                getattr(simulator, attr)(1, key=2)
    out = learner._profiled("n4_team4", learn, 2)
    assert {key: out.pop(f"step_us.n4_team4.{key}") for key in learner.STEPS} == \
        dict.fromkeys(learner.STEPS, 0.0)
    calls = 3 * len(steps)
    # the timers' two reads a call, and the one read that ends the run's own interval
    assert out == {"step_us.n4_team4.timer": 2 * calls / 2 * 1e6,
                   "step_us.n4_team4.other": 1 / 2 * 1e6,
                   "score_evals.n4_team4": 3 * len(learner.STEPS["score"]) / 2}
    assert [getattr(simulator, attr) for attr in steps] == no_ops


def test_every_name_the_harness_wraps_or_sets_resolves():
    # the harness reads these names without a fallback: a rename must fail here
    from teamgames import equilibrium, simulator
    for attrs in learner.STEPS.values():
        for attr in attrs:
            assert callable(getattr(simulator, attr)), attr
    for name in ("_type_standalone", "_type_thresholds"):
        getattr(equilibrium, name).cache_clear()
    assert isinstance(simulator._ARM_MAJOR_AGENTS, int)


def test_cold_solves_clear_the_type_caches_and_copy_each_game(monkeypatch):
    # a round built by _cold_solves finds no player type kept from an earlier
    # round, and solves a copy of each game, whose own memos are cold
    from teamgames import EvaluationSpec, GameSpec, equilibrium, experiments
    cleared = []
    for name in ("_type_standalone", "_type_thresholds"):
        monkeypatch.setattr(equilibrium, name, types.SimpleNamespace(
            cache_clear=lambda name=name: cleared.append(name)))
    game = GameSpec(n=2, rho=10.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.3, 0.9),
                    alpha=2.0, evaluation=EvaluationSpec("identity"))
    [(solve, (copy,), kwargs)] = learner._cold_solves([game])
    assert cleared == ["_type_standalone", "_type_thresholds"]
    assert (solve, kwargs) == (experiments.solve_cell, {})
    assert copy == game and copy is not game


def test_searches_bind_the_provision_by_name():
    # a side whose gap takes (game, player, G_minus, near) and one whose gap
    # takes (player_type, G_minus, near) count the same searches
    def old(game, player, G_minus, near):
        pass

    def new(player_type, G_minus, near):
        pass
    old_gaps = [(old, ("g", 0, 0.0, 1.0), {}), (old, ("g", 0, 2.0, 1.0), {}),
                (old, ("g", 1, 0.0), {"near": None})]
    new_gaps = [(new, ("t", 0.0, 1.0), {}), (new, ("t", 2.0, 1.0), {}),
                (new, ("u",), {"G_minus": 0.0, "near": None})]
    assert learner._searches(old_gaps) == learner._searches(new_gaps) == 2


def test_outcome_digest_hashes_each_repr_or_error_name():
    def refused():
        raise RegimeError("refused")
    digest = learner._outcome_digest([(divmod, (7, 2), {}), (refused, (), {}),
                                      (dict, (), {"a": 1.5})])
    assert digest == hashlib.sha256(b"(3, 1)\nRegimeError\n{'a': 1.5}\n").hexdigest()
