"""The replay helpers of ``benchmarks/learner.py``, on toy functions: no
game is solved and no learner runs."""

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
    steps = [attr for attrs in learner.STEPS.values() for attr in attrs
             if hasattr(simulator, attr)]
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
                   "score_evals.n4_team4": 3 * len(set(steps) & set(learner.STEPS["score"])) / 2}
    assert [getattr(simulator, attr) for attr in steps] == no_ops
