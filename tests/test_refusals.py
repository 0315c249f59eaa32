"""Every public constructor and entry point refuses a malformed argument by
name: each row below must raise a ``TeamworkGameError`` whose message names
the argument, before any learning starts."""

import dataclasses
import math
import re

import numpy as np
import pytest

from teamgames import (
    AgentState,
    EvaluationSpec,
    GameSpec,
    SweepConfig,
    TeamworkGameError,
    TrainConfig,
    ces_aggregate,
    critical_thresholds,
    dispersion,
    enumerate_disjunctive_equilibria,
    heatmap_table,
    heaviside_study,
    increment_table,
    replacement_additive,
    replacement_conjunctive,
    share_function,
    solve_equilibrium_concave,
    spawned_seed,
    standalone_value,
    strategy_table,
    train,
    train_many,
    tune_hyperparameters,
    update_q,
    validate_evaluation,
    verify_epsilon_nash,
)
from teamgames import evaluation, experiments, games, simulator
from teamgames.errors import _check
from teamgames.experiments import solve_cell
from teamgames.games import evaluate_joint_action

GAME = GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.5),
                alpha=2.0, evaluation=EvaluationSpec("logistic", d=10.0, gamma=2.0, b=5.0))
CONJUNCTIVE = GameSpec(n=2, rho=0.5, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.9),
                       alpha=2.0, evaluation=GAME.evaluation)
DISJUNCTIVE = GameSpec(n=2, rho=10.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.9),
                       alpha=2.0, evaluation=GAME.evaluation)

NOT_A_NUMBER = [None, "x", True]
NOT_FINITE = [math.nan, math.inf, -math.inf]
NOT_AN_INTEGER = NOT_A_NUMBER + [np.True_, 10.5, math.nan]
NOT_A_SEED = NOT_AN_INTEGER + [-1, np.int64(-1)]
NOT_A_LIST = [None, 5, ("x", 0.5)]
NOT_A_GAME = [None, "x", 5]
# a Python bool is an int, so it needs its own refusal; np.True_ is no int
# and was always refused, its rows pin that
NOT_A_PLAYER = [True, np.True_]
CONFIG = TrainConfig(episodes=10)
# one player, so that n = True cannot fail on the vectors' lengths, which are 1 = True
ONE_PLAYER = {"n": 1, "rho": 1.0, "betas": [1.0], "delta_t": 10.0, "expertise": [0.5],
              "alpha": 2.0}


def train_config(key):
    return lambda value: TrainConfig(**{key: value})


def constant_temperature(key):
    return lambda value: TrainConfig(anneal_floor=None, **{key: value})


def verify(key):
    args = {"actions": (0.3, 0.3), "game": GAME, "epsilon": 0.01}
    return lambda value: verify_epsilon_nash(**{**args, key: value})


def tune(key):
    args = {"budget": 1, "episodes": 10}
    return lambda value: tune_hyperparameters(**{**args, key: value})


def study(key):
    return lambda value: heaviside_study([(0.5, 0.5)], episodes=10, **{key: value})


def sweep_config(key):
    return lambda value: SweepConfig(**{key: value})


def sweep_json(key):
    return lambda value: SweepConfig.from_dict({key: value})


def game_spec(key):
    args = {"n": 2, "rho": 1.0, "betas": (1.0, 1.0), "delta_t": 10.0,
            "expertise": (0.5, 0.5), "alpha": 2.0, "evaluation": GAME.evaluation}
    return lambda value: GameSpec(**{**args, key: value})


def game_json(key):
    return lambda value: GameSpec.from_dict({**GAME.to_dict(), key: value})


def one_player_spec(value):
    return GameSpec(**{**ONE_PLAYER, "n": value, "evaluation": GAME.evaluation})


def one_player_json(value):
    return GameSpec.from_dict({**ONE_PLAYER, "n": value, "evaluation": GAME.evaluation.to_dict()})


def evaluation_spec(key):
    return lambda value: EvaluationSpec("logistic", **{key: value})


def untuned(key):
    return lambda value: tune_hyperparameters(0, **{key: value})


def slice_table(make_table, key):
    args = {"records": [], "rho": 1.0, "b": 5.0}
    return lambda value: make_table(**{**args, key: value})


def increments(key):
    return lambda value: increment_table(**{"records": [], key: value})


def validate(key):
    args = {"spec": GAME.evaluation, "grid": (0.0, 10.0), "points": 11}
    return lambda value: validate_evaluation(**{**args, key: value})


def joint_action(value):
    return evaluate_joint_action(GAME, value)


def study_teams(value):
    return heaviside_study(value, episodes=10)


def agent(value):
    return AgentState(np.zeros(3), k=value)


def update(key):
    args = {"state": AgentState.fresh(5), "arm": 0, "reward": 1.0}
    return lambda value: update_q(**{**args, key: value})


def thresholds(value):
    return critical_thresholds(0, value)


def additive_player(value):
    return replacement_additive(4.0, value, GAME)


def conjunctive_player(value):
    return replacement_conjunctive(8.0, value, CONJUNCTIVE)


def standalone_player(value):
    return standalone_value(value, GAME)


def thresholds_player(value):
    return critical_thresholds(value, DISJUNCTIVE)


def share_player(value):
    return share_function(value, 5.0, DISJUNCTIVE)


def additive_aggregate(value):
    return replacement_additive(value, 0, GAME)


def conjunctive_aggregate(value):
    return replacement_conjunctive(value, 0, CONJUNCTIVE)


def share_aggregate(value):
    return share_function(0, value, DISJUNCTIVE)


def enumerate_capped(value):
    return enumerate_disjunctive_equilibria(DISJUNCTIVE, subset_cap=value)


def ces(value):
    return ces_aggregate([1.0, 2.0], value, [1.0, 1.0])


def ces_gifts(value):
    return ces_aggregate(value, 1.0, [])


def overflowing_solve(value):
    # a game that GameSpec admits, whose full-time aggregate is inf
    rho, delta_t = value
    game = GameSpec(n=2, rho=rho, betas=(10.0, 10.0), delta_t=delta_t, expertise=(1.0, 1.0),
                    alpha=2.0, evaluation=EvaluationSpec("identity"))
    solve = enumerate_disjunctive_equilibria if rho > 1 else solve_equilibrium_concave
    return solve(game)


def spawn_key(value):
    return spawned_seed(1, value)


def train_with(value):
    return train(GAME, value)


TABLE = [
    *((train_config("episodes"), "episodes", v) for v in NOT_AN_INTEGER),
    *((train_config("num_arms"), "num_arms", v) for v in NOT_AN_INTEGER + [2.0]),
    *((train_config("seed"), "seed", v) for v in NOT_A_SEED),
    *((train_config(key), key, v) for key in ("tau", "k") for v in NOT_A_NUMBER),
    *((train_config("anneal_floor"), "anneal_floor", v) for v in ["x", True] + NOT_FINITE),
    *((train_config("anneal_start"), "anneal_start", v) for v in NOT_A_NUMBER + NOT_FINITE),
    *((verify("epsilon"), "epsilon", v) for v in NOT_A_NUMBER),
    *((verify("grid_step"), "grid_step", v) for v in NOT_A_NUMBER + [0.3]),
    *((verify("refine_step"), "refine_step", v) for v in ["x", True]),
    *((verify("actions"), "actions", v)
      for v in [("a", 0.5), (0.5,), (0.5, 0.5, 0.5), (-0.1, 0.5), (0.5, math.nan), None,
                [[0.5, 0.5]]]),
    *((tune("budget"), "budget", v) for v in NOT_AN_INTEGER + [-1]),
    *((tune("base_seed"), "base_seed", v) for v in NOT_A_SEED),
    *((tune("probe_cells"), "probe_cells", v)
      for v in [[(0.3,)], [(0.3, 0.9, 1.0, 5.0, 0.0)], [(0.3, 0.9, "x", 5.0)], None, 5, []]),
    *((study("base_seed"), "base_seed", v) for v in NOT_A_SEED),
    *((study("repetitions"), "repetitions", v) for v in NOT_AN_INTEGER),
    *((sweep_config(key), key, v) for key in ("base_seed", "repetitions", "workers")
      for v in (NOT_A_SEED if key == "base_seed" else NOT_AN_INTEGER)),
    *((sweep_json(key), key, v) for key in ("base_seed", "episodes", "repetitions")
      for v in [1.7, 10.5]),
    *((sweep_config(key), key, v) for key in ("expertise_values", "rho_values", "b_values")
      for v in NOT_A_LIST),
    *((game_spec("n"), "n", v) for v in [None, "2", 2.5]),
    *((game_spec(key), key, v) for key in ("betas", "expertise", "leisure_capacity")
      for v in NOT_A_LIST if key != "leisure_capacity" or v is not None),  # None: all ones
    *((game_spec(key), key, v) for key in ("rho", "delta_t", "alpha") for v in [None, "x"]),
    *((evaluation_spec(key), f"evaluation {key}", v) for key in ("d", "gamma", "b")
      for v in [None, "x"]),
    *((ces, "rho", v) for v in [None, "x"] + NOT_FINITE),
    (ces_gifts, "gifts", []),
    *((overflowing_solve, "full-time aggregate", v)
      for v in [(1.0, 1e307), (0.5, 1e306), (3.0, 1e308)]),
    *((call, "game", v) for call in (solve_cell, solve_equilibrium_concave,
                                     enumerate_disjunctive_equilibria, thresholds)
      for v in NOT_A_GAME),
    (verify("game"), "game", None),
    *((call, "player", v) for call in (additive_player, conjunctive_player, standalone_player,
                                       thresholds_player, share_player)
      for v in NOT_A_PLAYER),
    *((enumerate_capped, "subset_cap", v) for v in NOT_AN_INTEGER + [2.5, 0]),
    *((train_many, name, v) for name, v in [
        ("jobs", None), ("job 0", [1]), ("job 0", [(GAME,)]), ("job 0's game", [(None, CONFIG)]),
        ("job 0's config", [(GAME, None)]), ("job 1's config", [(GAME, CONFIG), (GAME, {})])]),
    (train_with, "config", {}),
    *((spawned_seed, "base_seed", v) for v in NOT_A_SEED),
    *((spawn_key, "key 0", v) for v in NOT_A_SEED),
    *((dispersion, "dispersion", v)
      for v in [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], ["x"], None]),
]


# Inputs refused since every entry point reads its arguments through the
# declarations in the modules' field tables
DECLARED = [
    # a bool is no number, in the constructors and the JSON readers alike
    *((game_spec(key), key, True) for key in ("rho", "delta_t", "alpha")),
    (one_player_spec, "n", True),
    (one_player_json, "n", True),
    *((game_spec(key), key, (True, 1.0)) for key in ("betas", "expertise", "leisure_capacity")),
    *((evaluation_spec(key), f"evaluation {key}", True) for key in ("d", "gamma", "b")),
    (ces, "rho", True),
    # a rho beyond 1e300 in size, where a positive gift's log-term can overflow
    *((call, "rho", v) for call in (game_spec("rho"), game_json("rho"), ces)
      for v in [1.7e308, -1.7e308]),
    *((sweep_config("rho_values"), "rho_values", (v,)) for v in [1.7e308, -1.7e308]),
    *((game_json(key), key, v) for key in ("rho", "delta_t", "alpha") for v in [True, "2"]),
    (game_json("n"), "n", "2"),
    # the lists of numbers that are no declared field read through the same rule
    *((call, "actions", v) for call in (verify("actions"), joint_action)
      for v in [(True, 0.5), ("0.5", 0.5), np.array([True, False])]),
    *((study_teams, "teams", v) for v in [[(True, 0.5)], [("0.5", 0.5)]]),
    *((tune("probe_cells"), "probe_cells", v)
      for v in [[(0.3, 0.9, True, 5.0)], [(0.3, 0.9, "1.0", 5.0)]]),
    *((agent, "k", v) for v in [True, "x"]),
    # the replacement and share maps' aggregate; each map still refuses its range itself
    *((call, "G", v) for call in (additive_aggregate, conjunctive_aggregate, share_aggregate)
      for v in [True, "x", None]),
    *((update("arm"), "arm", v) for v in [True, 1.5, "x"]),
    *((update("reward"), "reward", v) for v in [True, "x"]),
    *((sweep_json(key), key, True) for key in ("base_seed", "episodes", "tau")),
    # each declared range holds whatever the other fields are
    *((constant_temperature("anneal_start"), "anneal_start", v)
      for v in [5.0, math.nan, -0.1, 1.0]),
    *((train_config("snapshot_q"), "snapshot_q", v) for v in ["x", 1, None]),
    *((sweep_config(key), key, v) for key, v in [
        ("tau", None), ("episodes", 0), ("num_arms", 1), ("evaluation_kind", "foo"),
        ("expertise_values", (0.3, 1.5)), ("rho_values", (0.0,)), ("b_values", (-1.0,)),
        ("d", True), ("gamma", 0.0), ("delta_t", math.inf), ("alpha", None)]),
    *((untuned("episodes"), "episodes", v) for v in ["x", 0]),
    # the team tables
    *((slice_table(make_table, key), key, v) for make_table in (heatmap_table, strategy_table)
      for key, values in [("records", [None, "x", 5, [None], [(0.5, 0.5)]]),
                          ("rho", NOT_A_NUMBER + NOT_FINITE + [0.0]),
                          ("b", NOT_A_NUMBER + NOT_FINITE + [-1.0])]
      for v in values),
    *((increments(key), key, v) for key, values in [("records", [None, "x", [None]]),
                                                    ("rho", ["x", True, math.nan, 0.0])]
      for v in values),
    # validate_evaluation
    *((validate("spec"), "spec", v) for v in [None, "x", {"kind": "logistic"}]),
    *((validate("grid"), "grid", v)
      for v in [None, "x", (1.0,), (0.0, 5.0, 10.0), (5.0, 1.0), (0.0, math.inf), (True, 2.0)]),
    *((validate("points"), "points", v) for v in ["x", None, True, 3.5, 2]),
]


def row_ids(table):
    return [f"{call.__qualname__.split('.')[0]}-{name}-{value!r}" for call, name, value in table]


@pytest.mark.parametrize("call,name,value", TABLE, ids=row_ids(TABLE))
def test_malformed_argument_is_refused_by_name(call, name, value):
    with pytest.raises(TeamworkGameError, match=name):
        call(value)


@pytest.mark.parametrize("call,name,value", DECLARED, ids=row_ids(DECLARED))
def test_declared_input_is_refused_by_its_own_name(call, name, value):
    # anchored, so that the refusal of another input, such as a vector's
    # length or a threshold count, cannot pass the row
    with pytest.raises(TeamworkGameError, match=f"^{re.escape(name)} must"):
        call(value)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.random.SeedSequence(7)],
                         ids=["zero", "int", "np.int64", "SeedSequence"])
def test_valid_seed_is_accepted(seed):
    assert TrainConfig(seed=seed).seed is seed


def test_integral_float_reads_as_its_integer():
    read = SweepConfig.from_dict({"base_seed": 3.0, "episodes": 60.0, "repetitions": 2.0})
    assert read == SweepConfig.from_dict({"base_seed": 3, "episodes": 60, "repetitions": 2})
    assert all(type(getattr(read, key)) is int for key in ("base_seed", "episodes", "repetitions"))


def test_every_field_is_declared_and_its_default_passes_its_check():
    for cls, declared in [(GameSpec, games._GAME_FIELDS),
                          (EvaluationSpec, evaluation._EVALUATION_FIELDS),
                          (TrainConfig, simulator._TRAIN_FIELDS),
                          (SweepConfig, experiments._SWEEP_FIELDS)]:
        for field in dataclasses.fields(cls):
            assert field.name in declared, (cls.__name__, field.name)
            if field.default is not dataclasses.MISSING:
                _check(field.name, field.default, declared[field.name])
