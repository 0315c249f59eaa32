import json
from dataclasses import asdict

import pytest

from teamgames import GameSpec, NoEquilibriumError, cli, experiments, solve_equilibrium_concave
from teamgames.equilibrium import standalone_value
from teamgames.simulator import LearnedOutcome, TrainConfig, train


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def game_spec(rho=1.0, expertise=(1.0, 1.0), evaluation=None):
    return {
        "n": len(expertise),
        "rho": rho,
        "betas": [1.0] * len(expertise),
        "delta_t": 10.0,
        "expertise": list(expertise),
        "alpha": 2.0,
        "evaluation": evaluation or {"kind": "logistic", "d": 10.0, "gamma": 2.0, "b": 5.0},
    }


class TestSolve:
    def test_additive_preset(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert len(data["equilibria"]) == 1
        actions = data["equilibria"][0]["actions"]
        assert round(actions[0] * 100) == 30 and round(actions[1] * 100) == 30

    def test_disjunctive_preset_two_equilibria(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec(rho=500.0))
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert len(data["equilibria"]) == 2

    def test_rho_zero_is_config_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "game.json", game_spec(rho=0.0))
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "rho" in capsys.readouterr().err

    def test_heaviside_rejected_with_hint(self, tmp_path, capsys):
        spec = write_json(tmp_path / "game.json",
                          game_spec(evaluation={"kind": "heaviside", "d": 10.0, "b": 5.0}))
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "can only be learned" in capsys.readouterr().err

    def test_no_equilibrium_exit_code(self, tmp_path):
        spec = write_json(tmp_path / "game.json",
                          game_spec(rho=-10.0, expertise=(0.0, 0.8)))
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 2
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert data["equilibria"] == []

    def test_no_admitted_active_set_exit_code(self, tmp_path, capsys):
        # a weak disjunctive pair: the enumerator admits no active set and
        # raises with an empty scan
        payload = {**game_spec(rho=1.5, expertise=(0.1, 0.1)),
                   "evaluation": {"kind": "logistic", "d": 10.0, "gamma": 2.0, "b": 3.0}}
        with pytest.raises(NoEquilibriumError, match="no active set is admitted") as info:
            experiments.solve_cell(GameSpec.from_dict(payload))
        assert info.value.scan == []
        spec = write_json(tmp_path / "game.json", payload)
        assert cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)]) == 2
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert data == {"equilibria": [], "scan": []}
        assert "no equilibrium found" in capsys.readouterr().err

    def test_no_equilibrium_writes_the_interval_ends(self, tmp_path):
        # a weak weakest-link pair: CES(r(G)) < G at both ends of (0, hi]
        payload = game_spec(rho=-1.0, expertise=(0.3, 0.5))
        g = GameSpec.from_dict(payload)
        with pytest.raises(NoEquilibriumError) as info:
            solve_equilibrium_concave(g)
        (lo, f_lo), (hi, f_hi) = info.value.scan
        assert hi == min(standalone_value(i, g) for i in range(g.n))
        assert lo == hi * 1e-9 and f_lo < 0 and f_hi < 0
        spec = write_json(tmp_path / "game.json", payload)
        assert cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)]) == 2
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert data == {"equilibria": [], "scan": [[lo, f_lo], [hi, f_hi]]}

    def test_unknown_key_named(self, tmp_path, capsys):
        payload = game_spec()
        payload["turns"] = 3
        spec = write_json(tmp_path / "game.json", payload)
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "turns" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path),
                       "--set", "evaluation.b=7", "--set", "expertise=[0.3,0.8]"])
        assert rc == 0
        data = json.loads((tmp_path / "equilibria.json").read_text())
        actions = data["equilibria"][0]["actions"]
        assert actions[0] == pytest.approx(1 / 3, abs=1e-3)
        assert actions[1] == pytest.approx(0.75, abs=1e-3)


class TestLearn:
    def test_learn_writes_outcome(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        rc = cli.main(["learn", "--input", spec, "--output-dir", str(tmp_path),
                       "--episodes", "120", "--seed", "0"])
        assert rc == 0
        data = json.loads((tmp_path / "learned.json").read_text())
        assert data["episodes"] == 120
        assert len(data["greedy_actions"]) == 2

    def test_single_episode(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        rc = cli.main(["learn", "--input", spec, "--output-dir", str(tmp_path),
                       "--episodes", "1"])
        assert rc == 0

    def test_heaviside_accepted(self, tmp_path):
        spec = write_json(tmp_path / "game.json",
                          game_spec(evaluation={"kind": "heaviside", "d": 10.0, "b": 5.0}))
        rc = cli.main(["learn", "--input", spec, "--output-dir", str(tmp_path),
                       "--episodes", "150"])
        assert rc == 0


class TestSweep:
    def sweep_config(self):
        return {"expertise_values": [0.3, 0.8], "rho_values": [1.0],
                "b_values": [3.0, 5.0, 7.0], "episodes": 120}

    def test_outputs(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", self.sweep_config())
        rc = cli.main(["sweep", "--input", spec, "--output-dir", str(tmp_path),
                       "--seed", "0"])
        assert rc == 0
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "regression.json").exists()
        assert (tmp_path / "heatmap_1_5.csv").exists()
        assert (tmp_path / "strategy_1_5.csv").exists()
        assert (tmp_path / "increments_1.csv").exists()
        regression = json.loads((tmp_path / "regression.json").read_text())
        assert "slope" in regression

    def test_worker_count_reproducibility(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", self.sweep_config())
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["sweep", "--input", spec, "--output-dir", str(out1),
                         "--seed", "0", "--workers", "1"]) == 0
        assert cli.main(["sweep", "--input", spec, "--output-dir", str(out2),
                         "--seed", "0", "--workers", "2"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", self.sweep_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["sweep", "--input", spec, "--output-dir", str(out1), "--seed", "7"])
        cli.main(["sweep", "--input", spec, "--output-dir", str(out2), "--seed", "7"])
        for name in ("records.csv", "regression.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_format(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", self.sweep_config())
        rc = cli.main(["sweep", "--input", spec, "--output-dir", str(tmp_path),
                       "--format", "json", "--seed", "0"])
        assert rc == 0
        records = json.loads((tmp_path / "records.json").read_text())
        assert len(records) == 9

    def test_unknown_sweep_key(self, tmp_path, capsys):
        spec = write_json(tmp_path / "sweep.json", {"temperature": 1.0})
        rc = cli.main(["sweep", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "temperature" in capsys.readouterr().err


class TestHeavisideAndTune:
    def test_heaviside_outputs(self, tmp_path):
        spec = write_json(tmp_path / "study.json",
                          {"teams": [[0.3, 0.7]], "repetitions": 2, "episodes": 150})
        rc = cli.main(["heaviside", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "heaviside.csv").exists()
        data = json.loads((tmp_path / "heaviside.json").read_text())
        assert len(data) == 1 and data[0]["team"] == [0.3, 0.7]

    def test_tune_zero_budget(self, tmp_path):
        spec = write_json(tmp_path / "tune.json", {"budget": 0})
        rc = cli.main(["tune", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "tuning.json").read_text())
        assert data["best_k"] == 40.0
        assert data["best_tau"] == 0.1

    def test_heaviside_unknown_key(self, tmp_path, capsys):
        spec = write_json(tmp_path / "study.json", {"episodez": 5})
        rc = cli.main(["heaviside", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "episodez" in capsys.readouterr().err

    def test_heaviside_zero_repetitions(self, tmp_path, capsys):
        spec = write_json(tmp_path / "study.json", {"teams": [[0.3, 0.7]], "episodes": 50})
        rc = cli.main(["heaviside", "--input", spec, "--output-dir", str(tmp_path),
                       "--set", "repetitions=0"])
        assert rc == 1
        assert "repetitions" in capsys.readouterr().err
        assert not (tmp_path / "heaviside.json").exists()

    def test_tune_unknown_key(self, tmp_path, capsys):
        spec = write_json(tmp_path / "tune.json", {"tua": 1})
        rc = cli.main(["tune", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "tua" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["solve", "--input", str(tmp_path / "nope.json"),
                       "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_heaviside_csv_rows(self, tmp_path, monkeypatch):
        # fixed outcomes per (team, repetition), in the study's job order
        runs = [((0.2, 0.64), 5.0), ((0.56, 0.62), 6.0),
                ((0.58, 0.53), 4.0), ((0.58, 0.53), 4.0),
                ((0.0, 0.0), 0.0), ((0.0, 0.0), 0.0)]

        def fake_train_many(jobs):
            assert len(jobs) == len(runs)
            return [LearnedOutcome(actions, g, 0.0, 50, 0) for actions, g in runs]

        monkeypatch.setattr(experiments, "train_many", fake_train_many)
        spec = write_json(tmp_path / "study.json",
                          {"teams": [[0.7, 0.3], [0.5, 0.5], [0.1, 0.1]],
                           "repetitions": 2, "episodes": 50})
        assert cli.main(["heaviside", "--input", spec, "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "heaviside.csv").read_text() == (
            "p1,p2,mean_G,dispersion_pct,weaker_actions,strategies\n"
            "0.3,0.7,5.5,18.181818181818183,0.2;0.56,\"(20%, 64%) | (56%, 62%)\"\n"
            "0.5,0.5,4.0,0.0,,\"(58%, 53%)\"\n"
            "0.1,0.1,0.0,,,\"(0%, 0%)\"\n")


@pytest.mark.parametrize("input_name,output_name", [
    (".", "out"),                    # the input is a directory
    ("binary.json", "out"),          # the input is not UTF-8
    ("game.json", "game.json"),      # the output directory is a file
    ("game.json", "game.json/sub"),  # the output directory lies under a file
], ids=["input-directory", "input-not-utf8", "output-file", "output-under-file"])
def test_file_problem_is_refused_by_name(tmp_path, capsys, input_name, output_name):
    write_json(tmp_path / "game.json", game_spec())
    (tmp_path / "binary.json").write_bytes(b"\xff{}")
    rc = cli.main(["solve", "--input", str(tmp_path / input_name),
                   "--output-dir", str(tmp_path / output_name)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


SMALL_SWEEP = {"expertise_values": [0.3, 0.8], "rho_values": [1.0], "b_values": [5.0],
               "episodes": 50}
SMALL_STUDY = {"teams": [[0.3, 0.7]], "repetitions": 1, "episodes": 50}


@pytest.mark.parametrize("command,payload,extra", [
    ("sweep", {**SMALL_SWEEP, "workers": 0}, ["--workers", "1"]),
    ("heaviside", {**SMALL_STUDY, "episodes": "abc"}, ["--episodes", "50"]),
    ("tune", {"budget": 0, "base_seed": "abc"}, ["--seed", "1"]),
], ids=["sweep", "heaviside", "tune"])
def test_flag_overrides_input_before_validation(tmp_path, command, payload, extra):
    spec = write_json(tmp_path / "input.json", payload)
    assert cli.main([command, "--input", spec, "--output-dir", str(tmp_path)] + extra) == 0


# Every (subcommand, flag, config key) that --input and --set can also reach.
# learn reads a game from its input; its flags set TrainConfig fields, which
# no input carries.
FLAG_KEYS = [(command, flag, key) for flag, (keys, _) in cli._FLAGS.items()
             for command, key in keys.items() if key is not None and command != "learn"]
FLAG_INPUTS = {"sweep": SMALL_SWEEP, "heaviside": SMALL_STUDY,
               "tune": {"budget": 1, "episodes": 50}}
FLAG_VALUES = {"base_seed": "3", "workers": "2", "episodes": "60", "tau": "0.2", "k": "30"}


@pytest.mark.parametrize("command,flag,key", FLAG_KEYS,
                         ids=[f"{command}{flag}" for command, flag, _ in FLAG_KEYS])
def test_set_writes_what_the_flag_writes(tmp_path, command, flag, key):
    spec = write_json(tmp_path / "input.json", FLAG_INPUTS[command])
    value = FLAG_VALUES[key]
    written = []
    for name, extra in (("flag", [flag, value]), ("set", ["--set", f"{key}={value}"])):
        out = tmp_path / name
        assert cli.main([command, "--input", spec, "--output-dir", str(out)] + extra) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("command,payload", [
    ("sweep", {**SMALL_SWEEP, "tau": 0.015}),
    ("heaviside", {**SMALL_STUDY, "tau": 0.01}),
], ids=["sweep", "heaviside"])
def test_tau_below_the_default_floor_is_accepted(tmp_path, command, payload):
    spec = write_json(tmp_path / "input.json", payload)
    assert cli.main([command, "--input", spec, "--output-dir", str(tmp_path)]) == 0


def test_learn_at_low_tau_holds_the_temperature(tmp_path):
    spec = write_json(tmp_path / "game.json", game_spec())
    assert cli.main(["learn", "--input", spec, "--output-dir", str(tmp_path),
                     "--episodes", "60", "--tau", "0.01"]) == 0
    expected = train(GameSpec.from_dict(game_spec()),
                     TrainConfig(episodes=60, tau=0.01, anneal_floor=0.01))
    data = json.loads((tmp_path / "learned.json").read_text())
    assert data == json.loads(json.dumps(asdict(expected)))


MALFORMED = [
    ("sweep", {"rho_values": 5}, [], "rho_values"),
    ("sweep", {"episodes": "abc"}, [], "episodes"),
    ("sweep", {}, ["--set", "num_arms=0"], "num_arms"),
    ("tune", {"budget": "abc"}, [], "budget"),
    ("solve", {**game_spec(), "betas": 3}, [], "betas"),
    ("solve", {**game_spec(), "rho": "x"}, [], "rho"),
    ("solve", {**game_spec(), "rho": float("nan")}, [], "rho must be finite"),
    ("solve", game_spec(evaluation={"kind": "logistic", "d": "x"}), [], "evaluation d"),
    ("heaviside", {"teams": [[0.3]]}, [], "teams"),
    ("heaviside", {"episodes": "abc"}, [], "episodes"),
    ("learn", [game_spec()], ["--set", "x=1"], "object"),
    ("solve", game_spec(), ["--set", "rho"], "key=value"),
    ("solve", game_spec(), ["--set", "rho.x=1"], "does not address an object"),
    ("learn", game_spec(), ["--episodes", "300", "--k", "-5"], "k must be finite"),
    ("learn", game_spec(), ["--episodes", "60", "--seed", "-1"], "seed must be >= 0"),
    ("sweep", SMALL_SWEEP, ["--seed", "-1"], "base_seed must be >= 0"),
    ("heaviside", SMALL_STUDY, ["--seed", "-1"], "base_seed must be >= 0"),
    ("tune", {"budget": 1, "episodes": 50}, ["--seed", "-1"], "base_seed must be >= 0"),
    ("sweep", SMALL_SWEEP, ["--set", "base_seed=1.7"], "base_seed must be an integer"),
    ("heaviside", {**SMALL_STUDY, "episodes": 50.5}, [], "episodes must be an integer"),
]


@pytest.mark.parametrize("command,payload,extra,key", MALFORMED,
                         ids=[f"{command}-{key}" for command, _, _, key in MALFORMED])
def test_malformed_value_is_named(tmp_path, capsys, command, payload, extra, key):
    spec = write_json(tmp_path / "input.json", payload)
    rc = cli.main([command, "--input", spec, "--output-dir", str(tmp_path)] + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("command,payload,key,value", [
    ("sweep", SMALL_SWEEP, "base_seed", 3),
    ("sweep", SMALL_SWEEP, "episodes", 50),
    ("heaviside", SMALL_STUDY, "repetitions", 1),
], ids=["sweep-base_seed", "sweep-episodes", "heaviside-repetitions"])
def test_integral_float_reads_as_its_integer(tmp_path, command, payload, key, value):
    spec = write_json(tmp_path / "input.json", payload)
    written = []
    for text in (str(value), f"{value}.0"):
        out = tmp_path / text
        assert cli.main([command, "--input", spec, "--output-dir", str(out),
                         "--set", f"{key}={text}"]) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] == written[1]


class TestEnvironment:
    def test_flag_the_subcommand_ignores_is_a_usage_error(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path),
                      "--seed", "1"])
        assert exc.value.code == 2
