import json

import pytest

from teamgames import cli


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
        assert "use learn" in capsys.readouterr().err

    def test_no_equilibrium_exit_code(self, tmp_path):
        spec = write_json(tmp_path / "game.json",
                          game_spec(rho=-10.0, expertise=(0.0, 0.8)))
        rc = cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path)])
        assert rc == 2
        data = json.loads((tmp_path / "equilibria.json").read_text())
        assert data["equilibria"] == []

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

    def test_flag_overrides_input_before_validation(self, tmp_path):
        spec = write_json(tmp_path / "sweep.json", {**self.sweep_config(), "workers": 0})
        assert cli.main(["sweep", "--input", spec, "--output-dir", str(tmp_path),
                         "--workers", "1"]) == 0

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


MALFORMED = [
    ("sweep", {"rho_values": 5}, [], "rho_values"),
    ("sweep", {"episodes": "abc"}, [], "episodes"),
    ("sweep", {}, ["--set", "num_arms=0"], "num_arms"),
    ("tune", {"budget": "abc"}, [], "budget"),
    ("solve", {**game_spec(), "betas": 3}, [], "betas"),
    ("solve", {**game_spec(), "rho": "x"}, [], "rho"),
    ("solve", game_spec(evaluation={"kind": "logistic", "d": "x"}), [], "evaluation d"),
    ("heaviside", {"teams": [[0.3]]}, [], "teams"),
    ("heaviside", {"episodes": "abc"}, [], "episodes"),
    ("learn", [game_spec()], ["--set", "x=1"], "object"),
    ("learn", game_spec(), ["--episodes", "300", "--k", "-5"], "k must be finite"),
]


@pytest.mark.parametrize("command,payload,extra,key", MALFORMED,
                         ids=[f"{command}-{key}" for command, _, _, key in MALFORMED])
def test_malformed_value_is_named(tmp_path, capsys, command, payload, extra, key):
    spec = write_json(tmp_path / "input.json", payload)
    rc = cli.main([command, "--input", spec, "--output-dir", str(tmp_path)] + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


class TestEnvironment:
    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("TEAMGAMES_WORKERS", "3")
        parser = cli.build_parser()
        args = parser.parse_args(["sweep", "--input", "x.json"])
        assert args.workers == 3

    def test_workers_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("TEAMGAMES_WORKERS", "3")
        parser = cli.build_parser()
        args = parser.parse_args(["sweep", "--input", "x.json", "--workers", "1"])
        assert args.workers == 1

    def test_flag_the_subcommand_ignores_is_a_usage_error(self, tmp_path):
        spec = write_json(tmp_path / "game.json", game_spec())
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--input", spec, "--output-dir", str(tmp_path),
                      "--seed", "1"])
        assert exc.value.code == 2
