"""Command-line entry point: solve, learn, sweep, heaviside, tune.

Exit codes: 0 success, 1 configuration or file error, 2 no equilibrium
found (a solver's ``NoEquilibriumError``).  A usage error, such as a flag
the subcommand does not take, also exits 2 (argparse's convention).  All outputs are reproducible
byte for byte given the input spec, seed, and format; floats are serialised
with their shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .equilibrium import NoEquilibriumError
from .errors import ConfigurationError, DegenerateRegressionError, TeamworkGameError, _read_spec
from .experiments import (
    _STUDY_FIELDS,
    _TUNE_FIELDS,
    SweepConfig,
    _pairs_text,
    heatmap_table,
    heaviside_study,
    increment_table,
    regression_from_records,
    run_sweep,
    strategy_table,
    tune_hyperparameters,
)
from .games import GameSpec
from .simulator import TrainConfig, train
from . import experiments as _experiments


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _apply_overrides(data: dict, overrides) -> dict:
    """Apply --set key=value pairs onto a loaded JSON object.

    Values are parsed as JSON when possible, else kept as strings; dotted
    keys descend into nested objects.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"input spec must be an object, got {type(data).__name__}")
    out = json.loads(json.dumps(data))
    for item in overrides or []:
        if "=" not in item:
            raise TeamworkGameError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = out
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise TeamworkGameError(f"--set path {key!r} does not address an object")
        target[parts[-1]] = value
    return out


def _load_input(args) -> dict:
    if args.input is None:
        data = {}
    else:
        with open(args.input) as fh:
            data = json.load(fh)
    return _apply_overrides(data, args.set)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _records_rows(records):
    header = ["index", "p1", "p2", "rho", "b", "repetition", "seed", "episodes",
              "G_hat_set", "G_tilde", "learned_actions", "skip_reason"]
    rows = [header]
    for rec in records:
        rows.append([
            rec.index, rec.p1, rec.p2, rec.rho, rec.b, rec.repetition,
            rec.seed, rec.episodes,
            ";".join(repr(g) for g in rec.G_hat_set),
            rec.G_tilde,
            ";".join(repr(a) for a in (rec.learned_actions or ())),
            rec.skip_reason or "",
        ])
    return rows


def cmd_solve(args) -> int:
    spec = GameSpec.from_dict(_load_input(args))
    out = _out_dir(args)
    try:
        results = _experiments.solve_cell(spec)
    except NoEquilibriumError as exc:
        _write_json(out / "equilibria.json", {"equilibria": [], "scan": exc.scan})
        print(f"no equilibrium found: {exc}", file=sys.stderr)
        return 2
    _write_json(out / "equilibria.json",
                {"equilibria": [asdict(r) for r in results]})
    print(f"wrote {len(results)} equilibria to {out / 'equilibria.json'}")
    return 0


def cmd_learn(args) -> int:
    spec = GameSpec.from_dict(_load_input(args))
    out = _out_dir(args)
    flags = _flag_values(args)
    floor = min(TrainConfig.anneal_floor, flags.get("tau", TrainConfig.tau))
    outcome = train(spec, TrainConfig(**flags, anneal_floor=floor))
    _write_json(out / "learned.json", asdict(outcome))
    print(f"wrote {out / 'learned.json'}")
    return 0


def cmd_sweep(args) -> int:
    config = SweepConfig.from_dict({**_load_input(args), **_flag_values(args)})
    out = _out_dir(args)
    records = run_sweep(config)
    if args.format == "json":
        _write_json(out / "records.json", [asdict(r) for r in records])
    else:
        _write_csv(out / "records.csv", _records_rows(records))
    try:
        regression = asdict(regression_from_records(records))
    except DegenerateRegressionError as exc:
        regression = {"error": str(exc)}
    _write_json(out / "regression.json", regression)
    if args.format == "csv":
        for rho in config.rho_values:
            for b in config.b_values:
                for name, table in (("heatmap", heatmap_table), ("strategy", strategy_table)):
                    _write_csv(out / f"{name}_{rho:g}_{b:g}.csv", table(records, rho, b).to_rows())
        if len(config.b_values) == 3:
            for table in increment_table(records):
                _write_csv(out / f"increments_{table.rho:g}.csv", table.to_rows())
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_heaviside(args) -> int:
    results = heaviside_study(**_read_spec(
        {**_load_input(args), **_flag_values(args)}, _STUDY_FIELDS, "heaviside spec"))
    out = _out_dir(args)
    _write_json(out / "heaviside.json", [asdict(r) for r in results])
    rows = [["p1", "p2", "mean_G", "dispersion_pct", "weaker_actions", "strategies"]]
    for r in results:
        rows.append([
            r.team[0], r.team[1], r.mean_G,
            "" if r.dispersion_pct is None else r.dispersion_pct,
            ";".join(repr(a) for a in (r.weaker_actions or ())),
            _pairs_text(r.strategy_pairs),
        ])
    _write_csv(out / "heaviside.csv", rows)
    print(f"wrote {out / 'heaviside.csv'}")
    return 0


def cmd_tune(args) -> int:
    spec = _read_spec({**_load_input(args), **_flag_values(args)}, _TUNE_FIELDS, "tune spec")
    result = tune_hyperparameters(spec.pop("budget", 0), **spec)
    out = _out_dir(args)
    _write_json(out / "tuning.json", asdict(result))
    print(f"wrote {out / 'tuning.json'}")
    return 0


# Optional flags beyond --input, --output-dir and --set.  Per subcommand
# that honours a flag, the config key it sets (None: it sets no key).
_FLAGS = {
    "--format": ({"sweep": None}, {"choices": ("csv", "json"), "default": "csv"}),
    "--seed": ({"learn": "seed", "sweep": "base_seed", "heaviside": "base_seed",
                "tune": "base_seed"}, {"type": int}),
    "--workers": ({"sweep": "workers"}, {"type": int}),
    "--episodes": ({"learn": "episodes", "sweep": "episodes", "heaviside": "episodes"},
                   {"type": int}),
    "--tau": ({"learn": "tau", "sweep": "tau"}, {"type": float}),
    "--k": ({"learn": "k", "sweep": "k"}, {"type": float}),
}


def _flag_values(args) -> dict:
    """``{config key: value}`` of the flags given on the command line; they
    override the same keys from ``--input`` and ``--set``."""
    values = {}
    for flag, (keys, _) in _FLAGS.items():
        key = keys.get(args.command)
        value = getattr(args, flag[2:], None)
        if key is not None and value is not None:
            values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamgames",
        description="Solve, learn, and sweep one-shot teamwork games.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("learn", cmd_learn),
                     ("sweep", cmd_sweep), ("heaviside", cmd_heaviside),
                     ("tune", cmd_tune)):
        p = sub.add_parser(name)
        p.add_argument("--input", help="path to the JSON game or sweep spec")
        p.add_argument("--output-dir", default=".", help="directory for outputs")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a key in the JSON spec (repeatable)")
        for flag, (commands, kwargs) in _FLAGS.items():
            if name in commands:
                p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TeamworkGameError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
