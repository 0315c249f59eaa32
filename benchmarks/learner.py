"""Time the learner and solver layers and the sweep they feed, on two commits; write a BENCH file.

    python3 benchmarks/learner.py --side before=../parent/src --side after=src \\
        --repeats 7 --tier1 --out BENCH_7.json

Each ``--side`` names a copy of the teamgames sources (default: this
checkout's ``src/`` as ``after``), so one machine times two commits with the
same seeds.  Every case runs in a fresh process pinned to one CPU, on each
side in turn, ``--repeats`` times; the file keeps every sample, the median
and the quartiles (of a digest, its distinct values):

* ``episode_us.*``: microseconds per run-episode of ``train`` on a two-,
  three- and four-player game with one run, and for two and three players
  with a full lockstep chunk of runs (``chunk_runs.*``: as many as the side's
  ``simulator._CHUNK_BYTES`` budget holds, trained by one ``train_many``
  call where it exists and by one ``train`` call per run otherwise);
* ``train50k_s``: one 50,000-episode two-player ``train``;
* ``sweep90.*``: the 90-cell acceptance grid at 5,000 episodes a cell, split
  into solving every cell and learning every cell, and a whole ``run_sweep``
  with the process's peak RSS;
* ``solve240.*``: ``solve_cell`` on the 240 cells of the default sweep grid,
  the seconds summed per regime (additive, conjunctive, disjunctive) and a
  sha256 of every cell's equilibria or exception type;
* ``tier1`` (with ``--tier1``): one run of the test suite of the checkout
  that holds each side's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
R1_EPISODES = {2: 20_000, 3: 10_000, 4: 4_000}


def _chunk_runs(n: int) -> int:
    """Runs of n players and 101 arms in one lockstep chunk at the default byte budget."""
    from teamgames import simulator
    return max(1, simulator._CHUNK_BYTES // simulator._run_bytes(n, 101))


def _game(n: int):
    import teamgames as tg
    expertise = {2: (0.3, 0.8), 3: (0.3, 0.55, 0.8), 4: (0.3, 0.5, 0.7, 0.9)}[n]
    return tg.GameSpec(n=n, rho=1.0, betas=(1.0,) * n, delta_t=10.0, expertise=expertise,
                       alpha=2.0, evaluation=tg.EvaluationSpec("logistic", d=10.0, gamma=2.0,
                                                               b=5.0))


def _train_all(jobs):
    from teamgames import simulator
    if hasattr(simulator, "train_many"):
        return simulator.train_many(jobs)
    return [simulator.train(game, config) for game, config in jobs]


def _sweep_config():
    from teamgames.experiments import SweepConfig
    return SweepConfig(expertise_values=(0.3, 0.5, 0.7, 0.9), rho_values=(-10.0, 1.0, 10.0),
                       b_values=(3.0, 5.0, 7.0), episodes=5_000, base_seed=SEED, workers=1)


def case(name: str) -> dict:
    """Run one case in this process and return its measurements."""
    import teamgames as tg
    from teamgames import experiments, simulator

    def runs(n, count, episodes):
        return [(_game(n), tg.TrainConfig(episodes=episodes,
                                           seed=simulator.spawned_seed(SEED, n, r)))
                for r in range(count)]

    out = {}
    t0 = time.perf_counter()
    if name in ("n2_R1", "n3_R1", "n4_R1"):
        episodes = R1_EPISODES[int(name[1])]
        _train_all(runs(int(name[1]), 1, episodes))
        out[f"episode_us.{name}"] = (time.perf_counter() - t0) / episodes * 1e6
    elif name in ("n2_chunk", "n3_chunk"):
        n = int(name[1])
        count = _chunk_runs(n)
        _train_all(runs(n, count, 5_000))
        out[f"episode_us.{name}"] = (time.perf_counter() - t0) / (count * 5_000) * 1e6
        out[f"chunk_runs.n{n}"] = count
    elif name == "train50k":
        tg.train(_game(2), tg.TrainConfig(episodes=50_000, seed=SEED))
        out["train50k_s"] = time.perf_counter() - t0
    elif name == "sweep_split":
        config = _sweep_config()
        specs = experiments._cell_specs(config)
        games = [experiments.cell_game(config, p1, p2, rho, b) for _, p1, p2, rho, b in specs]
        for game in games:
            try:
                experiments.solve_cell(game)
            except tg.TeamworkGameError:
                pass
        t1 = time.perf_counter()
        _train_all([(game, tg.TrainConfig(episodes=config.episodes,
                                          seed=simulator.spawned_seed(SEED, index, 0)))
                    for (index, *_), game in zip(specs, games)])
        out["sweep90.solve_s"] = t1 - t0
        out["sweep90.learn_s"] = time.perf_counter() - t1
    elif name == "solve_regimes":
        config = experiments.SweepConfig()
        seconds = {"additive": 0.0, "conjunctive": 0.0, "disjunctive": 0.0}
        digest = hashlib.sha256()
        for _, p1, p2, rho, b in experiments._cell_specs(config):
            game = experiments.cell_game(config, p1, p2, rho, b)
            regime = "additive" if rho == 1 else "conjunctive" if rho < 1 else "disjunctive"
            t1 = time.perf_counter()
            try:
                outcome = [e.to_dict() for e in experiments.solve_cell(game)]
            except tg.TeamworkGameError as exc:
                outcome = type(exc).__name__
            seconds[regime] += time.perf_counter() - t1
            digest.update(repr(outcome).encode() + b"\n")
        for regime, value in seconds.items():
            out[f"solve240.{regime}_s"] = value
        out["solve240.sha256"] = digest.hexdigest()
    elif name == "sweep":
        experiments.run_sweep(_sweep_config())
        out["sweep90.run_sweep_s"] = time.perf_counter() - t0
        out["sweep90.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        raise SystemExit(f"unknown case {name!r}")
    return out


CASES = ("n2_R1", "n2_chunk", "n3_R1", "n3_chunk", "n4_R1", "train50k", "sweep_split",
         "solve_regimes", "sweep")


def _run_case(src: str, name: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--src", src, "--case", name],
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def _tier1(src: str) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=Path(src).parent,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    return {"seconds": time.perf_counter() - t0,
            "summary": proc.stdout.strip().splitlines()[-1]}


def _describe(src: str) -> dict:
    checkout = Path(src).parent
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                            capture_output=True, text=True).stdout.strip() or None
    edited = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                            capture_output=True, text=True).stdout.strip()
    if commit and edited:
        commit += " with uncommitted edits to src/"
    source = hashlib.sha256()
    for module in sorted((Path(src) / "teamgames").glob("*.py")):
        source.update(module.name.encode() + b"\0" + module.read_bytes())
    return {"git_commit": commit, "source_sha256": source.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", metavar="LABEL=SRC",
                        help="a label and the teamgames sources it times (repeatable)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_7.json"))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        sys.path.insert(0, args.src)
        print(json.dumps(case(args.case)))
        return 0

    sides = dict(side.split("=", 1) for side in args.side or [f"after={ROOT / 'src'}"])
    sides = {label: str(Path(src).resolve()) for label, src in sides.items()}
    # every case runs on one CPU, like perfbench; children inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    samples: dict = {label: {} for label in sides}
    for repeat in range(args.repeats):
        for name in CASES:
            # alternate which side runs first, so drifts in machine speed even out
            order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
            for label in order:
                for key, value in _run_case(sides[label], name).items():
                    samples[label].setdefault(key, []).append(value)

    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    report = {"environment": {
        "machine": f"{platform.machine()} {cpu}, pinned to one of {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": SEED,
        "repeats": args.repeats,
        "order": "each case runs on every side in turn, first side alternating per repeat",
    }}
    for label, src in sides.items():
        metrics = {key: {"values": sorted(set(values))} if isinstance(values[0], str) else
                   {"median": statistics.median(values),
                    "quartiles": [float(q) for q in numpy.percentile(values, [25, 75])],
                    "samples": values}
                   for key, values in sorted(samples[label].items())}
        if args.tier1:
            metrics["tier1"] = _tier1(src)
        report[label] = {**_describe(src), "metrics": metrics}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for label in sides:
        print(label, json.dumps({k: v.get("median", v.get("seconds", v.get("values")))
                                 for k, v in report[label]["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
