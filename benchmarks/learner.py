"""Time the learner and solver layers and the sweep they feed, on two commits; write a BENCH file.

    python3 benchmarks/learner.py --side before=../parent/src --side after=src \\
        --repeats 7 --tier1 --out BENCH_9.json [--cases n2_R1,sweep_split,...]

Each ``--side`` names a copy of the teamgames sources (default: this
checkout's ``src/`` as ``after``), so one machine times two commits with the
same seeds.  Every case (all of them, or the ``--cases`` named) runs in a
fresh process pinned to one CPU, on each side in turn, ``--repeats`` times;
the file keeps every sample, the median and the quartiles (of a digest, its
distinct values):

* ``episode_us.*``: microseconds per run-episode of ``train`` on a two-,
  three- and four-player game with one run (``n*_R1``); of the team4
  benchmark workload's lone runs (``n4_team4``: its four four-player games,
  four seeds each, 2,000 episodes, one ``train`` call per run); of 8 and 16
  two-player runs learned together for 5,000 episodes (``n2_R8`` and
  ``n2_R16``: 16 and 32 agents, on either side of the agent count
  ``simulator._ARM_MAJOR_AGENTS`` from which a chunk is stored arm-major);
  of 16 four-player runs learned together (``n4_R16``); for two and three
  players with a full lockstep chunk of runs (``chunk_runs.*``: as many as
  the side's ``simulator._CHUNK_BYTES`` budget holds); and of the sweep90
  learning chunk (``sweep90_chunk``: 90 two-player runs).  Runs learned
  together go through one ``train_many`` call;
* ``step_us.<case>.<step>``: where that time goes, from a second run of
  the same case (not the one ``episode_us`` times) with the trainer's step
  functions wrapped by timers
  (``softmax``, ``draw``, ``ces`` for ``_aggregate_terms``, ``score`` for
  ``_score`` and ``update``, which times ``_update_arms`` too where a side
  has it; where a lone run scores a joint action it has not played in
  floats, ``ces`` and ``score`` time ``_scalar_ces`` and ``score_scalar``
  too; ``other``
  is the rest of the run, term gathers, uniforms and the timers' own cost
  among it), microseconds per run-episode.  Where a lone run computes its
  soft-max in the episode loop, ``softmax`` sees only the episodes that
  call ``_boltzmann_weights`` (a row at or below ``Q_MAX_FLOOR``) and the
  rest of the soft-max counts in ``other``;
* ``score_evals.<case>``: for the lone cases, calls of the trainer's score
  functions (``_score``, and ``score_scalar`` where a side has it: one per
  joint action not played before) per episode in that second run;
* ``layout.n2_A<agents>``: on a side whose simulator has
  ``_ARM_MAJOR_AGENTS``, the median time of ``train_many`` on 4, 8, 12 and
  16 two-player runs (8 to 32 agents, 20,000 run-episodes) with every
  chunk forced arm-major, over the same with every chunk forced
  row-major, from 9 alternating pairs: where the constant should lie;
* ``train50k_s``: one 50,000-episode two-player ``train``;
* ``lone50k.*``: one 50,000-episode ``train`` of the team4 workload's
  additive four-player game (``n4``: 31,120 distinct joint actions at seed
  1, so a lone run's memo is at its largest), its seconds and the process's
  peak RSS;
* ``sweep90.*``: the 90-cell acceptance grid at 5,000 episodes a cell, split
  into solving every cell and learning every cell, and a whole ``run_sweep``
  with the process's peak RSS;
* ``fixture_s.*``: the setup seconds of the three learning fixtures of the
  side's ``tests/test_acceptance.py`` (the 90-cell sweep, the spot-check
  runs and the pass/fail study), from a pytest run of the tests that use
  them, as ``--durations`` reports them;
* ``solve240.*``: ``solve_cell`` on the 240 cells of the default sweep grid,
  the seconds summed per regime (additive, conjunctive, disjunctive) and a
  sha256 of every cell's equilibria or exception type;
* ``solve240.thresholds_s``: ``critical_thresholds`` for every capable player
  (one that contributes when alone) of the 90 disjunctive cells of that grid;
* ``best_response_us``: microseconds per ``_best_positive_response`` call of
  one disjunctive player, over a sweep of the opponents' provision;
* ``best_response_calls.*``: the ``_best_positive_response`` calls made while
  ``solve_cell`` solves the 90 disjunctive cells of that grid, recorded once
  per process with their keyword arguments and replayed: how many there were
  (``count``) and microseconds per replayed call (``us``);
* ``conjunctive_gift_us``: microseconds per ``_conjunctive_gift`` call on
  the 120 conjunctive cells of that grid, every player, at 33 evenly spaced
  aggregates across each cell's solver interval (the points of the
  2,049-point bracket scan that ``scan.conjunctive_gift_us`` timed before
  ``BENCH_21`` removed the scan);
* ``concave_f_us``: microseconds per evaluation of the concave solver's
  ``f(G) = CES(r(G)) - G`` on the 150 concave cells of that grid, replayed
  at the points its Brent solves evaluated while ``solve_cell`` solved them
  (``concave_f_calls``, every evaluation counted);
* ``oracle.*``: the criterion-7a Nash check (``verify_epsilon_nash`` with
  epsilon 1e-3 of ``max_achievable_utility``, grid step 0.01, refine step
  1e-4) of every equilibrium the solvers find on those 240 cells, after
  solving them untimed: how many checks there were (``checks``),
  microseconds per check (``check_us``), and from a second, untimed run
  the payoff passes (``_payoffs`` calls) per check (``passes``);
* ``roots.*``: over ``solve_cell`` on those 240 cells, the mean number of
  evaluations per root of the three outer loops, and how many roots of each
  kind were found (untimed: every evaluation is counted).  A critical
  threshold counts its ``_best_positive_response`` calls, the one at the
  root included, whatever root-finder it runs; a concave fixed point, a
  disjunctive share equation and a player's standalone point count the
  function evaluations of the root-finder (end values the caller passes in
  are not counted: the concave solver passes in both of its interval's
  ends, and the standalone point its value at 0);
* ``tier1`` (with ``--tier1``): one run of the test suite of the checkout
  that holds each side's sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
R1_EPISODES = {2: 20_000, 3: 10_000, 4: 4_000}
LONE = ("n2_R1", "n3_R1", "n4_R1", "n4_team4")
# the trainer's step functions, by the names the simulator module looks up (a
# side's simulator may lack some: a lone run updates through _update_arms, and
# scores a joint action it has not played through _scalar_ces and score_scalar)
STEPS = {"softmax": ("_boltzmann_weights",), "draw": ("_draw_arms",),
         "ces": ("_aggregate_terms", "_scalar_ces"), "score": ("_score", "score_scalar"),
         "update": ("_update_q", "_update_arms")}
# the learning fixtures of tests/test_acceptance.py, by the test class charged their setup
FIXTURES = {"TestCriterion3Regression": "sweep_records",
            "TestCriterion4LearnedSpotChecks": "spot_check_outcomes",
            "TestCriterion6Heaviside": "heaviside_results"}


def _chunk_runs(n: int) -> int:
    """Runs of n players and 101 arms in one lockstep chunk at the default byte budget."""
    from teamgames import simulator
    return max(1, simulator._CHUNK_BYTES // simulator._run_bytes(n, 101))


def _game(n: int, rho: float = 1.0, kind: str = "logistic"):
    import teamgames as tg
    expertise = {2: (0.3, 0.8), 3: (0.3, 0.55, 0.8), 4: (0.3, 0.5, 0.7, 0.9)}[n]
    return tg.GameSpec(n=n, rho=rho, betas=(1.0,) * n, delta_t=10.0, expertise=expertise,
                       alpha=2.0, evaluation=tg.EvaluationSpec(kind, d=10.0, gamma=2.0, b=5.0))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _profiled(name: str, learn, run_episodes: int) -> dict:
    """Run ``learn()`` with the simulator's step functions wrapped by
    timers: microseconds per run-episode of each step, and for a lone case
    the score function's calls per episode."""
    from teamgames import simulator
    spent = dict.fromkeys(STEPS, 0.0)
    score_calls = 0
    saved = {}
    for step, attr in ((step, attr) for step, attrs in STEPS.items() for attr in attrs
                       if hasattr(simulator, attr)):
        saved[attr] = func = getattr(simulator, attr)

        def timed(*args, _func=func, _step=step, **kwargs):
            nonlocal score_calls
            t = time.perf_counter()
            try:
                return _func(*args, **kwargs)
            finally:
                spent[_step] += time.perf_counter() - t
                score_calls += _step == "score"
        setattr(simulator, attr, timed)
    t0 = time.perf_counter()
    try:
        learn()
    finally:
        for attr, func in saved.items():
            setattr(simulator, attr, func)
    total = time.perf_counter() - t0
    out = {f"step_us.{name}.{step}": seconds / run_episodes * 1e6
           for step, seconds in spent.items()}
    out[f"step_us.{name}.other"] = (total - sum(spent.values())) / run_episodes * 1e6
    if name in LONE:
        out[f"score_evals.{name}"] = score_calls / run_episodes
    return out


def _fixture_setups(src: str) -> dict:
    """Setup seconds of the acceptance suite's learning fixtures."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=0", "-k", " or ".join(FIXTURES),
                           "tests/test_acceptance.py"], cwd=Path(src).parent,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    out = {}
    for line in proc.stdout.splitlines():
        match = re.match(r"([0-9.]+)s setup\s+\S+::(\w+)::", line)
        if match and match.group(2) in FIXTURES:
            key = f"fixture_s.{FIXTURES[match.group(2)]}"
            out[key] = max(out.get(key, 0.0), float(match.group(1)))
    if len(out) != len(FIXTURES):
        raise SystemExit(f"fixture setups not found in:\n{proc.stdout[-2000:]}")
    return out


def _sweep_config():
    from teamgames.experiments import SweepConfig
    return SweepConfig(expertise_values=(0.3, 0.5, 0.7, 0.9), rho_values=(-10.0, 1.0, 10.0),
                       b_values=(3.0, 5.0, 7.0), episodes=5_000, base_seed=SEED, workers=1)


def case(name: str) -> dict:
    """Run one case in this process and return its measurements."""
    import numpy
    import teamgames as tg
    from teamgames import experiments, simulator

    def runs(n, count, episodes):
        return [(_game(n), tg.TrainConfig(episodes=episodes,
                                           seed=simulator.spawned_seed(SEED, n, r)))
                for r in range(count)]

    def timed_and_profiled(learn, run_episodes):
        t0 = time.perf_counter()
        learn()
        out[f"episode_us.{name}"] = (time.perf_counter() - t0) / run_episodes * 1e6
        out.update(_profiled(name, learn, run_episodes))

    out = {}
    t0 = time.perf_counter()
    if name in ("n2_R1", "n3_R1", "n4_R1"):
        episodes = R1_EPISODES[int(name[1])]
        jobs = runs(int(name[1]), 1, episodes)
        timed_and_profiled(lambda: tg.train_many(jobs), episodes)
    elif name == "n4_team4":
        # the games, episodes and seeds of perfbench's team4 workload, four seeds a game
        games = [_game(4, 1.0), _game(4, -10.0), _game(4, 10.0), _game(4, 1.0, "heaviside")]
        jobs = [(game, tg.TrainConfig(episodes=2_000, seed=simulator.spawned_seed(SEED, g, r)))
                for g, game in enumerate(games) for r in range(4)]
        timed_and_profiled(lambda: [tg.train(*job) for job in jobs], len(jobs) * 2_000)
    elif name in ("n2_R8", "n2_R16", "n4_R16"):
        n, count = int(name[1]), int(name[4:])
        episodes = 5_000 if n == 2 else 2_000
        jobs = runs(n, count, episodes)
        timed_and_profiled(lambda: tg.train_many(jobs), count * episodes)
    elif name in ("n2_chunk", "n3_chunk"):
        n = int(name[1])
        count = _chunk_runs(n)
        tg.train_many(runs(n, count, 5_000))
        out[f"episode_us.{name}"] = (time.perf_counter() - t0) / (count * 5_000) * 1e6
        out[f"chunk_runs.n{n}"] = count
    elif name == "layout":
        if hasattr(simulator, "_ARM_MAJOR_AGENTS"):
            for count in (4, 8, 12, 16):
                jobs = runs(2, count, 20_000 // count)
                seconds = {0: [], 1 << 40: []}  # every chunk arm-major, row-major
                for repeat in range(9):
                    for threshold in list(seconds)[::1 - 2 * (repeat % 2)]:
                        simulator._ARM_MAJOR_AGENTS = threshold
                        t1 = time.perf_counter()
                        tg.train_many(jobs)
                        seconds[threshold].append(time.perf_counter() - t1)
                arm, row = (statistics.median(values) for values in seconds.values())
                out[f"layout.n2_A{2 * count}"] = arm / row
    elif name == "train50k":
        tg.train(_game(2), tg.TrainConfig(episodes=50_000, seed=SEED))
        out["train50k_s"] = time.perf_counter() - t0
    elif name == "lone50k_n4":
        tg.train(_game(4), tg.TrainConfig(episodes=50_000, seed=SEED))
        out["lone50k.n4_s"] = time.perf_counter() - t0
        out["lone50k.n4_peak_rss_mb"] = _peak_rss_mb()
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
        jobs = [(game, tg.TrainConfig(episodes=config.episodes,
                                      seed=simulator.spawned_seed(SEED, index, 0)))
                for (index, *_), game in zip(specs, games)]
        tg.train_many(jobs)
        out["sweep90.solve_s"] = t1 - t0
        out["sweep90.learn_s"] = time.perf_counter() - t1
        run_episodes = len(jobs) * config.episodes
        out["episode_us.sweep90_chunk"] = out["sweep90.learn_s"] / run_episodes * 1e6
        out.update(_profiled("sweep90_chunk", lambda: tg.train_many(jobs), run_episodes))
    elif name == "solve_regimes":
        config = experiments.SweepConfig()
        seconds = {"additive": 0.0, "conjunctive": 0.0, "disjunctive": 0.0}
        digest = hashlib.sha256()
        for _, p1, p2, rho, b in experiments._cell_specs(config):
            game = experiments.cell_game(config, p1, p2, rho, b)
            regime = "additive" if rho == 1 else "conjunctive" if rho < 1 else "disjunctive"
            t1 = time.perf_counter()
            try:
                outcome = [dataclasses.asdict(e) for e in experiments.solve_cell(game)]
            except tg.TeamworkGameError as exc:
                outcome = type(exc).__name__
            seconds[regime] += time.perf_counter() - t1
            digest.update(repr(outcome).encode() + b"\n")
        for regime, value in seconds.items():
            out[f"solve240.{regime}_s"] = value
        out["solve240.sha256"] = digest.hexdigest()
    elif name == "thresholds":
        from teamgames import equilibrium
        config = experiments.SweepConfig()
        games = [experiments.cell_game(config, p1, p2, rho, b)
                 for _, p1, p2, rho, b in experiments._cell_specs(config) if rho > 1]
        t0 = time.perf_counter()
        for game in games:
            for i in range(game.n):
                if equilibrium._standalone_pair(i, game)[0] > equilibrium.BOUNDARY_TOL:
                    try:
                        equilibrium.critical_thresholds(i, game)
                    except tg.TeamworkGameError:
                        pass
        out["solve240.thresholds_s"] = time.perf_counter() - t0
    elif name == "best_response":
        from teamgames import equilibrium
        game = experiments.cell_game(experiments.SweepConfig(), 0.5, 0.9, 10.0, 5.0)
        provisions = [0.1 * k for k in range(100)]
        t0 = time.perf_counter()
        for G_minus in provisions:
            equilibrium._best_positive_response(game, 0, G_minus)
        out["best_response_us"] = (time.perf_counter() - t0) / len(provisions) * 1e6
    elif name == "best_response_calls":
        from teamgames import equilibrium
        config = experiments.SweepConfig()
        best = equilibrium._best_positive_response
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return best(*args, **kwargs)
        equilibrium._best_positive_response = recorded
        try:
            for _, p1, p2, rho, b in experiments._cell_specs(config):
                if rho > 1:
                    try:
                        experiments.solve_cell(experiments.cell_game(config, p1, p2, rho, b))
                    except tg.TeamworkGameError:
                        pass
        finally:
            equilibrium._best_positive_response = best
        t0 = time.perf_counter()
        for args, kwargs in calls:
            best(*args, **kwargs)
        out["best_response_calls.us"] = (time.perf_counter() - t0) / len(calls) * 1e6
        out["best_response_calls.count"] = len(calls)
    elif name == "conjunctive_gift":
        from teamgames import equilibrium
        config = experiments.SweepConfig()
        calls = []
        for _, p1, p2, rho, b in experiments._cell_specs(config):
            if rho >= 1:
                continue
            game = experiments.cell_game(config, p1, p2, rho, b)
            standalones = [equilibrium._standalone_pair(i, game)[1] for i in range(game.n)]
            if rho > 0:
                lo, hi = max(standalones), game.max_aggregate()
            else:
                hi = min(standalones)
                lo = hi * 1e-9
            calls += [(equilibrium.ratio_scalar(game.evaluation, G), G, game.expertise[i],
                       game.betas[i], game.alpha, game.delta_t, rho)
                      for G in map(float, numpy.linspace(lo, hi, 33)) for i in range(game.n)]
        t0 = time.perf_counter()
        for args in calls:
            equilibrium._conjunctive_gift(*args)
        out["conjunctive_gift_us"] = (time.perf_counter() - t0) / len(calls) * 1e6
    elif name == "concave_f_us":
        from teamgames import equilibrium
        config = experiments.SweepConfig()
        brent, calls = equilibrium._brent, []

        def recorded(f, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "solve_equilibrium_concave":
                return brent(f, *args, **kwargs)

            def logged(x):
                calls.append((f, x))
                return f(x)
            return brent(logged, *args, **kwargs)
        equilibrium._brent = recorded
        try:
            for _, p1, p2, rho, b in experiments._cell_specs(config):
                if rho <= 1:
                    try:
                        experiments.solve_cell(experiments.cell_game(config, p1, p2, rho, b))
                    except tg.TeamworkGameError:
                        pass
        finally:
            equilibrium._brent = brent
        t0 = time.perf_counter()
        for f, x in calls:
            f(x)
        out["concave_f_us"] = (time.perf_counter() - t0) / len(calls) * 1e6
        out["concave_f_calls"] = len(calls)
    elif name == "oracle":
        from teamgames import equilibrium
        config = experiments.SweepConfig()
        checks = []
        for _, p1, p2, rho, b in experiments._cell_specs(config):
            game = experiments.cell_game(config, p1, p2, rho, b)
            try:
                equilibria = experiments.solve_cell(game)
            except tg.TeamworkGameError:
                continue
            eps = 1e-3 * equilibrium.max_achievable_utility(game)
            checks += [(e.actions, game, eps) for e in equilibria]

        def check_all():
            for args in checks:
                equilibrium.verify_epsilon_nash(*args, grid_step=0.01, refine_step=1e-4)
        t0 = time.perf_counter()
        check_all()
        out["oracle.check_us"] = (time.perf_counter() - t0) / len(checks) * 1e6
        out["oracle.checks"] = len(checks)
        payoffs, passes = equilibrium._payoffs, 0

        def counted(*args, **kwargs):
            nonlocal passes
            passes += 1
            return payoffs(*args, **kwargs)
        equilibrium._payoffs = counted
        try:
            check_all()
        finally:
            equilibrium._payoffs = payoffs
        out["oracle.passes"] = passes / len(checks)
    elif name == "roots":
        from teamgames import equilibrium
        callers = {"solve_equilibrium_concave": "concave",
                   "enumerate_disjunctive_equilibria": "share",
                   "_lone_root": "standalone"}
        evals = {"thresholds": [], **{kind: [] for kind in callers.values()}}
        best, thresholds = equilibrium._best_positive_response, equilibrium.critical_thresholds
        responses = None  # best responses of the threshold being found

        def counted_best(*args, **kwargs):
            nonlocal responses
            if responses is not None:
                responses += 1
            return best(*args, **kwargs)

        def counted_thresholds(*args, **kwargs):
            nonlocal responses
            responses = 0
            try:
                result = thresholds(*args, **kwargs)
            finally:
                count, responses = responses, None
            evals["thresholds"].append(count)
            return result

        def counting(finder):
            def wrapper(f, *args, **kwargs):
                kind = callers.get(sys._getframe(1).f_code.co_name)
                calls = 0

                def counted(x):
                    nonlocal calls
                    calls += 1
                    return f(x)
                try:
                    return finder(counted, *args, **kwargs)
                finally:
                    if kind:
                        evals[kind].append(calls)
            return wrapper

        # module globals are looked up per call
        equilibrium._brent = counting(equilibrium._brent)
        equilibrium._best_positive_response = counted_best
        equilibrium.critical_thresholds = counted_thresholds
        config = experiments.SweepConfig()
        for _, p1, p2, rho, b in experiments._cell_specs(config):
            try:
                experiments.solve_cell(experiments.cell_game(config, p1, p2, rho, b))
            except tg.TeamworkGameError:
                pass
        for kind, counts in evals.items():
            out[f"roots.{kind}_evals"] = statistics.mean(counts) if counts else 0.0
            out[f"roots.{kind}_count"] = len(counts)
    elif name == "sweep":
        experiments.run_sweep(_sweep_config())
        out["sweep90.run_sweep_s"] = time.perf_counter() - t0
        out["sweep90.peak_rss_mb"] = _peak_rss_mb()
    elif name == "fixtures":
        out.update(_fixture_setups(sys.path[0]))
    else:
        raise SystemExit(f"unknown case {name!r}")
    return out


CASES = ("n2_R1", "n2_R8", "n2_R16", "n2_chunk", "n3_R1", "n3_chunk", "n4_R1", "n4_team4",
         "n4_R16", "layout", "train50k", "lone50k_n4", "sweep_split", "solve_regimes",
         "thresholds", "best_response", "best_response_calls", "conjunctive_gift",
         "concave_f_us", "oracle", "roots", "sweep", "fixtures")


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


def _commit(src: str) -> str | None:
    """The commit checked out where ``src`` lives, or None when ``src``'s
    parent is not the top of a git checkout (a ``git archive`` copy)."""
    checkout = Path(src).parent

    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True).stdout.strip()
    if not checkout.is_dir():
        return None
    top = git("rev-parse", "--show-toplevel")
    return git("rev-parse", "HEAD") if top and Path(top) == checkout else None


def _describe(src: str) -> dict:
    checkout = Path(src).parent
    commit = _commit(src)
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
    parser.add_argument("--out", help="the BENCH file to write (required)")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--cases", default=",".join(CASES),
                        help="comma-separated cases to run (default: all of them)")
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        sys.path.insert(0, args.src)
        print(json.dumps(case(args.case)))
        return 0
    if not args.out:
        parser.error("--out is required, so a rerun cannot overwrite an earlier BENCH file")
    cases = args.cases.split(",")
    unknown = [name for name in cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; choose from {', '.join(CASES)}")

    sides = dict(side.split("=", 1) for side in args.side or [f"after={ROOT / 'src'}"])
    sides = {label: str(Path(src).resolve()) for label, src in sides.items()}
    untracked = [label for label, src in sides.items() if _commit(src) is None]
    if untracked:
        parser.error(f"--side {', '.join(untracked)}: the sources' parent is not a git "
                     "checkout, so no commit would name the numbers; use a git clone")
    # every case runs on one CPU, like perfbench; children inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    samples: dict = {label: {} for label in sides}
    for repeat in range(args.repeats):
        for name in cases:
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
        "cases": cases,
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
