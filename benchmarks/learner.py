"""Time the learner and solver layers and the sweep they feed, on two commits; write a BENCH file.

    python3 benchmarks/learner.py --side before=../parent/src --side after=src \\
        --repeats 7 --tier1 --out BENCH_9.json [--cases n2_R1,sweep_split,...]

Each ``--side`` names a copy of the teamgames sources (default: this
checkout's ``src/`` as ``after``), so one machine times two commits with the
same seeds.  Every case (all of them, or the ``--cases`` named) runs in a
fresh process pinned to one CPU, on each side in turn, ``--repeats`` times;
the file keeps every sample, the median and the quartiles (of a digest, its
distinct values).  The solver metrics time the calls the solvers really make
on the default sweep grid: a case records them while ``solve_cell`` solves
the grid untimed, then replays them, and the metric is the median of
``ROUNDS`` (5) rounds in its process, each round making every call once
(where a round solves games, it builds them afresh and clears the side's
player-type caches, outside its timer, so that no memo is warm):

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
  floats, ``ces`` and ``score`` time ``_aggregate_scalar`` (on a side
  without it, ``_scalar_ces``) and ``score_scalar`` too; ``other`` is the
  rest of the run, term gathers and uniforms among it; ``timer`` is the
  timers' own cost, each call's as a no-op wrapped in the same process
  reads it, taken out of the steps and of ``other``, so a step's own call
  overhead counts in ``other``), microseconds per run-episode.  A lone run repeats
  ``_boltzmann_weights``' operations in its episode loop, so ``softmax``
  sees only the episodes that call the kernel (a row at or below
  ``Q_MAX_FLOOR``) and the rest of the soft-max counts in ``other``;
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
  into solving every cell (``solve_s``, replay-timed on games built afresh)
  and learning every cell in one ``train_many`` call (``learn_s``), and a
  whole ``run_sweep`` with the process's peak RSS;
* ``fixture_s.*``: the setup seconds of the three learning fixtures of the
  side's ``tests/test_acceptance.py`` (the 90-cell sweep, the spot-check
  runs and the pass/fail study), from a pytest run of the tests that use
  them, as ``--durations`` reports them;
* ``solve240.*``: ``solve_cell`` on the 240 cells of the default sweep grid,
  the seconds a round takes per regime (additive, conjunctive, disjunctive)
  and a sha256 of every cell's equilibria or exception type;
* ``solve240.thresholds_s``: the seconds a round takes to solve each player's
  standalone point and then ``critical_thresholds`` for every capable player
  (one that contributes when alone) of the 90 disjunctive cells of that grid;
* ``thresholds.searches``: the critical-threshold searches ``solve_cell``
  runs on those 90 cells, solved once from cold caches (each search scores
  its first gap against no provision, and those scorings are counted);
* ``best_response_calls.*``: the ``_best_positive_response`` calls made while
  ``solve_cell`` solves the 90 disjunctive cells of that grid: how many there
  were (``count``) and microseconds per replayed call (``us``).  They
  replace ``best_response_us``, whose synthetic provisions of one game
  timed the same function;
* ``conjunctive_gift_us``: microseconds per ``_conjunctive_gift`` call, over
  the calls the concave solver makes on the 120 conjunctive cells of that
  grid;
* ``concave_f_us``: microseconds per evaluation of the concave solver's
  ``f(G) = CES(r(G)) - G`` on the 150 concave cells of that grid, at the
  points its Brent solves evaluate (``concave_f_calls``, every evaluation
  counted);
* ``result_us``: microseconds per ``_result_from_gifts`` call, over the
  calls ``solve_cell`` makes on the 240 cells (``result_calls``);
* ``oracle.*``: the criterion-7a Nash check (``verify_epsilon_nash`` with
  epsilon 1e-3 of ``max_achievable_utility``, grid step 0.01, refine step
  1e-4) of every equilibrium the solvers find on those 240 cells: how many
  checks there were (``checks``), microseconds per check (``check_us``),
  and from one more, untimed run the payoff passes (``_payoffs`` calls) per
  check (``passes``);
* ``oracle.learned_us``: microseconds per check of sweep90's 2%-epsilon Nash
  oracle (``verify_epsilon_nash`` on its default grid, epsilon 0.02 of
  ``max_achievable_utility``) on the 90 learned profiles of an untimed run
  of the ``sweep90.*`` grid (case ``oracle_learned``);
* ``roots.*``: over ``solve_cell`` on those 240 cells, the mean number of
  evaluations per root of the three outer loops, and how many roots of each
  kind were found (untimed: each recorded root search is rerun and every
  evaluation counted; a threshold that raises is not counted).  A critical
  threshold counts its ``_best_positive_response`` calls, the one at the
  root included, whatever root-finder it runs, in a rerun from cold type
  caches; a concave fixed point, a disjunctive share equation and a
  player's standalone point count the function evaluations of the
  root-finder (end values the caller passes in are not counted: the
  concave solver passes in both of its interval's ends, and the standalone
  point its value at 0).  Where a side keeps standalone points per player
  type, a solve finds one standalone root per type.  ``roots.gift_count``
  counts the gift roots (``_conjunctive_gift`` and ``_positive_branch_gift``
  calls) of that one solve, from cold type caches, as the case runs in a
  fresh process; where a side solves one gift root per player type at each
  aggregate, players of one type share it;
* ``tier1`` (with ``--tier1``): one run of the test suite of the checkout
  that holds each side's sources.
"""

from __future__ import annotations

import argparse
import contextlib
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
ROUNDS = 5  # a replay-timed metric is the median of this many rounds in one process
LONE = ("n2_R1", "n3_R1", "n4_R1", "n4_team4")
# the trainer's step functions, by the names the simulator module looks up (a
# side's simulator may lack some: a lone run updates through _update_arms, and
# scores a joint action it has not played through _aggregate_scalar, or on
# older sides _scalar_ces, and score_scalar)
STEPS = {"softmax": ("_boltzmann_weights",), "draw": ("_draw_arms",),
         "ces": ("_aggregate_terms", "_aggregate_scalar", "_scalar_ces"),
         "score": ("_score", "score_scalar"),
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


def _timed(func, step, spent: dict, calls: dict):
    """``func`` wrapped by a timer that adds each call's seconds to
    ``spent[step]`` and counts the call in ``calls[step]``."""
    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            spent[step] += time.perf_counter() - t
            calls[step] += 1
    return timed


def _timer_cost(calls: int = 100_000) -> tuple[float, float]:
    """The seconds a ``_timed`` wrapper adds to one call, inside the
    interval it reads and outside it, from a no-op called bare and then
    wrapped ``calls`` times."""
    def noop():
        pass
    spent, counted = {None: 0.0}, {None: 0}
    timed = _timed(noop, None, spent, counted)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        timed()
    t2 = time.perf_counter()
    inside = spent[None] / calls
    return inside, ((t2 - t1) - (t1 - t0)) / calls - inside


def _profiled(name: str, learn, run_episodes: int) -> dict:
    """Run ``learn()`` with the simulator's step functions wrapped by
    timers: microseconds per run-episode of each step, of the rest
    (``other``) and of the timers themselves (``timer``, calibrated on a
    no-op first and taken out of the steps and ``other``), and for a lone
    case the score function's calls per episode."""
    from teamgames import simulator
    inside, outside = _timer_cost()
    spent, calls = dict.fromkeys(STEPS, 0.0), dict.fromkeys(STEPS, 0)
    saved = {}
    for step, attr in ((step, attr) for step, attrs in STEPS.items() for attr in attrs
                       if hasattr(simulator, attr)):
        saved[attr] = func = getattr(simulator, attr)
        setattr(simulator, attr, _timed(func, step, spent, calls))
    t0 = time.perf_counter()
    try:
        learn()
    finally:
        for attr, func in saved.items():
            setattr(simulator, attr, func)
    total = time.perf_counter() - t0
    wrapped = sum(calls.values())
    out = {f"step_us.{name}.{step}": (spent[step] - calls[step] * inside) / run_episodes * 1e6
           for step in STEPS}
    out[f"step_us.{name}.other"] = \
        (total - sum(spent.values()) - wrapped * outside) / run_episodes * 1e6
    out[f"step_us.{name}.timer"] = wrapped * (inside + outside) / run_episodes * 1e6
    if name in LONE:
        out[f"score_evals.{name}"] = calls["score"] / run_episodes
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


def _cells(keep=lambda rho: True):
    """Each game of the default sweep grid whose rho passes ``keep``, with
    ``solve_cell``'s equilibria and the name of the error it raised (no
    equilibria, or None where it returned)."""
    import teamgames as tg
    from teamgames import experiments
    config = experiments.SweepConfig()
    for _, p1, p2, rho, b in experiments._cell_specs(config):
        if keep(rho):
            game = experiments.cell_game(config, p1, p2, rho, b)
            try:
                equilibria, error = experiments.solve_cell(game), None
            except tg.TeamworkGameError as exc:
                equilibria, error = [], type(exc).__name__
            yield game, equilibria, error


@contextlib.contextmanager
def _recorded(module, name: str, caller: str | None = None):
    """Log each call of the global ``module.name`` while the block runs, as
    ``(function, args, kwargs)`` in the list it yields (only the calls made
    from the function named ``caller``, if given), and restore the global
    on exit.  Module globals are looked up per call, so every caller sees
    the recorder."""
    func, calls = getattr(module, name), []

    def recorder(*args, **kwargs):
        if caller is None or sys._getframe(1).f_code.co_name == caller:
            calls.append((func, args, kwargs))
        return func(*args, **kwargs)
    setattr(module, name, recorder)
    try:
        yield calls
    finally:
        setattr(module, name, func)


def _cold_types():
    """Clear the side's process-wide player-type caches, where it has them,
    so that the next solve finds no standalone point or threshold kept."""
    from teamgames import equilibrium
    for name in ("_type_standalone", "_type_thresholds"):
        if hasattr(equilibrium, name):
            getattr(equilibrium, name).cache_clear()


def _cold_solves(games) -> list:
    """One round of ``solve_cell`` calls on ``games``, each built afresh and
    the type caches cleared, so that no memo is warm when the round starts."""
    from teamgames import experiments
    _cold_types()
    return [(experiments.solve_cell, (dataclasses.replace(game),), {}) for game in games]


def _replay(calls) -> float:
    """The median seconds of ``ROUNDS`` rounds, each of which makes every
    ``(function, args, kwargs)`` call once; a call that raises a
    ``TeamworkGameError`` counts as made.  ``calls`` is a list, or a
    function that builds each round's list before the round's timer starts
    (to solve games afresh, whose memos would be warm after one round)."""
    from teamgames import TeamworkGameError
    seconds = []
    for _ in range(ROUNDS):
        batch = calls() if callable(calls) else calls
        t0 = time.perf_counter()
        for func, args, kwargs in batch:
            try:
                func(*args, **kwargs)
            except TeamworkGameError:
                pass
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


def _points(call) -> tuple:
    """The function of a recorded ``_brent`` call and the points the call
    evaluates it at, from a rerun (the root-finder is deterministic)."""
    brent, (f, *ends), kwargs = call
    points = []
    brent(lambda x: points.append(x) or f(x), *ends, **kwargs)
    return f, points


def case(name: str) -> dict:
    """Run one case in this process and return its measurements."""
    import teamgames as tg
    from teamgames import equilibrium, experiments, simulator

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
        out["sweep90.solve_s"] = _replay(lambda: _cold_solves(games))
        jobs = [(game, tg.TrainConfig(episodes=config.episodes,
                                      seed=simulator.spawned_seed(SEED, index, 0)))
                for (index, *_), game in zip(specs, games)]
        t1 = time.perf_counter()
        tg.train_many(jobs)
        out["sweep90.learn_s"] = time.perf_counter() - t1
        run_episodes = len(jobs) * config.episodes
        out["episode_us.sweep90_chunk"] = out["sweep90.learn_s"] / run_episodes * 1e6
        out.update(_profiled("sweep90_chunk", lambda: tg.train_many(jobs), run_episodes))
    elif name == "solve_regimes":
        regimes = {"additive": [], "conjunctive": [], "disjunctive": []}
        digest = hashlib.sha256()
        for game, equilibria, error in _cells():
            rho = game.rho
            regime = "additive" if rho == 1 else "conjunctive" if rho < 1 else "disjunctive"
            regimes[regime].append(game)
            outcome = error or [dataclasses.asdict(e) for e in equilibria]
            digest.update(repr(outcome).encode() + b"\n")
        for regime, games in regimes.items():
            out[f"solve240.{regime}_s"] = _replay(lambda games=games: _cold_solves(games))
        out["solve240.sha256"] = digest.hexdigest()
    elif name == "thresholds":
        cells = [(game, [i for i in range(game.n)
                         if equilibrium._standalone_pair(i, game)[0] > equilibrium.BOUNDARY_TOL])
                 for game, *_ in _cells(lambda rho: rho > 1)]

        def fresh():
            # games built afresh and cold type caches, each player's standalone point
            # solved in the timer and then the thresholds of every player who contributes alone
            _cold_types()
            calls = []
            for game, capable in cells:
                game = dataclasses.replace(game)
                calls += [(equilibrium._standalone_pair, (i, game), {}) for i in range(game.n)]
                calls += [(equilibrium.critical_thresholds, (i, game), {}) for i in capable]
            return calls
        out["solve240.thresholds_s"] = _replay(fresh)
        # a threshold search scores its first gap against no provision, and only that one
        _cold_types()
        with _recorded(equilibrium, "_indifference_gap") as gaps:
            list(_cells(lambda rho: rho > 1))
        out["thresholds.searches"] = sum(args[2] == 0.0 for _, args, _ in gaps)
    elif name == "best_response_calls":
        with _recorded(equilibrium, "_best_positive_response") as calls:
            list(_cells(lambda rho: rho > 1))
        out["best_response_calls.us"] = _replay(calls) / len(calls) * 1e6
        out["best_response_calls.count"] = len(calls)
    elif name == "conjunctive_gift":
        with _recorded(equilibrium, "_conjunctive_gift") as calls:
            list(_cells(lambda rho: rho < 1))
        out["conjunctive_gift_us"] = _replay(calls) / len(calls) * 1e6
    elif name == "concave_f_us":
        with _recorded(equilibrium, "_brent", "solve_equilibrium_concave") as roots:
            list(_cells(lambda rho: rho <= 1))
        calls = [(f, (x,), {}) for f, points in map(_points, roots) for x in points]
        out["concave_f_us"] = _replay(calls) / len(calls) * 1e6
        out["concave_f_calls"] = len(calls)
    elif name == "result_us":
        with _recorded(equilibrium, "_result_from_gifts") as calls:
            list(_cells())
        out["result_us"] = _replay(calls) / len(calls) * 1e6
        out["result_calls"] = len(calls)
    elif name == "oracle":
        checks = [(equilibrium.verify_epsilon_nash,
                   (e.actions, game, 1e-3 * equilibrium.max_achievable_utility(game)),
                   {"grid_step": 0.01, "refine_step": 1e-4})
                  for game, equilibria, _ in _cells() for e in equilibria]
        out["oracle.check_us"] = _replay(checks) / len(checks) * 1e6
        out["oracle.checks"] = len(checks)
        with _recorded(equilibrium, "_payoffs") as passes:
            for f, args, kwargs in checks:
                f(*args, **kwargs)
        out["oracle.passes"] = len(passes) / len(checks)
    elif name == "oracle_learned":
        config = _sweep_config()
        checks = []
        for r in experiments.run_sweep(config):
            game = experiments.cell_game(config, r.p1, r.p2, r.rho, r.b)
            eps = 0.02 * equilibrium.max_achievable_utility(game)
            checks.append((equilibrium.verify_epsilon_nash, (r.learned_actions, game, eps), {}))
        out["oracle.learned_us"] = _replay(checks) / len(checks) * 1e6
    elif name == "roots":
        # a root's kind is the solver whose function it finds the root of
        kinds = {"solve_equilibrium_concave": "concave",
                 "enumerate_disjunctive_equilibria": "share", "_lone_root": "standalone"}
        with _recorded(equilibrium, "_brent") as roots, \
                _recorded(equilibrium, "critical_thresholds") as thresholds, \
                _recorded(equilibrium, "_conjunctive_gift") as conjunctive, \
                _recorded(equilibrium, "_positive_branch_gift") as positive:
            list(_cells())
        out["roots.gift_count"] = len(conjunctive) + len(positive)
        evals = {"thresholds": [], **{kind: [] for kind in kinds.values()}}
        for f, points in map(_points, roots):
            evals[kinds[f.__qualname__.split(".")[0]]].append(len(points))
        for f, args, kwargs in thresholds:  # each threshold's best responses, from a cold rerun
            _cold_types()
            with _recorded(equilibrium, "_best_positive_response") as responses:
                try:
                    f(*args, **kwargs)
                except tg.TeamworkGameError:
                    continue
            evals["thresholds"].append(len(responses))
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
         "thresholds", "best_response_calls", "conjunctive_gift", "concave_f_us", "result_us",
         "oracle", "oracle_learned", "roots", "sweep", "fixtures")


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
