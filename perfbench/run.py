"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep90 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; teamgames is imported from ``src/``.
``--trace 0`` repeats whole passes of the workload until ``--seconds`` of
measurement have passed (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and then one traced pass,
reports the per-layer metrics from the traced pass, and writes its spans to
``.perfbench/``.  The line before the last is a full JSON report (machine,
versions, digest, every metric, failures by type); the last line is the
summary ``{"correct", "attempted", "failed", "metrics"}``.
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
from collections import Counter
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7


def import_program():
    """Import teamgames from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "teamgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no teamgames sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import teamgames
    if Path(teamgames.__file__).resolve().parent != src / "teamgames":
        sys.exit(f"perfbench: imported teamgames from {teamgames.__file__}, not {src}")


def environment(seed: int, seconds: int, nproc: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "teamgames").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "machine": f"{platform.node()} {platform.machine()} {cpu}",
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "run_seconds": seconds,
    }


def measure_setup(workload: str, seed: int, speed) -> tuple[float, float, float]:
    """Median time of fresh processes that import teamgames and build the
    inputs: (raw seconds, seconds at the speed probe's nominal speed, CPU
    seconds of the process)."""
    from perfbench.speed import NOMINAL_KERNEL_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    raw, nominal, cpu = [], [], []
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        # No timeout: with one, Popen.wait polls and rounds the time up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        t1 = perf_counter()
        raw.append(t1 - t0)
        nominal.append(speed.kernels(t0, t1) * NOMINAL_KERNEL_S)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return statistics.median(raw), statistics.median(nominal), statistics.median(cpu)


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(passes, setup: tuple[float, float, float]) -> dict:
    ops = [ms for p in passes for ms in p.op_ms]
    attempted = sum(p.attempted for p in passes)
    gaps = [p.theory_gap for p in passes if p.theory_gap is not None]
    checked = sum(p.nash_checked for p in passes)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "wall_cal": (statistics.median(p.wall_cal for p in passes), "cal"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "setup_s": (setup[1], "s"),
        "setup_raw_s": (setup[0], "s"),
        "setup_cpu_s": (setup[2], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms.p50": (percentile(ops, 50), "ms"),
        "op_ms.p95": (percentile(ops, 95), "ms"),
        "failed_frac": (sum(p.failed for p in passes) / attempted, "ratio"),
        "nash_miss_frac": (sum(p.nash_missed for p in passes) / checked if checked else 0.0,
                           "ratio"),
        "theory_gap": (statistics.median(gaps) if gaps else 0.0, "work_units"),
    }


def per_layer(tr, workload, traced, reference) -> dict:
    import numpy as np
    from perfbench.tracer import REGIMES

    out = {}

    def span(name, time_key, scale):
        calls, self_s, _ = tr.stat(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.{time_key}"] = (self_s * scale, time_key.split("_")[-1])

    span("bandit.boltzmann_probabilities", "self_us", 1e6)
    span("bandit.update_q", "self_us", 1e6)
    span("simulator.train", "self_s", 1.0)
    train_total = tr.stat("simulator.train")[2]
    episodes = workload.episodes_per_pass
    out["simulator.episode_us"] = (train_total / episodes * 1e6 if episodes else 0.0, "us")
    span("games.evaluate_joint_action", "self_us", 1e6)
    span("evaluation.eval_score", "self_us", 1e6)
    span("games.ces_aggregate", "self_us", 1e6)
    span("games.ces_aggregate_grid", "self_ms", 1e3)
    solve_s = 0.0
    for r in REGIMES:
        calls, _, total = tr.stat(f"equilibrium.solve.{r}")
        durations, evals = tr.returned_spans(f"equilibrium.solve.{r}")
        solve_s += total
        out[f"equilibrium.solve.{r}.calls"] = (calls, "count")
        out[f"equilibrium.solve.{r}.ms"] = (
            float(np.median(durations)) * 1e3 if durations.size else 0.0, "ms")
        out[f"equilibrium.solve.{r}.evals"] = (
            float(np.median(evals)) if evals.size else 0.0, "count")
    for name, calls in tr.scalar_calls.items():
        out[f"{name}.calls"] = (calls, "count")
    calls, _, total = tr.stat("equilibrium.verify_epsilon_nash")
    out["equilibrium.verify_epsilon_nash.calls"] = (calls, "count")
    out["equilibrium.verify_epsilon_nash.ms"] = (total * 1e3, "ms")
    out["experiments.solve_s"] = (solve_s, "s")
    out["experiments.learn_s"] = (train_total, "s")
    busy = solve_s + train_total
    out["experiments.solve_share"] = (solve_s / busy if busy else 0.0, "ratio")
    out["experiments.cells.attempted"] = (tr.stat("experiments.solve_cell")[0], "count")
    out["experiments.cells.skipped"] = (tr.raised_count("experiments.solve_cell"), "count")
    out["trace.spans"] = (len(tr.span_name), "count")
    out["trace.overhead_frac"] = (traced.wall_cal / reference.wall_cal - 1.0, "ratio")
    return out


def run_passes(workload, speed, *, trace: bool, seconds: float):
    """Untraced passes until ``seconds`` have passed (at least one), or, with
    ``trace``, one untraced pass and one traced pass.  Returns the passes,
    each with its ``wall_cal`` set from the running speed probe and its
    ``cpu_s`` from this thread's CPU clock, and the tracer (None when
    untraced)."""
    from perfbench.tracer import Tracer

    passes, tracer = [], Tracer() if trace else None
    start = perf_counter()

    def one_pass():
        t0, c0 = perf_counter(), thread_time()
        result = workload.run_pass()
        result.cpu_s = thread_time() - c0
        result.wall_cal = speed.kernels(t0, perf_counter())
        passes.append(result)

    one_pass()
    if trace:
        with tracer:
            one_pass()
    else:
        while perf_counter() - start < seconds:
            one_pass()
    return passes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        return 0

    nproc = len(os.sched_getaffinity(0))
    # The speed probe must sample the CPU the workload (and each setup
    # process, which inherits the affinity) runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as speed:
        setup = None if args.trace else measure_setup(args.workload, args.seed, speed)
        workload = WORKLOADS[args.workload](args.seed)
        passes, tr = run_passes(workload, speed, trace=bool(args.trace),
                                seconds=args.seconds)
    if tr is not None:
        metrics = per_layer(tr, workload, passes[1], passes[0])
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(passes, setup)

    digests = sorted({p.digest for p in passes})
    problems = [msg for p in passes for msg in p.problems]
    if len(digests) > 1:
        problems.append(f"passes disagree: digests {digests}")
    failures = Counter()
    for p in passes:
        failures.update(p.failures)
    attempted = sum(p.attempted for p in passes)
    correct = not problems
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "wall_cal": p.wall_cal}
                   for p in passes],
        "environment": environment(args.seed, args.seconds, nproc),
        "digest": digests[0],
        "correct": correct,
        "problems": problems[:20],
        "attempted": attempted,
        "failures": dict(sorted(failures.items())),
        "nash_checked": sum(p.nash_checked for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
