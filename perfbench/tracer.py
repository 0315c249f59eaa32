"""Span tracer that wraps the public functions of teamgames from outside.

Modules import each other's functions by name, so a function can be bound
in several module namespaces (``teamgames.simulator.update_q`` and
``teamgames.bandit.update_q`` are the same object).  The tracer replaces
every such binding with one wrapper per function and puts every original
back when it exits.

Each wrapped call records a span: name, parent span, start and end times
and the number of scalar evaluation calls made inside it.  Spans stay in
compact in-memory arrays until ``write`` saves them.  Self time (a span's
duration minus the time covered by its child spans) and call counts are
accumulated per name while the program runs.

``ratio_scalar`` and ``score_scalar`` are counted, not timed: the solvers
call them millions of times at well under a microsecond each, so a span
around each call would cost more than the work it measures.  Their time is
part of the self time of the span that called them.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "teamgames.bandit",
    "teamgames.simulator",
    "teamgames.games",
    "teamgames.evaluation",
    "teamgames.equilibrium",
    "teamgames.experiments",
)
COUNTED_ONLY = ("evaluation.ratio_scalar", "evaluation.score_scalar")
# The two solver entry points get one span name per task regime.
SOLVERS = ("equilibrium.solve_equilibrium_concave",
           "equilibrium.enumerate_disjunctive_equilibria")
REGIMES = ("additive", "conjunctive", "disjunctive")


def regime(rho: float) -> str:
    if rho == 1:
        return "additive"
    return "conjunctive" if rho < 1 else "disjunctive"


def teamgames_bindings():
    """(module, attribute, function, short name) for every traced binding."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "teamgames" or mod_name.startswith("teamgames.")):
            continue
        for attr, value in sorted(vars(module).items()):
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ in TRACED_MODULES and value.__name__ == attr):
                short = f"{value.__module__.rsplit('.', 1)[1]}.{attr}"
                found.append((module, attr, value, short))
    return found


class Tracer:
    """Context manager: wraps on enter, restores every original on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.raised: list[int] = []
        self.scalar_calls = {name: 0 for name in COUNTED_ONLY}
        self._scalar = [0]
        self._open = [-1]        # indices of the open spans; -1 is the root
        self._child_s = [0.0]    # time covered by children, per open span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_evals = array("q")
        self.span_ok = array("b")
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.t0 = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.raised.append(0)
        return self._ids[name]

    def _counted(self, short, fn):
        counter, totals = self._scalar, self.scalar_calls

        def wrapper(*args, **kwargs):
            counter[0] += 1
            totals[short] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, short, fn):
        if short in SOLVERS:
            ids = {r: self._id(f"equilibrium.solve.{r}") for r in REGIMES}

            def name_of(args, kwargs):
                game = args[0] if args else kwargs["game"]
                return ids[regime(game.rho)]
        else:
            fixed = self._id(short)

            def name_of(args, kwargs):
                return fixed

        open_ids, child_s, counter = self._open, self._child_s, self._scalar
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, s_evals = self.span_start, self.span_end, self.span_evals
        s_ok = self.span_ok
        calls, self_s, total_s, raised = self.calls, self.self_s, self.total_s, self.raised

        def wrapper(*args, **kwargs):
            nid = name_of(args, kwargs)
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(open_ids[-1])
            s_end.append(0.0)
            s_evals.append(0)
            s_ok.append(0)
            open_ids.append(idx)
            child_s.append(0.0)
            evals0 = counter[0]
            ok = False
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                d = t1 - t0
                s_end[idx] = t1
                s_evals[idx] = counter[0] - evals0
                open_ids.pop()
                self_s[nid] += d - child_s.pop()
                child_s[-1] += d
                total_s[nid] += d
                calls[nid] += 1
                if ok:
                    s_ok[idx] = 1
                else:
                    raised[nid] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        wrappers: dict[int, object] = {}
        for module, attr, fn, short in teamgames_bindings():
            if id(fn) not in wrappers:
                make = self._counted if short in COUNTED_ONLY else self._spanned
                wrappers[id(fn)] = make(short, fn)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        return False

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of a span name; zeros if unseen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def raised_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.raised[nid]

    def returned_spans(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(durations in seconds, scalar evaluation calls) of the spans of a name
        whose call returned rather than raised."""
        nid = self._ids.get(name, -2)
        mask = ((np.frombuffer(self.span_name, dtype=np.int32) == nid)
                & (np.frombuffer(self.span_ok, dtype=np.int8) == 1))
        start = np.frombuffer(self.span_start, dtype=np.float64)[mask]
        end = np.frombuffer(self.span_end, dtype=np.float64)[mask]
        return end - start, np.frombuffer(self.span_evals, dtype=np.int64)[mask]

    def write(self, path) -> None:
        """Save every span, times relative to the tracer's start, as an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64) - self.t0,
            end=np.frombuffer(self.span_end, dtype=np.float64) - self.t0,
            evals=np.frombuffer(self.span_evals, dtype=np.int64),
            returned=np.frombuffer(self.span_ok, dtype=np.int8),
        )
