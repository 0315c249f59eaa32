"""Evaluation functions that score the team outcome.

Three shapes are supported:

* ``logistic`` -- ``d / (1 + exp(-gamma * (G - b)))``, the workhorse for
  experiments: a gradable pass/fail curve with passing threshold ``b``.
* ``identity`` -- ``sigma(G) = G``; turns the teamwork solvers into plain
  public-good solvers and is used for the closed-form baselines.
* ``heaviside`` -- ``0`` below ``b`` and ``d`` at or above it.  It is not
  smooth, so the equilibrium solvers reject it; only the learning
  environment accepts it.

The ratio ``sigma(G) / sigma'(G)`` shows up throughout the equilibrium
formulas; for the logistic curve it has the closed form
``(1 + exp(gamma * (G - b))) / gamma``, independent of ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, Field, InputError, UnsupportedEvaluationError, _FINITE,
                     _POSITIVE, _at_least, _check, _read_spec)

# Each kind's parameters, in the order ``to_dict`` writes them.
_PARAMS = {"logistic": ("d", "gamma", "b"), "identity": (), "heaviside": ("d", "b")}
KINDS = tuple(_PARAMS)
SMOOTH_KINDS = ("logistic", "identity")
# Each evaluation key's declaration; a spec checks the parameters its kind takes.
_EVALUATION_FIELDS = {"kind": Field(object, f"one of {KINDS}", KINDS.__contains__),
                      "d": _POSITIVE, "gamma": _POSITIVE,
                      "b": Field(float, "finite and >= 0", lambda v: 0 <= v < math.inf)}

# exp() overflows float64 a bit above 709; treat anything larger as inf.
_EXP_MAX = 700.0


@dataclass(frozen=True)
class EvaluationSpec:
    """Tagged choice of evaluation function.

    d: right asymptote / pass value (score units, > 0; unused for identity).
    gamma: steepness (score per work unit, > 0; logistic only).
    b: passing threshold (work units, >= 0; logistic and heaviside).
    """

    kind: str
    d: float = 10.0
    gamma: float = 2.0
    b: float = 0.0

    def __post_init__(self):
        _check("evaluation kind", self.kind, _EVALUATION_FIELDS["kind"])
        for key in _PARAMS[self.kind]:  # the parameters this kind takes
            _check(f"evaluation {key}", getattr(self, key), _EVALUATION_FIELDS[key])

    @property
    def is_smooth(self) -> bool:
        return self.kind in SMOOTH_KINDS

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in _PARAMS[self.kind]}}

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationSpec":
        # the kind, then the keys it does not take; then the values, in the input's order
        fields = {}
        if isinstance(data, dict):
            kind = _check("evaluation kind", data.get("kind"), _EVALUATION_FIELDS["kind"])
            unused = sorted(set(data) - {"kind", *_PARAMS[kind]})
            if unused:
                raise ConfigurationError(f"unknown evaluation key(s) {unused} for kind {kind!r}")
            fields = {key: _EVALUATION_FIELDS[key] for key in data}
        return cls(**_read_spec(data, fields, "evaluation", prefix="evaluation "))


def _score(kind: str, g, d, gamma, b):
    """sigma(g) of one evaluation kind, elementwise.  ``g`` is an array,
    0-d for one value; ``d``, ``gamma`` and ``b`` are scalars or arrays that
    broadcast with it, so runs with different parameters score in one pass."""
    if kind == "identity":
        return g.copy()
    if kind == "heaviside":
        return np.where(g >= b, d, 0.0)
    z = gamma * (g - b)
    # numerically stable d * sigmoid(z):
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, and never
    # overflows; the numerator picks d or d * e before the one shared division
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, d, d * e) / (1.0 + e)


def eval_score(spec: EvaluationSpec, G):
    """sigma(G).  Accepts a scalar or an array; returns the same shape."""
    g = np.asarray(G, dtype=float)
    out = _score(spec.kind, g, spec.d, spec.gamma, spec.b)
    return float(out) if g.ndim == 0 else out


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of checking an evaluation against the smooth-score conditions."""

    passed: bool
    first_violation: float | None = None
    detail: str = ""


def validate_evaluation(spec: EvaluationSpec, grid: tuple[float, float], points: int) -> ValidityReport:
    """Check the evaluation-function conditions numerically on a grid.

    Verifies strict monotonicity, finite first/second differences, and
    sigma'(G)^2 - sigma''(G) * sigma(G) > 0 at every interior grid point.
    Failures are reported, never raised.
    """
    _check("spec", spec, Field(EvaluationSpec), InputError)
    grid = _check("grid", grid, _FINITE._replace(kind=tuple), InputError)
    if len(grid) != 2 or not grid[0] < grid[1]:
        raise InputError(f"grid must be a pair G_lo < G_hi, got {grid}")
    g = np.linspace(*grid, _check("points", points, _at_least(3), InputError))
    h = g[1] - g[0]
    s = eval_score(spec, g)

    if not np.all(np.isfinite(s)):
        idx = int(np.argmax(~np.isfinite(s)))
        return ValidityReport(False, float(g[idx]), "non-finite score")

    diffs = np.diff(s)
    if not np.all(diffs > 0):
        idx = int(np.argmax(diffs <= 0))
        return ValidityReport(False, float(g[idx + 1]), "not strictly increasing")

    d1 = (s[2:] - s[:-2]) / (2.0 * h)
    d2 = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (h * h)
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        bad = ~(np.isfinite(d1) & np.isfinite(d2))
        idx = int(np.argmax(bad))
        return ValidityReport(False, float(g[idx + 1]), "non-finite difference")

    cond = d1 * d1 - d2 * s[1:-1]
    if not np.all(cond > 0):
        idx = int(np.argmax(cond <= 0))
        return ValidityReport(
            False, float(g[idx + 1]), "sigma'^2 - sigma''*sigma not positive"
        )
    return ValidityReport(True)


# Kept beside eval_score, which scores one value as a 0-d array: 10-40x cheaper per call
# on a float (0.1-0.5 us against 1.2-8 us, timeit on one CPU, numpy 2.4).  Its solver
# callers are the free-riding payoff (equilibrium._u_zero, of a player type) and the best
# response's utility at its root, once per step of the threshold search on that type;
# they take math.exp.  Two callers take np.exp, which gives a float the array kernel's
# bits: the learner's lone run, for each joint action it has not played yet, so its
# rewards are _score's exactly, and the solvers' result builder, for every equilibrium
# they report, so its score is eval_score's exactly and no solver calls _score.
def score_scalar(spec: EvaluationSpec, G: float, exp=math.exp) -> float:
    """sigma(G) of one float, by ``_score``'s operations with ``exp``."""
    if spec.kind == "identity":
        return G
    if spec.kind == "heaviside":
        return spec.d if G >= spec.b else 0.0
    z = spec.gamma * (G - spec.b)
    if z >= 0:
        return spec.d / (1.0 + exp(-z))
    ez = exp(z)
    return spec.d * ez / (1.0 + ez)


# Every solver caller takes one aggregate at a time: the replacement maps (each evaluation
# of the concave solver's Brent root), the standalone and weakest-link Brent roots, and
# the disjunctive thresholds and positive branch.
def ratio_scalar(spec: EvaluationSpec, G: float) -> float:
    """sigma(G) / sigma'(G): (1 + exp(gamma * (G - b))) / gamma for logistic (d
    cancels; +inf once gamma * (G - b) > 700), G for identity; heaviside has
    no derivative and is rejected."""
    if spec.kind == "identity":
        return G
    if spec.kind == "heaviside":
        raise UnsupportedEvaluationError(
            "sigma/sigma' requires a smooth evaluation (logistic or identity), "
            "got heaviside"
        )
    z = spec.gamma * (G - spec.b)
    if z > _EXP_MAX:
        return math.inf
    return (1.0 + math.exp(z)) / spec.gamma
