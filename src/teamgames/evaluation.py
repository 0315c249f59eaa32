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

from .errors import ConfigurationError, InputError, UnsupportedEvaluationError

KINDS = ("logistic", "identity", "heaviside")
SMOOTH_KINDS = ("logistic", "identity")

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
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"evaluation kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.kind in ("logistic", "heaviside") and not self.d > 0:
            raise ConfigurationError(f"evaluation d must be > 0, got {self.d}")
        if self.kind == "logistic" and not self.gamma > 0:
            raise ConfigurationError(f"evaluation gamma must be > 0, got {self.gamma}")
        if self.kind in ("logistic", "heaviside") and self.b < 0:
            raise ConfigurationError(f"evaluation b must be >= 0, got {self.b}")

    @property
    def is_smooth(self) -> bool:
        return self.kind in SMOOTH_KINDS

    def to_dict(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "heaviside":
            return {"kind": "heaviside", "d": self.d, "b": self.b}
        return {"kind": "logistic", "d": self.d, "gamma": self.gamma, "b": self.b}

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationSpec":
        if not isinstance(data, dict):
            raise ConfigurationError(f"evaluation must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if kind not in KINDS:
            raise ConfigurationError(f"evaluation kind must be one of {KINDS}, got {kind!r}")
        allowed = {"identity": {"kind"},
                   "heaviside": {"kind", "d", "b"},
                   "logistic": {"kind", "d", "gamma", "b"}}[kind]
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown evaluation key(s) {sorted(unknown)} for kind {kind!r}"
            )
        kwargs = {k: float(v) for k, v in data.items() if k != "kind"}
        return cls(kind=kind, **kwargs)


def _logistic(spec: EvaluationSpec, z):
    """Numerically stable d * sigmoid(z), of an array or of one numpy float."""
    if isinstance(z, np.floating):
        # one value: branch in Python, with numpy's exp (math.exp may differ
        # from it in the last bit)
        if z >= 0:
            return spec.d / (1.0 + np.exp(-z))
        ez = np.exp(z)
        return spec.d * ez / (1.0 + ez)
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, and never
    # overflows; the numerator picks d or d * e before the one shared division
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, spec.d, spec.d * e) / (1.0 + e)


def eval_score(spec: EvaluationSpec, G):
    """sigma(G).  Accepts a scalar or an array; returns the same shape."""
    g = np.asarray(G, dtype=float)
    scalar = g.ndim == 0
    if scalar:
        g = g[()]  # a numpy float: scalar arithmetic, the same IEEE operations
    if spec.kind == "identity":
        out = g.copy()
    elif spec.kind == "heaviside":
        out = np.where(g >= spec.b, spec.d, 0.0)
    else:
        out = _logistic(spec, spec.gamma * (g - spec.b))
    return float(out) if scalar else out


def eval_ratio(spec: EvaluationSpec, G):
    """sigma(G) / sigma'(G), the opportunity-cost ratio of the evaluation.

    Logistic closed form: (1 + exp(gamma * (G - b))) / gamma (d cancels).
    Identity: G.  Heaviside has no derivative and is rejected.
    """
    if not spec.is_smooth:
        raise UnsupportedEvaluationError(
            "sigma/sigma' requires a smooth evaluation (logistic or identity), "
            "got heaviside"
        )
    scalar = np.ndim(G) == 0
    g = np.asarray(G, dtype=float)
    if spec.kind == "identity":
        out = g.copy()
    else:
        z = spec.gamma * (g - spec.b)
        with np.errstate(over="ignore"):
            out = np.where(z > _EXP_MAX, np.inf, (1.0 + np.exp(np.minimum(z, _EXP_MAX))) / spec.gamma)
    return float(out) if scalar else out


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
    lo, hi = float(grid[0]), float(grid[1])
    if not lo < hi:
        raise InputError(f"grid must satisfy G_lo < G_hi, got ({lo}, {hi})")
    if points < 3:
        raise InputError(f"need at least 3 grid points, got {points}")

    g = np.linspace(lo, hi, int(points))
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


# Kept beside eval_score: 3-6x cheaper per call on a float.  The disjunctive solver's
# scalar steps call it: the ternary refinement of a best response and the free-riding payoff.
def score_scalar(spec: EvaluationSpec, G: float) -> float:
    """Scalar fast path used by inner solver loops."""
    if spec.kind == "identity":
        return G
    if spec.kind == "heaviside":
        return spec.d if G >= spec.b else 0.0
    z = spec.gamma * (G - spec.b)
    if z >= 0:
        return spec.d / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return spec.d * ez / (1.0 + ez)


# Kept beside eval_ratio: ~40x cheaper per call on a float.  The scalar replacement maps,
# the standalone and weakest-link bisections and the disjunctive branch maths call it.
def ratio_scalar(spec: EvaluationSpec, G: float) -> float:
    """Scalar fast path for sigma/sigma' used by inner solver loops."""
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
