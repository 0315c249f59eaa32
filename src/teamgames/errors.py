"""Exception types shared across the package, and the one checker of every
entry point: each input is declared once as a ``Field`` (its kind and its
range), and ``_check`` and the JSON reader ``_read_spec`` refuse a value
that fails its declaration with an error naming the input."""

import math
import numbers
from typing import Callable, NamedTuple


class TeamworkGameError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(TeamworkGameError, ValueError):
    """An argument violates the documented domain of an operation."""


class ConfigurationError(TeamworkGameError, ValueError):
    """A game, agent, or sweep configuration violates an invariant."""


class UnsupportedEvaluationError(TeamworkGameError):
    """The evaluation function lacks the smoothness this operation needs."""


class WrongSolverError(TeamworkGameError):
    """The game's substitution parameter does not match this solver."""


class RegimeError(TeamworkGameError):
    """The requested point lies outside the regime where the construction is valid."""


class NoEquilibriumError(TeamworkGameError):
    """The concave solver found no fixed point of the aggregate replacement map.

    ``scan`` holds ``[(lo, R(lo) - lo), (hi, R(hi) - hi)]``, the ends of the
    interval searched, where ``R(G) - G`` has one sign; it is empty when the
    interval is.
    """

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


class UndefinedDispersionError(TeamworkGameError, ValueError):
    """Percentage dispersion is undefined when the sample mean is not positive."""


class DegenerateRegressionError(TeamworkGameError, ValueError):
    """Ordinary least squares needs at least two distinct abscissae."""


class Field(NamedTuple):
    """One input's declaration.  ``kind``: ``int``, ``float`` (a real; a bool is
    neither), ``tuple`` (a list of reals, read as a tuple of floats) or a class.
    ``holds`` tests the range ``text`` states, on a value or each number of a
    list; a value for which ``also`` holds passes as it is."""

    kind: type
    text: str = ""
    holds: Callable | None = None
    also: Callable | None = None


def _none(value) -> bool:
    return value is None


def _at_least(m: int) -> Field:
    return Field(int, f">= {m}", lambda v: v >= m)


_FINITE = Field(float, "finite", lambda v: abs(v) < math.inf)
_POSITIVE = Field(float, "finite and > 0", lambda v: 0 < v < math.inf)
_POSITIVE_OR_NONE = _POSITIVE._replace(also=_none)
_SEED = _at_least(0)
# Each number kind's builtin types, tested before its ABC, whose isinstance costs ~10x more
_NUMBERS = {int: ((int,), numbers.Integral), float: ((float, int), numbers.Real)}
_NAMES = {int: "an integer", float: "a number", tuple: "a list of numbers", bool: "a bool"}


def _is(value, kind) -> bool:
    if kind in _NUMBERS:  # a bool is an int to Python, but no number here
        exact, abc = _NUMBERS[kind]
        return type(value) in exact or (isinstance(value, abc) and not isinstance(value, bool))
    return isinstance(value, kind)


def _read(key: str, value, field: Field, error=ConfigurationError):
    """``value`` if of ``field``'s kind (a list as a tuple of floats), else raise ``error``."""
    kind = field.kind
    if (field.also and field.also(value)) or (kind is not tuple and _is(value, kind)):
        return value
    if kind is tuple:
        try:
            values = tuple(value)
            if all(_is(v, float) for v in values):
                return tuple(map(float, values))
        except (TypeError, OverflowError):
            pass
    name = _NAMES.get(kind) or ("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__
    raise error(f"{key} must be {name}, got {value!r}")


def _check(key: str, value, field: Field, error=ConfigurationError):
    """``_read``'s value if it lies in ``field``'s range, else raise ``error``."""
    value = _read(key, value, field, error)
    if (field.holds is None or (field.also and field.also(value))
            or (all(map(field.holds, value)) if field.kind is tuple else field.holds(value))):
        return value
    raise error(f"{key} must {'all ' * (field.kind is tuple)}be {field.text}, got {value!r}")


def _check_all(fields: dict, values: dict) -> dict:
    """``_check`` of each value of ``values`` that ``fields`` declares, in their order."""
    return {key: _check(key, values[key], field) for key, field in fields.items()}


def _from_json(value, kind):
    """A JSON value as ``kind``: integral float to int, int to float, object by ``from_dict``."""
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if kind is float and type(value) is int:
        return float(value) if abs(value) < 1e308 else math.inf  # refused by its range
    return kind.from_dict(value) if hasattr(kind, "from_dict") else value


def _read_spec(data, fields: dict, what: str, required=(), prefix: str = "") -> dict:
    """JSON object ``data`` read by its declarations ``fields``, in their
    order: each value by ``_from_json`` and ``_read``, named ``prefix + key``.
    A non-object, then an unknown key, then a missing ``required`` key raise
    ``ConfigurationError``; the ranges are the constructor's to check."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be an object, got {type(data).__name__}")
    for problem, keys in (("unknown", set(data) - set(fields)),
                          ("missing", set(required) - set(data))):
        if keys:
            raise ConfigurationError(f"{problem} {what} key(s): {sorted(keys)}")
    return {key: _read(prefix + key, _from_json(data[key], field.kind), field)
            for key, field in fields.items() if key in data}
