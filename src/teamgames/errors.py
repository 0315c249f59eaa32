"""Exception types shared across the package, and the readers that cast an
input spec or raise ``ConfigurationError`` naming the key at fault."""

import numbers


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


_KINDS = {tuple: "a list of numbers", int: "an integer", float: "a number"}


def _cast(key: str, value, like, strict: bool = False):
    """``value`` read as the type of ``like``: a tuple of floats for a tuple,
    ``int`` or ``float`` for a number; any other ``like`` leaves it as is.
    A number read as an ``int`` must be integral: ``10.0`` reads as 10, and
    ``10.5`` is refused rather than truncated.

    ``strict`` reads a number without converting it: ``value`` must be an
    ``int`` or ``np.integer`` for an int and any real for a float, and never
    a bool; it is returned as given.
    """
    if strict:
        kind = numbers.Integral if isinstance(like, int) else numbers.Real
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
        raise ConfigurationError(f"{key} must be {_KINDS[type(like)]}, got {value!r}")
    try:
        if isinstance(like, tuple):
            return tuple(float(v) for v in value)
        if isinstance(like, (int, float)):
            cast = type(like)(value)
            if isinstance(like, int) and isinstance(value, numbers.Real) and cast != value:
                raise ValueError  # int() would truncate it
            return cast
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{key} must be {_KINDS[type(like)]}, got {value!r}") from None
    return value


def _count(key: str, value, minimum: int) -> None:
    """Raise ``ConfigurationError`` naming ``key`` unless ``_cast`` reads
    ``value`` strictly as an integer of at least ``minimum``."""
    if _cast(key, value, 0, strict=True) < minimum:
        raise ConfigurationError(f"{key} must be >= {minimum}, got {value}")


def _read_spec(data, defaults: dict, what: str) -> dict:
    """``data`` with each value cast by ``_cast`` to its default's type; a
    non-object or a key not in ``defaults`` raises ``ConfigurationError``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown {what} key(s): {sorted(unknown)}")
    return {key: _cast(key, value, defaults[key]) for key, value in data.items()}
