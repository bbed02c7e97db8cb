"""Exception hierarchy shared across the package, the unknown-key check, and
the number rule for every input read from JSON: a config and a model's
params.  A number is accepted only when it is a JSON number (not a string or
boolean) that converts to a finite float."""
import math


class HeatconfError(Exception):
    """Base class for all package errors."""


class ConfigError(HeatconfError):
    """Invalid model description or run configuration."""


class DomainError(HeatconfError):
    """Chart point outside the model's chart domain."""


class SpectrumError(HeatconfError):
    """Spectrum unavailable, exhausted, or violating its invariants."""


class PreconditionError(HeatconfError):
    """A mathematical precondition failed (solvability, smallness, tracelessness)."""


class ConvergenceError(HeatconfError):
    """An iteration diverged or exhausted its step budget."""


def reject_unknown_keys(section: dict, allowed, prefix: str) -> None:
    """Raise ConfigError naming the first key of `section` not in `allowed`."""
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {prefix}{key} (allowed: {', '.join(allowed)})")


def finite(value) -> bool:
    """Whether a JSON value is a number that converts to a finite float.  The
    json module parses NaN and Infinity, and an integer literal past the float
    range converts to no float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def as_float(value, name: str) -> float:
    if not finite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def as_int(value, name: str) -> int:
    if not finite(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float_list(value, name: str) -> list[float]:
    if not isinstance(value, list) or not all(finite(v) for v in value):
        raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
    return [float(v) for v in value]
