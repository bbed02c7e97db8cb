"""Exception hierarchy shared across the package, and the unknown-key check."""


class HeatconfError(Exception):
    """Base class for all package errors."""


class ConfigError(HeatconfError):
    """Invalid model description, run configuration, or file schema."""


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
