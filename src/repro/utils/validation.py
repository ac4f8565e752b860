"""Small argument-validation helpers.

These raise :class:`repro.exceptions.ConfigurationError` with a message that
names the offending argument, so that experiment misconfigurations fail fast
and readably rather than deep inside a training loop.
"""

from __future__ import annotations

from numbers import Integral, Real

from repro.exceptions import ConfigurationError


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is a finite number strictly greater than zero."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Ensure ``value`` is an integer strictly greater than zero."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval ``[0, 1]``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Alias of :func:`check_fraction` with probability-specific wording."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value}")
    return value
