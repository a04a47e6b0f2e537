"""Error taxonomy shared across the package.

Three failure families map onto distinct CLI exit codes: bad configuration,
bad data, and numeric trouble at runtime. Plain ``ValueError`` is reserved
for programming-contract violations (shape mismatches, invalid arguments).
"""

import numbers


class ConfigError(Exception):
    """Experiment or model configuration is invalid or unreadable."""


class DataError(Exception):
    """Input data is missing, malformed, or inconsistent with the config."""


class NumericError(ArithmeticError):
    """A numeric-range failure: non-finite values where finite ones are required."""


def config_int(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a non-integral number raises ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_bool(name: str, value) -> bool:
    """``value`` if it is a bool; a string, a number or null raises ConfigError."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be true or false, got {value!r}")
