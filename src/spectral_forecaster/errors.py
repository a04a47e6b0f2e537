"""Error taxonomy shared across the package, and the typed config reader.

Three failure families map onto distinct CLI exit codes: bad configuration,
bad data, and numeric trouble at runtime. Plain ``ValueError`` is reserved
for programming-contract violations (shape mismatches, invalid arguments).

``config_section`` reads every config dataclass, checking each value against
its field's annotation; range checks stay in each ``__post_init__``.
"""

import dataclasses
import math
import numbers
import types
import typing


class ConfigError(Exception):
    """Experiment or model configuration is invalid or unreadable."""


class DataError(Exception):
    """Input data is missing, malformed, or inconsistent with the config."""


class NumericError(ArithmeticError):
    """A numeric-range failure: non-finite values where finite ones are required."""


def config_int(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a non-integral number raises ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_float(name: str, value) -> float:
    """``value`` as a finite float, numeric text included: YAML reads ``1e-4`` as a string."""
    number = math.nan
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def config_bool(name: str, value) -> bool:
    """``value`` if it is a bool; a string, a number or null raises ConfigError."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def config_str(name: str, value) -> str:
    """``value`` if it is a string; a number keeps its text (``tag: 12`` reads "12")."""
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return str(value)
    raise ConfigError(f"{name} must be a string, got {value!r}")


_SCALAR_READERS = {int: config_int, float: config_float, bool: config_bool, str: config_str}


def config_value(tp, value, name: str):
    """``value`` read as the annotation ``tp``; a mismatch raises ConfigError naming ``name``.

    Reads int, float, bool, str, unions (the first member that reads the
    value wins), tuples from lists, and config dataclasses from mappings.
    Any other annotation raises TypeError.
    """
    if tp in _SCALAR_READERS:
        return _SCALAR_READERS[tp](name, value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        for arg in members[:-1]:
            try:
                return config_value(arg, value, name)
            except ConfigError:
                pass
        return config_value(members[-1], value, name)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if args[-1:] == (Ellipsis,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{name} must be a list of {len(args)} items, got {value!r}")
        return tuple(config_value(a, v, f"{name}.{i}") for i, (a, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(tp):
        return config_section(tp, value, name)
    raise TypeError(f"the config reader cannot read {name} of type {tp!r}")


def config_section(cls, raw, name: str):
    """Build the config dataclass ``cls`` from the mapping ``raw``, reading values by annotation.

    ``name`` is the section's path ("" at the top level); each field is read
    under its own name. An unknown key, a missing required field or a
    mistyped value raises ConfigError naming its path, e.g.
    ``train.learning_rate``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping, got {raw!r}")
    prefix = f"{name}." if name else ""
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(prefix + str(key) for key in raw if key not in fields)
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    kwargs = {}
    for key, f in fields.items():
        if key in raw:
            kwargs[key] = config_value(hints[key], raw[key], prefix + key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required field {prefix + key}")
    return cls(**kwargs)
