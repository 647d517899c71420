"""Exception hierarchy shared across the package, and the config-value checks.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataValidationError (and file-system errors) -> 2, NumericFailure -> 3.

Every config dataclass validates itself in ``__post_init__`` with ``check``,
so a bad value raises the same ``section.key must be ...`` ConfigError whether
it came from a config file or from a Python caller.
"""

import sys


class RadlearnError(Exception):
    """Base class for all package errors."""


class ConfigError(RadlearnError):
    """Invalid configuration: unknown keys, bad types, out-of-range values."""


class DataValidationError(RadlearnError):
    """Input data violates a documented invariant (shape, range, format)."""


class NumericFailure(RadlearnError):
    """Non-finite value encountered where the computation cannot proceed."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


def is_int(value, minimum: int) -> bool:
    """An int >= minimum; bools are ints to Python but not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def is_count(value) -> bool:
    return is_int(value, 1)


def is_real(value) -> bool:
    """A float, or an int (not a bool) within float range; may be inf or nan."""
    return isinstance(value, float) or (is_int(value, -sys.float_info.max)
                                        and value <= sys.float_info.max)


def is_nonnegative_real(value) -> bool:
    return is_real(value) and 0 <= value < float("inf")


def is_finite_real(value) -> bool:
    return is_real(value) and abs(value) < float("inf")


def is_count_list(value) -> bool:
    return isinstance(value, list) and all(is_count(v) for v in value)


def is_int_tuple(value, length: int, minimum: int) -> bool:
    return (isinstance(value, tuple) and len(value) == length
            and all(is_int(v, minimum) for v in value))


def check(section: str, obj, rules) -> None:
    """Raise ConfigError for the first (key, test, expectation) a value fails."""
    for key, test, expected in rules:
        value = getattr(obj, key)
        if not test(value):
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
