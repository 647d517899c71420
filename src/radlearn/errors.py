"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataValidationError (and file-system errors) -> 2, NumericFailure -> 3.

Every config dataclass validates itself in ``__post_init__`` with
``jsonio.check``, so a bad value raises the same ``section.key must be ...``
ConfigError whether it came from a config file or from a Python caller.
"""


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
