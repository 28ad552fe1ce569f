"""The package's errors: one class per kind, one kind per CLI exit code.

ConfigError -> 2, DataError -> 3, NumericalError -> 4. The message
names the check that fired; no caller tells errors of a kind apart.
"""


class CniProbeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CniProbeError):
    """Invalid configuration value or combination (exit code 2)."""


class DataError(CniProbeError):
    """Invalid or inconsistent input or output data (exit code 3)."""


class NumericalError(CniProbeError):
    """Numerical failure at runtime, e.g. degenerate norms (exit code 4)."""
