"""Exception hierarchy shared across the package.

CLI exit-code mapping: config/format/lookup problems exit 2, numeric
failures exit 3, failed self-checks exit 1.
"""


class SubmodsumError(Exception):
    """Base class for all package-specific errors."""


class FormatError(SubmodsumError):
    """Malformed input data (duplicate ids, dimension mismatch, bad schema)."""


class ConfigError(SubmodsumError):
    """Invalid configuration: bad budget, missing required sets, unknown names."""


class NumericError(SubmodsumError):
    """Numerical failure (singular matrix, diverged training, non-finite value)."""


class UnsupportedError(SubmodsumError):
    """Requested combination is not defined (e.g. graph-cut conditional mutual information)."""


class SizeError(SubmodsumError):
    """Problem instance exceeds an enumeration guard."""
