"""Exception hierarchy shared across the package.

ConfigurationError maps to CLI exit code 1, DataError to exit code 2.
"""


class ReconciliationError(Exception):
    pass


class ConfigurationError(ReconciliationError):
    """Bad or missing configuration (weights, ensemble members, options)."""


class DataError(ReconciliationError):
    """Bad input data (corpus files, solution files)."""


class TimeMLParseError(DataError):
    """Malformed TimeML input; carries file/line/column context in the message."""
