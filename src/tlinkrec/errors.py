"""Exception hierarchy shared across the package.

ConfigurationError maps to CLI exit code 1, DataError to exit code 2 and
SolveError to exit code 3.
"""


class ReconciliationError(Exception):
    pass


class ConfigurationError(ReconciliationError):
    """Bad or missing configuration (weights, ensemble members, options)."""


class DataError(ReconciliationError):
    """Bad input data: a corpus directory with no .tml file, malformed
    TimeML content (TimeMLParseError), members that give one id two kinds,
    or a document that no member annotates."""


class TimeMLParseError(DataError):
    """Malformed TimeML input; carries file/line/column context in the message."""


class SolveError(ReconciliationError, RuntimeError):
    """A solve that gave no answer to write: the time limit passed before an
    incumbent that keeps every row, a re-solve broke its own row, HiGHS
    failed, or a solution failed verification."""
