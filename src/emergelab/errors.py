"""Common base class for all domain errors raised by this package."""


class EmergeLabError(Exception):
    """Base class for every error the library raises on bad input or
    exhausted budgets.  The CLI maps these to exit code 1."""


class InvalidSteps(EmergeLabError, ValueError):
    """Negative generation count."""
