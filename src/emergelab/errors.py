"""Common base class for all domain errors raised by this package."""


class EmergeLabError(Exception):
    """Base class for every error the library raises on bad input or
    exhausted budgets.  The CLI maps these to exit code 1."""


class InvalidArgument(EmergeLabError, ValueError):
    """An argument outside its domain, such as a negative count.  Also a
    ValueError, so callers that catch ValueError keep working."""


class InvalidSteps(InvalidArgument):
    """Negative generation count."""
