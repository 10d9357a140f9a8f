"""Common base class for all domain errors raised by this package, the
program's two number edges, `decimal` that writes an integer and `integer`
that reads one from input text, each refusing in one line, and the constants
that are read without importing the subsystem they belong to.
CELL_LIMIT is the most live cells `life.parse_rle`/`parse_cells` build and
black squares `ant.Census.black` builds, and PIXEL_LIMIT the most pixels
`life.raster` allocates; they live here, in a module without numpy, so that
`ant` reads its cap without importing `life`.  HEADINGS is the ant's one
heading order, clockwise from north, which `ant` imports and the CLI's
parser offers as `ant --heading`'s choices without importing `ant`."""

import re
import reprlib
import sys

CELL_LIMIT = 10 ** 7
PIXEL_LIMIT = 1 << 26
HEADINGS = "NESW"


class EmergeLabError(Exception):
    """Base class for every error the library raises on bad input or
    exhausted budgets.  The CLI maps these to exit code 1."""


class InvalidArgument(EmergeLabError, ValueError):
    """An argument outside its domain, such as a negative count.  Also a
    ValueError, so callers that catch ValueError keep working."""


class InvalidSteps(InvalidArgument):
    """Negative generation count."""


def decimal(x, name: str) -> str:
    """str(x) of an int or Fraction x, or InvalidArgument where x has more
    digits than Python writes an integer with (`sys.get_int_max_str_digits()`)."""
    try:
        return str(x)
    except ValueError:
        raise InvalidArgument(f"{name} has more than {sys.get_int_max_str_digits()} "
                              "digits") from None


def integer(token: str, name: str, wanted: str = "be an integer") -> int:
    """int(token), or InvalidArgument naming `name`: a token past Python's
    digit limit is refused naming the limit, any other quoted short."""
    try:
        return int(token)
    except ValueError:
        # what int reads (any Unicode digits, outer spaces): refused only past the limit
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", token):
            raise InvalidArgument(f"{name} holds an integer of more than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
        raise InvalidArgument(f"{name} must {wanted}, got {reprlib.repr(token)}") from None
