"""Common base class for all domain errors raised by this package, and the
constants that are read without importing the subsystem they belong to.
CELL_LIMIT is the most live cells `life.parse_rle`/`parse_cells` build and
black squares `ant.Census.black` builds, and PIXEL_LIMIT the most pixels
`life.raster` allocates; they live here, in a module without numpy, so that
`ant` reads its cap without importing `life`.  HEADINGS is the ant's one
heading order, clockwise from north, which `ant` imports and the CLI's
parser offers as `ant --heading`'s choices without importing `ant`."""

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
