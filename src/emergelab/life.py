"""Conway's Game of Life on an unbounded plane.

Cells are a sparse set of (x, y) pairs with x = column (rightward) and
y = row (downward), matching RLE reading order.  The rule is fixed B3/S23.

`step` and `run` share three exact backends, chosen in one place,
`_backend`, from the population, the bounding-box density and whether the
coordinates stay within +-2**30:
- a Counter tally of neighbour contributions, the reference: single
  generations of patterns under 256 cells, and coordinates beyond +-2**30,
  which stay arbitrary Python ints;
- a packed numpy loop over sorted int64 keys: sparse patterns such as the
  Gosper gun, and small seeds run for many generations;
- a dense uint8 grid over the bounding box, with neighbour counts from
  shifted-slice sums: patterns of at least 64 cells that fill at least
  1/128 of their box, such as random soups.  It hands over to the packed
  loop if the pattern thins out.

Pattern I/O covers the Life-ecosystem RLE format (read/write) and the
plaintext .cells grid (read only).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmergeLabError, InvalidArgument, InvalidSteps

CellSet = frozenset  # of (x, y) int pairs

NEIGHBOR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                         if (dx, dy) != (0, 0))

# packed int64 key = x * 2**32 + (y + 2**31); usable while |x|, |y| < 2**30
_PACK_M = 1 << 32
_PACK_HALF = 1 << 31
_PACK_LIMIT = 1 << 30
_PACKED_OFFSETS = np.array([dx * _PACK_M + dy for dx, dy in NEIGHBOR_OFFSETS],
                           dtype=np.int64)
# below this magnitude, differences of coordinates fit in int64
_XY_LIMIT = 1 << 62

# single generations of smaller patterns run on the tally
_TALLY_MAX_POP = 256
# the dense grid runs patterns of at least _DENSE_MIN_POP cells that fill at
# least 1/_DENSE_SPARSITY of their bounding box
_DENSE_MIN_POP = 64
_DENSE_SPARSITY = 128
# dead cells kept around the live ones when the dense grid is (re)built
_DENSE_MARGIN = 16
# generations between rebuilds that shrink the grid to the live cells
_DENSE_RECHECK = 64


class PatternParseError(EmergeLabError):
    """Malformed pattern text; carries the 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class RleParseError(PatternParseError):
    """Malformed RLE text."""


class UnsupportedRule(EmergeLabError):
    """RLE header names a rule other than B3/S23."""


class InvalidBudget(InvalidArgument):
    """Fate budget below one generation."""


def _step_tally(cells) -> frozenset:
    """Reference step: neighbour counts in an associative tally."""
    tally = Counter()
    for x, y in cells:
        for dx, dy in NEIGHBOR_OFFSETS:
            tally[(x + dx, y + dy)] += 1
    if not isinstance(cells, (set, frozenset)):
        cells = set(cells)
    return frozenset(c for c, n in tally.items()
                     if n == 3 or (n == 2 and c in cells))


def _xy(cells):
    """The cells as an (n, 2) array of (x, y) rows, with their bounding box.

    The array is int64, or of Python ints (dtype object) once a coordinate
    reaches 2**62, so that differences of coordinates cannot overflow.
    """
    try:
        xy = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                         count=2 * len(cells)).reshape(-1, 2)
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
        if -_XY_LIMIT < min(x0, y0) and max(x1, y1) < _XY_LIMIT:
            return xy, (x0, y0, x1, y1)
    except OverflowError:
        pass
    xy = np.array(list(chain.from_iterable(cells)), dtype=object).reshape(-1, 2)
    (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    return xy, (x0, y0, x1, y1)


def _packable(box, steps: int) -> bool:
    """Whether coordinates stay inside +-2**30 for `steps` generations,
    which the packed keys and the dense grid need."""
    x0, y0, x1, y1 = box
    return (-_PACK_LIMIT < min(x0, y0) - steps
            and max(x1, y1) + steps < _PACK_LIMIT)


def _dense_enough(population: int, box) -> bool:
    """Whether the dense grid beats the packed loop on this pattern."""
    x0, y0, x1, y1 = box
    return (population >= _DENSE_MIN_POP and
            population * _DENSE_SPARSITY >= (x1 - x0 + 1) * (y1 - y0 + 1))


def _backend(cells, steps: int):
    """Choose how to advance `cells` by `steps` generations.

    This is the only place a backend is chosen.  Returns ('tally', None),
    or ('packed' or 'dense', xy) with the cells as an (n, 2) array:
    - 'tally' for one generation of a small pattern, where numpy's
      per-call cost dominates, and for coordinates that may leave
      +-2**30 (arbitrary Python ints stay off the numpy paths);
    - 'dense' when the pattern fills enough of its bounding box;
    - 'packed' otherwise (sparse patterns such as the gun, small seeds).
    """
    population = len(cells)
    if steps == 1 and population < _TALLY_MAX_POP:
        return "tally", None
    xy, box = _xy(cells)
    if not _packable(box, steps):
        return "tally", None
    return ("dense" if _dense_enough(population, box) else "packed"), xy


def _run_tally(cells, steps: int) -> frozenset:
    out = frozenset(cells)
    for _ in range(steps):
        out = _step_tally(out)
        if not out:
            break
    return out


def _step_packed(keys: np.ndarray) -> np.ndarray:
    """One generation over sorted packed keys; result is sorted too."""
    neighbors = (keys[:, None] + _PACKED_OFFSETS[None, :]).ravel()
    uniq, counts = np.unique(neighbors, return_counts=True)
    idx = np.searchsorted(keys, uniq)
    valid = idx < keys.size
    alive = np.zeros(uniq.size, dtype=bool)
    alive[valid] = keys[idx[valid]] == uniq[valid]
    keep = (counts == 3) | ((counts == 2) & alive)
    return uniq[keep]


def _run_packed(xs: np.ndarray, ys: np.ndarray, steps: int):
    """`steps` generations over sorted packed int64 keys
    x * 2**32 + (y + 2**31)."""
    keys = np.sort(xs * _PACK_M + ys + _PACK_HALF)
    for _ in range(steps):
        keys = _step_packed(keys)
        if keys.size == 0:
            break
    return keys >> 32, (keys & (_PACK_M - 1)) - _PACK_HALF


def _step_grid(grid: np.ndarray):
    """One generation of a uint8 0/1 grid, in place.  Live cells must be at
    least two cells from the edge, so births stay inside the grid."""
    rows = grid[:, :-2] + grid[:, 1:-1]
    rows += grid[:, 2:]
    count = rows[:-2] + rows[1:-1]
    count += rows[2:]
    inner = grid[1:-1, 1:-1]
    count -= inner  # the 3x3 sum less the cell: its neighbour count
    # a dead cell lives on at 3 neighbours, a live one at 2 or 3: count | cell == 3
    count |= inner
    np.equal(count, 3, out=inner.view(bool))


def _run_dense(xs: np.ndarray, ys: np.ndarray, steps: int):
    """Advance on a uint8 grid over the bounding box plus a margin.

    The grid is rebuilt around the live cells when one comes within a cell
    of the edge, and every `_DENSE_RECHECK` generations; each rebuild checks
    the density again.  Returns (xs, ys, generations left), with
    generations left > 0 when the pattern became too sparse for the grid.
    """
    m = _DENSE_MARGIN
    x0, y0 = xs.min() - m, ys.min() - m
    grid = np.zeros((ys.max() - y0 + m + 1, xs.max() - x0 + m + 1), dtype=np.uint8)
    grid[ys - y0, xs - x0] = 1
    while steps:
        _step_grid(grid)
        steps -= 1
        if not steps:
            break
        if not (steps % _DENSE_RECHECK == 0 or grid[1].any() or grid[-2].any()
                or grid[:, 1].any() or grid[:, -2].any()):
            continue
        live_rows = np.flatnonzero(grid.any(axis=1))
        if live_rows.size == 0:
            break
        live_cols = np.flatnonzero(grid.any(axis=0))
        r0, r1, c0, c1 = live_rows[0], live_rows[-1] + 1, live_cols[0], live_cols[-1] + 1
        core = grid[r0:r1, c0:c1]
        x0, y0 = x0 + c0, y0 + r0
        box = (x0, y0, x0 + c1 - c0 - 1, y0 + r1 - r0 - 1)
        if not _dense_enough(np.count_nonzero(core), box):
            grid = core
            break
        grid = np.pad(core, m)
        x0, y0 = x0 - m, y0 - m
    ys, xs = np.nonzero(grid)
    return xs + x0, ys + y0, steps


def step(cells: CellSet) -> CellSet:
    """One generation of B3/S23."""
    return _advance(cells, 1)


def run(cells: CellSet, steps: int) -> CellSet:
    """`steps`-fold composition of step."""
    if steps < 0:
        raise InvalidSteps(f"steps must be >= 0, got {steps}")
    return _advance(cells, steps)


def _advance(cells, steps: int) -> frozenset:
    """`run` without its check of `steps`; `step` calls it directly."""
    if not cells or steps == 0:
        return frozenset(cells)
    backend, xy = _backend(cells, steps)
    if backend == "tally":
        return _run_tally(cells, steps)
    xs, ys = xy[:, 0], xy[:, 1]
    if backend == "dense":
        xs, ys, steps = _run_dense(xs, ys, steps)
    if steps and xs.size:
        xs, ys = _run_packed(xs, ys, steps)
    return frozenset(zip(xs.tolist(), ys.tolist()))


def bounding_box(cells: CellSet) -> tuple[int, int, int, int] | None:
    """(min_x, min_y, max_x, max_y), or None for the empty set."""
    if not cells:
        return None
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    return min(xs), min(ys), max(xs), max(ys)


def translate(cells: CellSet, dx: int, dy: int) -> CellSet:
    return frozenset((x + dx, y + dy) for x, y in cells)


def canonical(cells: CellSet) -> tuple[CellSet, tuple[int, int]]:
    """Translate the bounding-box corner to the origin.

    Returns (normalised cells, corner) so the translation can be undone.
    """
    box = bounding_box(cells)
    if box is None:
        return frozenset(), (0, 0)
    x0, y0 = box[0], box[1]
    return translate(cells, -x0, -y0), (x0, y0)


@dataclass(frozen=True)
class FateReport:
    """Outcome of bounded fate classification.

    verdict is one of 'extinct', 'still_life', 'oscillator', 'translator',
    'unknown'.  `t` is the first generation at which the recurring state (or
    extinction) appears.  Oscillators and translators carry the period;
    translators also carry the per-period displacement.  'unknown' carries
    the exhausted budget instead.
    """

    verdict: str
    t: int = 0
    period: int = 0
    dx: int = 0
    dy: int = 0
    budget: int = 0


def detect_fate(cells: CellSet, budget: int) -> FateReport:
    """Classify a pattern by exact recurrence within `budget` generations.

    States are compared after translating the bounding box to the origin, so
    both in-place recurrence (still life, oscillator) and travelling
    recurrence (translator) are found exactly; life's ultimate fate in
    general is undecidable, hence the budget and the 'unknown' verdict.
    """
    if budget < 1:
        raise InvalidBudget(f"budget must be >= 1, got {budget}")
    seen: dict[frozenset, tuple[int, tuple[int, int]]] = {}
    state = frozenset(cells)
    for t in range(budget + 1):
        if not state:
            return FateReport("extinct", t=t)
        canon, corner = canonical(state)
        if canon in seen:
            t0, corner0 = seen[canon]
            period = t - t0
            dx, dy = corner[0] - corner0[0], corner[1] - corner0[1]
            if (dx, dy) != (0, 0):
                return FateReport("translator", t=t0, period=period, dx=dx, dy=dy)
            if period == 1:
                return FateReport("still_life", t=t0, period=1)
            return FateReport("oscillator", t=t0, period=period)
        seen[canon] = (t, corner)
        if t < budget:
            state = step(state)
    return FateReport("unknown", budget=budget)


# ---------------------------------------------------------------------------
# Pattern I/O

_RLE_HEADER = re.compile(
    r"^\s*x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)\s*(?:,\s*rule\s*=\s*(\S+)\s*)?$",
    re.IGNORECASE)

RLE_LINE_LIMIT = 69


def parse_rle(text: str) -> CellSet:
    """Decode an RLE pattern into its live-cell set.

    Accepts '#'-comment lines before the header, a `x = W, y = H[, rule =
    B3/S23]` header, then runs of `b` (dead) / `o` (live) with `$` row
    breaks and a `!` terminator.  Anything after `!` is ignored.
    """
    lines = text.splitlines()
    header = None
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#") or not line.strip():
            continue
        header = _RLE_HEADER.match(line)
        if not header:
            raise RleParseError("expected RLE header 'x = W, y = H'", line=i + 1)
        body_start = i + 1
        break
    if header is None:
        raise RleParseError("no RLE header found", line=len(lines) or 1)
    rule = header.group(3)
    if rule is not None and rule.upper() != "B3/S23":
        raise UnsupportedRule(f"only B3/S23 is supported, got rule {rule}")

    cells = set()
    x = y = 0
    count = 0
    have_count = False
    for i in range(body_start, len(lines)):
        line = lines[i]
        for j, ch in enumerate(line):
            if ch.isdigit():
                count = count * 10 + int(ch)
                have_count = True
            elif ch in "bo":
                n = count if have_count else 1
                if ch == "o":
                    for k in range(n):
                        cells.add((x + k, y))
                x += n
                count, have_count = 0, False
            elif ch == "$":
                n = count if have_count else 1
                y += n
                x = 0
                count, have_count = 0, False
            elif ch == "!":
                if have_count:
                    raise RleParseError("dangling run count before '!'",
                                        line=i + 1, column=j + 1)
                return frozenset(cells)
            elif ch.isspace():
                continue
            else:
                raise RleParseError(f"unexpected character {ch!r}",
                                    line=i + 1, column=j + 1)
    raise RleParseError("missing '!' terminator", line=len(lines) or 1)


def write_rle(cells: CellSet) -> str:
    """Encode a cell set as canonical RLE text.

    The pattern is translated so the bounding-box corner sits at (0, 0);
    output lines never exceed 69 characters and the encoding is
    byte-deterministic.
    """
    if not cells:
        return "x = 0, y = 0, rule = B3/S23\n!\n"
    xy, (x0, y0, x1, y1) = _xy(cells)
    width, height = x1 - x0 + 1, y1 - y0 + 1
    header = f"x = {width}, y = {height}, rule = B3/S23\n"

    if width * height >= _XY_LIMIT:  # keep row-major keys exact
        xy = xy.astype(object)
    xs, ys = xy[:, 0] - x0, xy[:, 1] - y0
    keys = np.sort(ys * width + xs)
    ys, xs = keys // width, keys % width
    # runs of live cells: a run starts on a new row or after a gap
    starts = np.flatnonzero(np.concatenate(
        ([True], (ys[1:] != ys[:-1]) | (xs[1:] != xs[:-1] + 1))))
    run_x, run_y = xs[starts], ys[starts]
    run_len = np.diff(starts, append=xs.size)
    # per run: rows skipped since the previous run ('$'), dead cells before
    # it on its row ('b'), its length ('o'); zero counts emit no token
    skip = np.diff(run_y, prepend=0)
    cursor = np.concatenate(([0], run_x[:-1] + run_len[:-1]))
    gap = run_x - np.where(skip > 0, 0, cursor)
    counts = np.stack([skip, gap, run_len], axis=1).ravel()
    tags = np.tile(np.frombuffer(b"$bo", dtype=np.uint8), starts.size)
    keep = counts > 0
    counts, tags = counts[keep], tags[keep]

    # one byte row per token: [newline][count digits, none for 1][tag]
    places = len(str(counts.max()))
    table = np.zeros((counts.size + 1, places + 2), dtype=np.uint8)
    table[:-1, -1] = tags
    table[-1, -1] = ord("!")
    multi = counts > 1
    for col in range(places):
        place = 10 ** (places - 1 - col)
        digit = (counts // place % 10 + ord("0")).astype(np.uint8)
        table[:-1, col + 1] = np.where(multi & (counts >= place), digit, 0)
    # greedy line filling: a token starts a new line when it would take the
    # current one past RLE_LINE_LIMIT characters
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    line_start = 0
    while True:
        i = bisect_right(ends, line_start + RLE_LINE_LIMIT)
        if i == len(ends):
            break
        table[i, 0] = ord("\n")
        line_start = ends[i - 1]
    return header + table[table != 0].tobytes().decode("ascii") + "\n"


def parse_cells(text: str) -> CellSet:
    """Decode the plaintext .cells format: '!'-comment lines, '.' dead,
    'O' live."""
    cells = set()
    y = 0
    for i, line in enumerate(text.splitlines()):
        if line.startswith("!"):
            continue
        for j, ch in enumerate(line.rstrip()):
            if ch == "O":
                cells.add((j, y))
            elif ch != ".":
                raise PatternParseError(f"unexpected character {ch!r}",
                                        line=i + 1, column=j + 1)
        y += 1
    return frozenset(cells)
