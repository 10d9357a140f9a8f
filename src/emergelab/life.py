"""Conway's Game of Life on an unbounded plane.

Cells are a sparse set of (x, y) pairs with x = column (rightward) and
y = row (downward), matching RLE reading order.  The rule is fixed B3/S23.

Every numpy path sees a pattern through `_frame`: its cells as offsets from
the bounding-box corner, the corner kept in Python ints, so a pattern's
position never matters.  One runner, `_orbit`, yields a pattern's states
and is the one place their form is chosen, each time it frames a state:
- a dense uint8 grid over the bounding box plus a margin, with neighbour
  counts from shifted-slice sums: patterns of at least 64 cells that fill
  at least 1/128 of the grid, such as random soups, so `run` and
  `detect_fate` both start those there; a state that thins out is framed
  again;
- sorted packed int64 keys, stepped by a numpy loop: every other state
  whose extent plus two is below 2**30, such as the Gosper gun and small
  seeds;
- a frozenset stepped by a Counter tally, the reference: any wider state.

`step`, `run` and `detect_fate` only read the runner's states.
`detect_fate`, shared with `candidates.life_survival_count`, memoises each
state by a key that all its translates share, so it stops at the first
recurrence or at extinction.

Pattern I/O: RLE (read and write), plaintext .cells (read), and `raster`,
which packs a pattern into the image rows `cli.render_pbm` writes.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .errors import EmergeLabError, InvalidArgument, InvalidSteps

CellSet = frozenset  # of (x, y) int pairs

NEIGHBOR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                         if (dx, dy) != (0, 0))

# packed int64 key = x * 2**32 + (y + 2**31); usable while |x|, |y| < 2**30
_PACK_M = 1 << 32
_PACK_HALF = 1 << 31
_PACK_LOW = _PACK_M - 1
_PACKED_OFFSETS = np.array([dx * _PACK_M + dy for dx, dy in NEIGHBOR_OFFSETS],
                           dtype=np.int64)
# `_orbit` packs a state while its extent plus two stays below this, and
# re-frames it before any offset leaves +-2**30
_FRAME_LIMIT = 1 << 30
# frame offsets are int64 below this extent, Python ints (dtype object) from
# it on; below it, sums and differences of offsets and corners fit in int64
_INT64_SPAN = 1 << 62

# the dense grid runs patterns of at least _DENSE_MIN_POP cells that fill at
# least 1/_DENSE_SPARSITY of the grid, their bounding box plus the margin
_DENSE_MIN_POP = 64
_DENSE_SPARSITY = 128
# dead cells kept around the live ones when the dense grid is (re)built
_DENSE_MARGIN = 16
# generations between rebuilds that shrink the grid to the live cells
_DENSE_RECHECK = 64


class PatternParseError(InvalidArgument):
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


def _step_tally(cells: frozenset) -> frozenset:
    """Reference step: neighbour counts in an associative tally."""
    tally = Counter()
    for x, y in cells:
        for dx, dy in NEIGHBOR_OFFSETS:
            tally[(x + dx, y + dy)] += 1
    return frozenset(c for c, n in tally.items()
                     if n == 3 or (n == 2 and c in cells))


def _frame(cells):
    """(offsets, corner, span) of non-empty cells: offsets from the
    bounding-box corner (x0, y0) as an (n, 2) array, int64 unless the span
    (x1 - x0, y1 - y0) reaches 2**62; the corner and span are Python ints."""
    try:
        xy = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                         count=2 * len(cells)).reshape(-1, 2)
    except OverflowError:
        xy = np.array(list(chain.from_iterable(cells)), dtype=object).reshape(-1, 2)
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    (x0, y0), (x1, y1) = lo.tolist(), hi.tolist()
    span = (x1 - x0, y1 - y0)
    if max(span) < _INT64_SPAN:
        off = (xy - lo).astype(np.int64, copy=False)  # the differences fit
    else:  # not `xy - (x0, y0)`: a tuple past int64 goes through float64
        off = xy.astype(object) - lo.astype(object)
    return off, (x0, y0), span


def _cells(xs: np.ndarray, ys: np.ndarray, corner) -> frozenset:
    """The cell set at offsets (xs, ys) from `corner`: the inverse of
    `_frame`, for offsets within +-2**62."""
    cx, cy = corner
    if max(abs(cx), abs(cy)) >= _INT64_SPAN:
        xs, ys = xs.astype(object), ys.astype(object)
    return frozenset(zip((xs + cx).tolist(), (ys + cy).tolist()))


def _dense_enough(population: int, width: int, height: int) -> bool:
    """Whether the dense grid beats the packed loop on this pattern."""
    m = 2 * _DENSE_MARGIN
    return (population >= _DENSE_MIN_POP and
            population * _DENSE_SPARSITY >= (width + m) * (height + m))


def _step_packed(keys: np.ndarray) -> np.ndarray:
    """One generation over sorted, non-empty packed keys; the result is
    sorted too."""
    neighbors = (keys[:, None] + _PACKED_OFFSETS).ravel()
    neighbors.sort()
    # runs of equal neighbour keys: each run's last index, key and length
    last = np.empty(neighbors.size, dtype=bool)
    np.not_equal(neighbors[1:], neighbors[:-1], out=last[:-1])
    last[-1] = True
    ends = np.flatnonzero(last)
    uniq = neighbors[ends]
    counts = np.diff(ends, prepend=-1)
    idx = keys.searchsorted(uniq)
    np.minimum(idx, keys.size - 1, out=idx)
    # a dead cell lives on at 3 neighbours, a live one at 2 or 3: count | cell == 3
    counts |= keys[idx] == uniq
    return uniq[counts == 3]


def _pack(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sorted int64 keys x * 2**32 + (y + 2**31) of cells within +-2**30."""
    return np.sort(xs * _PACK_M + ys + _PACK_HALF)


def _unpack(keys: np.ndarray):
    return keys >> 32, (keys & _PACK_LOW) - _PACK_HALF


def _step_grid(grid: np.ndarray) -> np.ndarray:
    """The next generation of a uint8 0/1 grid, as a new grid.  Live cells
    must be at least two cells from the edge, so births stay inside it."""
    rows = grid[:, :-2] + grid[:, 1:-1]
    rows += grid[:, 2:]
    counts = rows[:-2] + rows[1:-1]
    counts += rows[2:]
    inner = grid[1:-1, 1:-1]
    counts -= inner  # the 3x3 sum less the cell: its neighbour count
    # a dead cell lives on at 3 neighbours, a live one at 2 or 3: count | cell == 3
    counts |= inner
    out = np.zeros_like(grid)
    np.equal(counts, 3, out=out[1:-1, 1:-1].view(bool))
    return out


def _orbit(cells: frozenset):
    """The states of a non-empty pattern at generations 0, 1, 2, ...; the
    last is empty if the pattern dies out.

    The one Life runner, and the one place a state's form is chosen, each
    time it frames a state:
    - a pattern `_dense_enough` goes on a uint8 grid over its box plus
      _DENSE_MARGIN, yielded as (grid, grid corner).  The grid is rebuilt
      around the live cells when one comes within a cell of the edge and
      every _DENSE_RECHECK generations; each rebuild checks the density
      again, and a state too sparse for the grid is framed again.
    - otherwise a frame of extent s (its larger side less one) has room =
      (_FRAME_LIMIT - 1 - s) // 2.  With room > 0 it yields `room` states
      as (sorted packed keys, corner): each has extent plus two below
      _FRAME_LIMIT and offsets within +-2**30.  The state after them is
      framed again.
    - any other state, and the empty one, is (frozenset, None), stepped by
      the tally.
    Each grid and key array is new, so a yielded state stays valid.
    """
    while True:
        off, corner, (w, h) = _frame(cells)
        xs, ys = off[:, 0], off[:, 1]
        room = (_FRAME_LIMIT - 1 - max(w, h)) // 2
        if _dense_enough(xs.size, w + 1, h + 1):
            m = _DENSE_MARGIN
            grid = np.zeros((h + 2 * m + 1, w + 2 * m + 1), dtype=np.uint8)
            grid[ys + m, xs + m] = 1
            corner = corner[0] - m, corner[1] - m
            for t in count(1):
                yield grid, corner
                grid = _step_grid(grid)
                if not grid.any():
                    break
                if not (t % _DENSE_RECHECK == 0 or grid[1].any() or grid[-2].any()
                        or grid[:, 1].any() or grid[:, -2].any()):
                    continue
                live_rows = np.flatnonzero(grid.any(axis=1))
                live_cols = np.flatnonzero(grid.any(axis=0))
                r0, r1 = int(live_rows[0]), int(live_rows[-1]) + 1
                c0, c1 = int(live_cols[0]), int(live_cols[-1]) + 1
                grid = grid[r0:r1, c0:c1]
                corner = corner[0] + c0, corner[1] + r0
                if not _dense_enough(np.count_nonzero(grid), c1 - c0, r1 - r0):
                    break
                grid = np.pad(grid, m)
                corner = corner[0] - m, corner[1] - m
            ys, xs = np.nonzero(grid)
            cells = _cells(xs, ys, corner)
        elif room > 0:
            keys = _pack(xs, ys)
            for _ in range(room):
                yield keys, corner
                keys = _step_packed(keys)
                if keys.size == 0:
                    break
            cells = _cells(*_unpack(keys), corner)
        else:
            yield cells, None
            cells = _step_tally(cells)
        if not cells:
            yield cells, None
            return


def step(cells: CellSet) -> CellSet:
    """One generation of B3/S23."""
    return run(cells, 1)


def run(cells: CellSet, steps: int) -> CellSet:
    """`steps`-fold composition of step."""
    if steps < 0:
        raise InvalidSteps(f"steps must be >= 0, got {steps}")
    cells = frozenset(cells)  # a repeated cell would count twice when packed
    if not cells or steps == 0:
        return cells
    for _, (state, corner) in zip(range(steps + 1), _orbit(cells)):
        pass  # on to the state at generation `steps`, or the empty one
    if corner is None:
        return state
    xs, ys = _unpack(state) if state.ndim == 1 else np.nonzero(state)[::-1]
    return _cells(xs, ys, corner)


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
    cells = frozenset(cells)
    if not cells:
        return FateReport("extinct", t=0)
    # Each state is memoised by a key that all its translates share, with
    # its first packed key and frame corner, decoded once the key repeats.
    seen: dict[bytes | frozenset, tuple] = {}
    for t, (state, corner) in enumerate(_orbit(cells)):
        if corner is None:  # a wide state, or the empty one at extinction
            if not state:
                return FateReport("extinct", t=t)
            key, corner = canonical(state)
            first = _PACK_HALF  # the key of offset (0, 0): the corner itself
        else:  # a translate adds one constant to every packed key
            if state.ndim == 2:  # a grid is keyed by its live cells, packed
                ys, xs = np.nonzero(state)
                state = _pack(xs, ys)
            first = int(state[0])
            key = (state - first).tobytes()
        if key in seen:
            t0, first0, corner0 = seen[key]
            (x0, y0), (x1, y1) = _unpack(first0), _unpack(first)
            period = t - t0
            dx = corner[0] + x1 - corner0[0] - x0
            dy = corner[1] + y1 - corner0[1] - y0
            if (dx, dy) != (0, 0):
                return FateReport("translator", t=t0, period=period, dx=dx, dy=dy)
            if period == 1:
                return FateReport("still_life", t=t0, period=1)
            return FateReport("oscillator", t=t0, period=period)
        seen[key] = (t, first, corner)
        if t == budget:
            return FateReport("unknown", budget=budget)


# ---------------------------------------------------------------------------
# Pattern I/O

_RLE_HEADER = re.compile(
    r"^\s*x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)\s*(?:,\s*rule\s*=\s*(\S+)\s*)?$",
    re.IGNORECASE)

RLE_LINE_LIMIT = 69
# the most live cells `parse_rle` builds, and pixels `raster` allocates
CELL_LIMIT = 10 ** 7
PIXEL_LIMIT = 1 << 26
# the most digits of one RLE run count: reading a count costs time
# quadratic in its length, and a coordinate past 4300 digits cannot be
# printed.  Twenty digits hold every 64-bit count, so `write_rle` output of
# any pattern less than 2**64 wide reads back.
RUN_COUNT_DIGITS = 20


def parse_rle(text: str) -> CellSet:
    """Decode an RLE pattern into its live-cell set.

    Accepts '#'-comment lines before the header, a `x = W, y = H[, rule =
    B3/S23]` header, then runs of `b` (dead) / `o` (live) with `$` row
    breaks and a `!` terminator.  Anything after `!` is ignored.  A run
    count has at most RUN_COUNT_DIGITS digits, and the pattern at most
    CELL_LIMIT live cells.
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
    room = CELL_LIMIT  # live cells still allowed
    x = y = 0
    count = digits = 0
    for i in range(body_start, len(lines)):
        line = lines[i]
        for j, ch in enumerate(line):
            if "0" <= ch <= "9":  # not isdigit(), which also takes '²' and '٣'
                if digits == RUN_COUNT_DIGITS:
                    raise RleParseError(
                        f"run count longer than {RUN_COUNT_DIGITS} digits",
                        line=i + 1, column=j + 1)
                count = count * 10 + int(ch)
                digits += 1
            elif ch in "bo":
                n = count if digits else 1
                if ch == "o":
                    room -= n
                    if room < 0:
                        raise RleParseError(f"more than {CELL_LIMIT} live cells",
                                            line=i + 1, column=j + 1)
                    for k in range(n):
                        cells.add((x + k, y))
                x += n
                count = digits = 0
            elif ch == "$":
                n = count if digits else 1
                y += n
                x = 0
                count = digits = 0
            elif ch == "!":
                if digits:
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
    off, _, (w, h) = _frame(cells)
    width, height = w + 1, h + 1
    header = f"x = {width}, y = {height}, rule = B3/S23\n"

    if width * height >= _INT64_SPAN:  # keep row-major keys exact
        off = off.astype(object)
    keys = np.sort(off[:, 1] * width + off[:, 0])
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


def raster(cells: CellSet) -> tuple[list[int], int]:
    """A cell set as image rows over its bounding box, `(rows, width)`:
    cell (x, y) is bit x - min x of rows[y - min y].  Refuses an empty set,
    which has no box, and a box of more than PIXEL_LIMIT pixels
    (InvalidArgument)."""
    if not cells:
        raise InvalidArgument("cannot render an empty cell set")
    off, _, (w, h) = _frame(cells)
    if (w + 1) * (h + 1) > PIXEL_LIMIT:
        raise InvalidArgument(f"{w + 1}x{h + 1} image over {PIXEL_LIMIT} pixels")
    grid = np.zeros((h + 1, w + 1), dtype=bool)
    grid[off[:, 1], off[:, 0]] = True
    packed = np.packbits(grid, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed], w + 1


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
