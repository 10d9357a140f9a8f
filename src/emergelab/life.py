"""Conway's Game of Life on an unbounded plane.

Cells are (x, y) pairs with x = column (rightward) and y = row (downward),
matching RLE reading order.  The rule is fixed B3/S23.

A `Pattern` holds a pattern as its frame: its cells as offsets from the
bounding-box corner, so its position never matters, and acts as the
frozenset of those cells.  `parse_rle` and `parse_cells` frame pattern
text straight from numpy arrays; `run`, `step`, `write_rle`, `raster`,
`detect_fate`, `bounding_box` and `canonical` read the frame of a Pattern
(any other iterable of cells is framed first), so text goes through runs
to text or image rows and no cell set is built.
One runner, `_orbit`, yields a frame's states and is the one place their
form is chosen, each time it frames a state:
- a dense uint8 grid over the bounding box plus a margin, with neighbour
  counts from shifted-slice sums: patterns of at least 64 cells that fill
  at least 1/128 of the grid, such as random soups, so `run` and
  `detect_fate` both start those there; a state that thins out is framed
  again;
- sorted packed int64 keys, stepped by a numpy loop: every other state
  whose extent plus two is below 2**30, such as the Gosper gun and small
  seeds;
- a frozenset stepped by a Counter tally, the reference: any wider state.

`run` and `detect_fate` only read the runner's states.  `detect_fate`,
shared with `candidates.life_survival_count`, memoises each state by a key
that all its translates share, so it stops at the first recurrence or at
extinction.

Pattern I/O: RLE (read and write), plaintext .cells (read), and `raster`,
which packs a pattern into the image rows `cli.render_pbm` writes.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Set
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count

import numpy as np

from .errors import EmergeLabError, InvalidArgument, InvalidSteps

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


# the frame of no cells: its (x, y) = (span + 1) is (0, 0)
_EMPTY = (np.zeros((0, 2), dtype=np.int64), (0, 0), (-1, -1))


def _frame(cells):
    """(offsets, corner, span) of a cell set: offsets from the bounding-box
    corner (x0, y0) as an (n, 2) array, int64 unless the span (x1 - x0,
    y1 - y0) reaches 2**62; the corner and span are Python ints."""
    if not cells:
        return _EMPTY
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
    """The cell set at offsets (xs, ys) from `corner`, int64 within +-2**62
    or Python ints: the inverse of `_frame`."""
    cx, cy = corner
    if max(abs(cx), abs(cy)) >= _INT64_SPAN:
        xs, ys = xs.astype(object), ys.astype(object)
    return frozenset(zip((xs + cx).tolist(), (ys + cy).tolist()))


class Pattern(Set):
    """A pattern held as its frame `(offsets, corner, span)`, in `_frame`'s
    form, that also acts as the frozenset of its live cells.  `len` reads
    the frame; iteration, `in`, `==` and `hash` act on `cells`, the
    frozenset, built on first use."""

    def __init__(self, frame):
        self.frame = frame

    def __len__(self) -> int:
        return len(self.frame[0])

    @cached_property
    def cells(self) -> frozenset:
        off, corner, _ = self.frame
        return _cells(off[:, 0], off[:, 1], corner)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell) -> bool:
        return cell in self.cells

    def __eq__(self, other) -> bool:
        return self.cells == other

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Pattern({set(self.cells)})"

    _from_iterable = frozenset  # what the set operators return


def _pattern(cells: Iterable) -> Pattern:
    """`cells`, a Pattern or any iterable of (x, y) cells, as a Pattern."""
    if isinstance(cells, Pattern):
        return cells
    return Pattern(_frame(frozenset(cells)))  # a repeated cell would count twice


def _reframe(xs: np.ndarray, ys: np.ndarray, corner):
    """The frame of the cells at int64 offsets (xs, ys) from `corner`, all
    within +-2**62."""
    if not xs.size:
        return _EMPTY
    x0, y0 = int(xs.min()), int(ys.min())
    off = np.stack([xs - x0, ys - y0], axis=1)
    return off, (corner[0] + x0, corner[1] + y0), (int(xs.max()) - x0, int(ys.max()) - y0)


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


def _orbit(frame):
    """The states of a non-empty frame at generations 0, 1, 2, ...; the
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
    Each grid and key array is new, so a yielded state stays valid.  States
    are framed again from their arrays; only tally states are sets.
    """
    while True:
        off, corner, (w, h) = frame
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
            frame = _reframe(xs, ys, corner)
        elif room > 0:
            keys = _pack(xs, ys)
            for _ in range(room):
                yield keys, corner
                keys = _step_packed(keys)
                if keys.size == 0:
                    break
            frame = _reframe(*_unpack(keys), corner)
        else:
            cells = _cells(xs, ys, corner)
            yield cells, None
            frame = _frame(_step_tally(cells))
        if not len(frame[0]):
            yield frozenset(), None
            return


def step(cells: Iterable) -> Pattern:
    """One generation of B3/S23."""
    return run(cells, 1)


def run(cells: Iterable, steps: int) -> Pattern:
    """`steps`-fold composition of step."""
    pattern = _pattern(cells)
    if steps < 0:
        raise InvalidSteps(f"steps must be >= 0, got {steps}")
    if not pattern or steps == 0:
        return pattern
    for _, (state, corner) in zip(range(steps + 1), _orbit(pattern.frame)):
        pass  # on to the state at generation `steps`, or the empty one
    if corner is None:
        return _pattern(state)
    xs, ys = _unpack(state) if state.ndim == 1 else np.nonzero(state)[::-1]
    return Pattern(_reframe(xs, ys, corner))


def bounding_box(cells: Iterable) -> tuple[int, int, int, int] | None:
    """(min_x, min_y, max_x, max_y), or None for the empty set."""
    off, (x0, y0), (w, h) = _pattern(cells).frame
    return (x0, y0, x0 + w, y0 + h) if len(off) else None


def translate(cells: Iterable, dx: int, dy: int) -> frozenset:
    return frozenset((x + dx, y + dy) for x, y in cells)


def canonical(cells: Iterable) -> tuple[Pattern, tuple[int, int]]:
    """Translate the bounding-box corner to the origin.

    Returns (normalised pattern, corner) so the translation can be undone;
    the empty pattern's corner is (0, 0).
    """
    off, corner, span = _pattern(cells).frame
    return Pattern((off, (0, 0), span)), corner


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


def detect_fate(cells: Iterable, budget: int) -> FateReport:
    """Classify a pattern by exact recurrence within `budget` generations.

    States are compared after translating the bounding box to the origin, so
    both in-place recurrence (still life, oscillator) and travelling
    recurrence (translator) are found exactly; life's ultimate fate in
    general is undecidable, hence the budget and the 'unknown' verdict.
    """
    pattern = _pattern(cells)
    if budget < 1:
        raise InvalidBudget(f"budget must be >= 1, got {budget}")
    if not pattern:
        return FateReport("extinct", t=0)
    # Each state is memoised by a key that all its translates share, with
    # its first packed key and frame corner, decoded once the key repeats.
    seen: dict[bytes | Pattern, tuple] = {}
    for t, (state, corner) in enumerate(_orbit(pattern.frame)):
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


# the bytes.translate table of the class of each byte of an RLE body:
# str.isspace() for ASCII whitespace, only ASCII digits, then the run tags,
# in this order
_BAD, _SPACE, _DIGIT, _DEAD, _LIVE, _ROW = range(6)
_RLE_SPACES = bytes(c for c in range(128) if chr(c).isspace())
_RLE_TAGS = {ord("b"): _DEAD, ord("o"): _LIVE, ord("$"): _ROW}
_RLE_CLASS = bytes(_SPACE if b in _RLE_SPACES else _DIGIT if chr(b) in "0123456789"
                   else _RLE_TAGS.get(b, _BAD) for b in range(256))
# run counts of up to this many digits are below 10**18 and read in int64;
# longer ones are read as Python ints
_INT64_DIGITS = 18


def _rle_body(text: str):
    """(body, its first line) of RLE text, after its checked header."""
    lines = text.splitlines(keepends=True)
    start = 0  # of the body in `text`
    for i, line in enumerate(lines):
        start += len(line)
        line = line.splitlines()[0]
        if line.startswith("#") or not line.strip():
            continue
        header = _RLE_HEADER.match(line)
        if not header:
            raise RleParseError("expected RLE header 'x = W, y = H'", line=i + 1)
        break
    else:
        raise RleParseError("no RLE header found", line=len(lines) or 1)
    rule = header.group(3)
    if rule is not None and rule.upper() != "B3/S23":
        raise UnsupportedRule(f"only B3/S23 is supported, got rule {rule}")
    return text[start:], i + 2


def _one_byte_each(text: str) -> bytes:
    """The characters of `text` as bytes, any past ASCII as ' ' if it is
    whitespace, else NUL."""
    if text.isascii():
        return text.encode("ascii")
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    wide = np.flatnonzero(codes > 127)
    others, which = np.unique(codes[wide], return_inverse=True)
    space = np.array([chr(c).isspace() for c in others.tolist()])
    chars = codes.astype(np.uint8)
    chars[wide] = np.where(space[which], ord(" "), 0)
    return chars.tobytes()


def _body_error(message, body, index, line):
    """RleParseError at character `index` of an RLE body that starts on
    `line`: the line and column are found only here, on the error path."""
    lines = body[:index].splitlines(keepends=True)
    column = 1
    if lines and lines[-1].splitlines() == [lines[-1]]:  # the line goes on
        column += len(lines.pop())
    return RleParseError(message, line=line + len(lines), column=column)


def parse_rle(text: str) -> Pattern:
    """Decode an RLE pattern.

    Accepts '#'-comment lines before the header, a `x = W, y = H[, rule =
    B3/S23]` header, then runs of `b` (dead) / `o` (live) with `$` row
    breaks and a `!` terminator.  Anything after `!` is ignored.  A run
    count has at most RUN_COUNT_DIGITS digits, and the pattern at most
    CELL_LIMIT live cells.  A numpy tokeniser reads the body, with
    whitespace dropped first, so it may split a count; every array holds a
    byte per character, or an entry per token or cell.  The first error in
    text order is raised.
    """
    body, first_line = _rle_body(text)
    end = body.find("!")
    head = body if end < 0 else body[:end]
    raw = _one_byte_each(head)
    solid = raw.translate(None, _RLE_SPACES)
    chars = np.frombuffer(solid, dtype=np.uint8)
    classes = solid.translate(_RLE_CLASS)
    stop = classes.find(_BAD)  # at the first refused byte, if any
    if stop < 0:
        stop = len(classes)
    kinds = np.frombuffer(classes, dtype=np.uint8)
    tags = (kinds[:stop] >= _DEAD).nonzero()[0]
    digits = tags - np.concatenate(([-1], tags[:-1])) - 1  # of each count
    most = int(digits.max(initial=0))

    # the first error, as (index in `chars`, message), or at '!' or the end
    limit = RUN_COUNT_DIGITS
    too_long = f"run count longer than {limit} digits"
    pending = stop - (int(tags[-1]) + 1 if tags.size else 0)  # digits at `stop`
    error = None
    if most > limit:
        k = int((digits > limit).argmax())
        error = int(tags[k] - digits[k]) + limit, too_long
        tags, digits = tags[:k], digits[:k]
    elif pending > limit:
        error = stop - pending + limit, too_long
    elif stop < kinds.size:
        error = stop, None

    # run counts, a digit column at a time from the right, over the tokens
    # with that many digits; a run with no digits counts 1
    counts = np.where(digits > 0, chars[tags - 1] - ord("0"), 1).astype(np.int64)
    for col in range(1, min(most, _INT64_DIGITS)):
        has = (digits > col).nonzero()[0]
        counts[has] += (chars[tags[has] - 1 - col] - ord("0")).astype(np.int64) * 10 ** col
    if most > _INT64_DIGITS or 10 ** most * counts.size >= _INT64_SPAN:
        counts = counts.astype(object)  # so that no sum of counts overflows
        for k in (digits > _INT64_DIGITS).nonzero()[0].tolist():
            counts[k] = int(solid[tags[k] - digits[k]:tags[k]])

    kind = kinds[tags]
    live = kind == _LIVE
    cap = CELL_LIMIT
    n = counts[live]
    if n.dtype == object:  # any count past the cap is refused below
        n = np.minimum(n, cap + 1).astype(np.int64)
    ends = n.cumsum()
    if ends.size and ends[-1] > cap:
        error = int(tags[live][ends.searchsorted(cap, side="right")]), \
            f"more than {cap} live cells"
    if error is not None:
        index, message = error
        spaces = np.frombuffer(raw.translate(_RLE_CLASS), dtype=np.uint8) == _SPACE
        index = int((~spaces).nonzero()[0][index])  # in `head`
        if message is None:
            message = f"unexpected character {head[index]!r}"
        raise _body_error(message, body, index, first_line)
    if end < 0:
        raise RleParseError("missing '!' terminator", line=len(text.splitlines()) or 1)
    if pending:
        raise _body_error("dangling run count before '!'", body, end, first_line)
    return Pattern(_frame_runs(kind, counts, live, n))


def _frame_runs(kind, counts, live, n):
    """The frame of RLE runs, from the tag class and count of each run, a
    mask of the live runs and their counts; the counts are int64, or Python
    ints if their sums may pass int64."""
    # a live run's row is the sum of the '$' runs before it, and its column
    # the sum of the 'b' and 'o' runs since the last of those: the columns
    # moved so far less those moved up to that '$'
    row = kind == _ROW
    moved = np.where(row, 0, counts).cumsum()
    xs = (moved - np.maximum.accumulate(np.where(row, moved, 0)))[live] - n
    ys = np.where(row, counts, 0).cumsum()[live]
    revisit = False
    if not counts.all():  # `0o` makes no cell, and `0$` goes back over its row
        keep = n > 0
        xs, ys, n = xs[keep], ys[keep], n[keep]
        revisit = (row & (counts == 0)).any()
    if not n.size:
        return _EMPTY
    x0, y0 = int(xs.min()), int(ys[0])
    span = int((xs + n).max()) - 1 - x0, int(ys[-1]) - y0
    xs, ys = xs - x0, ys - y0
    if xs.dtype == object and max(span) < _INT64_SPAN:
        xs, ys = xs.astype(np.int64), ys.astype(np.int64)
    # the cells of each run: its start repeated, plus the cell's index
    ends = n.cumsum()
    off = np.empty((int(ends[-1]), 2), dtype=xs.dtype)
    np.add((xs - (ends - n)).repeat(n), np.arange(off.shape[0]), out=off[:, 0])
    off[:, 1] = ys.repeat(n)
    if revisit:
        if off.dtype == object:
            off = np.array(sorted(set(map(tuple, off.tolist()))), dtype=object)
        else:
            off = np.unique(off, axis=0)
    return off, (x0, y0), span


def write_rle(cells: Iterable) -> str:
    """Encode a pattern as canonical RLE text.

    The pattern is translated so the bounding-box corner sits at (0, 0);
    output lines never exceed 69 characters and the encoding is
    byte-deterministic.
    """
    off, _, (w, h) = _pattern(cells).frame
    if not len(off):
        return "x = 0, y = 0, rule = B3/S23\n!\n"
    width, height = w + 1, h + 1
    header = f"x = {width}, y = {height}, rule = B3/S23\n"

    if width * height >= _INT64_SPAN:  # keep row-major keys exact
        off = off.astype(object)
    keys = off[:, 1] * width + off[:, 0]
    if (keys[1:] > keys[:-1]).all():  # the frame of a grid or of RLE text
        xs, ys = off[:, 0], off[:, 1]
    else:
        keys.sort()
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
    length = np.ones(counts.size + 1, dtype=np.int64)  # of each token
    multi = counts > 1
    for col in range(places):
        place = 10 ** (places - 1 - col)
        digit = (counts // place % 10 + ord("0")).astype(np.uint8)
        shown = multi & (counts >= place)
        table[:-1, col + 1] = np.where(shown, digit, 0)
        length[:-1] += shown
    # greedy line filling: a token starts a new line when it would take the
    # current one past RLE_LINE_LIMIT characters
    ends = np.cumsum(length)
    line_start = 0
    while True:
        i = int(ends.searchsorted(line_start + RLE_LINE_LIMIT, side="right"))
        if i == ends.size:
            break
        table[i, 0] = ord("\n")
        line_start = int(ends[i - 1])
    return header + table[table != 0].tobytes().decode("ascii") + "\n"


def raster(cells: Iterable) -> tuple[list[int], int]:
    """A pattern as image rows over its bounding box, `(rows, width)`:
    cell (x, y) is bit x - min x of rows[y - min y].  Refuses an empty set,
    which has no box, and a box of more than PIXEL_LIMIT pixels
    (InvalidArgument)."""
    off, _, (w, h) = _pattern(cells).frame
    if not len(off):
        raise InvalidArgument("cannot render an empty cell set")
    if (w + 1) * (h + 1) > PIXEL_LIMIT:
        raise InvalidArgument(f"{w + 1}x{h + 1} image over {PIXEL_LIMIT} pixels")
    grid = np.zeros((h + 1, w + 1), dtype=bool)
    grid[off[:, 1], off[:, 0]] = True
    packed = np.packbits(grid, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed], w + 1


_CELLS_OTHER = re.compile(r"[^.O]")


def parse_cells(text: str) -> Pattern:
    """Decode the plaintext .cells format: '!'-comment lines, '.' dead,
    'O' live, trailing whitespace ignored; at most CELL_LIMIT live cells.
    The rows are checked one at a time, then their live cells found with
    numpy."""
    rows, found = [], 0  # the rows, and the live cells in them
    cap = CELL_LIMIT
    for i, line in enumerate(text.splitlines()):
        if line.startswith("!"):
            continue
        line = line.rstrip()
        other = _CELLS_OTHER.search(line)
        end = other.start() if other else len(line)
        live = line.count("O", 0, end)
        if found + live > cap:  # the first 'O' past the cap
            row = np.frombuffer(line[:end].encode("ascii"), dtype=np.uint8)
            column = int(np.flatnonzero(row == ord("O"))[cap - found]) + 1
            raise PatternParseError(f"more than {cap} live cells",
                                    line=i + 1, column=column)
        if other:
            raise PatternParseError(f"unexpected character {other.group()!r}",
                                    line=i + 1, column=end + 1)
        found += live
        rows.append(line)
    chars = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]], dtype=np.int64)
    at = np.flatnonzero(chars == ord("O"))
    ys = np.searchsorted(starts, at, side="right") - 1
    return Pattern(_reframe(at - starts[ys], ys, (0, 0)))
