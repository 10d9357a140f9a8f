"""Langton's ant on an unbounded grid, with an exact highway fast-forward
and highway detection.

Conventions: N = (0, +1), E = (+1, 0); a left turn is counterclockwise in
this frame.  On a white square the ant turns left, paints the square black
and advances; on a black square it turns right, repaints it white and
advances.  `HEADINGS` is the one heading order, clockwise from north (kept
in `errors`, so that the CLI's parser reads it without importing this
module): `run`, `census` and `detect_highway` carry the heading as its
index there, and one lookup table per turn gives the new index and the
move; states and reports keep the letter.

`census` steps the ant square by square until a certificate proves that
it is on a highway for all time (see `_period`); every later state then
follows from one recorded period by arithmetic, so n steps cost the
onset plus O(1).  `run` is a census plus the black set built from what it
kept, so it costs the size of the result more.

The highway detector fingerprints each step by the ant's heading plus the
black cells within a Chebyshev window around it (relative coordinates).
The window is maintained incrementally as one big integer: each move
shifts the mask, and the entering edge is read with one shift and one AND
from a frame around the ant that holds the black squares as row and column
integers (see `_frame`).  The frame is built again from the black set when
the window would cross its edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CELL_LIMIT, HEADINGS, InvalidArgument

_MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))  # unit steps, indexed like HEADINGS
# heading index -> (new heading index, dx, dy) after a right or a left turn
_RIGHT = tuple(((h + 1) % 4, *_MOVES[(h + 1) % 4]) for h in range(4))
_LEFT = tuple(((h - 1) % 4, *_MOVES[(h - 1) % 4]) for h in range(4))
# detector windows are (2r + 1)**2 bits; r = 256 takes about 2 s and 0.5 GB
# per 20,000 steps from the standard start (Python 3.11, 2-vCPU VM)
WINDOW_RADIUS_LIMIT = 256
# the most window bits, max_steps * (2r + 1)**2, a detector run may keep:
# `seen` holds up to one window per step, so this bounds its memory.  Every
# r <= 256 still runs 20,000 steps (about 5.3e9 bits at r = 256).
WINDOW_BITS_LIMIT = 1 << 33
# steps between highway checks; a check looks for periods below
# _PERIOD_LIMIT among the chunk's turns, and only the last 2 * _PERIOD_LIMIT
# of them decide what it finds
_CHUNK = 4096
_PERIOD_LIMIT = 256
# squares of the detector's frame beyond its window on each side: the ant
# moves this far before the frame is built again from the black set
_FRAME_MARGIN = 64


@dataclass(frozen=True)
class AntState:
    """Ant position, heading, the set of black squares, and moves made."""

    pos: tuple[int, int] = (0, 0)
    heading: str = "N"
    black: frozenset = frozenset()
    steps: int = 0

    def __post_init__(self):
        # against the four letters: "" and "NE" are substrings of HEADINGS
        if self.heading not in tuple(HEADINGS):
            raise InvalidArgument(f"heading must be one of N/E/S/W, got {self.heading!r}")
        if self.steps < 0:
            raise InvalidArgument("steps must be >= 0")


def standard_start(heading: str = "N") -> AntState:
    """All-white grid, ant at the origin."""
    return AntState((0, 0), heading, frozenset(), 0)


def _steps(black, x, y, h, n, turns):
    """n steps on the mutable black set, appending each turn to `turns`:
    1 for a black square and a right turn, 0 for a white square and a left
    turn.  Returns (x, y, h)."""
    record = turns.append
    for _ in range(n):
        pos = (x, y)
        if pos in black:
            black.discard(pos)
            record(1)
            h, dx, dy = _RIGHT[h]
        else:
            black.add(pos)
            record(0)
            h, dx, dy = _LEFT[h]
        x += dx
        y += dy
    return x, y, h


def _walk(h, turns):
    """The ant taking `turns` from square (0, 0) with heading index h:
    (squares, headings, counts), each with len(turns) + 1 entries, the
    square and heading before each turn and after the last, and the change
    in the black count up to each."""
    offsets, headings, counts = [(0, 0)], [h], [0]
    for turn in turns:
        h, dx, dy = (_RIGHT if turn else _LEFT)[h]
        ox, oy = offsets[-1]
        offsets.append((ox + dx, oy + dy))
        headings.append(h)
        counts.append(counts[-1] + (-1 if turn else 1))
    return offsets, headings, counts


def _box(cells):
    """(min_x, min_y, max_x, max_y) of a non-empty set of squares."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    return min(xs), min(ys), max(xs), max(ys)


def _line(a, b, dx, dy):
    """(line, q) for square (a, b) and a direction (dx, dy) != (0, 0): the
    line of that direction through the square, as its square at q = 0, and
    the square's place on it, (a, b) = line + q (dx, dy)."""
    q = a // dx if dx else b // dy
    return (a - q * dx, b - q * dy), q


def _period(black, x, y, h, turns) -> int | None:
    """The smallest p < _PERIOD_LIMIT that passes the highway certificate's
    check with the ant at (x, y), heading index h, on `black`, after steps
    that took `turns`; None if none does.

    The last 2p turns must repeat with a net rotation of 0 mod 4 (so p is
    even: every turn is a quarter turn) and a displacement d != 0 over the
    last p steps.  V is the set of offsets from the first square of those
    p steps of the squares they read; a front square is a u in V with
    u + d outside V.  The check (C): from each front square u, the squares
    (x, y) + u + j d, j >= 0, are white, so each ray that the highway
    enters is fresh ground.

    If the next p turns repeat the last p as well, the ant repeats them for
    all time.  Write W_k = (x, y) + k d + V.  Those turns read W_0 in the
    colours c that the last period read on W_-1 (a square's first read
    shows its colour), from the same heading, so both periods act alike.
    Claim: period k finds W_k in the colours c, translated.  The squares of
    W_k+1 inside W_k hold what period k left there, as the squares of W_0
    inside W_-1 held what period -1 left: c.  A square of W_k+1 outside
    W_k, at front offset u, needs c's colour at u, white (C, j = 0).  It
    is white now (C, j = k + 1), and if a period 0 <= j < k touches it,
    the last one leaves it as period -1 left the square
    (x, y) + u + (k - j) d, which lies outside W_0 and on u's ray, so is
    white now (C).  Hence a trail square may be entered again without
    harm, and no check that the highway never re-enters its trail is
    needed.
    """
    for p in range(2, _PERIOD_LIMIT, 2):
        last = turns[-p:]
        if last != turns[-2 * p:-p] or (p - 2 * last.count(1)) % 4:
            continue
        offsets = _walk(h, last)[0]  # the heading p steps ago was h
        dx, dy = offsets.pop()
        if not (dx or dy):
            continue
        shape = set(offsets)
        front = [(a, b) for a, b in shape if (a + dx, b + dy) not in shape]
        if any((x + a + j * dx, y + b + j * dy) in black
               for a, b in front for j in range(8)):
            continue  # the usual failure, found before the lines are read
        far = {}  # line along d -> the largest q of a black square on it
        for a, b in black:
            line, q = _line(a, b, dx, dy)
            if q > far.get(line, q - 1):
                far[line] = q
        if any(far.get(line, q - 1) >= q
               for line, q in (_line(x + a, y + b, dx, dy) for a, b in front)):
            continue
        return p
    return None


def _certify(state: AntState, n: int):
    """Step the ant at most n times from `state`, checking for a highway at
    the end of every _CHUNK steps.  Returns (black, x, y, h, t, turns):
    turns None and the state after t == n steps, or the turns of a period
    (t + len(turns) <= n) that the ant repeats from step t on for all time
    and the state after the period that proved it, at step t + len(turns)."""
    black = set(state.black)
    x, y = state.pos
    h = HEADINGS.index(state.heading)
    t = 0
    while n - t > _CHUNK:
        turns = bytearray()
        x, y, h = _steps(black, x, y, h, _CHUNK, turns)
        t += _CHUNK
        p = _period(black, x, y, h, turns)
        if p is None or n - t < p:
            continue
        repeat = bytearray()
        x, y, h = _steps(black, x, y, h, p, repeat)
        if repeat == turns[-p:]:
            return black, x, y, h, t, bytes(repeat)
        t += p
    x, y, h = _steps(black, x, y, h, n - t, bytearray())
    return black, x, y, h, n, None


def _forward(black, x, y, h, turns, m):
    """The ant m steps after a certified step, at which it stood at (x, y)
    with heading index h on `black` and from which it repeats `turns`:
    ((x, y), h, black count, (dx, dy), runs), where (dx, dy) is the
    period's displacement and the black set is the union of the runs
    (x0, y0, length): squares (x0 + i dx, y0 + i dy), 0 <= i < length.

    Step i of period k flips the square that step i of period 0 read,
    moved by k d, so the set is `black` XOR, for each step i < p of a
    period, a run of k or k + 1 squares along d from that square: k + 1
    for the r = m mod p steps of the last, partial period.  Those runs are
    XORed line by line of direction d, by the parity of their ends.
    """
    offsets, headings, counts = _walk(h, turns)
    k, r = divmod(m, len(turns))
    (dx, dy), (ox, oy) = offsets[-1], offsets[r]
    ends = {}  # line -> the ends of its runs, as step indices along d
    squares = [(a, b, 1) for a, b in black]
    squares += [(x + a, y + b, k + (i < r)) for i, (a, b) in enumerate(offsets[:-1])]
    for a, b, length in squares:
        line, q = _line(a, b, dx, dy)
        ends.setdefault(line, []).extend((q, q + length))
    runs = []
    for (a, b), line in ends.items():
        odd = []  # the ends that occur an odd number of times, in order
        for q in sorted(line):
            if odd and odd[-1] == q:
                odd.pop()
            else:
                odd.append(q)
        runs += [(a + q * dx, b + q * dy, end - q) for q, end in zip(odd[::2], odd[1::2])]
    return ((x + ox + k * dx, y + oy + k * dy), headings[r],
            len(black) + counts[r] + k * counts[-1], (dx, dy), runs)


@dataclass(frozen=True)
class Census:
    """The ant after some steps: position, heading, moves made, the number
    of black squares and their bounding box (min_x, min_y, max_x, max_y),
    None when there are none.  `certified` is the step from which a highway
    was proved within those moves, and `period` the certified period
    (possibly a multiple of the least one); None and 0 if none was proved.
    `black()` builds the set from the runs along the period's displacement
    that the census kept once certified, or from the plain set if not."""

    pos: tuple[int, int]
    heading: str
    steps: int
    black_cells: int
    bbox: tuple[int, int, int, int] | None
    certified: int | None = None
    period: int = 0
    _plain: set = field(default_factory=set, repr=False, compare=False)
    _runs: list = field(default_factory=list, repr=False, compare=False)
    _along: tuple[int, int] = field(default=(0, 0), repr=False, compare=False)

    def black(self) -> frozenset:
        """The black squares; over CELL_LIMIT, InvalidArgument before any is built."""
        if self.black_cells > CELL_LIMIT:
            raise InvalidArgument(f"{self.black_cells} black cells, over {CELL_LIMIT}")
        if self.certified is None:
            return frozenset(self._plain)
        dx, dy = self._along
        return frozenset((a + i * dx, b + i * dy)
                         for a, b, length in self._runs for i in range(length))


def census(state: AntState, n: int) -> Census:
    """The ant n steps after `state`, its black set left unbuilt: once a
    highway is certified, in time independent of n."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    black, x, y, h, t, turns = _certify(state, n)
    if turns is None:
        return Census((x, y), HEADINGS[h], state.steps + n, len(black),
                      _box(black) if black else None, _plain=black)
    pos, h, count, (dx, dy), runs = _forward(black, x, y, h, turns, n - t - len(turns))
    ends = [(a, b) for a, b, _ in runs]
    ends += [(a + (length - 1) * dx, b + (length - 1) * dy) for a, b, length in runs]
    return Census(pos, HEADINGS[h], state.steps + n, count, _box(ends) if ends else None,
                  state.steps + t, len(turns), _runs=runs, _along=(dx, dy))


def run(state: AntState, n: int) -> AntState:
    """n applications of the turn/flip/advance rule: `census` and its black
    set, so a result of more than CELL_LIMIT black squares is refused
    (InvalidArgument) before it is built."""
    result = census(state, n)
    return AntState(result.pos, result.heading, result.black(), result.steps)


@dataclass(frozen=True)
class HighwayReport:
    """Result of translation-periodic regime detection.

    When found: the fingerprint sequence repeats with the given period from
    step `onset` (counted from the state the detector was given), moving by
    (dx, dy) per period, verified over `confirmations` consecutive periods.
    """

    found: bool
    onset: int = 0
    period: int = 0
    dx: int = 0
    dy: int = 0
    window_radius: int = 16
    confirmations: int = 0
    steps_searched: int = 0


def window_fingerprint(state: AntState, radius: int) -> tuple[str, int]:
    """(heading, packed window) built directly from the black set.

    Bit (dy + r) * (2r + 1) + (dx + r) is set when the square at the ant's
    position plus (dx, dy) is black.  Reads the set square by square: it
    gives `detect_highway` its first window, which the detector then keeps
    by shifts, and lets tests and the demo replay its reports.
    """
    side = 2 * radius + 1
    x, y = state.pos[0] - radius, state.pos[1] - radius
    mask = 0
    for row in range(side):
        for col in range(side):
            if (x + col, y + row) in state.black:
                mask |= 1 << row * side + col
    return state.heading, mask


def _frame(black, x, y, r):
    """(rows, cols): `detect_highway`'s frame of the black squares, a square
    of span = 2r + 1 + 2 _FRAME_MARGIN squares a side with (x, y) at its
    centre, index c = r + _FRAME_MARGIN on both axes.  rows[j] has bit i
    set when square (x - c + i, y - c + j) is black; cols[i] holds the same
    column with bit j at j (2r + 1), the window's layout."""
    side = 2 * r + 1
    span = side + 2 * _FRAME_MARGIN
    c = r + _FRAME_MARGIN
    rows, cols = [0] * span, [0] * span
    for a, b in black:
        i, j = a - x + c, b - y + c
        if 0 <= i < span and 0 <= j < span:
            rows[j] |= 1 << i
            cols[i] |= 1 << j * side
    return rows, cols


def detect_highway(start: AntState, max_steps: int, window_radius: int = 16,
                   confirmations: int = 5) -> HighwayReport:
    """Search for the ant's translation-periodic regime.

    Fingerprints (heading, window mask) are recorded per step.  When one
    recurs at steps t1 < t2 with a nonzero position displacement, the
    candidate period p = t2 - t1 is verified over the next `confirmations`
    multiples of p; the first verified recurrence yields the smallest
    period and the earliest onset (onset = t1, relative to `start`).
    The window radius is at most WINDOW_RADIUS_LIMIT, and max_steps times
    the window's (2r + 1)**2 bits at most WINDOW_BITS_LIMIT.
    """
    if max_steps < 1:
        raise InvalidArgument(f"max_steps must be >= 1, got {max_steps}")
    if not 1 <= window_radius <= WINDOW_RADIUS_LIMIT:
        raise InvalidArgument(
            f"window_radius must be in 1..{WINDOW_RADIUS_LIMIT}, got {window_radius}")
    if confirmations < 1:
        raise InvalidArgument(f"confirmations must be >= 1, got {confirmations}")
    r = window_radius
    side = 2 * r + 1
    if max_steps * side * side > WINDOW_BITS_LIMIT:
        raise InvalidArgument(
            f"max_steps must be <= {WINDOW_BITS_LIMIT // (side * side)} at window_radius "
            f"{r} (at most {WINDOW_BITS_LIMIT} window bits, max_steps * (2r + 1)**2), "
            f"got {max_steps}")

    full_mask = (1 << side * side) - 1
    center_bit = 1 << (r * side + r)
    row_mask = (1 << side) - 1
    # bit 0, then bit 2r, of every row, and the window without them: the
    # masks for horizontal shifts
    low_col = full_mask // row_mask
    keep_low, keep_high = full_mask ^ low_col, full_mask ^ (low_col << side - 1)
    # the window lies in the frame while the ant's frame indices are in r..reach - 1
    reach = side + 2 * _FRAME_MARGIN - r

    black = set(start.black)
    x, y = start.pos
    h = HEADINGS.index(start.heading)
    rows, cols = _frame(black, x, y, r)
    i = j = r + _FRAME_MARGIN  # the ant's indices in the frame
    window = window_fingerprint(start, r)[1]
    seen: dict[tuple[int, int], tuple[int, int, int]] = {(h, window): (0, x, y)}
    candidate = None  # (base_t, base_fp, base_x, base_y, period, dx, dy, k)

    for t in range(1, max_steps + 1):
        # the window's centre is the square underfoot; flip it everywhere
        if window & center_bit:
            black.discard((x, y))
            h, mx, my = _RIGHT[h]
        else:
            black.add((x, y))
            h, mx, my = _LEFT[h]
        window ^= center_bit
        rows[j] ^= 1 << i
        cols[i] ^= 1 << j * side
        x += mx
        y += my
        i += mx
        j += my
        if not (r <= i < reach and r <= j < reach):
            rows, cols = _frame(black, x, y, r)
            i = j = r + _FRAME_MARGIN
        # shift the window against the move; the edge at offset r in the
        # direction of the move enters, read from the frame with one shift
        # and one AND, its first bit at 0 or 2r along the axis
        if mx:
            window = (window & keep_low) >> 1 if mx == 1 else (window & keep_high) << 1
            window |= (cols[i + mx * r] >> (j - r) * side & low_col) << r + mx * r
        else:
            window = window >> side if my == 1 else window << side & full_mask
            window |= (rows[j + my * r] >> i - r & row_mask) << (r + my * r) * side

        fp = (h, window)

        if candidate is not None:
            base_t, base_fp, base_x, base_y, period, cdx, cdy, k = candidate
            due = base_t + k * period
            if t == due:
                if fp == base_fp and (x, y) == (base_x + k * cdx, base_y + k * cdy):
                    if k == confirmations:
                        t1 = seen[base_fp][0]
                        return HighwayReport(True, onset=t1, period=period,
                                             dx=cdx, dy=cdy,
                                             window_radius=window_radius,
                                             confirmations=confirmations,
                                             steps_searched=t)
                    candidate = (base_t, base_fp, base_x, base_y, period,
                                 cdx, cdy, k + 1)
                else:
                    candidate = None

        if fp in seen:
            if candidate is None:
                t1, x1, y1 = seen[fp]
                cdx, cdy = x - x1, y - y1
                if (cdx, cdy) != (0, 0):
                    candidate = (t, fp, x, y, t - t1, cdx, cdy, 1)
        else:
            seen[fp] = (t, x, y)

    return HighwayReport(False, window_radius=window_radius,
                         steps_searched=max_steps)
