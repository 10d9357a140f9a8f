"""Langton's ant on an unbounded grid, with highway detection.

Conventions: N = (0, +1), E = (+1, 0); a left turn is counterclockwise in
this frame.  On a white square the ant turns left, paints the square black
and advances; on a black square it turns right, repaints it white and
advances.  `HEADINGS` is the one heading order, clockwise from north:
`run` and `detect_highway` carry the heading as its index there, and one
lookup table per turn gives the new index and the move; states and
reports keep the letter.

The highway detector fingerprints each step by the ant's heading plus the
black cells within a Chebyshev window around it (relative coordinates).
The window is maintained incrementally as one big integer: each move
shifts the mask and only the entering edge is read from the grid, by the
line reader that also builds the first window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument

HEADINGS = "NESW"
_MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))  # unit steps, indexed like HEADINGS
# heading index -> (new heading index, dx, dy) after a right or a left turn
_RIGHT = tuple(((h + 1) % 4, *_MOVES[(h + 1) % 4]) for h in range(4))
_LEFT = tuple(((h - 1) % 4, *_MOVES[(h - 1) % 4]) for h in range(4))
# detector windows are (2r + 1)**2 bits; r = 256 takes seconds per 20,000 steps
WINDOW_RADIUS_LIMIT = 256


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


def run(state: AntState, n: int) -> AntState:
    """n applications of the turn/flip/advance rule, with mutable internals
    so long runs stay linear."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    black = set(state.black)
    x, y = state.pos
    h = HEADINGS.index(state.heading)
    for _ in range(n):
        pos = (x, y)
        if pos in black:
            black.discard(pos)
            h, dx, dy = _RIGHT[h]
        else:
            black.add(pos)
            h, dx, dy = _LEFT[h]
        x += dx
        y += dy
    return AntState((x, y), HEADINGS[h], frozenset(black), state.steps + n)


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


def _line_bits(black, x, y, dx, dy, bit, stride, count) -> int:
    """Window bits of `count` squares from (x, y) on in steps of (dx, dy):
    the k-th square, when black, sets bit `bit + k * stride`."""
    bits = 0
    for _ in range(count):
        if (x, y) in black:
            bits |= 1 << bit
        x += dx
        y += dy
        bit += stride
    return bits


def window_fingerprint(state: AntState, radius: int) -> tuple[str, int]:
    """(heading, packed window) built directly from the black set.

    Bit (dy + r) * (2r + 1) + (dx + r) is set when the square at the ant's
    position plus (dx, dy) is black.  Seeds `detect_highway`'s window, and
    lets tests replay its reports without the incremental bookkeeping.
    """
    side = 2 * radius + 1
    x, y = state.pos[0] - radius, state.pos[1] - radius
    mask = 0
    for row in range(side):
        mask |= _line_bits(state.black, x, y + row, 1, 0, row * side, 1, side)
    return state.heading, mask


def detect_highway(start: AntState, max_steps: int, window_radius: int = 16,
                   confirmations: int = 5) -> HighwayReport:
    """Search for the ant's translation-periodic regime.

    Fingerprints (heading, window mask) are recorded per step.  When one
    recurs at steps t1 < t2 with a nonzero position displacement, the
    candidate period p = t2 - t1 is verified over the next `confirmations`
    multiples of p; the first verified recurrence yields the smallest
    period and the earliest onset (onset = t1, relative to `start`).
    The window radius is at most WINDOW_RADIUS_LIMIT.
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
    full_mask = (1 << side * side) - 1
    center_bit = 1 << (r * side + r)
    # column masks for horizontal shifts: bit 0, then bit 2r, of every row
    low_col = full_mask // ((1 << side) - 1)
    high_col = low_col << (side - 1)

    black = set(start.black)
    x, y = start.pos
    h = HEADINGS.index(start.heading)
    window = window_fingerprint(start, r)[1]
    seen: dict[tuple[int, int], tuple[int, int, int]] = {(h, window): (0, x, y)}
    candidate = None  # (base_t, base_fp, base_x, base_y, period, dx, dy, k)

    for t in range(1, max_steps + 1):
        pos = (x, y)
        if pos in black:
            black.discard(pos)
            window &= ~center_bit
            h, mx, my = _RIGHT[h]
        else:
            black.add(pos)
            window |= center_bit
            h, mx, my = _LEFT[h]
        x += mx
        y += my
        # shift the window against the move; the edge at offset r in the
        # direction of the move enters, its first bit at 0 or 2r along the axis
        if mx:
            window = ((window & ~low_col) >> 1 if mx == 1
                      else (window & ~high_col) << 1 & full_mask)
            window |= _line_bits(black, x + mx * r, y - r, 0, 1, r + mx * r, side, side)
        else:
            window = window >> side if my == 1 else window << side & full_mask
            window |= _line_bits(black, x - r, y + my * r, 1, 0, (r + my * r) * side, 1, side)

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
