"""Langton's ant on an unbounded grid, with highway detection.

Conventions: N = (0, +1), E = (+1, 0); a left turn is counterclockwise in
this frame.  On a white square the ant turns left, paints the square black
and advances; on a black square it turns right, repaints it white and
advances.

The highway detector fingerprints each step by the ant's heading plus the
black cells within a Chebyshev window around it (relative coordinates).
The window is maintained incrementally as one big integer: each move
shifts the mask and only the entering edge is queried from the grid, which
keeps 20,000-step searches well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument

HEADING_VECTORS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
LEFT_OF = {"N": "W", "W": "S", "S": "E", "E": "N"}
RIGHT_OF = {v: k for k, v in LEFT_OF.items()}
HEADINGS = "NESW"


@dataclass(frozen=True)
class AntState:
    """Ant position, heading, the set of black squares, and moves made."""

    pos: tuple[int, int] = (0, 0)
    heading: str = "N"
    black: frozenset = frozenset()
    steps: int = 0

    def __post_init__(self):
        if self.heading not in HEADING_VECTORS:
            raise ValueError(f"heading must be one of N/E/S/W, got {self.heading!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


def standard_start(heading: str = "N") -> AntState:
    """All-white grid, ant at the origin."""
    return AntState((0, 0), heading, frozenset(), 0)


def step(state: AntState) -> AntState:
    """Apply the two-colour turn/flip/advance rule once."""
    x, y = state.pos
    if state.pos in state.black:
        heading = RIGHT_OF[state.heading]
        black = state.black - {state.pos}
    else:
        heading = LEFT_OF[state.heading]
        black = state.black | {state.pos}
    dx, dy = HEADING_VECTORS[heading]
    return AntState((x + dx, y + dy), heading, black, state.steps + 1)


def run(state: AntState, n: int) -> AntState:
    """n-fold step, with mutable internals so long runs stay linear."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    black = set(state.black)
    x, y = state.pos
    heading = state.heading
    for _ in range(n):
        pos = (x, y)
        if pos in black:
            heading = RIGHT_OF[heading]
            black.discard(pos)
        else:
            heading = LEFT_OF[heading]
            black.add(pos)
        dx, dy = HEADING_VECTORS[heading]
        x += dx
        y += dy
    return AntState((x, y), heading, frozenset(black), state.steps + n)


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
    position plus (dx, dy) is black.  Seeds `detect_highway`'s window, and
    lets tests replay its reports without the incremental bookkeeping.
    """
    side = 2 * radius + 1
    ax, ay = state.pos
    mask = 0
    for dy in range(-radius, radius + 1):
        base = (dy + radius) * side
        for dx in range(-radius, radius + 1):
            if (ax + dx, ay + dy) in state.black:
                mask |= 1 << (base + dx + radius)
    return state.heading, mask


def detect_highway(start: AntState, max_steps: int, window_radius: int = 16,
                   confirmations: int = 5) -> HighwayReport:
    """Search for the ant's translation-periodic regime.

    Fingerprints (heading, window mask) are recorded per step.  When one
    recurs at steps t1 < t2 with a nonzero position displacement, the
    candidate period p = t2 - t1 is verified over the next `confirmations`
    multiples of p; the first verified recurrence yields the smallest
    period and the earliest onset (onset = t1, relative to `start`).
    """
    if max_steps < 1:
        raise InvalidArgument(f"max_steps must be >= 1, got {max_steps}")
    if window_radius < 1:
        raise InvalidArgument(f"window_radius must be >= 1, got {window_radius}")
    if confirmations < 1:
        raise InvalidArgument(f"confirmations must be >= 1, got {confirmations}")

    side = 2 * window_radius + 1
    area = side * side
    full_mask = (1 << area) - 1
    center_bit = 1 << (window_radius * side + window_radius)
    # column masks for horizontal shifts
    low_col = 0
    for row in range(side):
        low_col |= 1 << (row * side)
    high_col = low_col << (side - 1)

    black = set(start.black)
    x, y = start.pos
    heading = start.heading

    def load_column(dx: int) -> int:
        bits = 0
        col = dx + window_radius
        for dy in range(-window_radius, window_radius + 1):
            if (x + dx, y + dy) in black:
                bits |= 1 << ((dy + window_radius) * side + col)
        return bits

    def load_row(dy: int) -> int:
        bits = 0
        base = (dy + window_radius) * side
        for dx in range(-window_radius, window_radius + 1):
            if (x + dx, y + dy) in black:
                bits |= 1 << (base + dx + window_radius)
        return bits

    window = window_fingerprint(start, window_radius)[1]
    seen: dict[tuple[str, int], tuple[int, int, int]] = {(heading, window): (0, x, y)}
    candidate = None  # (base_t, base_fp, base_x, base_y, period, dx, dy, k)

    for t in range(1, max_steps + 1):
        pos = (x, y)
        if pos in black:
            heading = RIGHT_OF[heading]
            black.discard(pos)
            window &= ~center_bit
        else:
            heading = LEFT_OF[heading]
            black.add(pos)
            window |= center_bit
        mx, my = HEADING_VECTORS[heading]
        x += mx
        y += my
        if mx == 1:
            window = ((window & ~low_col) >> 1) | load_column(window_radius)
        elif mx == -1:
            window = (((window & ~high_col) << 1) & full_mask) | load_column(-window_radius)
        elif my == 1:
            window = (window >> side) | load_row(window_radius)
        else:
            window = ((window << side) & full_mask) | load_row(-window_radius)

        fp = (heading, window)

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
