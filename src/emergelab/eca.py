"""Elementary (two-colour, nearest-neighbour) cellular automata.

Rules follow the standard 0..255 numbering: the neighbourhood (l, c, r) is
read as the 3-bit number 4l + 2c + r and looked up in the rule's output
table.  Rows live on an unbounded white background and are evolved exactly;
a fixed-width cyclic mode is available for rules whose background does not
stay white.

Rows are packed into arbitrary-precision integers (bit i is one cell), and
one kernel, `apply_rule`, computes a whole generation from the left, centre
and right neighbour planes with the rule's algebraic normal form: a XOR of
the monomials 1, r, c, cr, l, lr, lc, lcr, where a full triple x, y, xy of
two variables and their product is the one OR x | y (rule 30 is
l ^ (c | r)).  The ring steps through it, and so do the single unbounded
step and a whole unbounded history, as a ring over their light cone; the
centre column steps only the band of cells that can still reach cell 0.
The naive per-cell oracles it is checked against live in the test suite
(`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import EmergeLabError, InvalidArgument, InvalidSteps


class InvalidRule(EmergeLabError):
    """Rule number outside 0..255."""


class InvalidRow(InvalidArgument):
    """Row text with a character other than '#', '1', '.' or '0'."""


class UnsupportedBackground(EmergeLabError):
    """The rule maps the all-white neighbourhood to black, so the infinite
    white background is not a fixed point and unbounded evolution is
    undefined.  Use the cyclic mode for these rules."""


class RowLimitExceeded(EmergeLabError):
    """Requested history is larger than the configured row cap or than
    HISTORY_CELL_LIMIT cells."""


# Cells of a kept history, (steps + 1) x width: 2**28 holds 10,000 rows of
# the 19,999-cell light cone of one seed cell, about 2e8 cells.
HISTORY_CELL_LIMIT = 1 << 28
# the most generations `center_column` runs (2**16 take about 0.28 s on a
# 2-vCPU Xeon; each doubling costs about four times as much)
CENTER_COLUMN_STEPS = 1 << 16
# `center_column` cuts its band back to the backward light cone once every
# this many generations; in between the band grows a cell on each side
_CLIP_PERIOD = 32

# The full ANF triples x, y, xy that `apply_rule` writes as the one
# operation x | y, each with the flag above bit 7 that stands for it: c | r,
# l | r and l | c.  Any two share a monomial, so at most one applies.
_FOLDS = ((0x0E, 0x100), (0x32, 0x200), (0x54, 0x400))


@dataclass(frozen=True)
class RuleTable:
    """A rule's number together with its 8-entry output table.

    outputs[v] is the next centre cell (0 or 1) for the neighbourhood whose
    3-bit value is v; outputs[v] equals bit v of `number`.
    """

    number: int
    outputs: tuple[int, int, int, int, int, int, int, int]
    # Algebraic normal form: bit m is the coefficient of the monomial whose
    # variables are the set bits of m (4 = l, 2 = c, 1 = r), so the rule is
    # the XOR of the monomials with a set bit.
    anf: int = field(init=False, repr=False, compare=False)
    # `anf` as `apply_rule` computes it: a full triple's bits replaced by
    # its flag in `_FOLDS`.
    _terms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Moebius transform of the truth table `number`, one variable at a time.
        a = self.number
        a ^= (a & 0x55) << 1
        a ^= (a & 0x33) << 2
        a ^= (a & 0x0F) << 4
        object.__setattr__(self, "anf", a)
        for triple, flag in _FOLDS:
            if a & triple == triple:
                a ^= triple | flag
        object.__setattr__(self, "_terms", a)

    @property
    def quiescent(self) -> bool:
        """True when the all-white background stays white."""
        return self.outputs[0] == 0


_RULES = tuple(RuleTable(n, tuple((n >> v) & 1 for v in range(8))) for n in range(256))


def parse_rule(number: int) -> RuleTable:
    """The output table of a rule number 0..255 (built once, at import)."""
    if not isinstance(number, int) or not 0 <= number <= 255:
        raise InvalidRule(f"rule number must be an integer in 0..255, got {number!r}")
    return _RULES[number]


def rule_number(outputs: Sequence[int]) -> int:
    """Inverse of parse_rule: rebuild the number from an output table."""
    if len(outputs) != 8:
        raise InvalidRule(f"output table must have 8 entries, got {len(outputs)}")
    return sum((1 << v) for v, out in enumerate(outputs) if out)


@dataclass(frozen=True)
class BitRow:
    """One generation of cells on an unbounded white background.

    Bit i of `bits` is the cell at coordinate `offset + i`; everything
    outside the stored span is white.  Canonical form: `bits` is odd (the
    first stored cell is black) and its top bit is black by construction,
    or the row is the canonical empty row (0, 0).
    """

    offset: int = 0
    bits: int = 0

    def __post_init__(self):
        if self.bits < 0:
            raise InvalidArgument("bits must be non-negative")
        if self.bits == 0:
            if self.offset != 0:
                raise InvalidArgument("canonical empty row has offset 0")
        elif self.bits & 1 == 0:
            raise InvalidArgument("not canonical: first stored cell is white (use BitRow.make)")

    @classmethod
    def make(cls, offset: int, bits: int) -> "BitRow":
        """Build a row from any (offset, bits) pair, trimming white margins."""
        if bits == 0:
            return cls()
        trailing = (bits & -bits).bit_length() - 1
        return cls(offset + trailing, bits >> trailing)

    @classmethod
    def single(cls, pos: int = 0) -> "BitRow":
        """A lone black cell."""
        return cls(pos, 1)

    @classmethod
    def from_cells(cls, cells: Iterable[int]) -> "BitRow":
        positions = set(cells)
        lo = min(positions, default=0)
        return cls.make(lo, sum(1 << (p - lo) for p in positions))

    @classmethod
    def from_string(cls, text: str, offset: int = 0) -> "BitRow":
        """Parse a row from characters: '#' or '1' black, '.' or '0' white."""
        bits = 0
        for i, ch in enumerate(text):
            if ch in "#1":
                bits |= 1 << i
            elif ch not in ".0":
                raise InvalidRow(f"unexpected row character {ch!r}")
        return cls.make(offset, bits)

    @property
    def width(self) -> int:
        return self.bits.bit_length()

    @property
    def support(self) -> tuple[int, int]:
        """(lo, hi) coordinates of the stored span; (0, -1) for the empty row."""
        return self.offset, self.offset + self.width - 1

    def population(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, pos: int) -> int:
        rel = pos - self.offset
        if 0 <= rel < self.width:
            return (self.bits >> rel) & 1
        return 0

    def cells(self) -> Iterator[int]:
        """Coordinates of the black cells, left to right."""
        bits, base = self.bits, self.offset
        while bits:
            low = bits & -bits
            yield base + low.bit_length() - 1
            bits ^= low

    def to_string(self, lo: int | None = None, hi: int | None = None) -> str:
        """Render the window [lo, hi] as text (defaults to the stored span)."""
        if lo is None:
            lo = self.offset
        if hi is None:
            hi = self.offset + max(self.width, 1) - 1
        return "".join("#" if self[p] else "." for p in range(lo, hi + 1))


def apply_rule(rule: RuleTable, l: int, c: int, r: int, mask: int) -> int:
    """The rule applied bit-parallel to aligned neighbour planes.

    Bit i of the result is the rule's output for the neighbourhood (bit i of
    l, bit i of c, bit i of r), for every bit set in `mask`; bits of the
    planes above `mask` are ignored.  A quiescent rule never sets a bit that
    no plane sets, so it may take the mask -1.  Costs at most 11 big-int
    operations; rule 30, l ^ (c | r), costs 4.
    """
    a = rule._terms
    out = mask if a & 0x01 else 0
    if a & 0x02:
        out ^= r
    if a & 0x04:
        out ^= c
    if a & 0x10:
        out ^= l
    if a & 0x788:
        if a & 0x88:
            cr = c & r
            if a & 0x08:
                out ^= cr
            if a & 0x80:
                out ^= l & cr
        if a & 0x100:
            out ^= c | r
        elif a & 0x200:
            out ^= l | r
        elif a & 0x400:
            out ^= l | c
    if a & 0x20:
        out ^= l & r
    if a & 0x40:
        out ^= l & c
    return out & mask


def _require_white_background(rule: RuleTable):
    if not rule.quiescent:
        raise UnsupportedBackground(
            f"rule {rule.number} flips the white background; use the cyclic mode")


def _check_steps(steps: int, max_rows: int | None = None, width: int = 0):
    """Refuse negative steps and, for a kept history of rows `width` cells
    wide, more than max_rows rows or HISTORY_CELL_LIMIT cells."""
    if steps < 0:
        raise InvalidSteps(f"steps must be >= 0, got {steps}")
    if max_rows is not None and steps + 1 > max_rows:
        raise RowLimitExceeded(
            f"{steps + 1} rows exceed the cap of {max_rows}; raise max_rows to allow this")
    if (steps + 1) * width > HISTORY_CELL_LIMIT:
        raise RowLimitExceeded(f"{steps + 1} rows of {width} cells exceed the cap of "
                               f"{HISTORY_CELL_LIMIT} cells")


def step_row(rule: RuleTable, row: BitRow) -> BitRow:
    """Advance one generation on the unbounded background: a ring step over
    the row's light cone, one white cell wider on each side, so the wrap
    reads only white cells; the result is trimmed to canonical form."""
    _require_white_background(rule)
    return BitRow.make(row.offset - 1, step_cycle(rule, row.bits << 1, row.width + 2))


@dataclass(frozen=True)
class EcaHistory:
    """A rule plus the generations 0..t it produced: bit i of bits[n] is
    cell lo + i of generation n, and every cell outside the window
    [lo, lo + width), the seed's light cone, is white."""

    rule: RuleTable
    lo: int
    width: int
    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def rows(self) -> tuple[BitRow, ...]:
        """The generations as canonical rows (built once, on first use)."""
        return tuple(BitRow.make(self.lo, b) for b in self.bits)

    def to_text(self, lo: int | None = None, hi: int | None = None) -> list[str]:
        """One '.'/'#' line per generation over [lo, hi], by default the window."""
        lo = self.lo if lo is None else lo
        hi = self.lo + self.width - 1 if hi is None else hi
        return [row.to_string(lo, hi) for row in self.rows]


def evolve(rule: RuleTable, seed: BitRow, steps: int, max_rows: int = 10_000) -> EcaHistory:
    """Evolve `seed` for `steps` generations, keeping every row.  The seed's
    light cone runs as a ring: no black cell reaches its edge before the last
    generation, so the wrap only reads a quiescent rule's white background."""
    width = max(seed.width, 1) + 2 * steps
    _check_steps(steps, max_rows, width)
    if steps:
        _require_white_background(rule)
    states = evolve_cycle(rule, seed.bits << steps, width, steps, max_rows)
    return EcaHistory(rule, seed.offset - steps, width, tuple(states))


def center_column(rule: RuleTable, steps: int, seed: BitRow | None = None) -> list[int]:
    """Cell 0 of generations 0..steps (seed defaults to a single black cell).

    Keeps no history and only the band of cells that can still reach cell 0
    by the last generation: at generation t, those within steps - t of it
    (the backward light cone), and at most `_CLIP_PERIOD` more a side.
    """
    _check_steps(steps)
    if steps > CENTER_COLUMN_STEPS:
        raise InvalidSteps(f"steps must be <= {CENTER_COLUMN_STEPS}, got {steps}")
    if steps:
        _require_white_background(rule)
    row = BitRow.single(0) if seed is None else seed
    # bit i of `bits` is cell lo + i; each generation widens the band by one
    # cell on each side, and every _CLIP_PERIOD generations `_clip` cuts it
    # back to the cone, which narrows by one cell on each side
    bits, lo = _clip(row.bits, row.offset, steps), -steps
    column = [(bits >> steps) & 1]
    for t in range(1, steps + 1):
        bits = apply_rule(rule, bits << 2, bits << 1, bits, -1)
        lo -= 1
        if t % _CLIP_PERIOD == 0:
            bits, lo = _clip(bits, lo, steps - t), t - steps
        column.append((bits >> -lo) & 1)
    return column


def _clip(bits: int, lo: int, radius: int) -> int:
    """The cells of `bits` (bit i is cell lo + i) within `radius` of cell 0,
    with bit i now cell i - radius."""
    width = 2 * radius + 1
    shift = lo + radius
    bits = bits << min(shift, width) if shift >= 0 else bits >> -shift
    return bits & ((1 << width) - 1)


def step_cycle(rule: RuleTable, bits: int, width: int) -> int:
    """One generation on a ring of `width` cells (packed kernel).

    Bit i of `bits` is cell i; neighbours wrap around, so all 256 rules are
    supported regardless of what they do to a white background.
    """
    if width < 1:
        raise InvalidArgument(f"ring width must be >= 1, got {width}")
    mask = (1 << width) - 1
    c = bits & mask
    left = (c << 1) | (c >> (width - 1))
    right = (c >> 1) | ((c & 1) << (width - 1))
    return apply_rule(rule, left, c, right, mask)


def evolve_cycle(rule: RuleTable, bits: int, width: int, steps: int,
                 max_rows: int = 10_000) -> list[int]:
    """Ring evolution keeping every generation (generation 0 included)."""
    if width < 1:
        raise InvalidArgument(f"ring width must be >= 1, got {width}")
    _check_steps(steps, max_rows, width)
    states = [bits & ((1 << width) - 1)]
    for _ in range(steps):
        states.append(step_cycle(rule, states[-1], width))
    return states
