"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: dense grids, per-cell loops,
quadratic scans.  None of it shares code with the kernels under test.
"""

import decimal
import re
from collections import Counter
from dataclasses import dataclass

from emergelab import life
from emergelab.ant import AntState
from emergelab.candidates import default_numbering
from emergelab.eca import BitRow, UnsupportedBackground
from emergelab.life import (FateReport, PatternParseError, RleParseError,
                            UnsupportedRule)
from emergelab.turing import BudgetExceeded, EmptyBlock, EnumTrace, StuckState


def step_row_reference(rule, row):
    """One ECA generation on the unbounded background, cell by cell."""
    if not rule.quiescent:
        raise UnsupportedBackground(
            f"rule {rule.number} flips the white background; use the cyclic mode")
    if row.bits == 0:
        return row
    lo, hi = row.support
    cells = []
    for p in range(lo - 1, hi + 2):
        v = 4 * row[p - 1] + 2 * row[p] + row[p + 1]
        if rule.outputs[v]:
            cells.append(p)
    return BitRow.from_cells(cells)


def step_cycle_reference(rule, bits, width):
    """One ECA generation on a ring of `width` cells, cell by cell."""
    if width < 1:
        raise ValueError(f"ring width must be >= 1, got {width}")
    cell = [(bits >> i) & 1 for i in range(width)]
    out = 0
    for i in range(width):
        v = 4 * cell[(i - 1) % width] + 2 * cell[i] + cell[(i + 1) % width]
        if rule.outputs[v]:
            out |= 1 << i
    return out


def eca_cells_reference(rule, seed_text, steps, cyclic_width=None):
    """The `eca` command's history as lists of 0/1 cells, one per
    generation: over the seed's light cone, or over the whole ring (seeded
    with one black cell in the middle)."""
    if cyclic_width is not None:
        bits = 1 << (cyclic_width // 2)
        grid = []
        for _ in range(steps + 1):
            grid.append([(bits >> i) & 1 for i in range(cyclic_width)])
            bits = step_cycle_reference(rule, bits, cyclic_width)
        return grid
    row = BitRow.from_string(seed_text) if seed_text is not None else BitRow.single()
    lo = row.offset - steps
    hi = row.offset + max(row.width, 1) - 1 + steps
    grid = [[row[p] for p in range(lo, hi + 1)]]
    for _ in range(steps):
        row = step_row_reference(rule, row)
        grid.append([row[p] for p in range(lo, hi + 1)])
    return grid


def text_reference(grid):
    """'.'/'#' rows, one line per generation."""
    return "".join("".join("#" if b else "." for b in row) + "\n" for row in grid)


def pbm_reference(grid, comment=None):
    """Binary PBM (P4): rows MSB-first, padded with white to whole bytes."""
    note = "" if comment is None else f"# {comment}\n"
    out = bytearray(f"P4\n{note}{len(grid[0])} {len(grid)}\n".encode())
    for row in grid:
        padded = row + [0] * (-len(row) % 8)
        for i in range(0, len(padded), 8):
            byte = 0
            for b in padded[i:i + 8]:
                byte = (byte << 1) | b
            out.append(byte)
    return bytes(out)


def binomial_parity_row(n):
    """Row n of Pascal's triangle mod 2 as cell coordinates 2k - n."""
    row = [1]
    for _ in range(n):
        row = [a ^ b for a, b in zip([0] + row, row + [0])]
    return {2 * k - n for k, v in enumerate(row) if v}


def life_step_dense(cells):
    """One Life generation computed on a dense padded grid per cell."""
    if not cells:
        return frozenset()
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    grid = [[(x, y) in cells for x in range(x0, x1 + 1)]
            for y in range(y0, y1 + 1)]
    h, w = len(grid), len(grid[0])
    out = set()
    for gy in range(h):
        for gx in range(w):
            n = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == dy == 0:
                        continue
                    ny, nx = gy + dy, gx + dx
                    if 0 <= ny < h and 0 <= nx < w and grid[ny][nx]:
                        n += 1
            if n == 3 or (n == 2 and grid[gy][gx]):
                out.add((x0 + gx, y0 + gy))
    return frozenset(out)


def life_run_dense(cells, steps):
    out = frozenset(cells)
    for _ in range(steps):
        out = life_step_dense(out)
    return out


def survival_count_reference(n):
    """`candidates.life_survival_count(n)` by plain simulation: seeds 1..n
    of `default_numbering`, each run n generations on the dense grid."""
    return sum(1 for j in range(1, n + 1) if life_run_dense(default_numbering(j), n))


class AcceptsOnly:
    """A language seen only through its ``accepts(word)``, as any predicate
    handed to `candidates.language_count` may be."""

    __slots__ = ("accepts",)

    def __init__(self, lang):
        self.accepts = lang.accepts


def language_counts_reference(lang, ns, skip_epsilon=False):
    """{n: `candidates.language_count(lang, n, skip_epsilon)`} for each n >= 1
    in `ns`, by one walk over the words w_1, w_2, ... (word i is
    ``bin(i)[1:]``, or ``bin(i + 1)[1:]`` with skip_epsilon) that asks
    `lang.accepts` about each."""
    counts, count, i = {}, 0, 1
    for n in sorted(set(ns)):
        while i < n:
            count += lang.accepts(format(i + skip_epsilon, "b")[1:])
            i += 1
        counts[n] = count
    return counts


def language_count_reference(lang, n, skip_epsilon=False):
    """`candidates.language_count(lang, n, skip_epsilon)` by enumeration."""
    return language_counts_reference(lang, [n], skip_epsilon)[n]


def translate(cells, dx, dy):
    """The cells moved by (dx, dy)."""
    return frozenset((x + dx, y + dy) for x, y in cells)


def step_tally(cells):
    """One Life generation by neighbour counts in an associative tally;
    coordinates stay Python ints of any size."""
    tally = Counter()
    for x, y in cells:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    tally[(x + dx, y + dy)] += 1
    return frozenset(c for c, n in tally.items()
                     if n == 3 or (n == 2 and c in cells))


def run_tally(cells, steps):
    """`steps` generations of `step_tally`."""
    out = frozenset(cells)
    for _ in range(steps):
        out = step_tally(out)
    return out


def raster_reference(cells):
    """Per-cell image of a non-empty cell set over its bounding box, row
    y - min y, column x - min x."""
    xs, ys = [x for x, _ in cells], [y for _, y in cells]
    grid = [[0] * (max(xs) - min(xs) + 1) for _ in range(max(ys) - min(ys) + 1)]
    for x, y in cells:
        grid[y - min(ys)][x - min(xs)] = 1
    return grid


def detect_fate_reference(cells, budget):
    """Fate by exact recurrence: every state within the budget, translated
    so its bounding-box corner sits at the origin, kept as a frozenset."""
    seen = {}
    state = frozenset(cells)
    for t in range(budget + 1):
        if not state:
            return FateReport("extinct", t=t)
        x0 = min(x for x, _ in state)
        y0 = min(y for _, y in state)
        canon = frozenset((x - x0, y - y0) for x, y in state)
        if canon in seen:
            t0, a, b = seen[canon]
            dx, dy = x0 - a, y0 - b
            if (dx, dy) != (0, 0):
                return FateReport("translator", t=t0, period=t - t0, dx=dx, dy=dy)
            if t - t0 == 1:
                return FateReport("still_life", t=t0, period=1)
            return FateReport("oscillator", t=t0, period=t - t0)
        seen[canon] = (t, x0, y0)
        if t < budget:
            state = step_tally(state)
    return FateReport("unknown", budget=budget)


def write_rle_reference(cells, line_limit=69):
    """Canonical RLE text, token by token: rows of sorted runs, then greedy
    line filling."""
    if not cells:
        return "x = 0, y = 0, rule = B3/S23\n!\n"
    x0 = min(x for x, _ in cells)
    y0 = min(y for _, y in cells)
    rows = {}
    for x, y in cells:
        rows.setdefault(y - y0, []).append(x - x0)
    width = max(max(xs) for xs in rows.values()) + 1
    header = f"x = {width}, y = {max(rows) + 1}, rule = B3/S23\n"

    tokens = []

    def emit(n, tag):
        tokens.append(f"{n}{tag}" if n > 1 else tag)

    last_row = 0
    for y in sorted(rows):
        if y > last_row:
            emit(y - last_row, "$")
        xs = sorted(rows[y])
        cursor = 0
        i = 0
        while i < len(xs):
            j = i
            while j + 1 < len(xs) and xs[j + 1] == xs[j] + 1:
                j += 1
            if xs[i] > cursor:
                emit(xs[i] - cursor, "b")
            emit(j - i + 1, "o")
            cursor = xs[j] + 1
            i = j + 1
        last_row = y
    tokens.append("!")

    lines = []
    current = ""
    for tok in tokens:
        if len(current) + len(tok) > line_limit:
            lines.append(current)
            current = ""
        current += tok
    lines.append(current)
    return header + "\n".join(lines) + "\n"


_RLE_HEADER = re.compile(
    r"^\s*x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)\s*(?:,\s*rule\s*=\s*(\S+)\s*)?$",
    re.IGNORECASE)


def parse_rle_reference(text):
    """`life.parse_rle` one character at a time, adding each live cell to a
    set; `life.RUN_COUNT_DIGITS` and `life.CELL_LIMIT` are read per call."""
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
    room = life.CELL_LIMIT  # live cells still allowed
    x = y = 0
    count = digits = 0
    for i in range(body_start, len(lines)):
        line = lines[i]
        for j, ch in enumerate(line):
            if "0" <= ch <= "9":  # not isdigit(), which also takes '²' and '٣'
                if digits == life.RUN_COUNT_DIGITS:
                    raise RleParseError(
                        f"run count longer than {life.RUN_COUNT_DIGITS} digits",
                        line=i + 1, column=j + 1)
                count = count * 10 + int(ch)
                digits += 1
            elif ch in "bo":
                n = count if digits else 1
                if ch == "o":
                    room -= n
                    if room < 0:
                        raise RleParseError(f"more than {life.CELL_LIMIT} live cells",
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


def parse_cells_reference(text):
    """`life.parse_cells` one character at a time; `life.CELL_LIMIT` is read
    per call."""
    cells = set()
    y = 0
    for i, line in enumerate(text.splitlines()):
        if line.startswith("!"):
            continue
        for j, ch in enumerate(line.rstrip()):
            if ch == "O":
                if len(cells) == life.CELL_LIMIT:
                    raise PatternParseError(f"more than {life.CELL_LIMIT} live cells",
                                            line=i + 1, column=j + 1)
                cells.add((j, y))
            elif ch != ".":
                raise PatternParseError(f"unexpected character {ch!r}",
                                        line=i + 1, column=j + 1)
        y += 1
    return frozenset(cells)


@dataclass(frozen=True)
class CycleResult:
    """Preperiod/period of a repeating sequence: states[mu + t] equals
    states[mu + lam + t] while indices stay in range."""

    found: bool
    mu: int = 0
    lam: int = 0


def find_cycle(states):
    """First repeat in a sequence of fingerprints, one dict entry per
    distinct state.  For a sequence generated by iterating a deterministic
    map this yields the minimal preperiod and period.  The package has no
    such helper: `life.detect_fate` finds its recurrences itself."""
    seen = {}
    for i, state in enumerate(states):
        if state in seen:
            mu = seen[state]
            return CycleResult(True, mu=mu, lam=i - mu)
        seen[state] = i
    return CycleResult(False)


def quadratic_first_repeat(states):
    """Earliest (mu, lam) with states[mu] == states[mu + lam], by full scan."""
    for i in range(len(states)):
        for j in range(i):
            if states[i] == states[j]:
                return j, i - j
    return None


def sqrt_text_reference(m, count):
    """The first `count` decimals of sqrt(m), truncated from `decimal`'s
    correctly rounded root with 50 guard digits; exact unless 50 nines or
    zeros follow the last digit kept."""
    with decimal.localcontext() as ctx:
        ctx.prec = count + 50
        return str(decimal.Decimal(m).sqrt()).split(".")[1][:count]


# Langton's ant, with its own turn tables: a right turn goes clockwise
ANT_RIGHT_OF = {"N": "E", "E": "S", "S": "W", "W": "N"}
ANT_LEFT_OF = {after: before for before, after in ANT_RIGHT_OF.items()}
ANT_MOVE = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


def ant_step(state):
    """One application of the two-colour turn/flip/advance rule, on frozen
    sets: the reference for `ant.run`."""
    x, y = state.pos
    if state.pos in state.black:
        heading = ANT_RIGHT_OF[state.heading]
        black = state.black - {state.pos}
    else:
        heading = ANT_LEFT_OF[state.heading]
        black = state.black | {state.pos}
    dx, dy = ANT_MOVE[heading]
    return AntState((x + dx, y + dy), heading, black, state.steps + 1)


def ant_run_reference(state, n):
    """n ant steps by the plain loop on one mutable set, with the turn
    tables above: the reference for `ant.run` and `ant.census` at step
    counts where iterating `ant_step` would copy the set each step."""
    black = set(state.black)
    (x, y), heading = state.pos, state.heading
    for _ in range(n):
        if (x, y) in black:
            black.discard((x, y))
            heading = ANT_RIGHT_OF[heading]
        else:
            black.add((x, y))
            heading = ANT_LEFT_OF[heading]
        dx, dy = ANT_MOVE[heading]
        x, y = x + dx, y + dy
    return AntState((x, y), heading, frozenset(black), state.steps + n)


def ant_step_back(state):
    """Inverse ant step: undo the move, the repaint and the turn."""
    dx, dy = ANT_MOVE[state.heading]
    prev = (state.pos[0] - dx, state.pos[1] - dy)
    if prev in state.black:  # square was just painted, so it was white: left turn
        heading = ANT_RIGHT_OF[state.heading]
        black = state.black - {prev}
    else:  # square was just cleared, so it was black: right turn
        heading = ANT_LEFT_OF[state.heading]
        black = state.black | {prev}
    return AntState(prev, heading, black, state.steps - 1)


def ant_step_mirrored(state):
    """Ant step with swapped chirality (white -> right turn)."""
    if state.pos in state.black:
        heading = ANT_LEFT_OF[state.heading]
        black = state.black - {state.pos}
    else:
        heading = ANT_RIGHT_OF[state.heading]
        black = state.black | {state.pos}
    dx, dy = ANT_MOVE[heading]
    return AntState((state.pos[0] + dx, state.pos[1] + dy), heading, black,
                    state.steps + 1)


def detect_highway_reference(start, max_steps, radius, confirmations):
    """`ant.detect_highway` by brute force: the ant moves by the tables
    above on a mutable set, and every step's window is rebuilt square by
    square as the set of black offsets within `radius` of the ant.

    A fingerprint (heading, window) first seen at t1 and seen again at t2,
    with the ant moved by d != 0 in between, starts a candidate of period
    p = t2 - t1 unless one is pending.  The candidate is confirmed when at
    t2 + k p, for k = 1..confirmations, the fingerprint is that of t2 and
    the ant is k d from where it was at t2; it is dropped at the first due
    step that differs, and that step may start the next candidate.
    Returns the fields of the `HighwayReport` the detector should give.
    """
    black = set(start.black)
    (x, y), heading = start.pos, start.heading
    offsets = range(-radius, radius + 1)

    def fingerprint():
        return heading, frozenset((dx, dy) for dx in offsets for dy in offsets
                                  if (x + dx, y + dy) in black)

    first_seen = {fingerprint(): (0, x, y)}
    pending = None  # (t2, fingerprint, x2, y2, period, dx, dy, k)
    for t in range(1, max_steps + 1):
        if (x, y) in black:
            black.remove((x, y))
            heading = ANT_RIGHT_OF[heading]
        else:
            black.add((x, y))
            heading = ANT_LEFT_OF[heading]
        mx, my = ANT_MOVE[heading]
        x, y = x + mx, y + my
        fp = fingerprint()
        if pending is not None:
            t2, fp2, x2, y2, period, dx, dy, k = pending
            if t == t2 + k * period:
                if fp != fp2 or (x, y) != (x2 + k * dx, y2 + k * dy):
                    pending = None
                elif k == confirmations:
                    return dict(found=True, onset=first_seen[fp2][0], period=period,
                                dx=dx, dy=dy, window_radius=radius,
                                confirmations=confirmations, steps_searched=t)
                else:
                    pending = (t2, fp2, x2, y2, period, dx, dy, k + 1)
        if fp not in first_seen:
            first_seen[fp] = (t, x, y)
        elif pending is None:
            t1, x1, y1 = first_seen[fp]
            if (x, y) != (x1, y1):
                pending = (t, fp, x, y, t - t1, x - x1, y - y1, 1)
    return dict(found=False, onset=0, period=0, dx=0, dy=0, window_radius=radius,
                confirmations=0, steps_searched=max_steps)


def tm_run_reference(rules, k, start, halt, input_n, budget, phase=None):
    """`turing.run` from a machine's rule lines as raw token tuples
    (`state r1..rk -> next w1..wk m1..mk out`), decoded afresh at every
    step.  Tapes are dicts that keep every write, blanks included."""
    tapes = [{} for _ in range(k)]
    for i, sym in enumerate(format(input_n, "b") + "#"):
        tapes[0][i] = sym
    heads = [0] * k
    state, steps, out, block, entries = start, 0, "", None, []
    while state != halt:
        if steps >= budget:
            raise BudgetExceeded(
                budget, EnumTrace(tuple(entries), steps, False, out), phase=phase)
        reads = tuple(tapes[t].get(heads[t], "0") for t in range(k))
        rule = next((r for r in rules if r[0] == state and tuple(r[1:1 + k]) == reads),
                    None)
        if rule is None:
            raise StuckState(state, reads, steps, phase=phase)
        for t in range(k):
            tapes[t][heads[t]] = rule[3 + k + t]
            heads[t] += {"L": -1, "R": 1, "S": 0}[rule[3 + 2 * k + t]]
        steps += 1
        emit = rule[3 + 3 * k]
        if emit != "-":
            out += emit
        if emit == "#":
            if block is None:
                raise EmptyBlock(f"'#' emitted with an empty block at step {steps}")
            entries.append((block, steps))
            block = None
        elif emit in "01":
            block = 2 * (block or 0) + int(emit)
        state = rule[2 + k]
    return EnumTrace(tuple(entries), steps, True, out)
