"""Conway's Game of Life on an unbounded plane.

Cells are (x, y) pairs with x = column (rightward) and y = row (downward),
matching RLE reading order.  The rule is fixed B3/S23.

A `Pattern` holds a pattern as its frame, and acts as the frozenset of
its cells.  The frame is the sorted keys y * width + x of its cells (x, y)
in their bounding box, with the box's corner and width, so its position
never matters.  `parse_rle` and `parse_cells` frame pattern text straight
from numpy arrays; `run`, `step`, `write_rle`, `raster`, `detect_fate`,
`bounding_box` and `canonical` read the frame of a Pattern (any other
iterable of cells is framed first), so text goes through runs to text or
image rows and no cell set is built.
One runner, `_orbit`, yields a frame's states and is the one place their
form is chosen, each time it frames a state.  Both forms hold the cell
(x, y) at position y * stride + x from a corner, as a frame does with
stride = width:
- a bitboard, one Python int with that cell at bit y * stride + x over
  the bounding box plus a dead margin, stepped by about 30 big-int
  operations (full adders over the shifted bit planes): every state whose
  board holds at most 256 bits per live cell, plus 16 384, such as small
  seeds, oscillators and soups; a board's state is framed again when a
  live cell reaches its border, so one that has spread thin leaves it;
- sorted packed keys, the positions of the live cells, stepped by a numpy
  loop: every other state, such as the Gosper gun's long stream of
  gliders.  The keys are int64 while the state's extent plus two is below
  2**30; a wider state goes on Python-int keys (dtype object) with a
  stride sized to its frame, and is framed again after every generation,
  so it leaves them as soon as it is no longer that wide.

`detect_fate` reads every state of the runner.  `run` reads them up to the
first on int64 packed keys, and from there leaps over the generations left
by a quadtree (`_leap`, Gosper's Hashlife): nodes interned by their
children, 8x8 leaves stepped on a 16x16 board, a memo of each node's
result 2**j generations on, all made anew in each call.  A pattern whose
future repeats, such as the gun's stream of gliders, costs a few thousand
nodes however far it goes; chaos costs more than packed steps, so the leap
gets a budget of a fifth of the packed steps' cost, counted in nodes made
and board generations, and when that runs out `run` steps on from the same
state.  `detect_fate`, shared with `candidates.life_survival_count`,
memoises each state by a key that all its translates in its form share, so
it stops at the first recurrence or at extinction; a board state's key is
the board shifted down to its lowest live bit, with no numpy call per
generation.  A state is compared with those of earlier forms by its shape,
the width and keys of its frame, only when one of them has its population
and height.  The leap's leaves are the 8-row strips of a stride-16 board
that `_to_board` writes and `_positions` reads, the one bit codec here.

Pattern I/O: RLE (read and write), plaintext .cells (read), and `raster`,
which cuts the image rows `cli.render_pbm` writes from a `_to_board` board.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Set
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import (CELL_LIMIT, PIXEL_LIMIT, EmergeLabError, InvalidArgument, InvalidSteps,
                     decimal)

NEIGHBOR_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                         if (dx, dy) != (0, 0))

# `_orbit` packs a state on int64 keys while its extent plus two stays
# below this, and frames it again before that extent reaches it
_FRAME_LIMIT = 1 << 30
# a frame's keys are int64 while its width * height is below this, Python
# ints (dtype object) from it on; below it, a key, and the sum of a corner
# within it and an offset, fit in int64
_INT64_SPAN = 1 << 62

# a board keeps this many dead cells around the live ones when it is built
_BOARD_MARGIN = 16
# a state goes on a board of `area` bits when
# area <= _BOARD_SPARSITY * (population + _BOARD_FLOOR)
_BOARD_SPARSITY = 256
_BOARD_FLOOR = 64


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


# the frame of no cells
_EMPTY = (np.zeros(0, dtype=np.int64), (0, 0, 1))


def _frame(cells):
    """The frame of a cell set, as `_reframe` frames it, its keys sorted."""
    try:
        xy = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                         count=2 * len(cells)).reshape(-1, 2)
    except OverflowError:
        xy = np.array(list(chain.from_iterable(cells)), dtype=object).reshape(-1, 2)
    keys, where = _reframe(xy[:, 0], xy[:, 1], (0, 0))
    keys.sort()
    return keys, where


def _cells(xs: np.ndarray, ys: np.ndarray, corner) -> frozenset:
    """The cell set at offsets (xs, ys) from `corner`, int64 within +-2**62
    or Python ints: the inverse of `_frame`, through `_offsets`."""
    cx, cy = corner
    if max(abs(cx), abs(cy)) >= _INT64_SPAN:
        xs, ys = xs.astype(object), ys.astype(object)
    return frozenset(zip((xs + cx).tolist(), (ys + cy).tolist()))


class Pattern(Set):
    """A pattern held as its frame `(keys, (x0, y0, width))`, in
    `_reframe`'s form, that also acts as the frozenset of its live cells.
    `len` reads the frame; iteration, `in`, `==` and `hash` act on `cells`,
    the frozenset, built on first use."""

    def __init__(self, frame):
        self.frame = frame

    def __len__(self) -> int:
        return len(self.frame[0])

    @cached_property
    def cells(self) -> frozenset:
        return _cells(*_offsets(*self.frame))

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
    """The frame `(keys, (x0, y0, width))` of the cells at offsets (xs, ys)
    from `corner`: (x0, y0) is the corner of their bounding box and width
    its width, so the cell (x0 + x, y0 + y) has key y * width + x.  The
    keys are in the order of the cells, row-major if theirs is, and int64
    while width * height is below 2**62, else Python ints (dtype object)."""
    if not xs.size:
        return _EMPTY
    x0, y0 = int(xs.min()), int(ys.min())
    width = int(xs.max()) - x0 + 1
    keys = _keys(xs, ys, x0, y0, width, int(ys.max()) - y0 + 1)
    return keys, (corner[0] + x0, corner[1] + y0, width)


def _keys(xs, ys, x0: int, y0: int, width: int, height: int) -> np.ndarray:
    """The keys (y - y0) * width + x - x0 of the cells (xs, ys) in a box at
    (x0, y0) of that width and height: int64 while width * height is below
    2**62, else Python ints (dtype object)."""
    if width * height < _INT64_SPAN:  # the differences and the keys fit
        xs, ys = (xs - x0).astype(np.int64, copy=False), (ys - y0).astype(np.int64, copy=False)
    else:
        xs, ys = xs.astype(object) - x0, ys.astype(object) - y0
    return ys * width + xs


def _step_packed(keys: np.ndarray, near: np.ndarray) -> np.ndarray:
    """One generation over sorted, non-empty packed keys, whose neighbours
    are at the offsets `near` (`_near`); the result is sorted too."""
    neighbors = (keys[:, None] + near).ravel()
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


def _near(stride: int, dtype) -> np.ndarray:
    """The offsets of a cell's eight neighbours among keys y * stride + x."""
    return np.array([dy * stride + dx for dx, dy in NEIGHBOR_OFFSETS], dtype=dtype)


def _positions(state) -> np.ndarray:
    """The sorted positions y * stride + x of the live cells of a state
    that `_orbit` yields or of a frame: their keys, or a board's set bits."""
    if not isinstance(state, int):
        return state
    raw = np.frombuffer(state.to_bytes((state.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _offsets(state, where):
    """(xs, ys, corner) of a state that `_orbit` yields at `where` = (x0,
    y0, stride), or of a frame (keys, where): the offsets of its live
    cells from the corner (x0, y0), in row-major order."""
    at = _positions(state)
    ys = at // where[2]  # and xs by a product: numpy's % is some 4x slower
    return at - ys * where[2], ys, where[:2]


def _to_board(xs: np.ndarray, ys: np.ndarray, stride: int) -> int:
    """The board with bits ys * stride + xs set, for int64 columns xs in
    0..stride-1 and rows ys >= 0."""
    bits = np.zeros((int(ys.max()) + 1) * stride, dtype=bool)
    bits[ys * stride + xs] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=16)
def _border(stride: int, rows: int) -> int:
    """The mask, a negative int, of a board's border: rows 0 and rows - 1
    (and every row above it) and columns 0 and stride - 1."""
    every_row, done = 1, 1  # bit 0 of each of the first `done` rows
    while done < rows:
        every_row |= every_row << stride * done
        done *= 2
    sides = (1 | 1 << (stride - 1)) * every_row
    return (1 << stride) - 1 | sides | (-1 << stride * (rows - 1))


def _step_board(board: int, stride: int) -> int:
    """One generation of a board whose border cells are dead, so that no
    neighbour of a live cell wraps into another row.  (The quadtree leap
    steps boards with live borders, and keeps only cells that the wrong
    neighbours have not reached.)"""
    # each cell's count over itself and its row neighbours, 0..3, as the
    # bit planes `ones` and `twos`
    left, right = board << 1, board >> 1
    odd = left ^ board
    ones, twos = odd ^ right, (left & board) | (odd & right)
    # the 3x3 count, by full adders over the rows above and below: the ones
    # add to z + 2c, the twos to y0 + 2 y1, so the count is z + 2k with
    # k = c + y0 + 2 y1
    up, down = ones << stride, ones >> stride
    odd = up ^ down
    z, c = odd ^ ones, (up & down) | (odd & ones)
    up, down = twos << stride, twos >> stride
    odd = up ^ down
    y0, y1 = odd ^ twos, (up & down) | (odd & twos)
    # a cell lives at a 3x3 count of 3 (z = 1, k = 1), or of 4 if it was
    # alive (z = 0, k = 2); k = 1 is c ^ y0 without y1, and k = 2 is
    # y0 ^ y1 without c ^ y0
    odd = c ^ y0
    return (z & odd & ~y1) | (board & (y0 ^ y1) & ~(z | odd))


def _orbit(frame):
    """The states of a non-empty frame at generations 0, 1, 2, ...; the
    last is the empty board, (0, (0, 0, 1)), if the pattern dies out.

    The one Life runner, and the one place a state's form is chosen, each
    time it frames a state of n cells and extent (w, h).  A state comes as
    (state, (x0, y0, stride)), and position y * stride + x in it is the
    cell (x0 + x, y0 + y):
    - a board of stride w + 1 + 2 * _BOARD_MARGIN and h + 1 + 2 *
      _BOARD_MARGIN rows, if stride * rows <= _BOARD_SPARSITY * (n +
      _BOARD_FLOOR); its positions are bits.  The first state with a live
      cell on the border (`_border`), or the empty one, is framed again.
    - otherwise sorted packed keys, the positions of the live cells.  A
      frame of extent s (its larger side less one) gets a limit: if s + 2
      is below _FRAME_LIMIT, that, with int64 keys; else 2 * s + 4, with
      Python-int keys.  The stride is 4 * limit and the columns are moved
      2 * limit right, so in the room = (limit - 1 - s) // 2 states that
      the frame yields every column is in 1..stride-2 and the extent below
      a quarter of the stride: no neighbour wraps into another row, and
      two states of one stride whose keys differ by one constant are
      translates.  On Python-int keys the room is one state.  The state
      after the room, or the empty one, is framed again.
    Each key array is new, so a yielded state stays valid.  States go onto
    and off a board or keys only here, through numpy.
    """
    m = _BOARD_MARGIN
    while True:
        xs, ys, corner = _offsets(*frame)
        w, h = frame[1][2] - 1, int(ys[-1])
        stride, rows = w + 1 + 2 * m, h + 1 + 2 * m
        if stride * rows <= _BOARD_SPARSITY * (xs.size + _BOARD_FLOOR):
            state = _to_board(xs + m, ys + m, stride)
            where = corner[0] - m, corner[1] - m, stride
            border = _border(stride, rows)
            while True:
                yield state, where
                state = _step_board(state, stride)
                if state & border or not state:
                    break
        else:
            s = max(w, h)
            wide = s + 2 >= _FRAME_LIMIT
            limit = 2 * s + 4 if wide else _FRAME_LIMIT
            if wide:
                xs, ys = xs.astype(object), ys.astype(object)
            where = corner[0] - 2 * limit, corner[1], 4 * limit
            state = ys * where[2] + (xs + 2 * limit)  # row-major, as the frame
            near = _near(where[2], state.dtype)
            for _ in range(1 if wide else (limit - 1 - s) // 2):
                yield state, where
                state = _step_packed(state, near)
                if not state.size:
                    break
        frame = _reframe(*_offsets(state, where))
        if not len(frame[0]):
            yield 0, (0, 0, 1)  # the empty board
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
    leap = True
    for t, (state, where) in zip(range(steps + 1), _orbit(pattern.frame)):
        # the first state on int64 packed keys, which has thinned out, may
        # leap the rest of the way, or give up and step on from where it is
        if leap and t < steps and not isinstance(state, int) and state.dtype == np.int64:
            leap = False
            _, tree = _leap(state, where, steps - t, _leap_budget(steps - t, state.size))
            if tree is not None:
                if tree[0].pop > CELL_LIMIT:
                    raise InvalidArgument(f"{tree[0].pop} live cells at generation {steps}, "
                                          f"over {CELL_LIMIT}")
                return Pattern(_tree_frame(*tree))
    return Pattern(_reframe(*_offsets(state, where)))


# ---------------------------------------------------------------------------
# The quadtree leap (Gosper's Hashlife)

# A leaf is an 8x8 block of cells held as one int in the base case's board
# layout, cell (x, y) at bit y * 16 + x.  The base case lays four leaves
# onto a 16x16 board and steps it by `_step_board`.  Its border is not
# dead, so a cell on a side sees cells of the next or last row, and cells
# are born past the top row; but that error moves one cell a generation,
# like any signal, so the middle 8x8, 4 cells from every side, is exact
# for 4 generations.
_LEAF_STRIDE = 16
_LEAF_MASK = sum(0xFF << _LEAF_STRIDE * y for y in range(8))
_LEAF_BELOW = 8 * _LEAF_STRIDE  # from a leaf to the one below it
_LEAF_MIDDLE = 4 * _LEAF_STRIDE + 4  # from a 16x16 block to its middle 8x8
# A leap's work is counted in units: a node made, or a generation of a
# 16x16 board, which cost about the same.  A packed step of n cells costs
# about as much as (n + _LEAP_CELLS) / _LEAP_STEP units, and a leap may
# spend a fifth of what the packed steps it replaces would cost, and at
# most _LEAP_WORK_LIMIT units (so nodes, some 300 bytes each).
_LEAP_CELLS = 128
_LEAP_STEP = 16
_LEAP_WORK_LIMIT = 1 << 18


class _Node:
    """A quadtree node of level k >= 4: a square of 2**k cells a side, made
    of four children of level k - 1 (leaves, at level 3) and interned by
    them within one leap, so it is hashed and compared by identity."""

    __slots__ = ("nw", "ne", "sw", "se", "level", "pop")

    def __init__(self, nw, ne, sw, se, level, pop):
        self.nw, self.ne, self.sw, self.se = nw, ne, sw, se
        self.level, self.pop = level, pop


class _OutOfWork(Exception):
    """A leap would do more work than its budget."""


def _leap_budget(steps: int, population: int) -> int:
    """The most work a leap over `steps` generations of a packed state of
    `population` cells may do: so that, when it gives up, the packed steps
    that follow cost at most a fifth more."""
    return min(steps * (population + _LEAP_CELLS) // (5 * _LEAP_STEP), _LEAP_WORK_LIMIT)


def _leap(keys: np.ndarray, where, steps: int, budget: int):
    """(work done, tree): the tree is (root, x, y), the quadtree of a
    state on int64 packed keys (keys, where) that `_orbit` yields, `steps`
    >= 1 generations on, and the corner of its root, or None if it would
    take more than `budget` units of work (nodes made, leaves too, and
    generations of a 16x16 board).

    The state is built into a quadtree of interned nodes (`_Node`), and
    stepped by the binary digits of `steps`: a node of level k yields its
    middle square of level k - 1, 2**j generations on for any j <= k - 2,
    from the results of its nine overlapping children (for j = k - 2) or
    of four squares made of their middles (for a shorter step), memoised
    by (node, j).  So a pattern that repeats itself, such as a stream of
    gliders, costs a node per new shape, not a step per generation.  The
    nodes and the memo live only in this call.  Leaf i is the 8-row strip
    from row 8i of one board of stride 16 that `_to_board` writes.
    """
    nodes: dict = {}
    empty = [0, 0, 0, 0]  # the empty node of each level, leaves' 0 at 3
    memos = [{} for _ in empty]  # results 2**j generations on, by node

    def join(nw, ne, sw, se):
        nonlocal work
        key = (nw, ne, sw, se)
        node = nodes.get(key)
        if node is None:
            if work == budget:
                raise _OutOfWork
            work += 1
            if type(nw) is int:
                node = _Node(nw, ne, sw, se, 4, nw.bit_count() + ne.bit_count()
                             + sw.bit_count() + se.bit_count())
            else:
                node = _Node(nw, ne, sw, se, nw.level + 1,
                             nw.pop + ne.pop + sw.pop + se.pop)
            nodes[key] = node
        return node

    def void(level):
        while len(empty) <= level:
            e = empty[-1]
            empty.append(join(e, e, e, e))
            memos.append({})
        return empty[level]

    def middle(nw, ne, sw, se):
        """The middle square of the block of four nodes (or leaves)."""
        if type(nw) is int:
            block = nw | ne << 8 | sw << _LEAF_BELOW | se << _LEAF_BELOW + 8
            return block >> _LEAF_MIDDLE & _LEAF_MASK
        return join(nw.se, ne.sw, sw.ne, se.nw)

    def result(node, j):
        """The middle of `node`, 2**j generations on."""
        nonlocal work
        if not node.pop:
            return empty[node.level - 1]
        memo = memos[j]
        found = memo.get(node)
        if found is not None:
            return found
        nw, ne, sw, se = node.nw, node.ne, node.sw, node.se
        if node.level == 4:
            work += 1 << j
            if work > budget:
                raise _OutOfWork
            board = nw | ne << 8 | sw << _LEAF_BELOW | se << _LEAF_BELOW + 8
            for _ in range(1 << j):
                board = _step_board(board, _LEAF_STRIDE)
            found = board >> _LEAF_MIDDLE & _LEAF_MASK
        else:
            # the nine overlapping children's middles, half the way on (for
            # j = k - 2) or now (a shorter step), make the four squares
            # whose results are the quarters of this one
            if j == node.level - 2:
                j -= 1
                m00, m02, m20, m22 = result(nw, j), result(ne, j), result(sw, j), result(se, j)
                m01 = result(join(nw.ne, ne.nw, nw.se, ne.sw), j)
                m10 = result(join(nw.sw, nw.se, sw.nw, sw.ne), j)
                m11 = result(join(nw.se, ne.sw, sw.ne, se.nw), j)
                m12 = result(join(ne.sw, ne.se, se.nw, se.ne), j)
                m21 = result(join(sw.ne, se.nw, sw.se, se.sw), j)
            else:
                m00 = middle(nw.nw, nw.ne, nw.sw, nw.se)
                m01 = middle(nw.ne, ne.nw, nw.se, ne.sw)
                m02 = middle(ne.nw, ne.ne, ne.sw, ne.se)
                m10 = middle(nw.sw, nw.se, sw.nw, sw.ne)
                m11 = middle(nw.se, ne.sw, sw.ne, se.nw)
                m12 = middle(ne.sw, ne.se, se.nw, se.ne)
                m20 = middle(sw.nw, sw.ne, sw.sw, sw.se)
                m21 = middle(sw.ne, se.nw, sw.se, se.sw)
                m22 = middle(se.nw, se.ne, se.sw, se.se)
            found = join(result(join(m00, m01, m10, m11), j),
                         result(join(m01, m02, m11, m12), j),
                         result(join(m10, m11, m20, m21), j),
                         result(join(m11, m12, m21, m22), j))
        memo[node] = found
        return found

    # the leaves, then each level's nodes from the one below, keyed by
    # their position in units of their side from the corner (x0, y0)
    xs, ys, corner = _offsets(keys, where)
    x0, y0 = int(xs.min()), int(ys.min())
    xs, ys = xs - x0, ys - y0
    at = (ys >> 3 << 32) + (xs >> 3)
    blocks, which = np.unique(at, return_inverse=True)
    work = blocks.size  # nodes made, leaves too, and board generations
    if work > budget:
        return budget, None
    size = _LEAF_BELOW // 8
    raw = _to_board(xs & 7, which.ravel() * 8 + (ys & 7), _LEAF_STRIDE).to_bytes(
        size * blocks.size, "little")
    layer = {(b & 0xFFFF_FFFF, b >> 32): int.from_bytes(raw[size * i:size * (i + 1)], "little")
             for i, b in enumerate(blocks.tolist())}
    try:
        k = 3
        while len(layer) > 1 or k < 4:
            parts = {}
            e = void(k)
            for (x, y), node in layer.items():
                parts.setdefault((x >> 1, y >> 1), [e, e, e, e])[(y & 1) * 2 + (x & 1)] = node
            layer = {xy: join(*four) for xy, four in parts.items()}
            k += 1
        (root,) = layer.values()
        ox, oy = corner[0] + x0, corner[1] + y0  # of the root's corner
        for j in range(steps.bit_length()):
            if not steps >> j & 1:
                continue
            # the live cells in the middle quarter, so that they stay
            # within the middle half 2**j generations on
            while (root.level < max(j + 3, 7) or root.pop != root.nw.se.se.pop
                   + root.ne.sw.sw.pop + root.sw.ne.ne.pop + root.se.nw.nw.pop):
                e = void(root.level - 1)
                root = join(join(e, e, e, root.nw), join(e, e, root.ne, e),
                            join(e, root.sw, e, e), join(root.se, e, e, e))
                ox -= 1 << root.level - 2
                oy -= 1 << root.level - 2
            void(root.level - 1)  # for `result` to return for empty children
            shift = 1 << root.level - 2
            root = result(root, j)
            ox += shift
            oy += shift
    except _OutOfWork:
        return budget, None
    return work, (root, ox, oy)


def _tree_frame(root: _Node, ox, oy):
    """The frame of the cells of a quadtree whose corner is (ox, oy), its
    keys sorted: its live leaves are read as the 8-row strips of one board."""
    leaves, xs, ys = [], [], []
    todo = [(root, 0, 0)]
    while todo:
        node, x, y = todo.pop()
        if type(node) is int:
            if node:
                leaves.append(node)
                xs.append(x)
                ys.append(y)
        elif node.pop:
            half = 1 << node.level - 1
            todo += ((node.nw, x, y), (node.ne, x + half, y),
                     (node.sw, x, y + half), (node.se, x + half, y + half))
    size = _LEAF_BELOW // 8
    board = int.from_bytes(b"".join(leaf.to_bytes(size, "little") for leaf in leaves), "little")
    which, bit = np.divmod(_positions(board), _LEAF_BELOW)
    dtype = np.int64 if root.level < 62 else object
    xs = np.array(xs, dtype=dtype)[which] + bit % _LEAF_STRIDE
    ys = np.array(ys, dtype=dtype)[which] + bit // _LEAF_STRIDE
    keys, where = _reframe(xs, ys, (ox, oy))
    keys.sort()
    return keys, where


def bounding_box(cells: Iterable) -> tuple[int, int, int, int] | None:
    """(min_x, min_y, max_x, max_y), or None for the empty set."""
    keys, (x0, y0, width) = _pattern(cells).frame
    return (x0, y0, x0 + width - 1, y0 + int(keys[-1]) // width) if len(keys) else None


def canonical(cells: Iterable) -> tuple[Pattern, tuple[int, int]]:
    """Translate the bounding-box corner to the origin.

    Returns (normalised pattern, corner) so the translation can be undone;
    the empty pattern's corner is (0, 0).
    """
    keys, (x0, y0, width) = _pattern(cells).frame
    return Pattern((keys, (0, 0, width))), (x0, y0)


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
    # Each state is memoised by a key that all its translates in the same
    # form share, as (t, anchor, where), from which `_anchor` finds the
    # cell its key starts from once the key repeats.  `seen` holds the
    # entries of the present form (a board or packed keys, and its
    # stride); when that changes, they wait in `waiting` by population and
    # height.  Only a state with both can repeat one, so when one comes,
    # the entries waiting for it are keyed by their shape, which no form
    # change alters, into `shapes`, and it looks its own shape up there.
    # An entry is so shape-keyed at most once, and a state at most once.
    seen: dict = {}
    waiting: dict = {}
    shapes: dict = {}
    form = None  # a board's stride, or the negated stride of packed keys
    for t, (state, where) in enumerate(_orbit(pattern.frame)):
        if isinstance(state, int):  # a translate shifts the board's bits
            if not state:
                return FateReport("extinct", t=t)
            low = (state & -state).bit_length() - 1
            key, now, here = state >> low, where[2], (t, low, where)
        else:  # a translate adds one constant to every packed key
            rest = state - state[0]
            # by value: the bytes of an object array are its pointers
            key = rest.tobytes() if rest.dtype == np.int64 else tuple(rest.tolist())
            now, here = -where[2], (t, int(state[0]), where)
        if now != form:
            for old, found in seen.items():
                for then in found:
                    waiting.setdefault(_size(old, *then), []).append((old, then))
            seen.clear()
            form = now
        found = seen.setdefault(key, [])
        for then in found:
            # boards of two states with one key may be translates or not
            if now < 0 or _translate_of(key, then, here):
                return _recurrence(_anchor(*then), _anchor(*here))
        # an emptied list stays, so that later states of its size look up
        # the shapes its entries left
        older = waiting.get(_size(key, *here)) if waiting else None
        if older is not None:
            shapes.update(_shape(old, *then) for old, then in older)
            older.clear()
            shape, corner = _shape(key, *here)
            if shape in shapes:
                return _recurrence(shapes[shape], corner)
        found.append(here)
        if t == budget:
            return FateReport("unknown", budget=budget)


def _anchor(t, anchor, where):
    """(t, x, y) of a fate memo entry: (x, y) is the cell its key starts
    from, the lowest live bit of a board or the first packed key."""
    y, x = divmod(anchor, where[2])
    return t, where[0] + x, where[1] + y


def _columns(board: int, stride: int) -> int:
    """The columns of a board's live cells, as one row: its rows ORed."""
    span = stride
    while board >> span:
        board |= board >> span
        span <<= 1
    return board & ((1 << stride) - 1)


def _translate_of(key: int, then, here) -> bool:
    """Whether two board states of one stride and one key are translates:
    the key's bits, moved from the column of `then`'s anchor to that of
    `here`'s, stay in their rows."""
    stride = here[2][2]
    col = then[1] % stride
    move = here[1] % stride - col
    columns = _columns(key << col, stride)
    if move >= 0:
        return columns >> (stride - move) == 0
    return columns & ((1 << -move) - 1) == 0


def _state(key, anchor):
    """The state of a fate memo entry, from its key and its anchor."""
    if isinstance(key, int):
        return key << anchor
    if isinstance(key, bytes):
        return np.frombuffer(key, dtype=np.int64) + anchor
    return np.array(key, dtype=object) + anchor


def _size(key, t, anchor, where) -> tuple[int, int]:
    """(population, height less one) of a fate memo entry, which every
    translate of its state shares in every form."""
    stride = where[2]
    if isinstance(key, int):
        return key.bit_count(), ((key << anchor % stride).bit_length() - 1) // stride
    keys = _state(key, anchor)
    return keys.size, int(keys[-1] // stride - keys[0] // stride)


def _shape(key, t, anchor, where):
    """(shape, (t, x, y)) of a fate memo entry: a key that every translate
    of its state shares in every form, and the corner (x, y) of its
    bounding box.  The shape is the width and keys of its frame: the keys'
    bytes, or a tuple of them where they pass int64; keys alone would not
    tell apart states of two widths."""
    keys, (x, y, width) = _reframe(*_offsets(_state(key, anchor), where))
    return (width, tuple(keys.tolist()) if keys.dtype == object else keys.tobytes()), (t, x, y)


def _recurrence(then, here) -> FateReport:
    """The report of a state that repeats an earlier one: `then` and `here`
    are (t, x, y) of each, with (x, y) the position of one same cell."""
    (t0, x0, y0), (t, x1, y1) = then, here
    period, dx, dy = t - t0, x1 - x0, y1 - y0
    if (dx, dy) != (0, 0):
        return FateReport("translator", t=t0, period=period, dx=dx, dy=dy)
    if period == 1:
        return FateReport("still_life", t=t0, period=1)
    return FateReport("oscillator", t=t0, period=period)


# ---------------------------------------------------------------------------
# Pattern I/O

_RLE_HEADER = re.compile(
    r"^\s*x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)\s*(?:,\s*rule\s*=\s*(\S+)\s*)?$",
    re.IGNORECASE)

RLE_LINE_LIMIT = 69
# a line of RLE body: the most whole tokens (each ends in its tag) that fit
# in RLE_LINE_LIMIT characters, or one token longer than that
_RLE_LINES = re.compile(rf".{{1,{RLE_LINE_LIMIT}}}(?<=[bo$!])|\d+[bo$!]")
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


_WIDE = re.compile(r"[^\x00-\x7f]")


def _one_byte_each(text: str) -> bytes:
    """The characters of `text` as bytes, any past ASCII as ' ' if it is
    whitespace, else NUL."""
    if text.isascii():
        return text.encode("ascii")
    return _WIDE.sub(lambda m: " " if m.group().isspace() else "\0", text).encode("ascii")


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
    width = int((xs + n).max()) - x0
    firsts = _keys(xs, ys, x0, y0, width, int(ys[-1]) - y0 + 1)
    # the keys of each run: its first key repeated, plus the cell's index,
    # less the cells of the runs before it
    ends = n.cumsum()
    keys = (firsts - (ends - n)).repeat(n) + np.arange(int(ends[-1]))
    if revisit:  # a row gone over again may hold a cell twice, and out of order
        keys = np.unique(keys)
    return keys, (x0, y0, width)


def write_rle(cells: Iterable) -> str:
    """Encode a pattern as canonical RLE text.

    The pattern is translated so the bounding-box corner sits at (0, 0),
    and the encoding is byte-deterministic.  Output lines never exceed
    RLE_LINE_LIMIT characters, but for a run count longer than that, which
    takes a line of its own (and which `parse_rle` refuses).
    """
    keys, where = _pattern(cells).frame
    if not len(keys):
        return "x = 0, y = 0, rule = B3/S23\n!\n"
    xs, ys, _ = _offsets(keys, where)
    header = (f"x = {decimal(where[2], 'a side')}, "
              f"y = {decimal(int(ys[-1]) + 1, 'a side')}, rule = B3/S23\n")
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

    # one byte row per token: its count's digits, none for 1, then its tag
    places = len(str(counts.max()))
    table = np.zeros((counts.size, places + 1), dtype=np.uint8)
    table[:, -1] = tags
    multi = counts > 1
    for col in range(places):
        place = 10 ** (places - 1 - col)
        digit = (counts // place % 10 + ord("0")).astype(np.uint8)
        table[:, col] = np.where(multi & (counts >= place), digit, 0)
    body = table[table != 0].tobytes().decode("ascii") + "!"
    return header + "\n".join(_RLE_LINES.findall(body)) + "\n"


def image_size(box: tuple[int, int, int, int] | None) -> tuple[int, int]:
    """(width, height) of the image over a bounding box.  Refuses None, the
    box of an empty set, and a box of more than PIXEL_LIMIT pixels
    (InvalidArgument)."""
    if box is None:
        raise InvalidArgument("cannot render an empty cell set")
    width, height = box[2] - box[0] + 1, box[3] - box[1] + 1
    if width * height > PIXEL_LIMIT:
        raise InvalidArgument(f"{width}x{height} image over {PIXEL_LIMIT} pixels")
    return width, height


def raster(cells: Iterable) -> tuple[list[int], int]:
    """A pattern as image rows over its bounding box, `(rows, width)`:
    cell (x, y) is bit x - min x of rows[y - min y].  Refuses what
    `image_size` refuses."""
    keys, where = _pattern(cells).frame
    xs, ys, _ = _offsets(keys, where)
    width, height = image_size((0, 0, where[2] - 1, int(ys[-1])) if len(keys) else None)
    size = (width + 7) // 8  # a row's bytes: the board's stride is 8 * size
    raw = _to_board(xs, ys, 8 * size).to_bytes(size * height, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)], width


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
