"""The Life kernels (packed loop on int64 and Python-int keys, bitboard)
and where `run` uses them, the vectorised RLE writer and `raster`,
checked against the tally and the naive oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import (life_run_dense, raster_reference, run_tally, step_tally,
                      translate, write_rle_reference)

GLIDER = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})  # heads to +x, +y


def soup(rng, side, n, dx=0, dy=0):
    return frozenset((dx + rng.randrange(side), dy + rng.randrange(side))
                     for _ in range(n))


def spy(monkeypatch):
    """Record, in order, each call of the board step and the packed step,
    the latter as "_step_packed[object]" on Python-int keys."""
    calls = []
    for name in ("_step_board", "_step_packed"):
        real = getattr(life, name)

        def wrapped(*args, _real=real, _name=name):
            wide = _name == "_step_packed" and args[0].dtype == object
            calls.append(_name + "[object]" if wide else _name)
            return _real(*args)
        monkeypatch.setattr(life, name, wrapped)
    return calls


def kernels(calls, cells, steps):
    """The kernels `_orbit` calls to reach generation `steps`, in order of
    first use: the forms it chooses, which `detect_fate` reads one by one
    and `run` until it leaps."""
    calls.clear()
    for _ in zip(range(steps + 1), life._orbit(life._pattern(cells).frame)):
        pass
    return list(dict.fromkeys(calls))


def receding_gliders():
    """Four gliders per diagonal direction, packed tightly: 80 cells in a
    small box that then spreads out at c/4 in all four directions."""
    cells = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for k in range(4):
                ox, oy = 6 * (k % 2) + 4, 6 * (k // 2) + 4
                cells |= {(sx * (ox + x), sy * (oy + y)) for x, y in GLIDER}
    return frozenset(cells)


# ---------------------------------------------------------------------------
# backend choice

def test_backend_choice(monkeypatch):
    rng = random.Random(1)
    dense_soup = soup(rng, 60, 1200)
    small_soup = soup(rng, 12, 100)
    sparse = frozenset((37 * i, 11 * (i % 13)) for i in range(300))
    gun = life.parse_rle(load_text("gosper_gun.rle"))
    calls = spy(monkeypatch)
    assert kernels(calls, dense_soup, 1) == kernels(calls, dense_soup, 50) == ["_step_board"]
    assert kernels(calls, sparse, 1) == kernels(calls, sparse, 50) == ["_step_packed"]
    # a row of cells 100 apart fills 1/100 of its box, but far less of a
    # board with its margin
    spaced = frozenset((100 * i, 0) for i in range(1000))
    assert kernels(calls, spaced, 1) == ["_step_packed"]
    # a small pattern goes on a board whatever its population
    assert kernels(calls, GLIDER, 1) == kernels(calls, GLIDER, 2) == \
        kernels(calls, small_soup, 1) == ["_step_board"]
    # the gun starts on a board, and its stream of gliders thins out onto
    # packed keys, which run most of 2000 generations
    assert kernels(calls, gun, 2000) == ["_step_board", "_step_packed"]
    assert calls.count("_step_packed") > 1000
    # `run` leaps from the first packed state to generation 2000 instead,
    # and steps no generation on packed keys
    leaps = []
    leap = life._leap
    monkeypatch.setattr(life, "_leap", lambda *args: leaps.append(leap(*args)) or leaps[-1])
    calls.clear()
    assert len(life.run(gun, 2000)) == 384  # pop(2000 mod 30) + 5 * (2000 // 30)
    assert len(leaps) == 1 and leaps[0][1] is not None
    assert set(calls) == {"_step_board"}
    # position never matters
    for offset in (1 << 40, -(1 << 40), 10 ** 20, -(10 ** 20)):
        moved = translate(dense_soup, offset, -offset)
        assert kernels(calls, moved, 1) == kernels(calls, moved, 50) == ["_step_board"]
        assert kernels(calls, translate(GLIDER, offset, 3), 1) == ["_step_board"]
    # an extent near the limit still packs while it stays below the limit:
    # the far cell dies, and the glider, framed again, goes on a board
    limit = life._FRAME_LIMIT
    for dx in (0, 10 ** 20):
        wide = translate(GLIDER | {(limit - 100, 0)}, dx, 0)
        assert kernels(calls, wide, 49) == ["_step_packed"]
        assert kernels(calls, wide, 50) == ["_step_packed", "_step_board"]
        assert life.run(wide, 50) == run_tally(wide, 50)
    # two gliders moving apart reach the limit, and Python-int keys take over
    apart = GLIDER | frozenset((12 - limit - x, y) for x, y in GLIDER)
    assert kernels(calls, apart, 40) == ["_step_packed", "_step_packed[object]"]
    assert life.run(apart, 40) == run_tally(apart, 40)


# ---------------------------------------------------------------------------
# run against the tally and the dense oracle

@pytest.mark.parametrize("side,n", [(30, 300), (40, 500), (60, 400),
                                    (200, 150), (400, 300)])
def test_run_matches_tally_on_both_sides_of_the_threshold(side, n):
    rng = random.Random(side * n)
    cells = soup(rng, side, n, dx=-side // 2, dy=-side // 3)
    for steps in (1, 2, 7, 30):
        assert life.run(cells, steps) == run_tally(cells, steps)
    assert life.run(cells, 12) == life_run_dense(cells, 12)


@given(st.integers(1, 25), st.integers(1, 700), st.integers(0, 40),
       st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_run_matches_tally_on_random_soups(side, n, steps, dx, dy, seed):
    cells = soup(random.Random(seed), side, n, dx, dy)
    assert life.run(cells, steps) == run_tally(cells, steps)


def test_run_near_the_packing_limit():
    rng = random.Random(2)
    base = soup(rng, 30, 400)
    limit = 1 << 30
    for dx, dy in [(limit - 60, 0), (0, limit - 60), (-limit + 31, 5),
                   (3, -limit + 31), (limit - 40, -limit + 40)]:
        cells = translate(base, dx, dy)
        for steps in (1, 9, 20):
            assert life.run(cells, steps) == \
                translate(run_tally(base, steps), dx, dy)


@pytest.mark.parametrize("offset", [10 ** 20, -(10 ** 20), 2 ** 63, 2 ** 62 - 5])
def test_run_with_python_ints_beyond_int64(offset, monkeypatch):
    base = soup(random.Random(3), 20, 200)
    cells = translate(base, offset, -offset)
    want = translate(run_tally(base, 6), offset, -offset)
    calls = spy(monkeypatch)
    assert life.run(cells, 6) == want
    assert life.step(cells) == translate(step_tally(base), offset, -offset)
    # position never matters: both run on a board alone
    assert calls == ["_step_board"] * 7


@pytest.mark.parametrize("steps", [1, 5, 70, 200])
def test_patterns_that_die_out(steps, monkeypatch):
    # isolated cells three apart: dense enough for a board, dead in one
    # step, which ends the runner
    dots = frozenset((3 * i, 3 * j) for i in range(16) for j in range(16))
    calls = spy(monkeypatch)
    assert life.run(dots, steps) == frozenset()
    assert calls == ["_step_board"]
    # a sparse spread of blocks and dots: the dots die, the blocks stay
    blocks = frozenset((40 * i + a, b) for i in range(30) for a in (0, 1) for b in (0, 1))
    stray = frozenset((40 * i + 20, 0) for i in range(30))
    assert life.run(blocks | stray, steps) == blocks


def test_grid_growing_every_generation(monkeypatch):
    # with one dead cell around the live ones, every generation in which
    # the soup spreads reaches the board's border and frames it again
    monkeypatch.setattr(life, "_BOARD_MARGIN", 1)
    cells = soup(random.Random(4), 24, 300, dx=-7, dy=11)
    calls = spy(monkeypatch)
    assert life.run(cells, 60) == run_tally(cells, 60)
    assert calls[0] == "_step_board"


def test_run_switches_backend_mid_run(monkeypatch):
    cells = receding_gliders()
    assert len(cells) == 80
    calls = spy(monkeypatch)
    result = life.run(cells, 400)
    # every board step comes before the first packed step
    first = calls.index("_step_packed")
    assert set(calls[:first]) == {"_step_board"} and set(calls[first:]) == {"_step_packed"}
    assert result == run_tally(cells, 400)
    assert result == frozenset((x + (100 if x > 0 else -100),
                                y + (100 if y > 0 else -100)) for x, y in cells)


def test_run_zero_steps_returns_the_pattern():
    cells = soup(random.Random(5), 30, 400)
    assert life.run(cells, 0) == cells
    assert life.run(set(cells), 0) == cells
    assert life.run(frozenset(), 0) == frozenset()


def test_negative_steps_is_a_domain_error():
    with pytest.raises(life.InvalidSteps):
        life.run(GLIDER, -1)
    with pytest.raises(ValueError):
        life.run(GLIDER, -1)


def test_run_accepts_plain_sets_and_lists():
    cells = soup(random.Random(6), 30, 400)
    want = run_tally(cells, 5)
    assert life.run(set(cells), 5) == want
    assert life.run(sorted(cells), 5) == want
    # a cell listed twice is one cell
    row = [(0, 0), (1, 0), (2, 0)]
    assert life.run(row + row[:1], 1) == life.step(row + row) == run_tally(row, 1)


def test_packed_dense_and_tally_agree_on_step():
    rng = random.Random(7)
    for cells in (soup(rng, 40, 700), soup(rng, 300, 300),
                  receding_gliders(), life.parse_rle(load_text("gosper_gun.rle"))):
        xs, ys, (cx, cy) = life._offsets(*life._frame(cells))
        w, h = int(xs.max()), int(ys[-1])
        want = step_tally(cells)
        # one dead cell around the live ones, as the board step needs
        stride = (w + 10) // 8 * 8
        board = life._to_board(xs + 1, ys + 1, stride)
        assert board & life._border(stride, h + 3) == 0
        after = life._step_board(board, stride)
        assert life._cells(*life._offsets(after, (cx - 1, cy - 1, stride))) == want
        # packed keys y * stride + x, on int64 and on Python ints, with the
        # columns moved one right so that no neighbour wraps
        keys = ys * stride + xs + 1
        for dtype in (np.int64, object):
            near = life._near(stride, dtype)
            after = life._step_packed(np.sort(keys.astype(dtype)), near)
            assert after.dtype == dtype
            assert life._cells(*life._offsets(after, (cx - 1, cy, stride))) == want


@st.composite
def boards(draw):
    """(stride, rows, cells) of a board whose border is dead: cells on the
    inner edge of the border, and on both sides of the boundary between
    one row's last column and the next row's first, drawn often."""
    stride = draw(st.sampled_from([8, 16, 24, 40]))
    rows = draw(st.integers(4, 10))
    cols = st.one_of(st.sampled_from([1, 2, stride - 3, stride - 2]),
                     st.integers(1, stride - 2))
    ys = st.one_of(st.sampled_from([1, rows - 2]), st.integers(1, rows - 2))
    cells = draw(st.frozensets(st.tuples(cols, ys), max_size=3 * stride))
    # a row's last inner cell with the next row's first, and a run of them
    for y in draw(st.lists(st.integers(1, rows - 3), max_size=3)):
        cells |= {(stride - 2, y), (1, y + 1), (stride - 3, y), (2, y + 1)}
    return stride, rows, cells


@given(boards())
@settings(max_examples=300, deadline=None)
def test_board_step_matches_the_tally(board_cells):
    stride, rows, cells = board_cells
    if not cells:
        return
    xs, ys = (np.array(v, dtype=np.int64) for v in zip(*cells))
    board = life._to_board(xs, ys, stride)
    assert board & life._border(stride, rows) == 0
    assert life._cells(*life._offsets(board, (0, 0, stride))) == cells
    after = life._step_board(board, stride)
    got = life._cells(*life._offsets(after, (0, 0, stride)))
    assert got == step_tally(cells)


# ---------------------------------------------------------------------------
# write_rle against the token-by-token writer

CORPUS = ["glider.rle", "block.rle", "blinker.rle", "toad.rle", "beacon.rle",
          "beehive.rle", "loaf.rle", "boat.rle", "tub.rle", "lwss.rle",
          "pulsar.rle", "rpentomino.rle", "gosper_gun.rle"]


@pytest.mark.parametrize("name", CORPUS)
def test_write_rle_matches_reference_on_corpus(name):
    cells = life.parse_rle(load_text(name))
    assert life.write_rle(cells) == write_rle_reference(cells)
    moved = translate(cells, -17, 1 << 40)
    assert life.write_rle(moved) == write_rle_reference(cells)


def test_write_rle_small_cases():
    for cells in (frozenset(), frozenset({(0, 0)}), frozenset({(-5, 9)}),
                  frozenset({(0, 0), (0, 7)}), frozenset({(3, 0), (0, 12)}),
                  frozenset({(i, 0) for i in range(123)})):
        assert life.write_rle(cells) == write_rle_reference(cells)


def test_write_rle_blank_rows():
    cells = frozenset({(0, 0), (4, 1), (2, 5), (0, 17), (9, 117)})
    text = life.write_rle(cells)
    assert text == write_rle_reference(cells)
    assert "4$" in text and "12$" in text and "100$" in text


@pytest.mark.parametrize("spacing", [2, 3, 12, 123])
def test_write_rle_line_filling(spacing):
    cells = frozenset((spacing * i, 0) for i in range(400))
    text = life.write_rle(cells)
    assert text == write_rle_reference(cells)
    lengths = {len(line) for line in text.splitlines()[1:-1]}
    assert max(lengths) <= life.RLE_LINE_LIMIT
    if spacing == 2:  # one-character tokens fill every line exactly
        assert lengths == {life.RLE_LINE_LIMIT}


def test_write_rle_huge_coordinates():
    for cells in (frozenset({(10 ** 20, 3), (10 ** 20 + 2, 3), (-10 ** 20, 7)}),
                  frozenset({(2 ** 62, 0), (-2 ** 62, 1)}),
                  frozenset({(0, 0), (2 ** 40, 2 ** 30)}),
                  frozenset({(2 ** 63 - 1, -2 ** 63), (0, 0)})):
        assert life.write_rle(cells) == write_rle_reference(cells)


def test_write_rle_random_soups():
    rng = random.Random(8)
    for _ in range(40):
        side = rng.randrange(1, 300)
        cells = soup(rng, side, rng.randrange(1, 2000),
                     rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(-50, 50))
        assert life.write_rle(cells) == write_rle_reference(cells)


@given(st.frozensets(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                     max_size=200))
@settings(max_examples=100)
def test_write_rle_matches_reference(cells):
    assert life.write_rle(cells) == write_rle_reference(cells)


# ---------------------------------------------------------------------------
# raster against the per-cell grid

@pytest.mark.parametrize("offset", [0, 1 << 40, -(1 << 40), 10 ** 20])
def test_raster_matches_reference(offset):
    rng = random.Random(9)
    for cells in (GLIDER, frozenset({(0, 0)}), soup(rng, 50, 700),
                  life.parse_rle(load_text("gosper_gun.rle"))):
        cells = translate(cells, offset, -offset)
        rows, width = life.raster(cells)
        assert all(0 <= bits < 1 << width for bits in rows)
        assert [[bits >> x & 1 for x in range(width)] for bits in rows] \
            == raster_reference(cells)


def test_raster_pixel_cap(monkeypatch):
    monkeypatch.setattr(life, "PIXEL_LIMIT", 100)
    rows, width = life.raster(frozenset({(0, 0), (9, 9)}))
    assert (len(rows), width) == (10, 10)
    with pytest.raises(life.InvalidArgument, match="11x10 image over 100 pixels"):
        life.raster(frozenset({(0, 0), (10, 9)}))


def test_raster_refuses_an_empty_set():
    with pytest.raises(life.InvalidArgument, match="empty cell set"):
        life.raster(frozenset())
