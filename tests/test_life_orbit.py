"""The generation runner `life._orbit` and `life.detect_fate` on top of
it, checked against the tally and the frozenset oracle: grid and packed
states, far offsets, states too wide to pack, re-framing, and the empty
set."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import detect_fate_reference

CORPUS = [
    "glider", "block", "blinker", "toad", "beacon", "beehive", "loaf", "boat",
    "tub", "lwss", "pulsar", "rpentomino", "gosper_gun",
]

# the symmetries of the square as (a, b, c, d): (x, y) -> (ax + by, cx + dy)
SYMMETRIES = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
              (-1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0)]

BLOCK = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
BLINKER = frozenset({(0, -1), (0, 0), (0, 1)})
GLIDER = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})  # heads to +x, +y
TALLY = life._step_tally  # bound before any test spies on it


def corpus(name):
    return life.parse_rle(load_text(f"{name}.rle"))


def transform(cells, a, b, c, d, ox=0, oy=0):
    return frozenset((a * x + b * y + ox, c * x + d * y + oy) for x, y in cells)


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(life, name)

    def wrapped(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(life, name, wrapped)
    return calls


@pytest.mark.parametrize("budget", (1, 30, 600))
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_under_symmetries_matches_oracle(name, budget):
    cells = corpus(name)
    for sym in SYMMETRIES:
        moved = transform(cells, *sym)
        assert life.detect_fate(moved, budget) == detect_fate_reference(moved, budget), sym


@given(st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
       st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_small_soups_match_oracle(cells, budget):
    assert life.detect_fate(cells, budget) == detect_fate_reference(cells, budget)


@pytest.mark.parametrize("offset", [(2 ** 40, -2 ** 40), (-2 ** 40, 2 ** 40),
                                    (10 ** 20, 10 ** 20), (-10 ** 20, 2 ** 40)])
@pytest.mark.parametrize("name", CORPUS)
def test_far_offsets_match_oracle(name, offset):
    moved = transform(corpus(name), 1, 0, 0, 1, *offset)
    report = life.detect_fate(moved, 60)
    assert report == detect_fate_reference(moved, 60)
    assert report == life.detect_fate(corpus(name), 60)


def test_empty_set_is_extinct_at_zero():
    assert life.detect_fate(frozenset(), 1) == life.FateReport("extinct", t=0)
    assert detect_fate_reference(frozenset(), 1) == life.FateReport("extinct", t=0)


def test_blocks_two_to_the_31_apart_take_the_wide_path(monkeypatch):
    cells = BLOCK | life.translate(BLOCK, 2 ** 31, 0)
    tallies = count_calls(monkeypatch, "_step_tally")
    packed = count_calls(monkeypatch, "_step_packed")
    report = life.detect_fate(cells, 10)
    assert report == life.FateReport("still_life", t=0, period=1)
    assert report == detect_fate_reference(cells, 10)
    assert tallies and not packed


def test_wide_state_packs_again_once_it_shrinks(monkeypatch):
    # the far domino dies in one generation, leaving a blinker that packs
    cells = BLINKER | {(2 ** 31, 0), (2 ** 31 + 1, 0)}
    tallies = count_calls(monkeypatch, "_step_tally")
    packed = count_calls(monkeypatch, "_step_packed")
    report = life.detect_fate(cells, 10)
    assert report == life.FateReport("oscillator", t=1, period=2)
    assert report == detect_fate_reference(cells, 10)
    assert len(tallies) == 1 and packed


@pytest.mark.parametrize("ox", [life._FRAME_LIMIT - 8, -life._FRAME_LIMIT - 4])
def test_glider_across_the_packing_limit_matches_oracle(ox):
    # a glider heading to +x leaves a block from just inside the packed
    # extent, or approaches it from just outside, so the runner switches
    # representation part-way
    cells = BLOCK | life.translate(GLIDER, ox, 0)
    report = life.detect_fate(cells, 40)
    assert report == life.FateReport("unknown", budget=40)
    assert report == detect_fate_reference(cells, 40)


def test_recurrence_after_a_wide_preperiod():
    # the lone far cell dies in one generation; from there the glider
    # recurs as a translator
    cells = GLIDER | {(-2 ** 31, 0)}
    report = life.detect_fate(cells, 20)
    assert report == detect_fate_reference(cells, 20)
    assert report == life.FateReport("translator", t=1, period=4, dx=1, dy=1)


def dense_soup(rng, side, n):
    """n distinct cells in a side x side box."""
    return frozenset(divmod(k, side) for k in rng.sample(range(side * side), n))


def near_threshold_soup(rng):
    """A soup just dense enough for the grid: it thins out, so the runner
    leaves the grid, often while it recurs."""
    side = rng.randrange(30, 71)
    grid_side = side + 2 * life._DENSE_MARGIN
    bound = max(life._DENSE_MIN_POP, -(-grid_side ** 2 // life._DENSE_SPARSITY))
    return dense_soup(rng, side, bound + rng.randrange(6))


def test_dense_soups_match_oracle():
    rng = random.Random(13)
    for _ in range(12):
        side = rng.randrange(10, 31)
        cells = dense_soup(rng, side, rng.randrange(64, min(400, side * side) + 1))
        assert next(life._orbit(life._frame(cells)))[0].ndim == 2  # it starts on the grid
        assert life.detect_fate(cells, 200) == detect_fate_reference(cells, 200)


@pytest.mark.parametrize("recheck", [64, 7])
def test_recurrence_across_the_switch_from_grid_to_keys(recheck, monkeypatch):
    # A state first seen on the grid recurs after the runner has left it,
    # or after a rebuild has moved it on the grid: either is the same key.
    monkeypatch.setattr(life, "_DENSE_RECHECK", recheck)
    rng = random.Random(18)
    for _ in range(200):
        cells = near_threshold_soup(rng)
        assert next(life._orbit(life._frame(cells)))[0].ndim == 2
        assert life.detect_fate(cells, 400) == detect_fate_reference(cells, 400)


def test_dots_on_the_grid_die_at_one():
    dots = frozenset((3 * i, 3 * j) for i in range(16) for j in range(16))
    assert next(life._orbit(life._frame(dots)))[0].ndim == 2
    assert life.detect_fate(dots, 50) == detect_fate_reference(dots, 50) == \
        life.FateReport("extinct", t=1)


@pytest.mark.parametrize("recheck", [64, 7])
def test_orbit_from_dense_starts_matches_the_tally(recheck, monkeypatch):
    # every state, on the grid, as keys, and the empty one at extinction
    monkeypatch.setattr(life, "_DENSE_RECHECK", recheck)
    rng = random.Random(15)
    soups = [dense_soup(rng, 20, 200), dense_soup(rng, 12, 100)]
    soups += [near_threshold_soup(rng) for _ in range(6)]
    forms, k = set(), 150
    for cells in soups:
        orbit = list(islice(life._orbit(life._frame(cells)), k))
        want = cells
        for state, corner in orbit:
            if corner is None:
                got = state
            elif state.ndim == 2:
                ys, xs = np.nonzero(state)
                got = life._cells(xs, ys, corner)
            else:
                got = life._cells(*life._unpack(state), corner)
            forms.add(state.ndim if corner is not None else 0)
            assert got == want
            want = TALLY(want)
        assert len(orbit) == k or not got  # only extinction ends the runner
    assert forms == {0, 1, 2}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.integers(12, 40),
       margin=st.sampled_from([2, 16]), recheck=st.sampled_from([1, 3, 64]))
def test_every_yielded_grid_has_two_dead_rows_and_columns_at_each_edge(
        seed, side, margin, recheck):
    # `_step_grid`'s precondition, so births stay inside the grid: a grid
    # that `_orbit` yields has no live cell in rows or columns 0, 1, -2, -1
    rng = random.Random(seed)
    cells = dense_soup(rng, side, rng.randrange(64, side * side // 2 + 1))
    edges, grids = [0, 1, -2, -1], 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(life, "_DENSE_MARGIN", margin)
        patch.setattr(life, "_DENSE_RECHECK", recheck)
        for state, corner in islice(life._orbit(life._frame(cells)), 200):
            if corner is not None and state.ndim == 2:
                grids += 1
                assert not state[edges].any() and not state[:, edges].any()
    assert grids  # it starts on the grid


def extent(cells):
    x0, y0, x1, y1 = life.bounding_box(cells)
    return max(x1 - x0, y1 - y0)


def test_reframing_under_a_small_frame_limit(monkeypatch):
    # At a frame limit of 40 a frame runs few generations before it is
    # framed again, and states cross the limit both ways: gliders part and
    # meet, soups spread and settle.  Every state `_orbit` yields is in the
    # form its extent asks for, whatever the frame it came from.
    limit = 40
    monkeypatch.setattr(life, "_FRAME_LIMIT", limit)
    rng = random.Random(12)
    westward = frozenset((-x, y) for x, y in GLIDER)
    patterns = [
        GLIDER | life.translate(westward, -20, 0),  # parting
        life.translate(GLIDER, -50, 0) | westward,  # meeting
        BLOCK | life.translate(GLIDER, limit - 8, 0),
        BLOCK | life.translate(westward, limit + 20, 0),
        BLINKER | {(limit, 0), (limit + 1, 0)},
    ] + [soup for soup in (frozenset((rng.randrange(side), rng.randrange(side))
                                     for _ in range(rng.randrange(10, 300)))
                           for side in rng.choices(range(6, 46), k=20)) if soup]
    budget = 120
    for cells in patterns:
        states = [cells]
        while len(states) <= budget and states[-1]:
            states.append(TALLY(states[-1]))
        orbit = list(islice(life._orbit(life._frame(cells)), budget + 1))
        assert len(orbit) == len(states)
        for want, (state, corner) in zip(states, orbit):
            if corner is None:
                assert state == want and (not want or extent(want) + 2 >= limit)
            elif state.ndim == 2:  # the grid takes no heed of the frame limit
                ys, xs = np.nonzero(state)
                assert life._cells(xs, ys, corner) == want
            else:
                assert life._cells(*life._unpack(state), corner) == want
                assert extent(want) + 2 < limit
        for steps in (1, 7, 30, budget):
            assert life.run(cells, steps) == states[min(steps, len(states) - 1)]
        assert life.detect_fate(cells, budget) == detect_fate_reference(cells, budget)
