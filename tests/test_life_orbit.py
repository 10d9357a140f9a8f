"""The generation runner `life._orbit` and `life.detect_fate` on top of
it, checked against the tally and the frozenset oracle: board and packed
states, far offsets, states too wide for int64 keys, re-framing,
recurrences across a change of form or stride, receding pairs, and the
empty set."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import detect_fate_reference, run_tally, step_tally, translate

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


def corpus(name):
    return life.parse_rle(load_text(f"{name}.rle"))


def form(state, where):
    """The form of a state `_orbit` yields: its board's stride, "packed"
    for int64 keys or "wide" for Python-int keys."""
    if isinstance(state, int):
        return where[2]
    return "packed" if state.dtype == np.int64 else "wide"


def forms(cells, n):
    """The forms of the first n states of `_orbit` from `cells`."""
    return [form(*state) for _, state in zip(range(n), life._orbit(life._frame(cells)))]


def on_board(cells):
    return isinstance(forms(cells, 1)[0], int)


def state_cells(state, where):
    """The cell set of a state `_orbit` yields, in any form."""
    return life._cells(*life._offsets(state, where))


def transform(cells, a, b, c, d, ox=0, oy=0):
    return frozenset((a * x + b * y + ox, c * x + d * y + oy) for x, y in cells)


def count_calls(monkeypatch, name):
    """Record the first argument of each call of `life.<name>`."""
    calls = []
    real = getattr(life, name)

    def wrapped(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(life, name, wrapped)
    return calls


# pairs that recede: a spaceship keeps its population and height as it
# leaves a still life or an oscillator, so states of earlier boards wait in
# `detect_fate`'s memo while the board widens again and again; by 1100
# generations each pair has left its board for packed keys
RECEDING = {
    "lwss_from_block": frozenset(corpus("lwss")) | translate(BLOCK, 12, 1),
    "glider_from_blinker": BLINKER | transform(GLIDER, -1, 0, 0, -1, -4, -4),
}


@pytest.mark.parametrize("name, budget", [
    pytest.param(name, budget, id=f"{name}-{budget}")
    for names, budgets in ((CORPUS, (1, 30, 600)), (RECEDING, (300, 1100)))
    for name in names for budget in budgets])
def test_corpus_under_symmetries_matches_oracle(name, budget):
    cells = RECEDING[name] if name in RECEDING else corpus(name)
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
    cells = BLOCK | translate(BLOCK, 2 ** 31, 0)
    packed = count_calls(monkeypatch, "_step_packed")
    report = life.detect_fate(cells, 10)
    assert report == life.FateReport("still_life", t=0, period=1)
    assert report == detect_fate_reference(cells, 10)
    assert packed and all(keys.dtype == object for keys in packed)


def test_wide_state_packs_again_once_it_shrinks(monkeypatch):
    # the far domino dies in one generation, leaving a blinker that packs
    # into a board
    cells = BLINKER | {(2 ** 31, 0), (2 ** 31 + 1, 0)}
    packed = count_calls(monkeypatch, "_step_packed")
    boards = count_calls(monkeypatch, "_step_board")
    report = life.detect_fate(cells, 10)
    assert report == life.FateReport("oscillator", t=1, period=2)
    assert report == detect_fate_reference(cells, 10)
    assert [keys.dtype for keys in packed] == [object] and boards


@pytest.mark.parametrize("ox", [life._FRAME_LIMIT - 8, -life._FRAME_LIMIT - 4])
def test_glider_across_the_packing_limit_matches_oracle(ox):
    # a glider heading to +x leaves a block from just inside the packed
    # extent, or approaches it from just outside, so the runner switches
    # representation part-way
    cells = BLOCK | translate(GLIDER, ox, 0)
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


@pytest.mark.parametrize("cells, want", [
    (BLINKER | translate(BLINKER, 2 ** 40, 0), life.FateReport("oscillator", t=0, period=2)),
    (GLIDER | translate(GLIDER, 2 ** 40, 0),
     life.FateReport("translator", t=0, period=4, dx=1, dy=1)),
], ids=["blinkers", "gliders"])
def test_wide_states_recur_on_python_int_keys(cells, want, monkeypatch):
    # two copies 2**40 apart stay too wide for int64 keys, so every state
    # is on Python-int keys, and the memo must key them by value
    packed = count_calls(monkeypatch, "_step_packed")
    report = life.detect_fate(cells, 20)
    assert report == want == detect_fate_reference(cells, 20)
    assert packed and all(keys.dtype == object for keys in packed)


cluster = st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                        max_size=12)


# gliders heading apart from inside the int64 limit, and a glider leaving
# a block past it
WESTWARD = frozenset((5 - x, y) for x, y in GLIDER)  # heads to -x, +y


@given(cluster, cluster, st.sampled_from([2 ** 30 - 3, 2 ** 31, 2 ** 40, 2 ** 70, 10 ** 20]),
       st.integers(-3, 3), st.integers(1, 300))
@example(WESTWARD, GLIDER, 2 ** 30 - 3, 0, 300)
@example(WESTWARD, GLIDER, 2 ** 30 - 3, -3, 41)
@example(BLOCK, GLIDER, 2 ** 40, 2, 300)
@settings(max_examples=40, deadline=None)
def test_wide_frames_match_the_tally(near, far, dx, dy, steps):
    # a second cluster far off: too wide for int64 keys from the start, or
    # crossing that limit part-way as the clusters spread, move or die
    cells = near | translate(far, dx, dy)
    assert life.run(cells, steps) == run_tally(cells, steps)
    assert life.detect_fate(cells, steps) == detect_fate_reference(cells, steps)


def dense_soup(rng, side, n):
    """n distinct cells in a side x side box."""
    return frozenset(divmod(k, side) for k in rng.sample(range(side * side), n))


def near_threshold_soup(rng):
    """A soup just dense enough for a board under the module's constants:
    it thins out, so the runner leaves the board, often while it recurs."""
    side = rng.randrange(30, 71)
    m = life._BOARD_MARGIN
    area = (side + 2 * m + 7) // 8 * 8 * (side + 2 * m)
    bound = -(-area // life._BOARD_SPARSITY) - life._BOARD_FLOOR
    return dense_soup(rng, side, min(side * side // 2, max(1, bound) + rng.randrange(6)))


def test_dense_soups_match_oracle():
    rng = random.Random(13)
    for _ in range(12):
        side = rng.randrange(10, 31)
        cells = dense_soup(rng, side, rng.randrange(64, min(400, side * side) + 1))
        assert on_board(cells)
        assert life.detect_fate(cells, 200) == detect_fate_reference(cells, 200)


def thin_boards(patch, margin):
    """Boards of `margin` dead cells that hold 64 bits per live cell, with
    no allowance for small patterns, so that soups leave them as they
    thin out."""
    patch.setattr(life, "_BOARD_MARGIN", margin)
    patch.setattr(life, "_BOARD_SPARSITY", 64)
    patch.setattr(life, "_BOARD_FLOOR", 0)


@pytest.mark.parametrize("margin", [16, 7])
def test_recurrence_across_the_switch_from_board_to_keys(margin, monkeypatch):
    # A state first seen on a board recurs after the runner has left it for
    # packed keys, or after a border contact has framed it on another
    # board: either way it is found.
    thin_boards(monkeypatch, margin)
    rng = random.Random(18)
    for _ in range(200):
        cells = near_threshold_soup(rng)
        assert on_board(cells)
        assert life.detect_fate(cells, 400) == detect_fate_reference(cells, 400)


def test_recurrence_across_a_stride_change(monkeypatch):
    # two vertical blinkers 4 apart fit a board of stride 7 with one dead
    # cell around them; their horizontal phase reaches its border and is
    # framed on a board of stride 9, and the vertical phase after it on
    # one of stride 7 again, where it repeats the first state
    monkeypatch.setattr(life, "_BOARD_MARGIN", 1)
    cells = frozenset((x, y) for x in (0, 4) for y in (-1, 0, 1))
    assert forms(cells, 3) == [7, 9, 7]
    report = life.detect_fate(cells, 10)
    assert report == detect_fate_reference(cells, 10) == \
        life.FateReport("oscillator", t=0, period=2)


def test_recurrence_across_the_switch_from_a_board_to_packed_keys(monkeypatch):
    # a lattice of dots, all dead at generation 1, fills the board between
    # two gliders that head the same way; the pair alone then reaches its
    # border, and a board of its frame would hold too few cells for it, so
    # it goes on packed keys
    thin_boards(monkeypatch, 1)
    monkeypatch.setattr(life, "_BOARD_SPARSITY", 8)
    lattice = frozenset((10 + 2 * i, 2 * j) for i in range(6) for j in range(6))
    pair = frozenset((x0 - x, y) for x0 in (3, 26) for x, y in GLIDER)  # to -x, +y
    cells = lattice | pair
    seen = forms(cells, 6)
    assert isinstance(seen[1], int) and seen[5] == "packed"
    report = life.detect_fate(cells, 20)
    assert report == detect_fate_reference(cells, 20) == \
        life.FateReport("translator", t=1, period=4, dx=-1, dy=1)


def test_recurrence_across_the_switch_from_packed_keys_to_a_board(monkeypatch):
    # a far dot makes the first frame wide and thin, so it packs, for two
    # generations under a frame limit of 64; by then the dot is dead, and
    # the blinker is framed on a board, in each phase one as wide as it is
    thin_boards(monkeypatch, 1)
    monkeypatch.setattr(life, "_FRAME_LIMIT", 64)
    cells = BLINKER | {(58, 0)}
    assert forms(cells, 4) == ["packed", "packed", 3, 5]
    report = life.detect_fate(cells, 10)
    assert report == detect_fate_reference(cells, 10) == \
        life.FateReport("oscillator", t=1, period=2)


def test_a_receding_spaceship_keys_each_state_by_shape_at_most_twice(monkeypatch):
    # The LWSS heads away from the block, so the board's stride grows every
    # 32 generations while (population, height) repeats.  A state is keyed
    # by its shape when it comes, and again, at most once, when a later
    # state of its size comes after a change of form.
    cells, budget = RECEDING["lwss_from_block"], 1024
    strides = forms(cells, 64)
    assert strides[0] < strides[-1]
    shapes = count_calls(monkeypatch, "_shape")
    report = life.detect_fate(cells, budget)
    assert report == detect_fate_reference(cells, budget)
    assert len(shapes) <= 2 * (budget + 1)


def test_boards_with_one_key_need_not_be_translates():
    # on a board of stride 8, cells (6, 0) and (1, 1) are bits 6 and 9, and
    # cells (1, 0) and (4, 0) bits 1 and 4: both shift down to one key
    stride, where = 8, (0, 0, 8)
    wrapped, flat, key = 1 << 6 | 1 << 9, 1 << 1 | 1 << 4, 0b1001
    assert wrapped >> 6 == flat >> 1 == key
    assert not life._translate_of(key, (0, 6, where), (1, 1, where))
    assert not life._translate_of(key, (0, 1, where), (1, 6, where))
    # the flat pair moved by (2, 3) is its translate
    assert life._translate_of(key, (0, 1, where), (1, 3 + 3 * stride, where))


def test_dots_on_the_grid_die_at_one():
    # on a board, whose bits are a grid of cells
    dots = frozenset((3 * i, 3 * j) for i in range(16) for j in range(16))
    assert on_board(dots)
    assert life.detect_fate(dots, 50) == detect_fate_reference(dots, 50) == \
        life.FateReport("extinct", t=1)


@pytest.mark.parametrize("margin", [64, 7])
def test_orbit_from_dense_starts_matches_the_tally(margin, monkeypatch):
    # every state, on a board, as keys, and the empty one at extinction
    monkeypatch.setattr(life, "_BOARD_MARGIN", margin)
    rng = random.Random(15)
    soups = [(dense_soup(rng, 20, 200), False), (dense_soup(rng, 12, 100), False)]
    with pytest.MonkeyPatch.context() as patch:
        thin_boards(patch, margin)
        soups += [(near_threshold_soup(rng), True) for _ in range(6)]
    # and blinkers spread too thin for a board, on packed keys throughout
    soups.append((frozenset((100 * i, y) for i in range(30) for y in (0, 1, 2)), False))
    seen, k = set(), 150
    for cells, thin in soups:
        with pytest.MonkeyPatch.context() as patch:
            if thin:
                thin_boards(patch, margin)
            orbit = list(islice(life._orbit(life._frame(cells)), k))
        want = cells
        for state, where in orbit:
            got = state_cells(state, where)
            seen.add(type(form(state, where)))
            assert got == want
            want = step_tally(want)
        assert len(orbit) == k or not got  # only extinction ends the runner
    assert seen == {int, str}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), side=st.integers(12, 40),
       margin=st.sampled_from([1, 2, 16]))
def test_every_yielded_board_has_a_dead_border(seed, side, margin):
    # `_step_board`'s precondition, so no neighbour wraps into another row
    # and no birth falls below row 0: a board that `_orbit` yields has no
    # live cell in column 0 or stride - 1, or in row 0
    rng = random.Random(seed)
    cells = dense_soup(rng, side, rng.randrange(1, side * side // 2 + 1))
    boards = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(life, "_BOARD_MARGIN", margin)
        for state, where in islice(life._orbit(life._frame(cells)), 200):
            if isinstance(form(state, where), int) and state:
                boards += 1
                xs, ys, _ = life._offsets(state, where)
                assert xs.min() >= 1 and xs.max() <= where[2] - 2 and ys.min() >= 1
    assert boards  # it starts on a board


def extent(cells):
    x0, y0, x1, y1 = life.bounding_box(cells)
    return max(x1 - x0, y1 - y0)


def test_reframing_under_a_small_frame_limit(monkeypatch):
    # At a frame limit of 40 a frame runs few generations before it is
    # framed again, and states cross the limit both ways: gliders part and
    # meet, soups spread and settle.  Every state `_orbit` yields is in the
    # form its extent asks for, whatever the frame it came from.  Most of
    # them go on boards, so the patterns run again with no board at all,
    # where their states go on packed keys, int64 or Python ints, and a
    # state on Python-int keys is framed again after every generation.
    limit = 40
    monkeypatch.setattr(life, "_FRAME_LIMIT", limit)
    rng = random.Random(12)
    westward = frozenset((-x, y) for x, y in GLIDER)
    patterns = [
        GLIDER | translate(westward, -20, 0),  # parting
        translate(GLIDER, -50, 0) | westward,  # meeting
        BLOCK | translate(GLIDER, limit - 8, 0),
        BLOCK | translate(westward, limit + 20, 0),
        BLINKER | {(limit, 0), (limit + 1, 0)},
    ] + [soup for soup in (frozenset((rng.randrange(side), rng.randrange(side))
                                     for _ in range(rng.randrange(10, 300)))
                           for side in rng.choices(range(6, 46), k=20)) if soup]
    budget = 120
    histories = []
    for cells in patterns:
        states = [cells]
        while len(states) <= budget and states[-1]:
            states.append(step_tally(states[-1]))
        histories.append(states)
    for sparsity in (life._BOARD_SPARSITY, 0):
        monkeypatch.setattr(life, "_BOARD_SPARSITY", sparsity)
        for cells, states in zip(patterns, histories):
            orbit = list(islice(life._orbit(life._frame(cells)), budget + 1))
            assert len(orbit) == len(states)
            for want, (state, where) in zip(states, orbit):
                assert state_cells(state, where) == want
                # a board takes no heed of the frame limit
                if form(state, where) == "packed":
                    assert extent(want) + 2 < limit
                elif form(state, where) == "wide":
                    assert extent(want) + 2 >= limit
                    assert where[2] == 4 * (2 * extent(want) + 4)  # its own frame's stride
            for steps in (1, 7, 30, budget):
                assert life.run(cells, steps) == states[min(steps, len(states) - 1)]
            assert life.detect_fate(cells, budget) == detect_fate_reference(cells, budget)
