"""The quadtree leap `life.run` takes from its first packed state: checked
against `_orbit` alone on exact absolute cells, against the gun's closed
form, and its fallback counted in nodes made, with no timing."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import run_tally, translate

GUN = life.parse_rle(load_text("gosper_gun.rle"))
RPENTOMINO = life.parse_rle(load_text("rpentomino.rle"))
GLIDER = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})  # heads to +x, +y


def orbit_run(cells, steps):
    """The absolute cells at generation `steps`, from `_orbit` alone."""
    for _, (state, where) in zip(range(steps + 1), life._orbit(life._pattern(cells).frame)):
        pass
    return life._cells(*life._offsets(state, where))


def gun_population(t):
    """pop(t mod 30) + 5 * (t // 30): the gun emits a 5-cell glider every
    30 generations from t = 0 on."""
    return len(orbit_run(GUN, t % 30)) + 5 * (t // 30)


def soup(seed, n=100):
    """n cells drawn at density 0.35 from a square, as the bench draws its
    soups."""
    rng = random.Random(seed)
    side = int((n / 0.35) ** 0.5) + 1
    return frozenset((i % side, i // side) for i in rng.sample(range(side * side), n))


def record_leaps(patch):
    """Record each leap `run` tries as (steps, budget, nodes made, gave up)."""
    leaps = []
    leap = life._leap

    def recorded(keys, corner, steps, budget):
        made, tree = leap(keys, corner, steps, budget)
        leaps.append((steps, budget, made, tree is None))
        return made, tree

    patch.setattr(life, "_leap", recorded)
    return leaps


def test_the_gun_leaps_and_matches_the_orbit(monkeypatch):
    leaps = record_leaps(monkeypatch)
    for steps in (1000, 2000, 2001):
        assert life.run(GUN, steps) == orbit_run(GUN, steps)
    # the gun thins out onto packed keys at generation 886; at 1000 the
    # 114 generations left are worth fewer nodes than the leap needs
    (left, budget, made, gave_up), *rest = leaps
    assert (left, made, gave_up) == (114, budget, True)
    for steps, (left, budget, made, gave_up) in zip((2000, 2001), rest):
        assert left == steps - 886 and not gave_up
        assert 1000 < made < budget
    # the nodes and board generations of the leap to 2000, to the one
    assert rest[0][1:] == (4414, 3666, False)


@pytest.mark.parametrize("steps", [10 ** 4, 10 ** 5, 10 ** 5 + 17, 2 ** 20])
def test_the_gun_far_on_matches_the_closed_form(steps, monkeypatch):
    leaps = record_leaps(monkeypatch)
    result = life.run(GUN, steps)
    assert len(result) == gun_population(steps)
    # the gun itself stays where it is, the stream grows by a glider a period
    near = frozenset(c for c in result if max(c) < 36)
    assert near == frozenset(c for c in orbit_run(GUN, 120 + steps % 30) if max(c) < 36)
    # work grows with the digits of the steps, not with the steps
    [(left, budget, made, gave_up)] = leaps
    assert left == steps - 886 and not gave_up and made < 6000
    if steps == 10 ** 5:
        assert made == 5047  # the work of this leap, to the one


def test_chaos_gives_up_within_its_budget(monkeypatch):
    leaps = record_leaps(monkeypatch)
    # the R-pentomino reaches packed keys at 505, still in chaos; a soup at
    # 1000 once its debris has spread
    cases = ((RPENTOMINO, 600, 505), (RPENTOMINO, 2000, 505), (soup(2), 1000, 556))
    for cells, steps, t in cases:
        assert life.run(cells, steps) == orbit_run(cells, steps)
    assert len(leaps) == len(cases)
    for (left, budget, made, gave_up), (cells, steps, t) in zip(leaps, cases):
        assert left == steps - t
        assert gave_up and made == budget
    # a fifth of what the packed steps would cost
    assert [budget for _, budget, _, _ in leaps] == [353, 5568, 1209]


def test_a_leap_is_tried_once(monkeypatch):
    leaps = record_leaps(monkeypatch)
    # a domino dies on a board, so nothing leaps; the R-pentomino gives up
    # at its first packed state and steps on packed keys from there
    assert life.run({(0, 0), (1, 0)}, 1000) == frozenset()
    assert leaps == []
    life.run(RPENTOMINO, 3000)
    assert len(leaps) == 1 and leaps[0][3]


def test_a_thin_spread_gives_up_before_it_builds_a_leaf(monkeypatch):
    # 2000 lone cells 100 apart, one generation on: a leaf for each would
    # be more work than a fifth of one packed step
    leaps = record_leaps(monkeypatch)
    monkeypatch.setattr(life, "_Node", None)  # so no node can be made
    row = frozenset((100 * i, 0) for i in range(2000))
    assert life.run(row, 1) == frozenset()
    assert leaps == [(1, 26, 26, True)]


def test_the_leap_refuses_a_result_over_the_cell_limit(monkeypatch):
    built = []
    tree_frame = life._tree_frame
    monkeypatch.setattr(life, "_tree_frame", lambda *args: built.append(args) or tree_frame(*args))
    assert len(life.run(GUN, 2000)) == 384 and len(built) == 1
    monkeypatch.setattr(life, "CELL_LIMIT", 383)
    with pytest.raises(life.InvalidArgument, match="384 live cells at generation 2000, over 383"):
        life.run(GUN, 2000)
    # the gun 10**18 generations on: its population read from the tree
    monkeypatch.setattr(life, "CELL_LIMIT", 10 ** 7)
    want = gun_population(10 ** 18)
    assert want == 166_666_666_666_666_713
    leaps = record_leaps(monkeypatch)
    with pytest.raises(life.InvalidArgument, match=f"^{want} live cells at generation {10 ** 18}"):
        life.run(GUN, 10 ** 18)
    assert len(built) == 1
    # the leap's work, to the one, recorded before the refusal
    assert [(left, made, gave_up) for left, _, made, gave_up in leaps] == [
        (10 ** 18 - 886, 14965, False)]


def test_a_leap_to_extinction_returns_the_empty_frame(monkeypatch):
    # a domino on packed keys leaps 1000 generations: the tree it dies into
    # has no live leaf, and its frame is the frame of no cells
    monkeypatch.setattr(life, "_BOARD_SPARSITY", 0)
    monkeypatch.setattr(life, "_leap_budget", lambda steps, population: 10 ** 7)
    leaps = record_leaps(monkeypatch)
    keys, where = life.run({(0, 0), (1, 0)}, 1000).frame
    assert [(left, gave_up) for left, _, _, gave_up in leaps] == [(1000, False)]
    assert keys.dtype == np.int64 and keys.size == 0 and where == (0, 0, 1)


@pytest.mark.parametrize("offset", [1 << 40, -(1 << 40), 10 ** 20, -(10 ** 20)])
def test_the_leap_keeps_position(offset):
    moved = translate(GUN, offset, -offset)
    assert life.run(moved, 2000) == translate(life.run(GUN, 2000), offset, -offset)


def test_gliders_leaping_apart_past_int64(monkeypatch):
    # two gliders from one packed state, leaping 2**64 + 3 generations
    # apart: 2**63 cells wide, so the frame holds Python ints
    monkeypatch.setattr(life, "_BOARD_SPARSITY", 0)
    back = frozenset((-x - 10, -y - 10) for x, y in GLIDER)
    steps = 2 ** 64 + 3
    far = steps // 4
    want = translate(orbit_run(GLIDER, 3), far, far) | translate(orbit_run(back, 3), -far, -far)
    result = life.run(GLIDER | back, steps)
    assert result == want
    keys, (_, _, width) = result.frame
    assert keys.dtype == object and max(width - 1, keys[-1] // width) > 2 ** 63


@pytest.mark.parametrize("apart", [2 ** 30 - 12, 2 ** 40])
def test_the_leap_takes_only_int64_keys(apart, monkeypatch):
    # two gliders heading apart: from 2**30 - 12 they start on int64 keys
    # and leap, from 2**40 they stay on Python-int keys and never leap
    cells = GLIDER | frozenset((-x - apart, -y) for x, y in GLIDER)
    tried = []
    leap = life._leap
    monkeypatch.setattr(life, "_leap", lambda *args: tried.append(args[0].dtype) or leap(*args))
    assert life.run(cells, 300) == orbit_run(cells, 300) == run_tally(cells, 300)
    assert life.run(cells, 2000) == orbit_run(cells, 2000)
    assert tried == ([np.int64] * 2 if apart < life._FRAME_LIMIT else [])


steps_near_powers = st.one_of(
    st.integers(1, 12).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1])),
    st.integers(1, 700))
offsets = st.sampled_from([0, 1 << 40, -(1 << 40), 10 ** 20, -(10 ** 20)])


@given(st.frozensets(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1,
                     max_size=40),
       steps_near_powers, offsets, offsets, st.integers(-9, 9))
@settings(max_examples=120, deadline=None)
def test_leap_matches_the_orbit_on_random_patterns(cells, steps, dx, dy, jitter):
    cells = translate(cells, dx + jitter, dy - jitter)
    want = orbit_run(cells, steps)
    with pytest.MonkeyPatch.context() as patch:
        # every state packs, and no leap gives up: `run` leaps from t = 0
        patch.setattr(life, "_BOARD_SPARSITY", 0)
        patch.setattr(life, "_leap_budget", lambda steps, population: 10 ** 7)
        leaps = record_leaps(patch)
        got = life.run(cells, steps)
    assert got == want
    assert [(left, gave_up) for left, _, _, gave_up in leaps] == [(steps, False)]
