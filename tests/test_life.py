import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import (detect_fate_reference, life_run_dense, life_step_dense,
                      step_tally, translate)

GLIDER = frozenset({(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)})
BLOCK = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
BLINKER = frozenset({(0, -1), (0, 0), (0, 1)})

cells_strategy = st.frozensets(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=60)


def test_step_block_is_fixed():
    assert life.step(BLOCK) == BLOCK


def test_step_lone_cell_dies():
    assert life.step(frozenset({(0, 0)})) == frozenset()


def test_step_blinker_flips():
    assert life.step(BLINKER) == frozenset({(-1, 0), (0, 0), (1, 0)})


def test_run_glider_translates_diagonally():
    assert life.run(GLIDER, 4) == translate(GLIDER, 1, 1)


def test_run_zero_steps_is_identity():
    assert life.run(GLIDER, 0) == GLIDER


def test_run_blinker_period_two():
    state = BLINKER
    for _ in range(100):
        state = life.run(state, 2)
        assert state == BLINKER


def test_population():
    assert len(frozenset()) == 0
    assert len(GLIDER) == 5
    assert len(BLOCK) == 4


@given(cells_strategy)
@settings(max_examples=60)
def test_step_matches_dense_oracle(cells):
    assert life.step(cells) == life_step_dense(cells)


@given(cells_strategy, st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
@settings(max_examples=40)
def test_step_commutes_with_translation(cells, dx, dy):
    moved = translate(cells, dx, dy)
    assert life.step(moved) == translate(life.step(cells), dx, dy)


SYMMETRIES = [
    lambda x, y: (x, y),
    lambda x, y: (-y, x),
    lambda x, y: (-x, -y),
    lambda x, y: (y, -x),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, -x),
]


@given(cells_strategy)
@settings(max_examples=30)
def test_step_commutes_with_square_symmetries(cells):
    stepped = life.step(cells)
    for sym in SYMMETRIES:
        mapped = frozenset(sym(x, y) for x, y in cells)
        assert life.step(mapped) == frozenset(sym(x, y) for x, y in stepped)


@given(cells_strategy)
@settings(max_examples=40)
def test_step_speed_limit(cells):
    before = life.bounding_box(cells)
    after = life.bounding_box(life.step(cells))
    if before and after:
        assert after[0] >= before[0] - 1 and after[1] >= before[1] - 1
        assert after[2] <= before[2] + 1 and after[3] <= before[3] + 1


def test_packed_and_tally_paths_agree():
    import random
    rng = random.Random(5)
    soup = frozenset((rng.randrange(40), rng.randrange(40)) for _ in range(600))
    assert step_tally(soup) == life.step(soup)
    assert life.run(soup, 8) == life_run_dense(soup, 8)


def test_detect_fate_examples():
    assert life.detect_fate(frozenset(), 5) == life.FateReport("extinct", t=0)
    blinker = life.detect_fate(BLINKER, 10)
    assert (blinker.verdict, blinker.t, blinker.period) == ("oscillator", 0, 2)
    glider = life.detect_fate(GLIDER, 10)
    assert (glider.verdict, glider.t, glider.period) == ("translator", 0, 4)
    assert (glider.dx, glider.dy) == (1, 1)


def test_detect_fate_still_life_and_death():
    assert life.detect_fate(BLOCK, 5).verdict == "still_life"
    dies = life.detect_fate(frozenset({(0, 0), (1, 1)}), 5)
    assert dies.verdict == "extinct" and dies.t == 1


def test_detect_fate_unknown_on_tiny_budget():
    # the r-pentomino takes ~1100 generations to settle
    rp = life.parse_rle(load_text("rpentomino.rle"))
    report = life.detect_fate(rp, 50)
    assert report.verdict == "unknown" and report.budget == 50


def test_detect_fate_preperiod():
    # a tub plus a tail that burns off leaves the tub oscillating in place
    seed = frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (3, 1)})
    report = life.detect_fate(seed, 50)
    assert report == detect_fate_reference(seed, 50)
    assert report == life.FateReport("still_life", t=2, period=1)


GUN_PROPERTY_RANGE = range(60, 301)


def test_gosper_gun_emits_five_cells_per_30_generations():
    gun = life.parse_rle(load_text("gosper_gun.rle"))
    assert len(gun) == 36
    pops = []
    state = gun
    for _ in range(331):
        pops.append(len(state))
        state = life.step(state)
    for t in GUN_PROPERTY_RANGE:
        assert pops[t + 30] - pops[t] == 5, f"t={t}"


def test_gosper_gun_difference_region_is_a_glider():
    gun = life.parse_rle(load_text("gosper_gun.rle"))
    s60 = life.run(gun, 60)
    s90 = life.run(gun, 90)
    diff = s90 - s60
    assert len(diff) == 5
    fate = life.detect_fate(diff, 10)
    assert (fate.verdict, fate.period) == ("translator", 4)


# ---------------------------------------------------------------------------
# pattern I/O

def test_parse_rle_glider():
    cells = life.parse_rle("x = 3, y = 3\nbob$2bo$3o!")
    # same glider as GLIDER up to the diagonal flip of the two axes
    assert cells == frozenset((y, x) for x, y in GLIDER)
    assert life.run(cells, 4) == translate(cells, 1, 1)


def test_parse_rle_single_cell():
    assert life.parse_rle("x = 1, y = 1\no!") == frozenset({(0, 0)})


def test_parse_rle_bad_symbol_position():
    with pytest.raises(life.RleParseError) as err:
        life.parse_rle("x = 2, y = 1\noq!")
    assert err.value.line == 2 and err.value.column == 2


def test_parse_rle_cell_cap(monkeypatch):
    monkeypatch.setattr(life, "CELL_LIMIT", 10)
    assert len(life.parse_rle("x = 6, y = 2\n4o$6o!")) == 10
    with pytest.raises(life.RleParseError) as err:
        life.parse_rle("x = 6, y = 2\n5o$\n6o!")
    assert err.value.line == 3 and err.value.column == 2
    assert isinstance(err.value, ValueError)


def test_parse_rle_run_count_cap():
    top = "9" * life.RUN_COUNT_DIGITS
    assert life.parse_rle(f"x = 1, y = 1\n{top}bo!") == frozenset({(int(top), 0)})
    wide = frozenset({(0, 0), (2 ** 64 - 1, 0)})
    assert life.parse_rle(life.write_rle(wide)) == wide
    with pytest.raises(life.RleParseError) as err:
        life.parse_rle(f"x = 1, y = 1\n\nb{top}0$o!")
    assert err.value.line == 3 and err.value.column == life.RUN_COUNT_DIGITS + 2


def test_parse_rle_refuses_a_100000_digit_count():
    with pytest.raises(life.RleParseError, match="run count longer than"):
        life.parse_rle("x = 1, y = 1\n" + "1" * 10 ** 5 + "bo!")


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_parse_rle_counts_are_ascii_digits(digit):
    with pytest.raises(life.RleParseError) as err:
        life.parse_rle(f"x = 3, y = 1\n{digit}o!")
    assert err.value.line == 2 and err.value.column == 1


def test_parse_rle_rejects_other_rules():
    with pytest.raises(life.UnsupportedRule):
        life.parse_rle("x = 1, y = 1, rule = B36/S23\no!")


def test_parse_rle_accepts_comments_and_case():
    text = "#N glider\n# found 1970\nx = 3, y = 3, rule = b3/s23\nbob$2bo$3o!"
    assert len(life.parse_rle(text)) == 5


def test_parse_rle_missing_terminator():
    with pytest.raises(life.RleParseError):
        life.parse_rle("x = 1, y = 1\no")


@pytest.mark.parametrize("text,line", [("", 1), ("#C only a comment\n\n", 2)])
def test_parse_rle_without_header(text, line):
    with pytest.raises(life.RleParseError, match="no RLE header found") as err:
        life.parse_rle(text)
    assert err.value.line == line


def test_parse_rle_skips_whitespace_inside_body_lines():
    assert life.parse_rle("x = 3, y = 2\n2b o $\t3o !") == life.parse_rle(
        "x = 3, y = 2\n2bo$3o!")


def test_write_rle_golden():
    cells = life.parse_rle(load_text("glider.rle"))
    assert life.write_rle(cells) == "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n"


def test_write_rle_empty():
    assert life.write_rle(frozenset()) == "x = 0, y = 0, rule = B3/S23\n!\n"
    assert life.parse_rle(life.write_rle(frozenset())) == frozenset()


FIXTURE_PATTERNS = [
    "glider.rle", "block.rle", "blinker.rle", "toad.rle", "beacon.rle",
    "beehive.rle", "loaf.rle", "boat.rle", "tub.rle", "lwss.rle",
    "pulsar.rle", "rpentomino.rle", "gosper_gun.rle",
]


@pytest.mark.parametrize("name", FIXTURE_PATTERNS)
def test_fixture_round_trip(name):
    text = load_text(name)
    cells = life.parse_rle(text)
    written = life.write_rle(cells)
    assert life.parse_rle(written) == cells
    # canonical fixtures are stored in writer form, so this is byte-exact
    assert written == text
    assert all(len(line) <= life.RLE_LINE_LIMIT for line in written.splitlines()[1:])


@given(cells_strategy)
@settings(max_examples=60)
def test_rle_round_trip_random_patterns(cells):
    canon, _ = life.canonical(cells)
    assert life.parse_rle(life.write_rle(cells)) == canon


def test_write_rle_wraps_long_lines():
    cells = frozenset((2 * i, 0) for i in range(200))
    text = life.write_rle(cells)
    assert life.parse_rle(text) == cells
    assert all(len(line) <= life.RLE_LINE_LIMIT for line in text.splitlines()[1:])


def test_write_rle_puts_a_run_count_longer_than_a_line_on_a_line_of_its_own():
    # a gap of 10**70 - 1 dead cells is a token of 71 characters, more than
    # a line holds; the cells on either side of it take lines of their own
    text = life.write_rle({(0, 0), (10 ** 70, 0)})
    assert text.splitlines() == [f"x = {10 ** 70 + 1}, y = 1, rule = B3/S23",
                                 "o", "9" * 70 + "b", "o!"]
    # a token that just fits joins the line before it
    text = life.write_rle({(0, 0), (10 ** 67, 0)})
    assert text.splitlines()[1:] == ["o" + "9" * 67 + "b", "o!"]
    with pytest.raises(life.RleParseError,
                       match="run count longer than 20 digits at line 3, column 21"):
        life.parse_rle(life.write_rle({(0, 0), (10 ** 70, 0)}))


def test_write_rle_refuses_a_side_past_the_integer_digit_limit():
    # a side of 10**5000 + 1 cells has more digits than Python writes an
    # int with: a one-line InvalidArgument, not a bare ValueError
    limit = sys.get_int_max_str_digits()
    for cells in ({(0, 0), (10 ** 5000, 0)}, {(0, 0), (0, 10 ** 5000)}):
        with pytest.raises(life.InvalidArgument, match=f"^a side has more than {limit} digits$"):
            life.write_rle(cells)
    # a side of as many digits as the limit is written
    text = life.write_rle({(0, 0), (0, 10 ** (limit - 1))})
    assert text.splitlines()[0] == f"x = 1, y = {10 ** (limit - 1) + 1}, rule = B3/S23"


def test_parse_cells_format():
    cells = life.parse_cells(load_text("glider.cells"))
    assert cells == life.parse_rle(load_text("glider.rle"))
    with pytest.raises(life.PatternParseError):
        life.parse_cells(".X.\n")


def test_clown_seed_reproduction():
    """Optional: only runs when a maintainer has transcribed the seed."""
    try:
        seed_text = load_text("clown_seed.rle")
    except FileNotFoundError:
        pytest.skip("clown_seed.rle not transcribed")
    seed = life.parse_rle(seed_text)
    result = life.run(seed, 110)
    assert len(result) > 0


# ---------------------------------------------------------------------------
# Pattern: a frame that stands in for its frozenset

# corners far out, so frames hold int64 offsets from Python-int corners, or
# Python-int offsets once two cells are 2**64 - 1 apart
FAR = [0, 2 ** 40, -2 ** 40, 10 ** 20, -10 ** 20]
APART = [(2 ** 64 - 1, 0), (0, 2 ** 64 - 1), (2 ** 64 - 1, 1 - 2 ** 64)]


@st.composite
def far_cells(draw):
    """A small pattern near a far corner, perhaps with a pair of cells
    2**64 - 1 apart."""
    bx, by = draw(st.sampled_from(FAR)), draw(st.sampled_from(FAR))
    near = draw(st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              max_size=8))
    cells = {(bx + x, by + y) for x, y in near}
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(FAR)), draw(st.sampled_from(FAR))
        dx, dy = draw(st.sampled_from(APART))
        cells |= {(x, y), (x + dx, y + dy)}
    return frozenset(cells)


@st.composite
def far_pairs(draw):
    """Two patterns: the second equal to the first, a subset of it or any."""
    cells = draw(far_cells())
    other = draw(st.one_of(st.just(cells), st.sets(st.sampled_from(sorted(cells)))
                           .map(frozenset) if cells else st.just(cells), far_cells()))
    return cells, other


@given(far_pairs())
@example((frozenset(), frozenset()))
@example((frozenset({(0, 0), (2 ** 64 - 1, 0)}), frozenset({(0, 0)})))
@settings(max_examples=150)
def test_pattern_stands_in_for_its_frozenset(pair):
    cells, other = pair
    pattern, twin = life.run(cells, 0), life.run(other, 0)
    assert isinstance(pattern, life.Pattern) and isinstance(twin, life.Pattern)
    assert len(pattern) == len(cells) and bool(pattern) == bool(cells)
    for cell in cells | other | {(1, 1), (10 ** 20, 2 ** 64)}:
        assert (cell in pattern) == (cell in cells)
    for a, b in ((pattern, cells), (cells, pattern), (pattern, pattern)):
        assert a == b and not a != b
    for a, b in ((pattern, other), (other, pattern), (pattern, twin), (twin, pattern)):
        assert (a == b) == (cells == other) and (a != b) == (cells != other)
    assert hash(pattern) == hash(cells)
    assert {cells: 1}[pattern] == {pattern: 1}[cells] == 1
    assert pattern in {cells} and cells in {pattern}
    for op in (operator.sub, operator.or_, operator.and_, operator.xor):
        for a, b, want in ((pattern, other, op(cells, other)),
                           (other, pattern, op(other, cells)),
                           (pattern, twin, op(cells, other))):
            got = op(a, b)
            assert isinstance(got, frozenset) and got == want
    assert (pattern <= other) == (cells <= other) == (pattern <= twin)
    assert (other <= pattern) == (other <= cells) == (twin <= pattern)
    # the box and the normal form are read from the frame
    if cells:
        xs, ys = [x for x, _ in cells], [y for _, y in cells]
        x0, y0 = min(xs), min(ys)
        assert life.bounding_box(pattern) == (x0, y0, max(xs), max(ys))
        assert life.canonical(pattern) == (translate(cells, -x0, -y0), (x0, y0))
    else:
        assert life.bounding_box(pattern) is None
        assert life.canonical(pattern) == (frozenset(), (0, 0))


def test_pattern_pipeline_builds_no_cell_set(monkeypatch):
    # the soup steps on the dense grid, the glider and the gun as packed keys
    soup = frozenset((x, y) for x in range(40) for y in range(40) if (x * 7 + y * 13) % 5 < 2)
    texts = [load_text("glider.rle"), load_text("gosper_gun.rle"), life.write_rle(soup)]
    want = [life.write_rle(life_run_dense(life.parse_rle(text), 30)) for text in texts]
    monkeypatch.setattr(life, "_cells", lambda *args: pytest.fail("a cell set was built"))
    for text, rle in zip(texts, want):
        pattern = life.run(life.parse_rle(text), 30)
        assert life.write_rle(pattern) == rle
        assert life.raster(pattern) == life.raster(life.parse_rle(rle))


# ---------------------------------------------------------------------------
# The frame: the sorted keys y * width + x of the cells in their box

def assert_framed(pattern):
    """The frame invariant of a Pattern and of its normal form: the keys
    strictly increase; the box is tight, a cell in its row 0, its column 0
    and its last column; the keys are int64 exactly when width * height is
    below 2**62, else Python ints; and, where every run count has at most
    20 digits, the frame reads back from its RLE."""
    for p in (pattern, life.canonical(pattern)[0]):
        keys, (_, _, width) = p.frame
        if not len(keys):
            assert p.frame[1] == (0, 0, 1) and keys.dtype == np.int64
            continue
        ys, xs = keys // width, keys % width
        height = int(ys[-1]) + 1
        values = keys.tolist()
        assert all(a < b for a, b in zip(values, values[1:]))
        assert ys[0] == 0 and xs.min() == 0 and xs.max() == width - 1
        assert keys.dtype == (np.int64 if width * height < 2 ** 62 else object)
        assert len(p) == len(values)
        if max(width, height) < 10 ** 20:
            back, where = life.parse_rle(life.write_rle(p)).frame
            assert back.tolist() == values and where == (0, 0, width)


@st.composite
def rle_bodies(draw):
    """RLE text of a few runs: counts of none to 20 digits ('o' runs short,
    so the cells stay few), '0$' and '0o', and whitespace inside counts."""
    tokens = []
    for _ in range(draw(st.integers(0, 12))):
        tag = draw(st.sampled_from("bo$"))
        sizes = [0, 1, 1, 2] if tag == "o" else [0, 1, 1, 2, 3, 19, 20]
        count = str(draw(st.integers(0, 10 ** draw(st.sampled_from(sizes)) - 1)))
        if draw(st.booleans()):
            count = "" if count == "1" else count
        if len(count) > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, len(count) - 1))
            count = count[:cut] + draw(st.sampled_from([" ", "\n", "\t "])) + count[cut:]
        tokens.append(count + tag)
    return "x = 0, y = 0\n" + "".join(tokens) + "!\n"


@given(rle_bodies())
@example("x = 0, y = 0\n3o0$b0o$99999999999999999999b2o0$o!")
@example("x = 0, y = 0\n12345678901234567890$o0$2o0o12345 678901234567890bo!")
@settings(max_examples=300, deadline=None)
def test_frames_read_from_rle_keep_the_invariant(text):
    assert_framed(life.parse_rle(text))


@given(st.lists(st.text(".O", max_size=12), max_size=10))
@settings(max_examples=100, deadline=None)
def test_frames_read_from_cells_keep_the_invariant(rows):
    assert_framed(life.parse_cells("\n".join(rows)))


@given(st.one_of(far_cells(), cells_strategy))
@example(frozenset({(-2 ** 62, 0), (2 ** 62, 0)}))
@example(frozenset({(0, 0), (2 ** 31 - 1, 2 ** 31 - 2)}))  # 2**62 - 2**31 cells
@example(frozenset({(0, 0), (2 ** 31 - 1, 2 ** 31 - 1)}))  # 2**62
@settings(max_examples=200, deadline=None)
def test_frames_of_cell_sets_keep_the_invariant(cells):
    assert_framed(life.run(cells, 0))


@given(st.sampled_from([0, 3, 200, 5000, 2 ** 29, 2 ** 40]),
       st.sampled_from([1, 2, 5, 40, 300]), cells_strategy)
@settings(max_examples=120, deadline=None)
def test_frames_of_runs_keep_the_invariant(apart, steps, soup):
    # a soup on a board, or with a glider far from it: packed keys, on
    # int64 or on Python ints
    cells = soup | translate(GLIDER, apart + 30, apart) if apart else soup
    assert_framed(life.step(cells))
    assert_framed(life.run(cells, steps))


@pytest.mark.parametrize("apart", [3, 200, 2 ** 29])
@pytest.mark.parametrize("steps", [2000, 2 ** 64 + 3])
def test_frames_through_the_leap_keep_the_invariant(apart, steps, monkeypatch):
    # two gliders heading apart leap from int64 packed keys, 2**64 + 3
    # generations on to a frame over 2**63 wide, of Python-int keys
    leaps = []
    tree_frame = life._tree_frame
    monkeypatch.setattr(life, "_tree_frame", lambda *args: leaps.append(args) or tree_frame(*args))
    back = frozenset((-x, -y) for x, y in GLIDER)
    result = life.run(back | translate(GLIDER, apart + 30, apart), steps)
    assert len(leaps) == 1 and len(result) == 10
    assert_framed(result)
