from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from emergelab import ant, life
from emergelab.errors import InvalidArgument

from .oracles import (ant_run_reference, ant_step, ant_step_back, ant_step_mirrored,
                      detect_highway_reference)

GOLDEN = Path(__file__).parent / "data" / "ant_highway.golden"


def load_golden():
    pairs = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, value = line.split("=")
        pairs[key] = int(value)
    return pairs


def test_first_step_from_white():
    state = ant_step(ant.standard_start())
    assert state == ant.AntState((-1, 0), "W", frozenset({(0, 0)}), 1)


def test_second_step():
    state = ant.run(ant.standard_start(), 2)
    assert state == ant.AntState((-1, -1), "S", frozenset({(0, 0), (-1, 0)}), 2)


def test_black_rule_mirrors_white_rule():
    start = ant.AntState((0, 0), "N", frozenset({(0, 0)}), 0)
    state = ant_step(start)
    assert state == ant.AntState((1, 0), "E", frozenset(), 1)


def test_bad_state_is_a_domain_error():
    for heading in ("Q", "", "NE", "n"):
        with pytest.raises(InvalidArgument):
            ant.AntState(heading=heading)
    with pytest.raises(ValueError):
        ant.AntState(steps=-1)


def test_run_zero_is_identity():
    start = ant.standard_start()
    assert ant.run(start, 0) == start


def test_run_matches_repeated_step():
    state = ant.standard_start()
    for n in range(25):
        assert ant.run(ant.standard_start(), n) == state
        state = ant_step(state)


def grid_start(pos, heading, rows):
    """A start from rows of '#' (black) and '.', row y = 0 first."""
    black = frozenset((x, y) for y, row in enumerate(rows)
                      for x, c in enumerate(row) if c == "#")
    return ant.AntState(pos, heading, black, 0)


def assert_matches_reference(start, n):
    """`run` and `census` after n steps against the plain loop."""
    want = ant_run_reference(start, n)
    assert ant.run(start, n) == want
    census = ant.census(start, n)
    xs, ys = [x for x, _ in want.black], [y for _, y in want.black]
    box = (min(xs), min(ys), max(xs), max(ys)) if xs else None
    assert (census.pos, census.heading, census.steps, census.black_cells, census.bbox) \
        == (want.pos, want.heading, want.steps, len(want.black), box)
    return census


# Starts that a certificate without check C (each entering ray white)
# gets wrong: a short period, mostly p = 2, passes every other check at a
# chunk end, and the ant leaves it later.
C_TRAPS = [
    ((-2, -1), "W", ["##.#", "", ".###", "####", "..##", "##.#", "##", ".#", "##"]),
    ((3, -1), "S", ["", "###", "##"]),
    ((-3, 6), "E", ["...##.###", "###.#####", "###...#", ".##.#####", "#####.##",
                    ".####.##", ".##.##.##", "#.##.#.#", "#.##.##.#", "#######.#",
                    "#...#####"]),
    ((0, 7), "W", ["#####", ".###", "#.##", "#####", "..###", "##..#", "#####", ".#.##", "##"]),
    ((8, -3), "N", ["##..#..#"]),
    ((-3, 3), "S", [".#", ".#", "", ".#", "#"]),
    ((-1, 5), "S", ["##"] * 12),
    ((2, 5), "W", ["########", "#####.##", "########", "########", "########",
                   "######.#", "########", "########"]),
]
# A start that a certificate without the net-rotation check gets wrong:
# two equal turns "repeat" with p = 1 at the first chunk end.
ROTATION_TRAP = ((4, 2), "N", ["", "", "##", "#"])


@pytest.mark.parametrize("pos, heading, rows", C_TRAPS + [ROTATION_TRAP])
def test_run_and_census_match_the_reference_on_trap_starts(pos, heading, rows):
    start = grid_start(pos, heading, rows)
    census = assert_matches_reference(start, 60_000)
    assert census.certified is not None and census.period % 104 == 0
    assert_matches_reference(start, census.certified + census.period + 1)


# Starts that a certificate checking only the first 8 squares of each
# entering ray gets wrong: one black square far ahead on the standard
# start's highway.  Without the far check both certify at 12,288 and the
# ant runs into the square later; with it they certify at 24,576 and 16,384.
FAR_TRAPS = [((77, -52), 24_576), ((78, -52), 16_384)]


@pytest.mark.parametrize("square, certified", FAR_TRAPS)
def test_run_and_census_match_the_reference_on_far_ray_starts(square, certified):
    start = ant.AntState((0, 0), "N", frozenset({square}), 0)
    census = assert_matches_reference(start, 30_000)
    assert (census.certified, census.period) == (certified, 104)
    assert_matches_reference(start, certified + census.period + 1)


@st.composite
def random_starts(draw):
    """A start grid of up to 12 x 12 squares, any heading, the ant on or
    near the grid."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bits = draw(st.integers(0, (1 << width * height) - 1))
    black = frozenset((i % width, i // width) for i in range(width * height) if bits >> i & 1)
    pos = (draw(st.integers(-3, width + 2)), draw(st.integers(-3, height + 2)))
    return ant.AntState(pos, draw(st.sampled_from(ant.HEADINGS)), black,
                        draw(st.integers(0, 5)))


# step counts drawn from both ends: most starts certify after 4096 to 30,000
STEP_COUNTS = st.one_of(st.integers(0, 60_000), st.integers(0, 50_000).map(lambda k: 60_000 - k))


@given(random_starts(), STEP_COUNTS)
@example(grid_start(*C_TRAPS[0]), 60_000)
@example(grid_start(*ROTATION_TRAP), 60_000)
@settings(max_examples=100, deadline=None)
def test_run_and_census_match_the_reference_from_random_starts(start, n):
    assert_matches_reference(start, n)


@pytest.mark.parametrize("heading", ant.HEADINGS)
def test_standard_start_certifies_the_104_step_highway(heading):
    start = ant.standard_start(heading)
    census = ant.census(start, 20_000)
    assert (census.certified, census.period) == (12_288, 104)
    for n in (12_287, 12_288, 12_392, 12_393, 16_383, 16_384, 16_385, 20_000):
        assert_matches_reference(start, n)
    far, next_period = ant.census(start, 10 ** 15), ant.census(start, 10 ** 15 + 104)
    assert next_period.heading == far.heading
    assert next_period.black_cells - far.black_cells == 12
    assert [abs(b - a) for a, b in zip(far.pos, next_period.pos)] == [2, 2]
    assert ant.census(start, 12_287).certified is None


def test_run_refuses_a_result_over_the_cell_cap(monkeypatch):
    with pytest.raises(InvalidArgument, match=f"over {life.CELL_LIMIT}"):
        ant.run(ant.standard_start(), 10 ** 15)
    monkeypatch.setattr(ant, "CELL_LIMIT", 100)
    assert len(ant.run(ant.standard_start(), 200).black) <= 100
    with pytest.raises(InvalidArgument, match="over 100"):
        ant.run(ant.standard_start(), 20_000)


def test_negative_step_counts_are_domain_errors():
    for reader in (ant.run, ant.census):
        with pytest.raises(InvalidArgument, match="n must be >= 0"):
            reader(ant.standard_start(), -1)


def test_steps_counter():
    assert ant.run(ant.standard_start(), 137).steps == 137
    resumed = ant.run(ant.run(ant.standard_start(), 100), 37)
    assert resumed.steps == 137


@given(st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_reversibility(n):
    start = ant.standard_start()
    state = ant.run(start, n)
    for _ in range(n):
        state = ant_step_back(state)
    assert state == start


def test_mirror_symmetry():
    state = ant.standard_start()
    mirrored = ant.AntState((0, 0), "N", frozenset(), 0)
    for _ in range(5000):
        state = ant_step(state)
        mirrored = ant_step_mirrored(mirrored)
        assert mirrored.pos == (-state.pos[0], state.pos[1])
    assert mirrored.black == frozenset((-x, y) for x, y in state.black)


def test_detect_highway_standard_start():
    golden = load_golden()
    report = ant.detect_highway(ant.standard_start(), 20_000, 16, 5)
    assert report.found
    assert report.period == golden["period"] == 104
    assert report.onset == golden["onset"]
    assert (report.dx, report.dy) == (golden["dx"], golden["dy"])
    assert 9_000 <= report.onset <= 12_000


def test_detect_highway_budget_below_onset():
    report = ant.detect_highway(ant.standard_start(), 100, 16, 5)
    assert not report.found
    assert report.steps_searched == 100


def test_detect_highway_from_mid_highway_state():
    mid = ant.run(ant.standard_start(), 12_000)
    report = ant.detect_highway(mid, 1_000, 16, 5)
    assert report.found
    assert report.period == 104
    assert report.onset <= 104


def test_detector_report_replays():
    """Any reported (onset, period, displacement) must replay exactly when
    the window fingerprint is extracted from scratch."""
    report = ant.detect_highway(ant.standard_start(), 20_000, 16, 5)
    base = ant.run(ant.standard_start(), report.onset)
    base_fp = ant.window_fingerprint(base, report.window_radius)
    state = base
    for k in range(1, 21):
        state = ant.run(state, report.period)
        assert ant.window_fingerprint(state, report.window_radius) == base_fp
        assert state.pos == (base.pos[0] + k * report.dx,
                             base.pos[1] + k * report.dy)


def test_detect_highway_argument_validation():
    with pytest.raises(ValueError):
        ant.detect_highway(ant.standard_start(), 0)
    with pytest.raises(ValueError):
        ant.detect_highway(ant.standard_start(), 10, window_radius=0)
    with pytest.raises(ValueError):
        ant.detect_highway(ant.standard_start(), 10, confirmations=0)
    limit = ant.WINDOW_RADIUS_LIMIT
    with pytest.raises(InvalidArgument, match=f"1..{limit}, got {limit + 1}"):
        ant.detect_highway(ant.standard_start(), 10, window_radius=limit + 1)
    assert ant.detect_highway(ant.standard_start(), 10, window_radius=limit).steps_searched == 10
    # at the largest radius, the steps whose windows would pass the bit cap
    # are refused before the first one
    most = ant.WINDOW_BITS_LIMIT // (2 * limit + 1) ** 2
    assert most >= 20_000
    with pytest.raises(InvalidArgument, match=f"max_steps must be <= {most} at "
                                              f"window_radius {limit} .*, got {most + 1}$"):
        ant.detect_highway(ant.standard_start(), most + 1, window_radius=limit)


def test_highway_reached_from_every_heading():
    for heading in "NESW":
        report = ant.detect_highway(ant.standard_start(heading), 20_000, 16, 5)
        assert report.found and report.period == 104, heading


@pytest.mark.parametrize("heading", "NESW")
def test_detect_highway_matches_rebuilt_window_reference(heading):
    """The incremental window against one rebuilt square by square at every
    step: radii 1-3, one and five confirmations, from the start, from step
    5000 (neither finds the highway at these radii) and from step 10,000
    (both verdicts found, at onsets past 0); then r = 4, the smallest
    radius that finds the highway from the start within 12,000 steps."""
    start = ant.standard_start(heading)
    for base in (start, ant.run(start, 5000), ant.run(start, 10_000)):
        for radius in (1, 2, 3):
            for confirmations in (1, 5):
                report = ant.detect_highway(base, 3000, radius, confirmations)
                assert asdict(report) == detect_highway_reference(
                    base, 3000, radius, confirmations), (base.steps, radius, confirmations)
    expected = detect_highway_reference(start, 12_000, 4, 5)
    assert expected["found"] and expected["period"] == 104
    assert asdict(ant.detect_highway(start, 12_000, 4, 5)) == expected


@st.composite
def scattered_starts(draw):
    """Up to 40 black squares over a 300 x 300 box, on an empty grid with
    the ant anywhere on or near the box and any heading, or around the ant
    of the standard start 10,000 to 12,000 steps on, on its highway, where
    one wrong window square changes the report."""
    box = st.integers(0, 299)
    scattered = draw(st.frozensets(st.tuples(box, box), max_size=40))
    if draw(st.booleans()):
        pos = (draw(st.integers(-50, 349)), draw(st.integers(-50, 349)))
        return ant.AntState(pos, draw(st.sampled_from(ant.HEADINGS)), scattered)
    base = ant.run(ant.standard_start(), draw(st.integers(10_000, 12_000)))
    (x, y), black = base.pos, set(base.black)
    black.symmetric_difference_update((x - 150 + a, y - 150 + b) for a, b in scattered)
    return ant.AntState(base.pos, base.heading, frozenset(black))


MARGIN = ant._FRAME_MARGIN


@given(scattered_starts(), st.integers(1, 6), st.integers(1, 3), st.integers(1, 2000),
       st.sampled_from([0, 1, 2, 3, 7, MARGIN]))
# the ant more than the frame's margin from every black square: its first
# frame holds none of them, and the squares it later meets come from the set
@example(ant.AntState((150, 150), "E", frozenset({(10, 20), (290, 280), (150, 10)})),
         1, 1, 2000, MARGIN)
@example(ant.AntState((-50, 349), "S", frozenset({(0, 0), (299, 299), (20, 280)})),
         6, 3, 2000, MARGIN)
@example(ant.standard_start("W"), 3, 2, 2000, MARGIN)
@settings(max_examples=100, deadline=None)
def test_detect_highway_matches_the_reference_across_frames(start, radius, confirmations,
                                                            max_steps, margin):
    """The detector against the rebuilt-window reference from scattered
    starts.  Small frame margins rebuild the frame every few steps, so each
    edge read and each rebuild meets squares from the other side of the
    frame's edge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ant, "_FRAME_MARGIN", margin)
        report = ant.detect_highway(start, max_steps, radius, confirmations)
    assert asdict(report) == detect_highway_reference(start, max_steps, radius, confirmations)


def test_detect_highway_matches_the_reference_past_a_frame_rebuild(monkeypatch):
    """Mid-highway at r = 2 with 60 confirmations: the ant moves over 120
    squares on each axis, out of its first frame, which is built again."""
    frames = []
    build = ant._frame
    monkeypatch.setattr(ant, "_frame", lambda *args: frames.append(args[1:3]) or build(*args))
    start = ant.run(ant.standard_start(), 12_000)
    report = ant.detect_highway(start, 8000, 2, 60)
    assert asdict(report) == detect_highway_reference(start, 8000, 2, 60)
    assert report.found and report.period == 104 and report.confirmations == 60
    assert len(frames) >= 2
    (x0, y0), (x1, y1) = frames[0], frames[1]
    assert max(abs(x1 - x0), abs(y1 - y0)) > MARGIN
