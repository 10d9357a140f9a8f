"""The numpy pattern readers `life.parse_rle` and `life.parse_cells`
against the per-character readers in `oracles`: the same cells, or the same
error with the same message, line and column."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import life
from emergelab.fixtures import load_text

from .oracles import parse_cells_reference, parse_rle_reference

# whitespace to str.isspace(), ASCII or not, and the line breaks of
# str.splitlines(): '\r\n' is one break, '\x0b', '\x85' and U+2028 are others
SPACES = [" ", "\t", "\xa0", "\u3000", "\x1f"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
# not ASCII digits, though str.isdigit() takes them
OTHERS = ["²", "٣", "x", "#", "-"]
HEADERS = ["x = 3, y = 3\n", "#C a comment\r\nx = 1, y = 1, rule = B3/S23\r\n",
           "\n\x85x=0,y=0 \u2028", "x = 2, y = 2, rule = b3/s23\x0b"]


def outcome(parse, text):
    try:
        return "cells", parse(text)
    except life.PatternParseError as exc:
        return type(exc).__name__, str(exc), exc.line, exc.column
    except life.UnsupportedRule as exc:
        return type(exc).__name__, str(exc)


@st.composite
def counts(draw):
    """A run count: none, a few digits, or 18 to 21 of them; whitespace and
    line breaks may split it."""
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 18, 19, 20, 21]))
    digits = [draw(st.sampled_from("0123456789")) for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, size - 1))
        digits.insert(cut, draw(st.sampled_from(SPACES + BREAKS)))
    return "".join(digits)


def tokens(clean):
    """Runs, whitespace and, unless `clean`, characters that are refused."""
    run = st.tuples(counts(), st.sampled_from("bo$")).map("".join)
    space = st.sampled_from(SPACES + BREAKS)
    if clean:
        return st.one_of(run, run, run, space)
    return st.one_of(run, run, space, st.sampled_from(OTHERS))


@st.composite
def rle_texts(draw):
    body = "".join(draw(st.lists(tokens(draw(st.booleans())), max_size=30)))
    if draw(st.integers(0, 9)):  # mostly terminated, text after '!' ignored
        body += draw(st.sampled_from(["!", "!\n", "!junk q", "! 3o$²"]))
    return draw(st.sampled_from(HEADERS)) + body


@given(rle_texts(), st.sampled_from([2, 5, 40, 10 ** 7]))
@settings(max_examples=600, deadline=None)
def test_parse_rle_matches_the_reference(text, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(life, "CELL_LIMIT", cap)
        assert outcome(life.parse_rle, text) == outcome(parse_rle_reference, text)


@pytest.mark.parametrize("body,cells", [
    # 19- and 20-digit counts are Python ints, past int64
    (f"{10 ** 19}bo!", {(10 ** 19, 0)}),
    (f"{2 ** 63 - 1}b2o$9999999999999999999$o!",
     {(2 ** 63 - 1, 0), (2 ** 63, 0), (0, 10 ** 19)}),
    (f"{'9' * 20}$2o!", {(0, 10 ** 20 - 1), (1, 10 ** 20 - 1)}),
    # 18 digits each, but their sum is past int64
    ("999999999999999999b" * 12 + "o!", {(12 * (10 ** 18 - 1), 0)}),
    # `0$` goes back to the start of the row, `0o` makes no cell
    ("3o0$2b2o0o$0$o!", {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)}),
    ("2b0o$!", set()),
])
def test_parse_rle_wide_and_zero_counts(body, cells):
    text = "x = 1, y = 1\n" + body
    assert life.parse_rle(text) == parse_rle_reference(text) == cells


def test_parse_rle_corpus_matches_the_reference():
    for name in ["glider", "gosper_gun", "pulsar", "rpentomino", "lwss"]:
        text = load_text(f"{name}.rle")
        assert life.parse_rle(text) == parse_rle_reference(text)


def test_read_rle_frames_without_a_cell_set():
    off, corner, span = life.parse_rle("x = 3, y = 3\n2$3bo$2b2o!").frame
    assert off.dtype == np.int64 and off.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert corner == (2, 2) and span == (1, 1)
    off, corner, span = life.parse_rle(f"x = 1, y = 1\no{2 ** 63}bo!").frame
    assert off.dtype == object and off.tolist() == [[0, 0], [2 ** 63 + 1, 0]]
    assert corner == (0, 0) and span == (2 ** 63 + 1, 0)
    off, corner, span = life.parse_rle("x = 0, y = 0\n!").frame
    assert off.shape == (0, 2) and span == (-1, -1)


# ---------------------------------------------------------------------------
# .cells

def test_parse_cells_applies_the_cell_cap(monkeypatch):
    monkeypatch.setattr(life, "CELL_LIMIT", 10)
    assert len(life.parse_cells("O" * 10)) == 10
    with pytest.raises(life.PatternParseError) as err:
        life.parse_cells("O" * 11)
    assert str(err.value) == "more than 10 live cells at line 1, column 11"
    with pytest.raises(life.PatternParseError) as err:  # the cap comes first
        life.parse_cells("!c\n.OOOO\n\n..OOOOO.OO.X\n")
    assert (err.value.line, err.value.column) == (4, 10)


cells_line = st.lists(st.sampled_from([".", "O", "O", " ", "X", "\u3000"]),
                      max_size=12).map("".join)


@given(st.lists(st.one_of(cells_line, st.just("!comment O")), max_size=8),
       st.sampled_from(BREAKS), st.sampled_from([3, 10 ** 7]))
@settings(max_examples=300, deadline=None)
def test_parse_cells_matches_the_reference(lines, newline, cap):
    text = newline.join(lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(life, "CELL_LIMIT", cap)
        assert outcome(life.parse_cells, text) == outcome(parse_cells_reference, text)
