import math
import sys
from itertools import count, islice, product

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from emergelab import candidates as cd
from emergelab import life
from emergelab.errors import EmergeLabError, InvalidArgument
from emergelab.fixtures import load_text

from .oracles import (AcceptsOnly, language_count_reference, language_counts_reference,
                      life_step_dense, sqrt_text_reference, survival_count_reference)



# ---------------------------------------------------------------------------
# digit sources

def test_sqrt_digits_of_two():
    # isqrt(2 * 10**10) = 141421; integer part 1 drops off
    assert cd.sqrt_digits(2, 5) == [4, 1, 4, 2, 1]


def test_sqrt_digits_of_three():
    assert cd.sqrt_digits(3, 5) == [7, 3, 2, 0, 5]


def test_sqrt_digits_rejects_perfect_square():
    with pytest.raises(cd.RationalSqrt):
        cd.sqrt_digits(9, 5)


def test_sqrt_digits_rejects_small_radicand():
    with pytest.raises(cd.InvalidRadicand):
        cd.sqrt_digits(1, 5)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 10, 999])
def test_sqrt_digits_prefix_stability(m):
    long = cd.sqrt_digits(m, 60)
    for count in (1, 7, 30, 59):
        assert cd.sqrt_digits(m, count) == long[:count]


def test_sqrt_digits_against_mpmath():
    mpmath.mp.dps = 80
    for m in (2, 3, 7, 42):
        expansion = mpmath.nstr(mpmath.sqrt(m), 61, strip_zeros=False)
        expected = [int(c) for c in expansion.split(".")[1][:50]]
        assert cd.sqrt_digits(m, 50) == expected


@pytest.mark.parametrize("m", [2, 3, 99])
def test_sqrt_digits_past_the_int_str_limit(m):
    # 5000 digits is past Python's 4300-digit int-to-str limit
    want = sqrt_text_reference(m, 5000)
    assert "".join(map(str, cd.sqrt_digits(m, 5000))) == want
    stream = cd.DigitStream.from_sqrt(m)
    assert stream.take(10) + stream.take(4990) == [int(d) for d in want]


def test_decimal_text_keeps_leading_zeros():
    for w in (1, 511, 512, 513, 1025, 9000):
        cases = {0: "0" * w, 7: "0" * (w - 1) + "7",
                 10 ** (w - 1): "1" + "0" * (w - 1), 10 ** w - 1: "9" * w}
        for value, text in cases.items():
            assert cd._decimal_text(value, w) == text


def test_digit_stream_cursor_advances():
    stream = cd.DigitStream.from_sqrt(2)
    assert stream.take(3) == [4, 1, 4]
    assert stream.cursor == 3
    assert stream.take(2) == [2, 1]
    with pytest.raises(InvalidArgument, match="count must be >= 0, got -1"):
        stream.take(-1)
    assert stream.cursor == 5


def test_digit_stream_file_exhaustion():
    stream = cd.DigitStream.from_text("123")
    stream.take(2)
    with pytest.raises(cd.InsufficientDigits):
        stream.take(2)
    # a blank source is a stream that has already run out
    for text in ("", " \n\t"):
        stream = cd.DigitStream.from_text(text)
        assert stream.take(0) == []
        with pytest.raises(cd.InsufficientDigits):
            stream.take(1)


def test_digit_stream_rejects_junk():
    with pytest.raises(ValueError):
        cd.DigitStream.from_text("12a4")
    # only ASCII digits: '²' and '٣' pass str.isdigit()
    for text, bad in (("1\u00b23", "\u00b2"), ("2\u0663\u0663", "\u0663")):
        with pytest.raises(cd.InvalidArgument, match=f"contains {bad!r}"):
            cd.DigitStream.from_text(text)


# ---------------------------------------------------------------------------
# digit chaining

def test_digit_chain_sqrt2():
    assert cd.digit_chain(cd.DigitStream.from_sqrt(2), 2) == [4, 1421]


def test_digit_chain_pi_file():
    digits = load_text("pi_digits.txt")
    # oracle: recompute the expansion with arbitrary precision
    mpmath.mp.dps = 1010
    expected = mpmath.nstr(mpmath.mp.pi, 1001, strip_zeros=False).split(".")[1][:1000]
    assert "".join(digits.split()) == expected
    assert cd.digit_chain(cd.DigitStream.from_text(digits), 3) == [1, 4, 1592]


def test_digit_chain_degenerate():
    with pytest.raises(cd.ChainDegenerate) as err:
        cd.digit_chain(cd.DigitStream.from_text("1000000"), 2)
    assert err.value.index == 2


def test_digit_chain_block_lengths():
    # n = 3 is the practical ceiling for sqrt(2): f(3) already spans 1421
    # digits, so block 4 would need ~10**1420 of them
    stream = cd.DigitStream.from_sqrt(2)
    values = cd.digit_chain(stream, 3)
    assert stream.cursor == 1 + values[0] + values[1]
    replay = cd.DigitStream.from_sqrt(2)
    blocks = [replay.take(1)] + [replay.take(v) for v in values[:-1]]
    assert [int("".join(map(str, b))) for b in blocks] == values


def test_digit_chain_leading_zeros_keep_length():
    # f(2) = 07 -> value 7, but it consumed two digits
    stream = cd.DigitStream.from_text("2071234567")
    assert cd.digit_chain(stream, 3) == [2, 7, 1234567]


def test_digit_chain_rejects_values_past_the_digit_limit():
    # f(2) = 4301, so f(3) is a 4301-digit value
    stream = cd.DigitStream.from_text("4" + "4301" + "1" * 4301)
    with pytest.raises(InvalidArgument, match="f\\(3\\) has 4301 digits"):
        cd.digit_chain(stream, 3)
    stream = cd.DigitStream.from_text("4" + "4301" + "0" + "1" * 4300)
    assert cd.digit_chain(stream, 3)[2] == int("1" * 4300)
    # the limit is the one Python reads integers with, whatever it is set to
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        stream = cd.DigitStream.from_text("3" + "700" + "1" * 700)
        with pytest.raises(InvalidArgument, match="f\\(3\\) has 700 digits, more than 640$"):
            cd.digit_chain(stream, 3)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# word enumeration and language counting

def test_enumerate_words_first_indices():
    assert [cd.enumerate_words(i) for i in range(1, 8)] == \
        ["", "0", "1", "00", "01", "10", "11"]
    assert cd.enumerate_words(8) == "000"


def test_enumerate_words_rejects_nonpositive():
    with pytest.raises(cd.InvalidIndex):
        cd.enumerate_words(0)


def test_enumerate_words_bijection():
    seen = set()
    for i in range(1, 10_001):
        word = cd.enumerate_words(i)
        assert cd.word_index(word) == i
        seen.add(word)
    assert len(seen) == 10_000


def test_enumerate_words_length_lex_order():
    words = [cd.enumerate_words(i) for i in range(1, 200)]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_skip_epsilon_numbering():
    assert cd.enumerate_words(1, skip_epsilon=True) == "0"
    assert cd.word_index("0", skip_epsilon=True) == 1


@pytest.fixture(scope="module")
def even_ones():
    return cd.parse_dfa(load_text("even_ones.dfa"))


def test_even_ones_dfa(even_ones):
    assert even_ones.accepts("")
    assert even_ones.accepts("0110")
    assert not even_ones.accepts("1")


def test_language_count_examples(even_ones):
    assert cd.language_count(even_ones, 1) == 0
    assert cd.language_count(even_ones, 4) == 2


def test_language_count_all_words_language():
    everything = cd.DfaSpec(1, 0, frozenset({0}), {(0, "0"): 0, (0, "1"): 0})
    for n in range(1, 101):
        assert cd.language_count(everything, n) == n - 1


def test_language_count_matches_brute_force(even_ones):
    count = 0
    for n in range(1, 1001):
        assert cd.language_count(even_ones, n) == count
        word = cd.enumerate_words(n)
        if word.count("1") % 2 == 0:
            count += 1


def test_language_count_monotone_steps(even_ones):
    previous = 0
    for n in range(2, 300):
        current = cd.language_count(even_ones, n)
        assert current - cd.language_count(even_ones, n - 1) in (0, 1)
        assert current >= previous
        previous = current


@st.composite
def dfas(draw):
    """A total DFA of 1 to 6 states; its accepting set is empty, full or
    any subset."""
    q = draw(st.integers(1, 6))
    state = st.integers(0, q - 1)
    accepting = draw(st.one_of(st.just(frozenset()), st.just(frozenset(range(q))),
                               st.frozensets(state)))
    transition = {(s, sym): draw(state) for s in range(q) for sym in "01"}
    return cd.DfaSpec(q, draw(state), accepting, transition)


# a fixed DFA of six states, all reachable, three of them accepting
SIX_STATES = cd.DfaSpec(6, 2, frozenset({0, 3, 4}), {
    (0, "0"): 1, (0, "1"): 4, (1, "0"): 5, (1, "1"): 2, (2, "0"): 0, (2, "1"): 3,
    (3, "0"): 3, (3, "1"): 5, (4, "0"): 2, (4, "1"): 1, (5, "0"): 4, (5, "1"): 0})


@settings(max_examples=25, deadline=None)
@given(dfas())
def test_language_count_matches_the_loop_at_every_small_n(dfa):
    # every n <= 3000 holds n = 2**k - 1, 2**k and 2**k + 1 for k <= 11
    for skip_epsilon in (False, True):
        want = language_counts_reference(AcceptsOnly(dfa), range(1, 3001), skip_epsilon)
        assert {n: cd.language_count(dfa, n, skip_epsilon) for n in want} == want


@settings(max_examples=3, deadline=None)
@given(dfas(), st.integers(12, 20), st.booleans())
@example(SIX_STATES, 20, True)
def test_language_count_matches_the_loop_around_powers_of_two(dfa, top, skip_epsilon):
    ns = [2 ** k + d for k in range(12, top + 1) for d in (-1, 0, 1)]
    want = language_counts_reference(AcceptsOnly(dfa), ns, skip_epsilon)
    assert {n: cd.language_count(dfa, n, skip_epsilon) for n in ns} == want


def test_language_count_asks_any_other_language_word_by_word(even_ones):
    class Balanced:
        """As many 0s as 1s: not a regular language."""

        def accepts(self, word):
            return word.count("0") == word.count("1")

    # the words in length-then-lexicographic order, built without `bin`
    words = ("".join(p) for k in count() for p in product("01", repeat=k))
    balanced = [w.count("0") == w.count("1") for w in islice(words, 301)]
    for n in range(1, 301):
        assert cd.language_count(Balanced(), n) == sum(balanced[:n - 1])
        assert cd.language_count(Balanced(), n, skip_epsilon=True) == sum(balanced[1:n])
    for dfa in (even_ones, SIX_STATES):
        for n in (1, 2, 3, 4, 5, 100, 1024, 1025, 4099):
            for skip_epsilon in (False, True):
                assert cd.language_count(AcceptsOnly(dfa), n, skip_epsilon) == \
                    cd.language_count(dfa, n, skip_epsilon) == \
                    language_count_reference(dfa, n, skip_epsilon)


def test_dfa_transitions_are_read_only(even_ones):
    # the counts read the rules that `__post_init__` checked, so a later
    # edit, which could name a state outside the set, raises instead
    with pytest.raises(TypeError):
        even_ones.transition[0, "1"] = 5
    with pytest.raises(TypeError):
        del even_ones.transition[0, "1"]
    rules = {(s, sym): s for s in range(2) for sym in "01"}
    dfa = cd.DfaSpec(2, 0, frozenset({0}), rules)
    rules[0, "1"] = 5
    assert dfa.transition[0, "1"] == 0
    assert cd.language_count(dfa, 10 ** 30) == 10 ** 30 - 1
    text = load_text("even_ones.dfa")
    assert cd.parse_dfa(text) == cd.parse_dfa(text)


def test_parse_dfa_requires_total_transition():
    with pytest.raises(ValueError):
        cd.DfaSpec(2, 0, frozenset({0}), {(0, "0"): 0, (0, "1"): 1, (1, "0"): 1})


@pytest.mark.parametrize("start,accepting,message", [
    (2, {0}, "start state 2 out of range"),
    (-1, {0}, "start state -1 out of range"),
    (0, {0, 2}, "accepting state 2 out of range"),
])
def test_dfa_states_must_be_in_range(start, accepting, message):
    total = {(s, sym): s for s in range(2) for sym in "01"}
    with pytest.raises(InvalidArgument, match=message):
        cd.DfaSpec(2, start, frozenset(accepting), total)


@pytest.mark.parametrize("symbol", ["01", "2"])
def test_parse_dfa_rejects_symbols_other_than_0_and_1(symbol):
    text = f"states 1\nstart 0\naccept 0\ntrans 0 0 0\ntrans 0 1 0\ntrans 0 {symbol} 0\n"
    with pytest.raises(EmergeLabError, match="bad DFA line 6"):
        cd.parse_dfa(text)


@pytest.mark.parametrize("line", ["states {}", "start {}", "accept 0 {}", "trans 0 1 {}"])
def test_parse_dfa_names_the_digit_limit_and_quotes_a_bad_number(line):
    # each number of a DFA line is read alike: past Python's digit limit it
    # is named with the limit, and a token that is no integer is quoted
    text = "states 1\nstart 0\n" + line
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InvalidArgument,
                       match=f"^DFA line 3 holds an integer of more than {limit} digits$"):
        cd.parse_dfa(text.format("1" * 5000))
    with pytest.raises(InvalidArgument, match="^DFA line 3 must be an integer, got 'x'$"):
        cd.parse_dfa(text.format("x"))


@pytest.mark.parametrize("line", ["trans 0 0 1", "trans 0 0 0", "states 2", "start 0"])
def test_parse_dfa_refuses_a_second_line_for_one_slot(line):
    text = "states 2\nstart 0\naccept 0\ntrans 0 0 1\ntrans 0 1 0\ntrans 1 0 1\ntrans 1 1 1\n"
    with pytest.raises(EmergeLabError, match=f"duplicate DFA line 8: '{line}'"):
        cd.parse_dfa(text + line)
    # repeated accept lines add to one set
    assert cd.parse_dfa(text + "accept 1").accepting == {0, 1}


# ---------------------------------------------------------------------------
# Life survival counting

def test_default_numbering_small_indices():
    assert cd.default_numbering(1) == frozenset({(0, 0)})
    assert cd.default_numbering(2) == frozenset({(0, 0)})
    assert cd.default_numbering(3) == frozenset({(0, 0), (1, 0)})
    # 15 = 1111 in a 2x2 box: the block still life
    assert cd.default_numbering(15) == frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    with pytest.raises(cd.InvalidIndex, match="start at 1, got 0"):
        cd.default_numbering(0)


def test_default_numbering_box_is_square():
    for j in (1, 5, 100, 12345, 2 ** 20 + 7):
        cells = cd.default_numbering(j)
        bits = len(format(j, "b"))
        width = math.isqrt(bits - 1) + 1
        assert all(0 <= x < width and 0 <= y < width for x, y in cells)


def test_life_survival_count_examples():
    assert cd.life_survival_count(0) == 0
    assert cd.life_survival_count(3) == 0
    assert cd.life_survival_count(15) >= 1


def test_life_survival_count_goldens():
    # pinned once against the dense-grid oracle below
    assert cd.life_survival_count(15) == 5
    assert cd.life_survival_count(64) == 27


def test_life_survival_count_matches_dense_oracle():
    for n in (0, 1, 3, 8, 15, 33, 64):
        fast = cd.life_survival_count(n)
        slow = survival_count_reference(n)
        assert fast == slow, f"n={n}"


def test_life_survival_count_every_n_to_64_matches_dense_oracle():
    top = 64
    alive = {}  # seed j -> whether it is alive at generations 0..top
    for j in range(1, top + 1):
        state, alive[j] = cd.default_numbering(j), []
        for _ in range(top + 1):
            alive[j].append(bool(state))
            state = life_step_dense(state)
    for n in range(top + 1):
        want = sum(alive[j][n] for j in range(1, n + 1))
        assert cd.life_survival_count(n) == want, f"n={n}"


def test_life_survival_count_bench_size_golden():
    # the bench size, pinned once against `survival_count_reference`
    assert cd.life_survival_count(181) == 78
