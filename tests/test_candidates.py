import math

import mpmath
import pytest

from emergelab import candidates as cd
from emergelab import life
from emergelab.errors import EmergeLabError
from emergelab.fixtures import load_text

from .oracles import life_run_dense


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


def test_digit_stream_cursor_advances():
    stream = cd.DigitStream.from_sqrt(2)
    assert stream.take(3) == [4, 1, 4]
    assert stream.cursor == 3
    assert stream.take(2) == [2, 1]


def test_digit_stream_file_exhaustion():
    stream = cd.DigitStream.from_text("123")
    stream.take(2)
    with pytest.raises(cd.InsufficientDigits):
        stream.take(2)


def test_digit_stream_rejects_junk():
    with pytest.raises(ValueError):
        cd.DigitStream.from_text("12a4")


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


def test_parse_dfa_requires_total_transition():
    with pytest.raises(ValueError):
        cd.DfaSpec(2, 0, frozenset({0}), {(0, "0"): 0, (0, "1"): 1, (1, "0"): 1})


@pytest.mark.parametrize("symbol", ["01", "2"])
def test_parse_dfa_rejects_symbols_other_than_0_and_1(symbol):
    text = f"states 1\nstart 0\naccept 0\ntrans 0 0 0\ntrans 0 1 0\ntrans 0 {symbol} 0\n"
    with pytest.raises(EmergeLabError, match="bad DFA line 6"):
        cd.parse_dfa(text)


# ---------------------------------------------------------------------------
# Life survival counting

def test_default_numbering_small_indices():
    assert cd.default_numbering(1) == frozenset({(0, 0)})
    assert cd.default_numbering(2) == frozenset({(0, 0)})
    assert cd.default_numbering(3) == frozenset({(0, 0), (1, 0)})
    # 15 = 1111 in a 2x2 box: the block still life
    assert cd.default_numbering(15) == frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})


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
        slow = cd.life_survival_count(n, run=life_run_dense)
        assert fast == slow, f"n={n}"


def test_life_survival_accepts_custom_numbering():
    always_block = lambda j: frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
    assert cd.life_survival_count(10, numbering=always_block) == 10
