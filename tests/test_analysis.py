import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from emergelab import analysis, life

from .oracles import CycleResult, find_cycle, quadratic_first_repeat


def test_find_cycle_constant():
    assert find_cycle([7, 7, 7, 7]) == CycleResult(True, 0, 1)


def test_find_cycle_with_preperiod():
    assert find_cycle([1, 2, 3, 2, 3]) == CycleResult(True, 1, 2)


def test_find_cycle_no_repeat():
    assert find_cycle([1, 2, 3, 4]) == CycleResult(False)
    assert find_cycle([]) == CycleResult(False)


def test_find_cycle_on_blinker_states():
    blinker = frozenset({(0, -1), (0, 0), (0, 1)})
    states = []
    cells = blinker
    for _ in range(6):
        states.append(life.canonical(cells)[0])
        cells = life.step(cells)
    assert find_cycle(states) == CycleResult(True, 0, 2)


@given(st.lists(st.integers(0, 8), max_size=120))
@settings(max_examples=200)
def test_find_cycle_matches_quadratic_scan(states):
    expected = quadratic_first_repeat(states)
    result = find_cycle(states)
    if expected is None:
        assert not result.found
    else:
        assert (result.mu, result.lam) == expected


def test_find_cycle_long_random_sequences():
    rng = random.Random(11)
    for _ in range(30):
        states = [rng.randint(0, 30) for _ in range(rng.randint(0, 500))]
        expected = quadratic_first_repeat(states)
        result = find_cycle(states)
        assert (result.found, (result.mu, result.lam) if result.found else None) \
            == (expected is not None, expected)


def test_ones_fraction_basics():
    assert analysis.ones_fraction("0000") == 0
    assert analysis.ones_fraction("0101") == Fraction(1, 2)
    assert analysis.ones_fraction([1, 1, 1]) == 1
    # exact 0/1 values of any type pass: bools, floats, characters
    assert analysis.ones_fraction([True, 1.0, 0, "0", "1", False]) == Fraction(1, 2)


def test_ones_fraction_empty():
    with pytest.raises(analysis.EmptyInput):
        analysis.ones_fraction("")


@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_ones_fraction_complement(bits):
    f = analysis.ones_fraction(bits)
    assert 0 <= f <= 1
    assert f == 1 - analysis.ones_fraction([1 - b for b in bits])


def test_block_entropy_degenerate():
    assert analysis.block_entropy("0" * 32, 3) == 0.0
    # a constant stream scores 0.0, not -0.0, which the CLI would print
    for bits, k in (("0" * 32, 3), ("1" * 10, 2), ("1", 1)):
        assert math.copysign(1.0, analysis.block_entropy(bits, k)) == 1.0


def test_block_entropy_alternating():
    assert abs(analysis.block_entropy("01" * 50, 1) - 1.0) < 1e-12


def test_block_entropy_range_and_errors():
    with pytest.raises(analysis.BlockTooLarge):
        analysis.block_entropy("010", 4)
    with pytest.raises(ValueError):
        analysis.block_entropy("010", 0)


@given(st.lists(st.integers(0, 1), min_size=4, max_size=120), st.integers(1, 4))
@settings(max_examples=80)
def test_block_entropy_complement_invariant(bits, k):
    assert analysis.block_entropy(bits, k) == pytest.approx(
        analysis.block_entropy([1 - b for b in bits], k))


def test_no_short_period_examples():
    assert analysis.no_short_period("01010101010", 2) is False
    assert analysis.no_short_period("0010", 1) is True


def test_no_short_period_finds_longer_periods():
    assert analysis.no_short_period("011011011011011", 3) is False
    assert analysis.no_short_period("011011011011011", 2) is True


def test_no_short_period_needs_enough_bits():
    with pytest.raises(ValueError):
        analysis.no_short_period("0101", 2)


# ---------------------------------------------------------------------------
# rule 30 centre column diagnostics (golden values pinned from one build)

def test_rule30_column_ones_fraction(rule30_column):
    fraction = analysis.ones_fraction(rule30_column)
    assert fraction == Fraction(8277, 16384)
    assert abs(float(fraction) - 0.5) <= 0.02


def test_rule30_column_block_entropy(rule30_column):
    entropy = analysis.block_entropy(rule30_column, 8)
    assert entropy == pytest.approx(7.986745478526093, abs=1e-9)
    assert entropy >= 7.8


def test_rule30_column_has_no_short_period(rule30_column):
    assert analysis.no_short_period(rule30_column, 2048) is True
