import random

import pytest
from hypothesis import given, settings, strategies as st

from emergelab import eca
from emergelab.errors import InvalidArgument

from .oracles import binomial_parity_row, step_cycle_reference, step_row_reference


def test_parse_rule_254_matches_table():
    # binary 11111110: every neighbourhood except all-white turns black
    table = eca.parse_rule(254)
    assert table.number == 254
    assert table.outputs == (0, 1, 1, 1, 1, 1, 1, 1)


def test_parse_rule_zero():
    assert eca.parse_rule(0).outputs == (0,) * 8


def test_parse_rule_90_against_xor():
    # rule 90 is left XOR right; derive the table by brute force
    expected = tuple(((v >> 2) ^ v) & 1 for v in range(8))
    assert eca.parse_rule(90).outputs == expected


@pytest.mark.parametrize("bad", [-1, 256, 1000, 3.5, "90"])
def test_parse_rule_rejects_out_of_range(bad):
    with pytest.raises(eca.InvalidRule):
        eca.parse_rule(bad)


def test_rule_number_round_trip_all_256():
    for n in range(256):
        assert eca.rule_number(eca.parse_rule(n).outputs) == n


def test_step_row_rule254_single_cell():
    out = eca.step_row(eca.parse_rule(254), eca.BitRow.single(0))
    assert list(out.cells()) == [-1, 0, 1]


def test_step_row_rule0_kills_everything():
    out = eca.step_row(eca.parse_rule(0), eca.BitRow.from_cells([3, 5, 6]))
    assert out == eca.BitRow()


def test_step_row_rule30_two_steps():
    r30 = eca.parse_rule(30)
    row = eca.step_row(r30, eca.BitRow.single(0))
    assert list(row.cells()) == [-1, 0, 1]
    row = eca.step_row(r30, row)
    assert row.to_string(-2, 2) == "##..#"


def test_step_row_rejects_background_flippers():
    # rule 255 maps all-white to black
    with pytest.raises(eca.UnsupportedBackground):
        eca.step_row(eca.parse_rule(255), eca.BitRow.single(0))


def test_evolve_rule90_two_steps():
    hist = eca.evolve(eca.parse_rule(90), eca.BitRow.single(0), 2)
    assert hist.rows[2].to_string(-2, 2) == "#...#"


def test_evolve_zero_steps_is_identity():
    seed = eca.BitRow.from_cells([0, 2, 3])
    hist = eca.evolve(eca.parse_rule(110), seed, 0)
    assert hist.rows == (seed,)


def test_evolve_rule90_matches_binomial_parity():
    rule = eca.parse_rule(90)
    hist = eca.evolve(rule, eca.BitRow.single(0), 256, max_rows=300)
    for n in (0, 1, 2, 3, 5, 17, 64, 128, 255, 256):
        assert set(hist.rows[n].cells()) == binomial_parity_row(n), f"row {n}"


def test_evolve_history_invariant():
    rule = eca.parse_rule(110)
    hist = eca.evolve(rule, eca.BitRow.single(0), 40)
    for t in range(40):
        assert hist.rows[t + 1] == eca.step_row(rule, hist.rows[t])


def test_evolve_row_cap():
    with pytest.raises(eca.RowLimitExceeded):
        eca.evolve(eca.parse_rule(90), eca.BitRow.single(0), 100, max_rows=50)


def test_center_column_examples():
    assert eca.center_column(eca.parse_rule(30), 2) == [1, 1, 0]
    assert eca.center_column(eca.parse_rule(0), 5) == [1, 0, 0, 0, 0, 0]
    assert eca.center_column(eca.parse_rule(254), 5) == [1] * 6


def test_rule90_is_xor_automaton():
    rule = eca.parse_rule(90)
    rng = random.Random(90)
    for _ in range(1000):
        width = rng.randint(1, 64)
        bits = rng.getrandbits(width) | 1
        row = eca.BitRow(0, bits)
        out = eca.step_row(rule, row)
        for p in range(-1, width + 1):
            assert out[p] == row[p - 1] ^ row[p + 1]


def test_locality_speed_limit():
    rng = random.Random(7)
    for _ in range(50):
        rule = eca.parse_rule(rng.randrange(0, 256) & ~1)  # force quiescent
        seed = eca.BitRow(0, rng.getrandbits(12) | 1)
        t = rng.randint(0, 20)
        hist = eca.evolve(rule, seed, t)
        last = hist.rows[-1]
        if last.bits:
            lo, hi = last.support
            assert lo >= -t and hi <= seed.width - 1 + t


@pytest.mark.parametrize("number", [254, 90])
def test_single_cell_rows_are_palindromes(number):
    rule = eca.parse_rule(number)
    row = eca.BitRow.single(0)
    for _ in range(128):
        row = eca.step_row(rule, row)
        if row.bits == 0:
            continue
        assert row.offset == -(row.offset + row.width - 1)
        mirrored = int(format(row.bits, "b")[::-1], 2)
        assert mirrored == row.bits


def test_packed_matches_naive_unbounded():
    seed = eca.BitRow.single(0)
    for n in range(0, 256, 2):  # quiescent rules only
        rule = eca.parse_rule(n)
        row = seed
        for _ in range(32):
            fast = eca.step_row(rule, row)
            assert fast == step_row_reference(rule, row), f"rule {n}"
            row = fast


def test_cycle_packed_matches_naive_all_rules():
    width = 131
    seed = 1 << (width // 2)
    for n in range(256):
        rule = eca.parse_rule(n)
        bits = seed
        for _ in range(64):
            fast = eca.step_cycle(rule, bits, width)
            assert fast == step_cycle_reference(rule, bits, width), f"rule {n}"
            bits = fast


def test_apply_rule_matches_output_table_all_rules():
    # planes with one bit per neighbourhood: bit v of l, c, r spells v
    l, c, r = 0b11110000, 0b11001100, 0b10101010
    for n in range(256):
        rule = eca.parse_rule(n)
        assert eca.apply_rule(rule, l, c, r, 0xFF) == n, f"rule {n}"


def test_apply_rule_matches_output_table_on_wide_planes():
    # planes of about 200 bits, a random mask and, for a quiescent rule,
    # the mask -1, checked bit by bit; more planes for the rules whose
    # normal form is a full triple x, y, xy (c, r, cr; l, r, lr; l, c, lc)
    # or all seven non-constant monomials
    folded = [n for n in range(256) if eca.parse_rule(n).anf in (0x0E, 0x32, 0x54, 0xFE)]
    assert len(folded) == 4
    rng = random.Random(6)
    for n in range(256):
        rule = eca.parse_rule(n)
        for _ in range(8 if n in folded else 2):
            l, c, r = (rng.getrandbits(rng.randint(190, 210)) for _ in range(3))
            masks = [rng.getrandbits(200)] + ([-1] if rule.quiescent else [])
            for mask in masks:
                out = eca.apply_rule(rule, l, c, r, mask)
                assert out >= 0 and out >> 211 == 0, (n, mask)
                for i in range(211):
                    v = 4 * (l >> i & 1) + 2 * (c >> i & 1) + (r >> i & 1)
                    want = rule.outputs[v] & (mask >> i)
                    assert out >> i & 1 == want, (n, mask, i)


def test_rule30_normal_form():
    # rule 30 is l ^ c ^ r ^ cr: the monomials r, c, cr, l
    assert eca.parse_rule(30).anf == 0b00011110
    # and `apply_rule` computes it as l ^ (c | r)
    assert eca.parse_rule(30)._terms == 0x110


def test_parse_rule_returns_shared_tables():
    assert eca.parse_rule(110) is eca.parse_rule(110)
    assert eca.parse_rule(110) == eca.RuleTable(110, eca.parse_rule(110).outputs)


def test_step_cycle_matches_naive_random_rings():
    rng = random.Random(2)
    for n in range(256):
        rule = eca.parse_rule(n)
        for width in (1, 2, 3, rng.randint(4, 70), rng.randint(64, 300)):
            for _ in range(3):
                bits = rng.getrandbits(width)
                assert eca.step_cycle(rule, bits, width) == \
                    step_cycle_reference(rule, bits, width), f"rule {n} width {width}"


def test_step_row_matches_naive_random_rows():
    rng = random.Random(3)
    for n in range(0, 256, 2):  # the 128 quiescent rules
        rule = eca.parse_rule(n)
        rows = [eca.BitRow.make(rng.randint(-200, 200), rng.getrandbits(rng.randint(1, 90)))
                for _ in range(6)]
        # far offsets and the empty row: the light cone's ring at either end
        rows += [eca.BitRow.make(sign * 10 ** 12, rng.getrandbits(40) | 1) for sign in (1, -1)]
        for row in rows + [eca.BitRow()]:
            assert eca.step_row(rule, row) == step_row_reference(rule, row), f"rule {n}"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 127), st.text("#.", max_size=16), st.integers(-60, 60),
       st.integers(0, 40))
def test_evolve_matches_iterated_reference(half, seed_text, offset, steps):
    # quiescent rules only; the seed may be empty or start with white cells
    rule = eca.parse_rule(2 * half)
    seed = eca.BitRow.from_string(seed_text, offset)
    rows = [seed]
    for _ in range(steps):
        rows.append(step_row_reference(rule, rows[-1]))
    hist = eca.evolve(rule, seed, steps)
    assert len(hist) == steps + 1 and hist.rows == tuple(rows)
    lo, hi = seed.offset - steps, seed.offset + max(seed.width, 1) - 1 + steps
    assert hist.to_text() == ["".join(".#"[row[p]] for p in range(lo, hi + 1))
                              for row in rows]


def test_center_column_matches_naive_column_from_evolve():
    rng = random.Random(4)
    for _ in range(60):
        rule = eca.parse_rule(rng.randrange(0, 256, 2))
        steps = rng.randint(0, 60)
        offset = rng.choice([rng.randint(-3 * steps - 5, 3 * steps + 5),
                             -rng.randint(0, 40), rng.randint(steps, 2 * steps + 40)])
        seed = eca.BitRow.make(offset, rng.getrandbits(rng.randint(0, 40)))
        naive = [row[0] for row in eca.evolve(rule, seed, steps).rows]
        assert eca.center_column(rule, steps, seed) == naive, (rule.number, steps, seed)


def test_center_column_seed_far_outside_the_light_cone():
    rule = eca.parse_rule(30)
    for offset in (-10 ** 12, 10 ** 12):
        assert eca.center_column(rule, 5, eca.BitRow.make(offset, 0b101)) == [0] * 6


def test_center_column_rule30_long_column():
    hist = eca.evolve(eca.parse_rule(30), eca.BitRow.single(0), 500)
    assert eca.center_column(eca.parse_rule(30), 500) == [row[0] for row in hist.rows]


# step counts around every multiple of the clip period up to 200
CLIP_STEPS = [k * eca._CLIP_PERIOD + d for k in range(1, 200 // eca._CLIP_PERIOD + 1)
              for d in (-1, 0, 1)]


@st.composite
def column_cases(draw):
    """(steps, seed): narrow seeds anywhere from inside the light cone to
    10**12 cells outside it on either side, and seeds wider than the cone."""
    steps = draw(st.one_of(st.integers(0, 200), st.sampled_from(CLIP_STEPS)))
    if draw(st.booleans()):
        bits = draw(st.integers(0, (1 << 24) - 1))
        offset = draw(st.one_of(st.integers(-3 * steps - 30, 3 * steps + 30),
                                st.integers(-10 ** 12 - 30, -10 ** 12 + 30),
                                st.integers(10 ** 12 - 30, 10 ** 12 + 30)))
    else:
        width = draw(st.integers(2 * steps + 2, 2 * steps + 40))
        bits = draw(st.integers(0, (1 << width) - 1)) | 1 | 1 << (width - 1)
        offset = draw(st.integers(-width - 5, 5))
    return steps, eca.BitRow.make(offset, bits)


def reference_column(rule, steps, seed):
    """Cell 0 of the per-cell oracle iterated."""
    row, column = seed, [seed[0]]
    for _ in range(steps):
        row = step_row_reference(rule, row)
        column.append(row[0])
    return column


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 127), column_cases())
def test_center_column_matches_iterated_reference(half, case):
    # every quiescent (even) rule
    rule, (steps, seed) = eca.parse_rule(2 * half), case
    assert eca.center_column(rule, steps, seed) == reference_column(rule, steps, seed)


def test_center_column_matches_iterated_reference_for_every_even_rule():
    rng = random.Random(7)
    for n in range(0, 256, 2):
        rule = eca.parse_rule(n)
        steps = rng.choice(CLIP_STEPS[:6])
        for seed in (eca.BitRow.single(0),
                     eca.BitRow.make(rng.randint(-steps - 10, steps + 10), rng.getrandbits(20)),
                     eca.BitRow.make(-steps - 3, rng.getrandbits(2 * steps + 7))):
            assert eca.center_column(rule, steps, seed) == \
                reference_column(rule, steps, seed), (n, steps, seed)


def test_center_column_errors():
    with pytest.raises(eca.InvalidSteps):
        eca.center_column(eca.parse_rule(30), -1)
    with pytest.raises(eca.UnsupportedBackground):
        eca.center_column(eca.parse_rule(255), 3)
    assert eca.center_column(eca.parse_rule(255), 0) == [1]


def test_negative_steps_are_domain_errors():
    rule = eca.parse_rule(30)
    for call in (lambda: eca.evolve(rule, eca.BitRow.single(), -1),
                 lambda: eca.evolve_cycle(rule, 1, 8, -1)):
        with pytest.raises(eca.InvalidSteps):
            call()
    assert issubclass(eca.InvalidSteps, ValueError)


def test_evolve_cycle_refuses_a_bad_width_at_any_step_count():
    rule = eca.parse_rule(30)
    for width in (0, -1):
        for steps in (0, 1):
            with pytest.raises(InvalidArgument, match=f"ring width must be >= 1, got {width}"):
                eca.evolve_cycle(rule, 1, width, steps)


def test_evolve_cycle_row_cap():
    with pytest.raises(eca.RowLimitExceeded):
        eca.evolve_cycle(eca.parse_rule(30), 1, 8, 100, max_rows=50)
    assert len(eca.evolve_cycle(eca.parse_rule(30), 1, 8, 49, max_rows=50)) == 50


def test_history_cell_cap_applies_in_both_modes(monkeypatch):
    rule, limit = eca.parse_rule(30), eca.HISTORY_CELL_LIMIT
    # refused before any row is built, so past the cap costs nothing
    with pytest.raises(eca.RowLimitExceeded, match=f"100 rows of {limit // 100 + 1} cells"):
        eca.evolve_cycle(rule, 1, limit // 100 + 1, 99)
    with pytest.raises(eca.RowLimitExceeded, match=f"cap of {limit} cells"):
        eca.evolve(rule, eca.BitRow.single(), 11585, max_rows=20_000)  # 11586 x 23171
    # the boundary, on a cap small enough to reach
    monkeypatch.setattr(eca, "HISTORY_CELL_LIMIT", 100)
    assert len(eca.evolve_cycle(rule, 1, 10, 9)) == 10
    with pytest.raises(eca.RowLimitExceeded):
        eca.evolve_cycle(rule, 1, 10, 10)
    assert len(eca.evolve(rule, eca.BitRow.single(), 6)) == 7  # 7 rows x 13 cells
    with pytest.raises(eca.RowLimitExceeded):
        eca.evolve(rule, eca.BitRow.single(), 7)  # 8 x 15


def test_center_column_step_cap(monkeypatch):
    rule = eca.parse_rule(30)
    # refused before the window is built: 10**12 steps need a 250 GB integer
    with pytest.raises(eca.InvalidSteps, match=f"<= {eca.CENTER_COLUMN_STEPS}"):
        eca.center_column(rule, 10 ** 12)
    monkeypatch.setattr(eca, "CENTER_COLUMN_STEPS", 10)
    assert len(eca.center_column(rule, 10)) == 11
    with pytest.raises(eca.InvalidSteps):
        eca.center_column(rule, 11)


def test_cycle_agrees_with_unbounded_while_light_cone_fits():
    width = 131
    for n in (30, 90, 110, 254):
        rule = eca.parse_rule(n)
        states = eca.evolve_cycle(rule, 1 << (width // 2), width, 60)
        hist = eca.evolve(rule, eca.BitRow.single(width // 2), 60)
        for ring, row in zip(states, hist.rows):
            assert ring == (row.bits << row.offset), f"rule {n}"


@given(st.integers(min_value=0, max_value=2 ** 40 - 1), st.integers(-50, 50))
def test_bitrow_make_canonicalises(bits, offset):
    row = eca.BitRow.make(offset, bits)
    if bits == 0:
        assert row == eca.BitRow()
    else:
        assert row.bits & 1
        assert set(row.cells()) == {offset + i for i in range(41) if (bits >> i) & 1}


@given(st.sets(st.integers(-100, 100), max_size=30))
def test_bitrow_from_cells_round_trip(cells):
    row = eca.BitRow.from_cells(cells)
    assert set(row.cells()) == cells
    assert row.population() == len(cells)


def test_bitrow_rejects_non_canonical():
    with pytest.raises(ValueError):
        eca.BitRow(0, 2)
    with pytest.raises(ValueError):
        eca.BitRow(3, 0)


def test_history_text_render():
    hist = eca.evolve(eca.parse_rule(254), eca.BitRow.single(0), 2)
    assert hist.to_text(-2, 2) == ["..#..", ".###.", "#####"]
