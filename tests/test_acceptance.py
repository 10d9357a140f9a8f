"""Acceptance suite: every release criterion as one test with its stated
tolerance and time budget, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from emergelab import analysis, ant, candidates, eca, life, turing
from emergelab.fixtures import load_text

from .oracles import life_run_dense, step_cycle_reference


@contextmanager
def criterion(num, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {num:02d} {name}: FAIL "
              f"(took {elapsed:.3f}s, budget {budget_s}s)")
        raise AssertionError(
            f"criterion {num} exceeded its time budget: {elapsed:.3f}s >= {budget_s}s")
    note = f" ({elapsed * 1000:.1f} ms" + \
        (f", budget {budget_s * 1000:.0f} ms)" if budget_s else ")")
    print(f"criterion {num:02d} {name}: PASS{note}")


def test_criterion_01_rule_numbering():
    # sub-ms budget: take the fastest of a few attempts so scheduler noise
    # cannot fail a criterion that is otherwise exact
    def body():
        table = eca.parse_rule(254)
        assert table.outputs == (0, 1, 1, 1, 1, 1, 1, 1)
        assert table.number == 254
        for n in range(256):
            assert eca.rule_number(eca.parse_rule(n).outputs) == n

    body()  # warm the path so the timing covers the work itself
    best = min(_timed(body) for _ in range(5))
    status = "PASS" if best < 0.001 else "FAIL"
    print(f"criterion 01 rule-numbering: {status} "
          f"({best * 1000:.2f} ms best of 5, budget 1 ms)")
    assert best < 0.001


def _timed(body):
    t0 = time.perf_counter()
    body()
    return time.perf_counter() - t0


def test_criterion_02_rule90_is_pascal_mod_2():
    with criterion(2, "rule90-binomial-parity", budget_s=1.0):
        history = eca.evolve(eca.parse_rule(90), eca.BitRow.single(0), 256,
                             max_rows=257)
        row = [1]
        for n in range(257):
            expected = {2 * k - n for k, v in enumerate(row) if v}
            assert set(history.rows[n].cells()) == expected, f"generation {n}"
            row = [a ^ b for a, b in zip([0] + row, row + [0])]


def test_criterion_03_rule30_column_statistics():
    with criterion(3, "rule30-column-randomness", budget_s=5.0):
        column = eca.center_column(eca.parse_rule(30), 2 ** 14 - 1)
        assert len(column) == 2 ** 14
        assert abs(float(analysis.ones_fraction(column)) - 0.5) <= 0.02
        assert analysis.block_entropy(column, 8) >= 7.8
        assert analysis.no_short_period(column, 2048)


def test_criterion_04_glider_translation_and_fate():
    with criterion(4, "glider-diagonal-period-4"):
        glider = life.parse_rle(load_text("glider.rle"))
        assert life.run(glider, 4) == life.translate(glider, 1, 1)
        fate = life.detect_fate(glider, 10)
        assert fate.verdict == "translator"
        assert fate.period == 4
        assert (fate.dx, fate.dy) == (1, 1)


def test_criterion_05_gosper_gun_emission_rate():
    gun = life.parse_rle(load_text("gosper_gun.rle"))
    with criterion(5, "gun-emits-5-cells-per-30-gens", budget_s=0.5):
        populations = []
        state = gun
        for _ in range(331):
            populations.append(life.population(state))
            state = life.step(state)
        for t in range(60, 301):
            assert populations[t + 30] - populations[t] == 5, f"t={t}"


def test_criterion_06_ant_highway():
    with criterion(6, "ant-highway-period-104", budget_s=1.0):
        report = ant.detect_highway(ant.standard_start(), 20_000, 16, 5)
        assert report.found
        assert report.period == 104
        assert 9_000 <= report.onset <= 12_000
    # soundness replay over 20 periods, via from-scratch window extraction
    base = ant.run(ant.standard_start(), report.onset)
    base_fp = ant.window_fingerprint(base, report.window_radius)
    state = base
    for k in range(1, 21):
        state = ant.run(state, report.period)
        assert ant.window_fingerprint(state, report.window_radius) == base_fp
        assert state.pos == (base.pos[0] + k * report.dx,
                             base.pos[1] + k * report.dy)


def test_criterion_07_enumerative_traces():
    with criterion(7, "enumerative-trace-contract"):
        machine = turing.parse_machine(load_text("succ_enum.tm"))
        traces = {n: turing.run(machine, n, 10 ** 6) for n in range(1, 11)}
        for n, trace in traces.items():
            steps = [e.step for e in trace.entries]
            assert all(a < b for a, b in zip(steps, steps[1:])), f"n={n}"
            assert turing.verify_enumeration(trace, list(range(1, n + 1)))
        for n in range(2, 11):
            assert traces[n].values[:n - 1] == traces[n - 1].values


def test_criterion_08_approximation_audit():
    with criterion(8, "approximation-audit"):
        approx = turing.parse_machine(load_text("succ_enum.tm"))
        finisher = turing.parse_machine(load_text("copy_last_block.tm"))
        values = list(range(1, 21))
        timing = [turing.run(approx, i, 10 ** 6).total_steps for i in values]
        witness = turing.BigOWitness(Fraction(8), 1)
        good = turing.audit_approximation(approx, finisher, values, timing,
                                          witness, range(1, 21))
        assert good.verdict and not good.vacuous
        assert len(good.records) == 20
        bad = turing.audit_approximation(approx, approx, values, timing,
                                         witness, range(1, 21))
        assert not bad.verdict
        assert any(not r.passed for r in bad.records if r.index <= 20)
        # determinism of the step counts
        again = turing.audit_approximation(approx, finisher, values, timing,
                                           witness, range(1, 21))
        assert again.records == good.records


def test_criterion_09_candidate_functions():
    with criterion(9, "candidate-functions", budget_s=30.0):
        assert candidates.digit_chain(candidates.DigitStream.from_sqrt(2), 2) \
            == [4, 1421]
        pi_stream = candidates.DigitStream.from_text(load_text("pi_digits.txt"))
        assert candidates.digit_chain(pi_stream, 3) == [1, 4, 1592]

        dfa = candidates.parse_dfa(load_text("even_ones.dfa"))
        brute = 0
        for n in range(1, 1001):
            assert candidates.language_count(dfa, n) == brute
            if candidates.enumerate_words(n).count("1") % 2 == 0:
                brute += 1

        for n in (0, 1, 7, 15, 32, 64):
            assert candidates.life_survival_count(n) == \
                candidates.life_survival_count(n, run=life_run_dense), f"n={n}"


def test_criterion_10_kernel_equivalence():
    with criterion(10, "bitpacked-vs-naive-kernels", budget_s=10.0):
        width = 131
        seed = 1 << (width // 2)
        for number in range(256):
            rule = eca.parse_rule(number)
            bits = seed
            for _ in range(64):
                fast = eca.step_cycle(rule, bits, width)
                slow = step_cycle_reference(rule, bits, width)
                assert fast == slow, f"rule {number}"
                bits = fast


def test_criterion_11_soft_performance_targets():
    # reported, non-blocking: numbers go to stdout, nothing is asserted
    rule = eca.parse_rule(30)
    width = 1 << 20
    bits = random.Random(1).getrandbits(width)
    t0 = time.perf_counter()
    for _ in range(8):
        bits = eca.step_cycle(rule, bits, width)
    eca_rate = 8 * width / (time.perf_counter() - t0)

    rng = random.Random(42)
    soup = frozenset((rng.randrange(180), rng.randrange(180))
                     for _ in range(12_000))
    soup = frozenset(list(soup)[:10_000])
    t0 = time.perf_counter()
    life.run(soup, 20)
    life_ms = (time.perf_counter() - t0) / 20 * 1000

    print(f"criterion 11 soft-performance: REPORT "
          f"(eca {eca_rate:.2e} cell-updates/s vs target 5e7; "
          f"life {life_ms:.2f} ms/gen at 1e4 cells vs target 1 ms)")


def test_criterion_12_rle_round_trip_corpus():
    with criterion(12, "rle-round-trip-corpus"):
        corpus = ["glider.rle", "block.rle", "blinker.rle", "toad.rle",
                  "beacon.rle", "beehive.rle", "loaf.rle", "boat.rle",
                  "tub.rle", "lwss.rle", "pulsar.rle", "rpentomino.rle",
                  "gosper_gun.rle"]
        assert len(corpus) >= 10
        for name in corpus:
            text = load_text(name)
            cells = life.parse_rle(text)
            written = life.write_rle(cells)
            assert life.parse_rle(written) == cells, name
            assert written == text, f"{name} writer output is not byte-stable"
