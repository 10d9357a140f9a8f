from fractions import Fraction

import pytest

from emergelab import turing
from emergelab.fixtures import load_text


@pytest.fixture(scope="module")
def succ():
    return turing.parse_machine(load_text("succ_enum.tm"))


@pytest.fixture(scope="module")
def copy_last():
    return turing.parse_machine(load_text("copy_last_block.tm"))


# ---------------------------------------------------------------------------
# parsing

def test_parse_succ_enum(succ):
    assert succ.name == "succ_enum"
    assert succ.tapes == 2
    assert succ.start == "s0" and succ.halt == "done"
    assert ("emit", ("1", "0")) in succ.transitions


def test_parse_rejects_single_tape():
    with pytest.raises(turing.TooFewTapes):
        turing.parse_machine("name t\ntapes 1\nstart a\nhalt z\n")


def test_parse_rejects_bad_symbol():
    text = "name t\ntapes 2\nstart a\nhalt z\na 0 0 -> z 2 0 S S -\n"
    with pytest.raises(turing.MachineParseError):
        turing.parse_machine(text)


def test_parse_rejects_duplicate_transition():
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 0 0 -> z 0 0 S S -\n"
            "a 0 0 -> z 1 0 S S -\n")
    with pytest.raises(turing.MachineParseError):
        turing.parse_machine(text)


def test_parse_rejects_undefined_reached_state():
    text = "name t\ntapes 2\nstart a\nhalt z\na 0 0 -> ghost 0 0 S S -\n"
    with pytest.raises(turing.MachineParseError):
        turing.parse_machine(text)


def test_parse_rejects_transition_out_of_halt():
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 0 0 -> z 0 0 S S -\n"
            "z 0 0 -> z 0 0 S S -\n")
    with pytest.raises(turing.MachineParseError):
        turing.parse_machine(text)


def test_parse_comment_disambiguation():
    text = ("# a comment line\n"
            "name t\ntapes 2\nstart a\nhalt z\n"
            "a 1 0 -> z 1 0 S S -\n")
    spec = turing.parse_machine(text)
    assert len(spec.transitions) == 1
    with pytest.raises(turing.MachineParseError):
        turing.parse_machine("#not-a-comment\n" + text)


@pytest.mark.parametrize("bad_line,message", [
    ("z 0 0 -> z 0 0 S S -", "out of halt state"),
    ("b 0 0 -> ghost 0 0 S S -", "'ghost' is reached but never defined"),
    ("b 0 0 -> z 0 0 S S", "expected 10 tokens"),
    ("b 0 0 => z 0 0 S S -", "expected '->'"),
    ("b 0 0 -> z 0 2 S S -", "unknown symbol '2'"),
    ("b 0 0 -> z 0 0 S U -", "unknown move 'U'"),
    ("b 0 0 -> z 0 0 S S x", "unknown output action 'x'"),
    ("a 0 0 -> z 0 0 S S -", "duplicate transition"),
])
def test_parse_errors_carry_the_transition_line(bad_line, message):
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 0 0 -> b 0 0 S S -\n"
            "b 1 0 -> z 1 0 S S -\n"
            "# the offending rule follows\n"
            f"{bad_line}\n"
            "b # 0 -> z # 0 S S -\n")
    with pytest.raises(turing.MachineParseError) as err:
        turing.parse_machine(text)
    assert err.value.line == 8
    assert message in str(err.value) and str(err.value).endswith("(line 8)")


def test_parse_undefined_target_names_its_first_line():
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 0 0 -> a 1 0 S R -\n"
            "a 1 0 -> ghost 0 0 S S -\n"
            "a # 0 -> ghost 0 0 S S -\n")
    with pytest.raises(turing.MachineParseError) as err:
        turing.parse_machine(text)
    assert err.value.line == 6


# ---------------------------------------------------------------------------
# running

def test_run_succ_enum_n3(succ):
    trace = turing.run(succ, 3, 10 ** 6)
    assert trace.halted
    assert trace.values == [1, 2, 3]
    steps = [e.step for e in trace.entries]
    assert steps == sorted(steps) and len(set(steps)) == 3


def test_run_budget_exhaustion(succ):
    with pytest.raises(turing.BudgetExceeded) as err:
        turing.run(succ, 3, 1)
    assert err.value.trace.entries == ()
    assert not err.value.trace.halted


def test_run_n1_prefix_of_n3(succ):
    t1 = turing.run(succ, 1, 10 ** 6)
    t3 = turing.run(succ, 3, 10 ** 6)
    assert t1.values == [1]
    assert t3.values[:1] == t1.values


def test_prefix_property_up_to_10(succ):
    traces = {n: turing.run(succ, n, 10 ** 6) for n in range(1, 11)}
    for n in range(2, 11):
        assert traces[n].values[:n - 1] == traces[n - 1].values


def test_determinism(succ):
    a = turing.run(succ, 7, 10 ** 6)
    b = turing.run(succ, 7, 10 ** 6)
    assert a == b


def test_step_monotonicity(succ):
    for n in (1, 2, 5, 9, 16):
        steps = [e.step for e in turing.run(succ, n, 10 ** 6).entries]
        assert all(a < b for a, b in zip(steps, steps[1:]))


def test_stuck_state_reports_configuration():
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 0 0 -> z 0 0 S S -\n")
    spec = turing.parse_machine(text)
    with pytest.raises(turing.StuckState) as err:
        turing.run(spec, 1, 100)  # tape 1 starts with '1', no rule for it
    assert err.value.state == "a"


def test_empty_block_rejected():
    text = ("name t\ntapes 2\nstart a\nhalt z\n"
            "a 1 0 -> z 1 0 S S #\n")
    spec = turing.parse_machine(text)
    with pytest.raises(turing.EmptyBlock):
        turing.run(spec, 1, 100)


def test_input_encoding():
    assert turing.encode_input(1) == ["1", "#"]
    assert turing.encode_input(6) == ["1", "1", "0", "#"]
    with pytest.raises(ValueError):
        turing.encode_input(0)


def test_verify_enumeration(succ):
    trace = turing.run(succ, 3, 10 ** 6)
    assert turing.verify_enumeration(trace, [1, 2, 3])
    assert not turing.verify_enumeration(trace, [1, 2, 4])
    assert not turing.verify_enumeration(trace, [1, 2])
    empty = turing.EnumTrace((), 0, True)
    assert turing.verify_enumeration(empty, [])


def test_verify_enumeration_requires_halt(succ):
    try:
        turing.run(succ, 3, 30)
    except turing.BudgetExceeded as err:
        assert not turing.verify_enumeration(err.trace, err.trace.values)


# ---------------------------------------------------------------------------
# composition and the approximation audit

def test_compose_extracts_final_value(succ, copy_last):
    value, total, frag = turing.compose(succ, copy_last, 3, 10 ** 6)
    assert value == 3
    assert frag.intermediate == 3
    assert total == frag.approx_steps + frag.finisher_steps


def test_compose_identity_finisher_keeps_r1(succ, copy_last):
    value, _, frag = turing.compose(succ, copy_last, 1, 10 ** 6)
    assert value == frag.intermediate == 1


def test_compose_last_block_equals_trace(succ, copy_last):
    for n in (1, 4, 9):
        value, _, _ = turing.compose(succ, copy_last, n, 10 ** 6)
        assert value == turing.run(succ, n, 10 ** 6).entries[-1].value


def test_compose_mismatched_finisher_sticks(succ):
    mismatched = turing.parse_machine(load_text("mismatched_finisher.tm"))
    with pytest.raises(turing.StuckState) as err:
        turing.compose(succ, mismatched, 3, 10 ** 6)
    assert err.value.phase == "finisher"


@pytest.fixture(scope="module")
def identity_tables(succ):
    values = list(range(1, 21))
    timing = [turing.run(succ, i, 10 ** 6).total_steps for i in values]
    return values, timing


def test_audit_succ_with_copy_finisher_passes(succ, copy_last, identity_tables):
    values, timing = identity_tables
    witness = turing.BigOWitness(Fraction(8), 1)
    report = turing.audit_approximation(succ, copy_last, values, timing,
                                        witness, range(1, 21))
    assert report.verdict and not report.vacuous
    assert [r.index for r in report.records] == list(range(1, 21))
    assert all(r.passed for r in report.records)
    for r in report.records:
        assert r.bound == Fraction(8) * timing[r.index - 1] / r.index


def test_audit_recompute_finisher_fails(succ, identity_tables):
    values, timing = identity_tables
    witness = turing.BigOWitness(Fraction(8), 1)
    report = turing.audit_approximation(succ, succ, values, timing,
                                        witness, range(1, 21))
    assert not report.verdict
    first_fail = next(r.index for r in report.records if not r.passed)
    assert first_fail <= 20
    # recomputation costs the full enumeration, so it fails once i > c
    assert all(r.passed == (r.index <= 8) for r in report.records)


def test_audit_empty_range_is_vacuous(succ, copy_last, identity_tables):
    values, timing = identity_tables
    report = turing.audit_approximation(succ, copy_last, values, timing,
                                        turing.BigOWitness(Fraction(8), 1), [])
    assert report.vacuous and report.verdict and report.records == ()


def test_audit_respects_n0(succ, copy_last, identity_tables):
    values, timing = identity_tables
    report = turing.audit_approximation(succ, copy_last, values, timing,
                                        turing.BigOWitness(Fraction(8), 5),
                                        range(1, 11))
    assert [r.index for r in report.records] == list(range(5, 11))


def test_audit_wrong_finisher_output(succ, copy_last, identity_tables):
    values, timing = identity_tables
    wrong = [v + 1 for v in values]
    with pytest.raises(turing.WrongFinisherOutput) as err:
        turing.audit_approximation(succ, copy_last, wrong, timing,
                                   turing.BigOWitness(Fraction(8), 1), [3])
    assert err.value.index == 3


def test_audit_missing_intermediate(succ, copy_last, identity_tables):
    # an approximation that stops after one block cannot supply r_2
    text = ("name one_shot\ntapes 2\nstart a\nhalt z\n"
            "a 1 0 -> b 1 0 S S 1\n"
            "b 1 0 -> z 1 0 S S #\n")
    one_shot = turing.parse_machine(text)
    values, timing = identity_tables
    with pytest.raises(turing.MissingIntermediate):
        turing.audit_approximation(one_shot, copy_last, values, timing,
                                   turing.BigOWitness(Fraction(8), 1), [2])


def test_audit_report_names_its_timing_source(succ, copy_last, identity_tables):
    values, timing = identity_tables
    report = turing.audit_approximation(succ, copy_last, values, timing,
                                        turing.BigOWitness(Fraction(8), 1),
                                        range(1, 4))
    assert "user-supplied" in report.timing_note
    assert report.reference_timing == tuple(timing)


def test_format_trace(succ):
    trace = turing.run(succ, 2, 10 ** 6)
    lines = turing.format_trace(trace).splitlines()
    assert lines == [f"1 1 {trace.entries[0].step}", f"2 2 {trace.entries[1].step}"]


def test_output_tape_is_write_only(succ):
    # transition keys mention only the work tapes, so no rule can read output
    for (_, symbols) in succ.transitions:
        assert len(symbols) == succ.tapes
