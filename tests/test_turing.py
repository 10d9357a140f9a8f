import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emergelab import turing
from emergelab.errors import InvalidArgument
from emergelab.fixtures import load_text

from .oracles import tm_run_reference


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


def test_parse_caps_the_tape_count():
    header = "name t\ntapes {}\nstart a\nhalt z\n"
    limit = turing.TAPES_LIMIT
    assert turing.parse_machine(header.format(limit)).tapes == limit
    with pytest.raises(turing.MachineParseError, match=f"at most {limit} work tapes"):
        turing.parse_machine(header.format(limit + 1))
    # a count Python reads but that is far out of range is quoted short
    for tapes in ("1" * 4000, "-" + "1" * 4000):
        with pytest.raises(turing.MachineParseError) as err:
            turing.parse_machine(header.format(tapes))
        assert len(str(err.value)) < 80


def test_parse_names_the_digit_limit_of_a_tapes_header():
    # a header past the limit Python reads integers with is named with that
    # limit, whatever it is set to; a header that is no integer is quoted
    header = "name t\ntapes {}\nstart a\nhalt z\n"
    with pytest.raises(InvalidArgument, match="^tapes must be an integer, got 'two'$"):
        turing.parse_machine(header.format("two"))
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InvalidArgument,
                       match=f"^tapes holds an integer of more than {limit} digits$"):
        turing.parse_machine(header.format("1" * 5000))
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(InvalidArgument,
                           match="^tapes holds an integer of more than 640 digits$"):
            turing.parse_machine(header.format("1" * 700))
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_quotes_a_long_symbol_short():
    text = f"name t\ntapes 2\nstart a\nhalt z\na 0 0 -> z {'2' * 5000} 0 S S -\n"
    with pytest.raises(turing.MachineParseError) as err:
        turing.parse_machine(text)
    assert str(err.value) == "unknown symbol '222222222222...2222222222222' (line 5)"


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


@pytest.mark.parametrize("indices,tables,message", [
    ([0, 1], 20, "indices must be >= 1, got 0"),
    ([20, 21], 20, "index 21 outside the supplied reference tables"),
    ([3], 2, "index 3 outside the supplied reference tables"),
])
def test_audit_refuses_indices_outside_the_tables(succ, copy_last, identity_tables,
                                                  indices, tables, message):
    values, timing = identity_tables
    with pytest.raises(turing.InvalidArgument, match=message):
        turing.audit_approximation(succ, copy_last, values, timing[:tables],
                                   turing.BigOWitness(Fraction(8), 1), indices)


# One audit in a child limited to 1 GB of address space, so that one that
# built all its indices fails at once instead of exhausting memory.
LONG_RANGE_AUDIT = """
import resource, sys
from fractions import Fraction
from emergelab import turing
from emergelab.fixtures import load_text
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
machines = [turing.parse_machine(load_text(name))
            for name in ("succ_enum.tm", "copy_last_block.tm")]
try:
    turing.audit_approximation(*machines, [1, 2, 3], [5, 6, 7],
                               turing.BigOWitness(Fraction(8), 1),
                               range(*map(int, sys.argv[1:])))
except turing.InvalidArgument as exc:
    print(exc)
"""


@pytest.mark.parametrize("bounds,message", [
    ((1, 10 ** 12), "index 4 outside the supplied reference tables"),
    ((10 ** 12, 0, -1), "index 4 outside the supplied reference tables"),
    ((2, 10 ** 12, 3), "index 5 outside the supplied reference tables"),
    ((-10 ** 12, 10 ** 12), f"indices must be >= 1, got {-10 ** 12}"),
    ((10 ** 12, -10 ** 12 - 1, -1), f"indices must be >= 1, got {-10 ** 12}"),
])
def test_audit_refuses_a_long_range_before_building_it(bounds, message):
    # a range of 10**12 indices is checked against 3-entry tables before
    # any set of it is built: its smallest offending index is refused
    env = {**os.environ, "PYTHONPATH": str(Path(turing.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", LONG_RANGE_AUDIT, *map(str, bounds)],
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, message + "\n", "")


def test_audit_ranges_match_their_index_lists(succ, copy_last, identity_tables):
    # inside the tables a range audits the indices its list would
    values, timing = identity_tables
    witness = turing.BigOWitness(Fraction(8), 2)
    for indices in (range(1, 21), range(20, 0, -3), range(5, 5), range(19, 22, 2)):
        outcomes = []
        for given in (indices, list(indices)):
            try:
                outcomes.append(turing.audit_approximation(
                    succ, copy_last, values, timing, witness, given))
            except turing.InvalidArgument as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], indices


def test_compose_finisher_without_output(succ):
    silent = turing.parse_machine("name silent\ntapes 2\nstart a\nhalt z\n"
                                  "a 1 0 -> z 1 0 S S -\n")
    with pytest.raises(turing.NoOutput):
        turing.compose(succ, silent, 3, 10 ** 6)


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


# ---------------------------------------------------------------------------
# the decoded rule table against the reference runner

@st.composite
def machines(draw):
    """Rule lines of a random machine as token tuples.  Each state leaves
    about one read tuple in sixteen undefined, so runs can get stuck, and
    every output action is possible, so '#' can close an empty block.
    Halting and '#' are drawn rarely, so that many runs reach the budget."""
    k = draw(st.sampled_from([2, 3]))
    states = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    targets = st.sampled_from(states * 8 + ["h"])
    writes = st.sampled_from(list(product(turing.SYMBOLS, repeat=k)))
    moves = st.sampled_from(list(product(turing.MOVES, repeat=k)))
    outputs = st.sampled_from(("-", "0", "1") * 2 + ("#",))
    rules = []
    for state in states:
        for read in product(turing.SYMBOLS, repeat=k):
            if draw(st.integers(0, 15)) == 15 and any(r[0] == state for r in rules):
                continue
            rules.append((state, *read, "->", draw(targets), *draw(writes),
                          *draw(moves), draw(outputs)))
    return k, rules


def _spec(k, rules, start):
    return turing.parse_machine(f"tapes {k}\nstart {start}\nhalt h\n"
                                + "".join(" ".join(r) + "\n" for r in rules))


def _outcome(runner):
    try:
        return runner()
    except turing.MachineError as err:
        return type(err), str(err), vars(err)


@given(machines(), st.integers(1, 40), st.integers(1, 300),
       st.sampled_from([None, "finisher"]))
@settings(max_examples=200, deadline=None)
def test_run_matches_reference_runner(machine, input_n, budget, phase):
    k, rules = machine
    text = f"tapes {k}\nstart q0\nhalt h\n" + "".join(" ".join(r) + "\n" for r in rules)
    spec = turing.parse_machine(text)
    got = _outcome(lambda: turing.run(spec, input_n, budget, phase))
    want = _outcome(lambda: tm_run_reference(rules, k, "q0", "h", input_n, budget, phase))
    assert got == want


def test_rules_store_only_their_effect():
    spec = turing.parse_machine("tapes 3\nstart a\nhalt z\n"
                                "a 1 0 # -> z 1 # 0 S L R 1\n")
    assert spec.transitions["a", ("1", "0", "#")] == (
        "z", ((1, "#"), (2, "0")), ((1, -1), (2, 1)), "1")


def test_transitions_are_read_only():
    # `run` executes the table compiled with the spec, so an edit to the
    # rules could only drift from it: it raises instead
    text = "tapes 2\nstart a\nhalt z\na 1 0 -> z 1 0 S S -\n"
    spec = turing.parse_machine(text)
    key = ("a", ("1", "0"))
    with pytest.raises(TypeError):
        spec.transitions[key] = spec.transitions[key]._replace(output="1")
    with pytest.raises(TypeError):
        del spec.transitions[key]
    assert turing.parse_machine(text) == turing.parse_machine(text)
    # a spec built from a dict keeps its own copy of the rules
    rules = dict(spec.transitions)
    built = turing.MachineSpec("m", 2, "a", "z", rules)
    rules[key] = rules[key]._replace(output="1")
    assert built.transitions[key].output == "-"
    assert turing.run(built, 1, 10).raw_output == ""
    assert turing.run(turing.MachineSpec("m", 2, "a", "z", rules), 1, 10).raw_output == "1"


@st.composite
def sweep_machines(draw):
    """Rule lines of a machine built around copy-through sweeps.  State i
    sweeps a tape (mostly the same one for every state) over a drawn set of
    symbols, in the direction opposite to state i - 1's.  The rule that ends
    a sweep mostly writes a symbol of the set, enters state i + 1 and moves
    that state's tape its way, so machines bounce between sweeps over a
    written region that grows at both ends, left of cell 0 included.  Blank
    is in the set one time in four, and then a sweep can go on over blanks
    for ever.  About one read tuple in eight of the set breaks the sweep
    with another rule, and about one rule in eight outside it is left
    undefined."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(n)]
    main = draw(st.integers(0, k - 1))
    tapes = [draw(st.sampled_from([main] * 3 + list(range(k)))) for _ in states]
    first = draw(st.sampled_from([0, 1]))
    ways = ["LR"[(first + i) % 2] for i in range(n)]
    moves = st.sampled_from(list(product(turing.MOVES, repeat=k)))
    outputs = st.sampled_from(("-",) * 6 + ("0", "1") * 2 + ("#",))
    rules = []
    for i, state in enumerate(states):
        tape = tapes[i]
        through = sorted(draw(st.sets(st.sampled_from("1#"), min_size=1))
                         | ({"0"} if draw(st.integers(0, 3)) == 0 else set()))
        sweep = ["S"] * k
        sweep[tape] = ways[i]
        for read in product(turing.SYMBOLS, repeat=k):
            if read[tape] in through and draw(st.integers(0, 7)):
                rules.append((state, *read, "->", state, *read, *sweep, "-"))
                continue
            if draw(st.integers(0, 7)) == 7 and any(r[0] == state for r in rules):
                continue
            writes = [draw(st.sampled_from(turing.SYMBOLS)) for _ in range(k)]
            if draw(st.integers(0, 3)):
                writes[tape] = draw(st.sampled_from(through))
            step = list(draw(moves))
            nxt = draw(st.sampled_from([(i + 1) % n] * 12 + list(range(n)) + [None]))
            if nxt is not None and draw(st.integers(0, 3)):
                step[tapes[nxt]] = ways[nxt]
            rules.append((state, *read, "->", "h" if nxt is None else states[nxt],
                          *writes, *step, draw(outputs)))
    return k, rules


@given(sweep_machines(), st.integers(1, 2 ** 24), st.integers(1, 3000))
@settings(max_examples=200, deadline=None)
def test_sweeps_match_reference_runner(machine, input_n, budget):
    k, rules = machine
    spec = _spec(k, rules, "q0")
    got = _outcome(lambda: turing.run(spec, input_n, budget))
    want = _outcome(lambda: tm_run_reference(rules, k, "q0", "h", input_n, budget))
    assert got == want


def _zigzag(k, tape):
    """Rule lines of a machine that sweeps `tape` right over 1s and '#'s,
    writes a 1 on the blank past the end and turns, then does the same
    leftwards, for ever: the written region grows by a cell at each end per
    round, past cell 0 on the left.  The other tapes stay on their first
    cell.  A right turn emits '1' and a left turn '#'."""
    fixed = ["1"] + ["0"] * (k - 1)

    def rule(state, read, nxt, write, move, out):
        reads, writes, moves = list(fixed), list(fixed), ["S"] * k
        reads[tape], writes[tape], moves[tape] = read, write, move
        return (state, *reads, "->", nxt, *writes, *moves, out)

    return [rule("r", "1", "r", "1", "R", "-"), rule("r", "#", "r", "#", "R", "-"),
            rule("r", "0", "l", "1", "L", "1"), rule("l", "1", "l", "1", "L", "-"),
            rule("l", "#", "l", "#", "L", "-"), rule("l", "0", "r", "1", "R", "#")]


def test_left_edge_growth_never_wraps():
    # tape 2 starts as one blank cell: after writing '#' on it, one step left
    # must read blank at cell -1, not the '#' at the end of the tape
    step = _spec(2, [("a", "1", "0", "->", "b", "1", "#", "S", "L", "1"),
                     ("b", "1", "0", "->", "h", "1", "0", "S", "S", "#"),
                     ("b", "1", "#", "->", "h", "1", "#", "S", "S", "0")], "a")
    assert turing.run(step, 1, 10).entries == ((1, 2),)
    # the same through sweeps: the first left turn steps to cell -1, and
    # every later left sweep runs past the cells written so far
    spec = _spec(2, _zigzag(2, 1), "r")
    with pytest.raises(turing.BudgetExceeded) as err:
        turing.run(spec, 1, 200)
    # round m closes its block at step 2m^2 - m + 1
    assert err.value.trace.entries == tuple((1, 2 * m * m - m + 1) for m in range(1, 11))
    assert err.value.trace.total_steps == 200


@pytest.mark.parametrize("k,tape", [(2, 0), (2, 1), (3, 2)])
def test_zigzag_sweeps_match_reference_runner_at_every_budget(k, tape):
    # every budget up to 300 steps ends once inside or at the end of a sweep
    rules = _zigzag(k, tape)
    spec = _spec(k, rules, "r")
    for budget in range(1, 300):
        got = _outcome(lambda: turing.run(spec, 1, budget))
        want = _outcome(lambda: tm_run_reference(rules, k, "r", "h", 1, budget))
        assert got == want, budget
