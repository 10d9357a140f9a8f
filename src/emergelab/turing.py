"""Multi-tape Turing machines with enumerative traces and step accounting.

The machine model: 3 symbols (0, 1, #), k >= 2 work tapes unbounded in both
directions with blank 0, and a write-only output tape.  A machine that, on
input n, writes f(1)..f(n) in order on the output tape (values in binary,
most-significant bit first, each closed by '#') produces an enumerative
trace: the ordered list of (value, step index at which its '#' was written).

Machines are described in a line-oriented text DSL; see parse_machine.
Input n is written on work tape 1 in binary MSB-first starting at cell 0
and closed by a '#' terminator (without the terminator the encoding would
not be injective: 3 and 6 would both read as 1,1 followed by blanks).

The approximation audit (`audit_approximation`) checks, at finitely many
indices, that a finisher machine turns each intermediate result r_i into
f(i) within c * T(i) / i steps for a supplied timing table T.  The table is
user-supplied (typically the measured steps of the best machine at hand);
the report says so, since a provably fastest machine is not constructible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import EmergeLabError, InvalidArgument

SYMBOLS = ("0", "1", "#")
MOVES = ("L", "R", "S")
OUTPUT_ACTIONS = ("-", "0", "1", "#")
BLANK = "0"

_MOVE_DELTA = {"L": -1, "R": 1, "S": 0}


class MachineError(EmergeLabError):
    """Base class for machine definition and execution errors."""


class MachineParseError(MachineError):
    def __init__(self, message, line=None):
        super().__init__(message + (f" (line {line})" if line is not None else ""))
        self.line = line


class TooFewTapes(MachineParseError):
    """Machines need at least two work tapes."""


class BudgetExceeded(MachineError):
    """Step budget ran out before the machine halted; carries the partial
    trace and, when raised inside a composition, the phase it happened in."""

    def __init__(self, budget, trace, phase=None):
        tag = f" in {phase} phase" if phase else ""
        super().__init__(f"step budget of {budget} exhausted{tag}")
        self.budget = budget
        self.trace = trace
        self.phase = phase


class StuckState(MachineError):
    """No applicable transition in a non-halt state."""

    def __init__(self, state, symbols, step, phase=None):
        tag = f" in {phase} phase" if phase else ""
        super().__init__(
            f"no transition from state {state!r} reading {''.join(symbols)}"
            f" at step {step}{tag}")
        self.state = state
        self.symbols = symbols
        self.step = step
        self.phase = phase


class EmptyBlock(MachineError):
    """A '#' was emitted with no digits in the current block."""


class NoOutput(MachineError):
    """A finisher halted without completing any output block."""


class WrongFinisherOutput(MachineError):
    def __init__(self, index, expected, got):
        super().__init__(f"finisher produced {got} for index {index}, expected {expected}")
        self.index = index
        self.expected = expected
        self.got = got


class MissingIntermediate(MachineError):
    def __init__(self, index, available):
        super().__init__(
            f"approximation run produced {available} output blocks, "
            f"none for index {index}")
        self.index = index
        self.available = available


class Transition(NamedTuple):
    next_state: str
    writes: tuple[str, ...]
    moves: tuple[str, ...]
    output: str  # '-' or a symbol to emit


@dataclass(frozen=True)
class MachineSpec:
    """A parsed machine description; build it with `parse_machine`, which
    checks every rule.

    Transitions key on (state, symbols read from the k work tapes).  The
    output tape is write-only by construction: no transition key mentions
    it.
    """

    name: str
    tapes: int
    start: str
    halt: str
    transitions: dict[tuple[str, tuple[str, ...]], Transition]


def parse_machine(text: str, name: str | None = None) -> MachineSpec:
    """Parse the line-oriented machine DSL.

    Header lines: `name <id>`, `tapes <k>`, `start <state>`, `halt <state>`.
    Transition lines: `<state> <s1>..<sk> -> <state'> <w1>..<wk> <m1>..<mk>
    <out>` with symbols in {0,1,#}, moves in {L,R,S} and out in {-,0,1,#}.
    A line is a comment only when column 0 holds '#' followed by a space
    (a bare '#' would be ambiguous with the tape symbol).  There is no
    transition out of the halt state, and every other state a transition
    enters has transitions of its own; errors in transition lines carry
    their line number.
    """
    header: dict[str, str] = {}
    raw_transitions: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line == "#" or line.startswith("# "):
                continue
            raise MachineParseError(
                "lines starting with '#' must be comments ('# ...')", line=lineno)
        tokens = line.split()
        if tokens[0] in ("name", "tapes", "start", "halt") and len(tokens) == 2:
            if tokens[0] in header:
                raise MachineParseError(f"duplicate header {tokens[0]!r}", line=lineno)
            header[tokens[0]] = tokens[1]
            continue
        raw_transitions.append((lineno, tokens))

    for key in ("tapes", "start", "halt"):
        if key not in header:
            raise MachineParseError(f"missing header line '{key} ...'")
    try:
        k = int(header["tapes"])
    except ValueError:
        raise MachineParseError(f"tapes must be an integer, got {header['tapes']!r}")
    if k < 2:
        raise TooFewTapes(f"need at least 2 work tapes, got {k}")

    halt = header["halt"]
    transitions: dict[tuple[str, tuple[str, ...]], Transition] = {}
    entered: dict[str, int] = {}  # state -> first line that enters it
    for lineno, tokens in raw_transitions:
        if len(tokens) != 3 * k + 4:
            raise MachineParseError(
                f"expected {3 * k + 4} tokens for a {k}-tape transition, "
                f"got {len(tokens)}", line=lineno)
        state = tokens[0]
        if state == halt:
            raise MachineParseError(f"transition out of halt state {state!r}",
                                    line=lineno)
        reads = tuple(tokens[1:1 + k])
        if tokens[1 + k] != "->":
            raise MachineParseError("expected '->' after read symbols", line=lineno)
        next_state = tokens[2 + k]
        writes = tuple(tokens[2 + k + 1:2 + 2 * k + 1])
        moves = tuple(tokens[3 + 2 * k:3 + 3 * k])
        output = tokens[3 + 3 * k]
        for s in reads + writes:
            if s not in SYMBOLS:
                raise MachineParseError(f"unknown symbol {s!r}", line=lineno)
        for m in moves:
            if m not in MOVES:
                raise MachineParseError(f"unknown move {m!r}", line=lineno)
        if output not in OUTPUT_ACTIONS:
            raise MachineParseError(f"unknown output action {output!r}", line=lineno)
        key = (state, reads)
        if key in transitions:
            raise MachineParseError(
                f"duplicate transition for {state} {''.join(reads)}", line=lineno)
        transitions[key] = Transition(next_state, writes, moves, output)
        entered.setdefault(next_state, lineno)

    defined = {state for state, _ in transitions}
    for state, lineno in entered.items():
        if state != halt and state not in defined:
            raise MachineParseError(
                f"state {state!r} is reached but never defined", line=lineno)
    return MachineSpec(name=header.get("name", name or "machine"), tapes=k,
                       start=header["start"], halt=halt, transitions=transitions)


class TraceEntry(NamedTuple):
    value: int
    step: int


@dataclass(frozen=True)
class EnumTrace:
    """Output blocks of one run: (value, step at which it was closed)."""

    entries: tuple[TraceEntry, ...]
    total_steps: int
    halted: bool
    raw_output: str = ""

    @property
    def values(self) -> list[int]:
        return [e.value for e in self.entries]

    def last_value(self) -> int:
        if not self.entries:
            raise NoOutput("trace has no completed output block")
        return self.entries[-1].value


def encode_input(n: int) -> list[str]:
    """Binary MSB-first plus the '#' terminator, as written on tape 1."""
    if n < 1:
        raise InvalidArgument(f"input must be >= 1, got {n}")
    return list(format(n, "b")) + ["#"]


def run(machine: MachineSpec, input_n: int, step_budget: int,
        phase: str | None = None) -> EnumTrace:
    """Simulate until halt or budget exhaustion.

    One applied transition is one step; entering the halt state does not
    count.  Emitted digits accumulate into the current block; each '#'
    closes the block and records (value, current step index).
    """
    if step_budget < 1:
        raise InvalidArgument(f"step_budget must be >= 1, got {step_budget}")
    tapes = [dict() for _ in range(machine.tapes)]
    for i, sym in enumerate(encode_input(input_n)):
        if sym != BLANK:
            tapes[0][i] = sym
    heads = [0] * machine.tapes

    entries: list[TraceEntry] = []
    out_chars: list[str] = []
    block: list[str] = []
    state = machine.start
    steps = 0
    transitions = machine.transitions

    while state != machine.halt:
        if steps >= step_budget:
            raise BudgetExceeded(
                step_budget,
                EnumTrace(tuple(entries), steps, False, "".join(out_chars)),
                phase=phase)
        reads = tuple(tape.get(head, BLANK) for tape, head in zip(tapes, heads))
        tr = transitions.get((state, reads))
        if tr is None:
            raise StuckState(state, reads, steps, phase=phase)
        for i in range(machine.tapes):
            w = tr.writes[i]
            if w == BLANK:
                tapes[i].pop(heads[i], None)
            else:
                tapes[i][heads[i]] = w
            heads[i] += _MOVE_DELTA[tr.moves[i]]
        steps += 1
        if tr.output != "-":
            out_chars.append(tr.output)
            if tr.output == "#":
                if not block:
                    raise EmptyBlock(
                        f"'#' emitted with an empty block at step {steps}")
                entries.append(TraceEntry(int("".join(block), 2), steps))
                block.clear()
            else:
                block.append(tr.output)
        state = tr.next_state

    return EnumTrace(tuple(entries), steps, True, "".join(out_chars))


def verify_enumeration(trace: EnumTrace, reference: Sequence[int]) -> bool:
    """True iff the trace halted, its values equal `reference` exactly and
    in order, and its step counts strictly increase."""
    if not trace.halted:
        return False
    if trace.values != list(reference):
        return False
    steps = [e.step for e in trace.entries]
    return all(a < b for a, b in zip(steps, steps[1:]))


@dataclass(frozen=True)
class ComposeBreakdown:
    """Per-phase accounting for a two-stage computation."""

    intermediate: int
    approx_steps: int
    finisher_steps: int


def compose(approx: MachineSpec, finisher: MachineSpec, input_n: int,
            step_budget: int) -> tuple[int, int, ComposeBreakdown]:
    """Two-stage computation: run `approx` on n, feed its final block to
    `finisher`, return (finisher's final value, total steps, breakdown).

    Each phase gets `step_budget` steps; errors carry the phase they
    happened in.
    """
    approx_trace = run(approx, input_n, step_budget, phase="approx")
    r_n = approx_trace.last_value()
    finisher_trace = run(finisher, r_n, step_budget, phase="finisher")
    value = finisher_trace.last_value()
    total = approx_trace.total_steps + finisher_trace.total_steps
    return value, total, ComposeBreakdown(r_n, approx_trace.total_steps,
                                          finisher_trace.total_steps)


@dataclass(frozen=True)
class BigOWitness:
    """Constants for an explicit big-O bound: steps <= c * T(i) / i for
    every audited index i >= n0."""

    c: Fraction
    n0: int

    def __post_init__(self):
        if self.c <= 0:
            raise InvalidArgument(f"c must be positive, got {self.c}")
        if self.n0 <= 0:
            raise InvalidArgument(f"n0 must be positive, got {self.n0}")

    def bound(self, timing: int, index: int) -> Fraction:
        return Fraction(self.c) * timing / index


class AuditRecord(NamedTuple):
    index: int
    intermediate: int
    finisher_steps: int
    bound: Fraction
    passed: bool


TIMING_NOTE = ("reference timing is a user-supplied table (typically measured "
               "steps of the best known machine); the audit is empirical, "
               "not a proof")


@dataclass(frozen=True)
class AuditReport:
    """Empirical audit of the approximation conditions at finitely many
    indices; `verdict` is the conjunction of per-index outcomes."""

    records: tuple[AuditRecord, ...]
    verdict: bool
    vacuous: bool
    witness: BigOWitness
    reference_timing: tuple[int, ...]
    timing_note: str = TIMING_NOTE


def audit_approximation(approx: MachineSpec, finisher: MachineSpec,
                        reference_values: Sequence[int],
                        reference_timing: Sequence[int],
                        witness: BigOWitness,
                        index_range: Iterable[int],
                        step_budget: int = 10 ** 7) -> AuditReport:
    """Check that `finisher` turns each intermediate result of `approx`
    into the reference value fast enough.

    `approx` is run once on the largest audited index; its i-th output
    block is taken as the intermediate result r_i.  For each audited index
    i >= witness.n0, the finisher must halt on r_i with
    reference_values[i-1] (1-based f(i)) within witness.c * T(i) / i steps,
    where T(i) = reference_timing[i-1].
    """
    indices = sorted(set(index_range))
    for i in indices:
        if i < 1:
            raise InvalidArgument(f"indices must be >= 1, got {i}")
        if i > len(reference_values) or i > len(reference_timing):
            raise InvalidArgument(
                f"index {i} outside the supplied reference tables")
    audited = [i for i in indices if i >= witness.n0]
    if not audited:
        return AuditReport((), True, True, witness, tuple(reference_timing))

    n_max = max(audited)
    approx_trace = run(approx, n_max, step_budget, phase="approx")
    records = []
    for i in audited:
        if i > len(approx_trace.entries):
            raise MissingIntermediate(i, len(approx_trace.entries))
        r_i = approx_trace.entries[i - 1].value
        finisher_trace = run(finisher, r_i, step_budget, phase="finisher")
        got = finisher_trace.last_value()
        expected = reference_values[i - 1]
        if got != expected:
            raise WrongFinisherOutput(i, expected, got)
        bound = witness.bound(reference_timing[i - 1], i)
        records.append(AuditRecord(i, r_i, finisher_trace.total_steps, bound,
                                   Fraction(finisher_trace.total_steps) <= bound))
    verdict = all(r.passed for r in records)
    return AuditReport(tuple(records), verdict, False, witness,
                       tuple(reference_timing))


def format_trace(trace: EnumTrace) -> str:
    """One line per entry: `<index> <value> <step_count>`."""
    return "".join(f"{i} {e.value} {e.step}\n"
                   for i, e in enumerate(trace.entries, start=1))
