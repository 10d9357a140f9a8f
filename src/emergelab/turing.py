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

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import EmergeLabError, InvalidArgument, integer

SYMBOLS = ("0", "1", "#")
MOVES = {"L": -1, "R": 1, "S": 0}  # move letter -> head delta
OUTPUT_ACTIONS = ("-", "0", "1", "#")
# the most work tapes a machine may declare: `run` builds a tape and a head
# for each before its first step, and a stuck state's message lists one
# symbol per tape, so a 3-line file asking for 2e6 tapes took 200 MB and a
# 2e6-character message.  Every machine here uses two or three.
TAPES_LIMIT = 64
# the largest `tm audit --max-index` that `--timing-from` measures: it runs
# its machine once per index, each run on its own step budget, so the work
# grows about as n**2 (1.6-3.2 s at n = 500 on a shared 2-vCPU Xeon)
AUDIT_INDEX_LIMIT = 500


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
    writes: tuple[tuple[int, str], ...]  # (tape, symbol) where symbol != read
    moves: tuple[tuple[int, int], ...]  # (tape, delta) where delta != 0
    output: str  # '-' or a symbol to emit


@dataclass(frozen=True)
class MachineSpec:
    """A parsed machine description; build it with `parse_machine`, which
    checks every rule.

    Transitions key on (state, symbols read from the k work tapes) and
    hold each rule's effect: the cells it changes and the heads it moves.
    The output tape is write-only by construction: no transition key
    mentions it.  `run` executes the compiled form of the same rules,
    built once with the spec; `transitions` is a read-only copy of the
    given mapping, so the two cannot drift apart.
    """

    name: str
    tapes: int
    start: str
    halt: str
    transitions: Mapping[tuple[str, tuple[str, ...]], Transition]
    _program: _Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))
        object.__setattr__(self, "_program", _compile(self))


class _Program(NamedTuple):
    """`MachineSpec.transitions` as one table over integer keys.

    A configuration is the key `state_id * 3**k + sum(read_i * 3**i)`, with
    symbols 0, 1, '#' as 0, 1, 2 and the halt state numbered last, so every
    key from `halt_key` on has halted.  Each entry is
    `(base, writes, moves, output, sweep)`:
    - `base` is the next key with every moving tape reading 0, so a step
      adds `tape[head] * 3**i` for each moving tape i;
    - `writes` are (tape, symbol) and `moves` are (tape, delta, 3**tape);
    - `output` is None or the symbol emitted;
    - `sweep` is None or `(tape, delta, 3**tape, stops)` for a copy-through
      self-loop: same state, writes what it reads, emits nothing and moves
      one tape.  The loop runs until that tape reads one of `stops`, the
      symbols whose rule under the other tapes' fixed reads is not the same
      loop.
    """

    table: dict[int, tuple]
    states: tuple[str, ...]  # state names by id
    start_id: int
    halt_key: int


_CODE = {s: c for c, s in enumerate(SYMBOLS)}


def _compile(spec: MachineSpec) -> _Program:
    k = spec.tapes
    names = list(dict.fromkeys(state for state, _ in spec.transitions))
    if spec.start not in names and spec.start != spec.halt:
        names.append(spec.start)  # a start state without rules is stuck at once
    names.append(spec.halt)
    ids = {state: i for i, state in enumerate(names)}
    weights = [3 ** i for i in range(k + 1)]

    def key(state, symbols):
        return ids[state] * weights[k] + sum(_CODE[s] * w for s, w in zip(symbols, weights))

    def copy_through(tr, state):
        if tr is None or tr.next_state != state or tr.writes or tr.output != "-" \
                or len(tr.moves) != 1:
            return None
        return tr.moves[0]

    table = {}
    for (state, reads), tr in spec.transitions.items():
        written = list(reads)
        for i, s in tr.writes:
            written[i] = s
        moving = dict(tr.moves)
        base = key(tr.next_state, ["0" if i in moving else s for i, s in enumerate(written)])
        sweep = None
        if (loop := copy_through(tr, state)) is not None:
            tape, delta = loop
            stops = tuple(
                c for c, s in enumerate(SYMBOLS)
                if copy_through(spec.transitions.get(
                    (state, reads[:tape] + (s,) + reads[tape + 1:])), state) != loop)
            sweep = (tape, delta, weights[tape], stops)
        table[key(state, reads)] = (
            base, tuple((i, _CODE[s]) for i, s in tr.writes),
            tuple((i, d, weights[i]) for i, d in tr.moves),
            None if tr.output == "-" else tr.output, sweep)
    return _Program(table, tuple(names), ids[spec.start], ids[spec.halt] * weights[k])


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
    k = integer(header["tapes"], "tapes")
    if k < 2:
        raise TooFewTapes(f"need at least 2 work tapes, got {reprlib.repr(k)}")
    if k > TAPES_LIMIT:
        raise MachineParseError(f"at most {TAPES_LIMIT} work tapes, "
                                f"got {reprlib.repr(k)}")

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
            raise MachineParseError(f"transition out of halt state {reprlib.repr(state)}",
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
                raise MachineParseError(f"unknown symbol {reprlib.repr(s)}", line=lineno)
        for m in moves:
            if m not in MOVES:
                raise MachineParseError(f"unknown move {reprlib.repr(m)}", line=lineno)
        if output not in OUTPUT_ACTIONS:
            raise MachineParseError(f"unknown output action {reprlib.repr(output)}", line=lineno)
        key = (state, reads)
        if key in transitions:
            raise MachineParseError(
                f"duplicate transition for {state} {''.join(reads)}", line=lineno)
        changed = tuple((i, w) for i, (r, w) in enumerate(zip(reads, writes)) if w != r)
        shifts = tuple((i, MOVES[m]) for i, m in enumerate(moves) if MOVES[m])
        transitions[key] = Transition(next_state, changed, shifts, output)
        entered.setdefault(next_state, lineno)

    defined = {state for state, _ in transitions}
    for state, lineno in entered.items():
        if state != halt and state not in defined:
            raise MachineParseError(
                f"state {reprlib.repr(state)} is reached but never defined", line=lineno)
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


def _grow(tape: bytearray, head: int) -> int:
    """Double `tape` with blanks on the side `head` has just left (a
    negative bytearray index would wrap around); return the head's index
    in the grown tape."""
    n = len(tape)
    if head < 0:
        tape[:0] = bytes(n)
        return head + n
    tape.extend(bytes(n))
    return head


def run(machine: MachineSpec, input_n: int, step_budget: int,
        phase: str | None = None) -> EnumTrace:
    """Simulate until halt or budget exhaustion.

    One applied transition is one step; entering the halt state does not
    count.  Emitted digits accumulate into the current block; each '#'
    closes the block and records (value, current step index).  A
    copy-through sweep is crossed with one search of its tape and counts
    one step per cell crossed, so it ends exactly where single steps would:
    at its stop symbol, or at the step budget.
    """
    if step_budget < 1:
        raise InvalidArgument(f"step_budget must be >= 1, got {step_budget}")
    table, names, start_id, halt_key = machine._program
    tapes = [bytearray(_CODE[s] for s in encode_input(input_n))]
    tapes += [bytearray(1) for _ in range(machine.tapes - 1)]
    heads = [0] * machine.tapes
    key = start_id * 3 ** machine.tapes + tapes[0][0]  # other tapes read blank

    entries: list[TraceEntry] = []
    out_chars: list[str] = []
    block = None  # value of the open block, None while it has no digits
    steps = 0

    while key < halt_key:
        if steps >= step_budget:
            raise BudgetExceeded(
                step_budget,
                EnumTrace(tuple(entries), steps, False, "".join(out_chars)),
                phase=phase)
        try:
            base, writes, moves, output, sweep = table[key]
        except KeyError:
            state, reads = divmod(key, 3 ** machine.tapes)
            raise StuckState(names[state],
                             tuple(SYMBOLS[reads // 3 ** i % 3]
                                   for i in range(machine.tapes)),
                             steps, phase=phase) from None
        if sweep is not None:
            i, d, weight, stops = sweep
            tape, head, room = tapes[i], heads[i], step_budget - steps
            end = None  # the cell the sweep stops on; None if it outlasts the budget
            if d > 0:
                limit = head + room + 1
                for s in stops:
                    if (found := tape.find(s, head + 1, limit)) >= 0:
                        end = limit = found
                if end is None and 0 in stops and len(tape) < limit:
                    end = len(tape)
            else:
                limit = max(head - room, 0)
                for s in stops:
                    if (found := tape.rfind(s, limit, head)) >= 0:
                        end, limit = found, found + 1
                if end is None and 0 in stops and head - room < 0:
                    end = -1
            if end is None:
                steps = step_budget
                continue
            steps += (end - head) * d
            if not 0 <= end < len(tape):
                end = _grow(tape, end)
            heads[i] = end
            key = base + tape[end] * weight
            continue
        for i, s in writes:
            tapes[i][heads[i]] = s
        key = base
        for i, d, weight in moves:
            tape, head = tapes[i], heads[i] + d
            if not 0 <= head < len(tape):
                head = _grow(tape, head)
            heads[i] = head
            key += tape[head] * weight
        steps += 1
        if output is not None:
            out_chars.append(output)
            if output == "#":
                if block is None:
                    raise EmptyBlock(
                        f"'#' emitted with an empty block at step {steps}")
                entries.append(TraceEntry(block, steps))
                block = None
            else:
                block = 2 * (block or 0) + (output == "1")

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
    # min(len(values), len(timing)), but through a slice, which measures a
    # range of values longer than sys.maxsize too
    limit = len(reference_values[:len(reference_timing)])
    if isinstance(index_range, range):
        # cut a range just past its smallest index outside 1..limit, the
        # one refused below, before any set of its indices is built
        ascending = index_range if index_range.step > 0 else index_range[::-1]
        inside = len(range(ascending.start, limit + 1, ascending.step))
        index_range = ascending[:inside + 1 if ascending.start >= 1 else 1]
    indices = sorted(set(index_range))
    for i in indices:
        if i < 1:
            raise InvalidArgument(f"indices must be >= 1, got {i}")
        if i > limit:
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
