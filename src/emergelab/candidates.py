"""Evaluators for three functions whose definitions walk through everything
that came before: digit chaining in an irrational expansion, counting
accepted words of a decidable language, and counting Life seeds alive after
n generations.

Each evaluator is exact integer arithmetic; companion tests check them
against exhaustive small-instance oracles.  The word count has a shortcut
for regular languages: their counting sequences have rational generating
functions and so follow linear recurrences (Chomsky & Miller, "Finite state
languages", 1958), and `DfaSpec.count_upto` counts over the bits of n in
O(|Q|·log n) additions.  `language_count` also takes any other object with
an ``accepts(word) -> bool`` method, so predicates beyond the bundled DFA
work unchanged; only such a non-regular `accepts` keeps the enumeration,
one call per word.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import EmergeLabError, InvalidArgument, integer


# digits per int-to-str conversion: under the smallest limit on their
# number that Python allows (640)
_STR_CHUNK = 512
# the most digits `sqrt_digits` computes, for any caller (about 0.4 s on a
# 2-vCPU Xeon; each doubling costs about four times as much)
SQRT_DIGITS = 100_000
# the largest n `life_survival_count` takes: its work grows about as n**2,
# n fate runs of up to n generations (about 2.6 s at n = 1000 on a 2-vCPU
# Xeon)
SURVIVAL_N = 1000


class InvalidRadicand(EmergeLabError):
    """sqrt digit source needs an integer >= 2."""


class RationalSqrt(EmergeLabError):
    """Perfect squares have no infinite digit expansion to read."""


class ChainDegenerate(EmergeLabError):
    """A chain value of 0 makes the next block length zero."""

    def __init__(self, index):
        super().__init__(f"chain value f({index}) is 0, so the chain stops here")
        self.index = index


class InsufficientDigits(EmergeLabError):
    """The digit source ran out before the request was satisfied."""


class InvalidIndex(EmergeLabError):
    """Word enumeration indices start at 1."""


def sqrt_digits(m: int, count: int) -> list[int]:
    """First `count` (at most SQRT_DIGITS) decimal digits of sqrt(m) after
    the point, exactly.

    Computed as the digit block of isqrt(m * 10**(2*count)) below the
    integer part, so no floating point is involved.
    """
    if m < 2:
        raise InvalidRadicand(f"radicand must be >= 2, got {m}")
    root = math.isqrt(m)
    if root * root == m:
        raise RationalSqrt(f"{m} is a perfect square; its root has no expansion")
    if count < 0:
        raise InvalidArgument(f"count must be >= 0, got {count}")
    if count > SQRT_DIGITS:
        raise InvalidArgument(f"count must be <= {SQRT_DIGITS}, got {_rough(count)}")
    if count == 0:
        return []
    scaled = math.isqrt(m * 10 ** (2 * count))
    block = scaled - root * 10 ** count
    return [int(d) for d in _decimal_text(block, count)]


def _rough(count: int) -> str:
    """`count` for a message: a power of ten once it is too long to print
    whole (a block length read from a chain value may have 4301 digits)."""
    return str(count) if count < 10 ** 12 else f"about 10**{int(math.log10(count))}"


def _decimal_text(value: int, width: int) -> str:
    """`value` (0 <= value < 10**width) as exactly `width` decimal digits.

    Long values are split by divmod with powers of ten, so no single
    int-to-str conversion passes Python's limit on their length.
    """
    if width <= _STR_CHUNK:
        return str(value).zfill(width)
    low = width // 2
    high, rest = divmod(value, 10 ** low)
    return _decimal_text(high, width - low) + _decimal_text(rest, low)


class DigitStream:
    """A forward-only reader of decimal digits after the point.

    Sources: the expansion of sqrt(m) for non-square m >= 2, or literal
    digit text of ASCII 0-9 (whitespace ignored, first digit = first
    decimal place); empty text is a stream that has run out.
    """

    def __init__(self, digits: str | None = None, sqrt_of: int | None = None):
        if (digits is None) == (sqrt_of is None):
            raise InvalidArgument("provide exactly one of digits / sqrt_of")
        self._sqrt_of = sqrt_of
        self._cursor = 0
        if digits is not None:
            cleaned = re.sub(r"\s", "", digits)
            bad = re.search(r"[^0-9]", cleaned)  # not isdigit(): '²' and '٣'
            if bad:
                raise InvalidArgument(f"digit source contains {bad.group()!r}")
            self._digits = cleaned
        else:
            sqrt_digits(sqrt_of, 0)  # validate the radicand eagerly
            self._digits = ""

    @classmethod
    def from_sqrt(cls, m: int) -> "DigitStream":
        return cls(sqrt_of=m)

    @classmethod
    def from_text(cls, text: str) -> "DigitStream":
        return cls(digits=text)

    @property
    def cursor(self) -> int:
        return self._cursor

    def _ensure(self, upto: int):
        if len(self._digits) >= upto:
            return
        if self._sqrt_of is None:
            raise InsufficientDigits(
                f"need {_rough(upto)} digits but the source has {len(self._digits)}")
        want = max(upto, min(2 * len(self._digits), SQRT_DIGITS), 32)
        self._digits = "".join(map(str, sqrt_digits(self._sqrt_of, want)))

    def take(self, count: int) -> list[int]:
        """Read the next `count` digits, advancing the cursor."""
        if count < 0:
            raise InvalidArgument(f"count must be >= 0, got {count}")
        self._ensure(self._cursor + count)
        out = [int(d) for d in self._digits[self._cursor:self._cursor + count]]
        self._cursor += count
        return out


def digit_chain(stream: DigitStream, n: int) -> list[int]:
    """Chained reads: f(1) is the first digit, f(k) is the number spelled by
    the next f(k-1) digits.  Returns [f(1)..f(n)].

    A block may keep leading zeros for its length while its value is the
    plain decimal integer; a value of 0 stops the chain (ChainDegenerate),
    and one with more digits than Python reads an integer with
    (`sys.get_int_max_str_digits()`, 4300 by default) is refused
    (InvalidArgument).
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    values: list[int] = []
    length = 1
    for k in range(1, n + 1):
        text = "".join(map(str, stream.take(length))).lstrip("0")
        if not text:
            raise ChainDegenerate(k)
        try:
            value = int(text)
        except ValueError:
            raise InvalidArgument(
                f"chain value f({k}) has {len(text)} digits, more than "
                f"{sys.get_int_max_str_digits()}") from None
        values.append(value)
        length = value
    return values


def enumerate_words(i: int, skip_epsilon: bool = False) -> str:
    """The i-th binary word in length-then-lexicographic order, 1-based.

    Word 1 is the empty word, then 0, 1, 00, 01, ...; with skip_epsilon the
    numbering starts at "0" instead.
    """
    if i < 1:
        raise InvalidIndex(f"word indices start at 1, got {i}")
    if skip_epsilon:
        i += 1
    return format(i, "b")[1:]


def word_index(word: str, skip_epsilon: bool = False) -> int:
    """Inverse of enumerate_words."""
    if any(c not in "01" for c in word):
        raise InvalidArgument(f"not a binary word: {word!r}")
    i = int("1" + word, 2)
    return i - 1 if skip_epsilon else i


@dataclass(frozen=True)
class DfaSpec:
    """A total DFA over {0, 1}: the bundled notion of decidable language.

    `transition` is a read-only copy of the given mapping, so the rules
    checked here are the rules every later count reads.
    """

    num_states: int
    start: int
    accepting: frozenset
    transition: Mapping[tuple[int, str], int]

    def __post_init__(self):
        object.__setattr__(self, "transition", MappingProxyType(dict(self.transition)))
        for s in range(self.num_states):
            for sym in "01":
                if (s, sym) not in self.transition:
                    raise InvalidArgument(
                        f"transition missing for state {s} on {sym!r}")
                if not 0 <= self.transition[(s, sym)] < self.num_states:
                    raise InvalidArgument(
                        f"transition from {s} on {sym!r} leaves the state set")
        if not 0 <= self.start < self.num_states:
            raise InvalidArgument(f"start state {self.start} out of range")
        for a in self.accepting:
            if not 0 <= a < self.num_states:
                raise InvalidArgument(f"accepting state {a} out of range")

    def accepts(self, word: str) -> bool:
        state = self.start
        for sym in word:
            state = self.transition[(state, sym)]
        return state in self.accepting

    def count_upto(self, m: int) -> int:
        """How many of the words ``bin(i)[1:]``, 1 <= i <= m, are accepted.

        A digit DP over the bits of m, in O(num_states · log m) additions:
        `counts[s]` is how many words reach state s after the symbols read
        so far while already lying below m's own word (shorter words, or a
        0 where m's word has a 1), and `state` is where m's word has got to.
        """
        if m < 1:
            return 0
        zero = [self.transition[s, "0"] for s in range(self.num_states)]
        one = [self.transition[s, "1"] for s in range(self.num_states)]
        counts = [0] * self.num_states
        state = self.start
        for k in range(m.bit_length() - 2, -1, -1):
            step = [0] * self.num_states
            for s, c in enumerate(counts):
                step[zero[s]] += c
                step[one[s]] += c
            if m >> k & 1:
                step[zero[state]] += 1
                state = one[state]
            else:
                state = zero[state]
            # the words k symbols long start here
            step[self.start] += 1
            counts = step
        return sum(counts[s] for s in self.accepting) + (state in self.accepting)


def parse_dfa(text: str) -> DfaSpec:
    """Parse the DFA file format: `states <n>`, `start <id>`,
    `accept <id list>`, `trans <from> <0|1> <to>` lines.  A second
    `states` or `start` line, or a second `trans` line for one state and
    symbol, is refused."""
    header: dict[str, int] = {}
    accepting: set[int] = set()
    transition: dict[tuple[int, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        name = f"DFA line {lineno}"
        if tokens[0] == "accept":
            accepting.update(integer(t, name) for t in tokens[1:])
            continue
        if tokens[0] in ("states", "start") and len(tokens) == 2:
            table, key, value = header, tokens[0], integer(tokens[1], name)
        elif tokens[0] == "trans" and len(tokens) == 4 and tokens[2] in ("0", "1"):
            table, key, value = (transition, (integer(tokens[1], name), tokens[2]),
                                 integer(tokens[3], name))
        else:
            raise EmergeLabError(f"bad DFA line {lineno}: {line!r}")
        if key in table:
            raise EmergeLabError(f"duplicate DFA line {lineno}: {line!r}")
        table[key] = value
    if "states" not in header or "start" not in header:
        raise EmergeLabError("DFA file needs 'states' and 'start' lines")
    return DfaSpec(header["states"], header["start"], frozenset(accepting), transition)


def language_count(lang, n: int, skip_epsilon: bool = False) -> int:
    """How many of the words w_1..w_{n-1} the language accepts.

    Word i is ``bin(i)[1:]``, or ``bin(i + 1)[1:]`` with skip_epsilon, so a
    DfaSpec is counted by `DfaSpec.count_upto`; any other `lang` is asked
    about each word in turn.
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if isinstance(lang, DfaSpec):
        lo, hi = (2, n) if skip_epsilon else (1, n - 1)
        return lang.count_upto(hi) - lang.count_upto(lo - 1)
    return sum(1 for i in range(1, n)
               if lang.accepts(enumerate_words(i, skip_epsilon)))


def default_numbering(j: int) -> frozenset:
    """Seed j >= 1 as a Life pattern: write j in binary MSB-first as bits
    b_0..b_{L-1}, pick the smallest square box W = ceil(sqrt(L)), and make
    cell (x = i mod W, y = i div W) live where b_i = 1.

    Total and cheap, but not injective (1 and 10 in binary both give a lone
    cell); counts are per index, not per distinct pattern.
    """
    if j < 1:
        raise InvalidIndex(f"configuration indices start at 1, got {j}")
    bits = format(j, "b")
    width = math.isqrt(len(bits) - 1) + 1  # ceil(sqrt(L))
    return frozenset((i % width, i // width)
                     for i, b in enumerate(bits) if b == "1")


def life_survival_count(n: int) -> int:
    """Count the seeds numbered 1..n (`default_numbering`), n at most
    SURVIVAL_N, that still have live cells after exactly n generations.
    "Still alive" here is the bounded reading; the eternal version is
    undecidable and out of reach.

    Each seed runs through `life.detect_fate` with budget n, the recurrence
    runner, and stops at its first extinction or recurrence: extinction at
    t <= n means dead at n, a recurrence means alive forever, and an
    exhausted budget means alive at n.
    """
    from . import life

    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    if n > SURVIVAL_N:
        raise InvalidArgument(f"n must be <= {SURVIVAL_N}, got {_rough(n)}")
    return sum(1 for j in range(1, n + 1)
               if life.detect_fate(default_numbering(j), n).verdict != "extinct")
