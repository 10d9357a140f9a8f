"""Evaluators for three functions whose values seem to require computing
everything that came before: digit chaining in an irrational expansion,
counting accepted words of a decidable language, and counting Life seeds
alive after n generations.

Each evaluator is exact integer arithmetic; companion tests check them
against exhaustive small-instance oracles.  `language_count` takes any
object with an ``accepts(word) -> bool`` method, so predicates beyond the
bundled DFA work unchanged.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from . import life
from .errors import EmergeLabError, InvalidArgument


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
    """First `count` decimal digits of sqrt(m) after the point, exactly.

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
    if count == 0:
        return []
    scaled = math.isqrt(m * 10 ** (2 * count))
    block = scaled - root * 10 ** count
    return [int(d) for d in str(block).zfill(count)]


class DigitStream:
    """A forward-only reader of decimal digits after the point.

    Sources: the expansion of sqrt(m) for non-square m >= 2, or literal
    digit text (whitespace ignored, first digit = first decimal place).
    """

    def __init__(self, digits: str | None = None, sqrt_of: int | None = None):
        if (digits is None) == (sqrt_of is None):
            raise ValueError("provide exactly one of digits / sqrt_of")
        self._sqrt_of = sqrt_of
        self._cursor = 0
        if digits is not None:
            cleaned = re.sub(r"\s", "", digits)
            if not cleaned.isdigit():
                bad = next(c for c in cleaned if not c.isdigit())
                raise InvalidArgument(f"digit source contains {bad!r}")
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
                f"need {upto} digits but the source has {len(self._digits)}")
        want = max(upto, 2 * len(self._digits), 32)
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
    plain decimal integer; a value of 0 stops the chain (ChainDegenerate).
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    values: list[int] = []
    length = 1
    for k in range(1, n + 1):
        block = stream.take(length)
        value = int("".join(map(str, block)))
        if value == 0:
            raise ChainDegenerate(k)
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
        raise ValueError(f"not a binary word: {word!r}")
    i = int("1" + word, 2)
    return i - 1 if skip_epsilon else i


@dataclass(frozen=True)
class DfaSpec:
    """A total DFA over {0, 1}: the bundled notion of decidable language."""

    num_states: int
    start: int
    accepting: frozenset
    transition: dict[tuple[int, str], int]

    def __post_init__(self):
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


def parse_dfa(text: str) -> DfaSpec:
    """Parse the DFA file format: `states <n>`, `start <id>`,
    `accept <id list>`, `trans <from> <0|1> <to>` lines."""
    num_states = start = None
    accepting: set[int] = set()
    transition: dict[tuple[int, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            if tokens[0] == "states" and len(tokens) == 2:
                num_states = int(tokens[1])
            elif tokens[0] == "start" and len(tokens) == 2:
                start = int(tokens[1])
            elif tokens[0] == "accept":
                accepting.update(int(t) for t in tokens[1:])
            elif tokens[0] == "trans" and len(tokens) == 4 and tokens[2] in ("0", "1"):
                transition[(int(tokens[1]), tokens[2])] = int(tokens[3])
            else:
                raise ValueError
        except ValueError:
            raise EmergeLabError(f"bad DFA line {lineno}: {line!r}")
    if num_states is None or start is None:
        raise EmergeLabError("DFA file needs 'states' and 'start' lines")
    return DfaSpec(num_states, start, frozenset(accepting), transition)


def language_count(lang, n: int, skip_epsilon: bool = False) -> int:
    """How many of the words w_1..w_{n-1} the language accepts."""
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
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


def life_survival_count(n: int,
                        numbering: Callable[[int], frozenset] = default_numbering,
                        run: Callable = life.run) -> int:
    """Count the seeds numbered 1..n that still have live cells after
    exactly n generations.  "Still alive" here is the bounded reading; the
    eternal version is undecidable and out of reach."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    return sum(1 for j in range(1, n + 1) if run(numbering(j), n))
