"""Shared analytics: cycle detection for deterministic state sequences and
simple randomness diagnostics for bit streams."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from .errors import EmergeLabError, InvalidArgument


class EmptyInput(EmergeLabError):
    """Statistic undefined on an empty sequence."""


class BlockTooLarge(EmergeLabError):
    """Block length exceeds the sequence length."""


class InvalidLength(InvalidArgument):
    """Block length or period bound below one, or a sequence too short for
    the period bound."""


@dataclass(frozen=True)
class CycleResult:
    """Preperiod/period of a repeating sequence: states[mu + t] equals
    states[mu + lam + t] while indices stay in range."""

    found: bool
    mu: int = 0
    lam: int = 0


def find_cycle(states: Sequence[Hashable]) -> CycleResult:
    """First repeat in a sequence of fingerprints.

    For a sequence generated by iterating a deterministic map this yields
    the minimal preperiod and period.  Memory is one dict entry per
    distinct state.
    """
    seen: dict[Hashable, int] = {}
    for i, state in enumerate(states):
        if state in seen:
            mu = seen[state]
            return CycleResult(True, mu=mu, lam=i - mu)
        seen[state] = i
    return CycleResult(False)


# the values a bit may take: equality lets True, 1.0 and numpy ints through,
# while 0.5 or '2' find no key rather than being truncated by int()
_BIT_VALUES = {0: 0, 1: 1, "0": 0, "1": 1}


def _as_bits(bits) -> bytes:
    """Normalise a 0/1 sequence (str, bytes, ints, bools) to bytes 0/1."""
    if isinstance(bits, bytes):
        if bits.translate(None, b"\x00\x01"):  # bytes other than 0 and 1
            raise InvalidArgument("byte values must be 0 or 1")
        return bits
    try:
        return bytes(_BIT_VALUES[b] for b in bits)
    except (KeyError, TypeError):  # another value, or an unhashable one
        raise InvalidArgument("bit values must be 0 or 1") from None


def ones_fraction(bits) -> Fraction:
    """Share of ones, as an exact rational."""
    data = _as_bits(bits)
    if not data:
        raise EmptyInput("ones_fraction needs at least one bit")
    return Fraction(sum(data), len(data))


def block_entropy(bits, k: int) -> float:
    """Shannon entropy (base 2) of the sliding length-k window distribution.

    Ranges over [0, k] bits; a periodic stream scores low, a random-looking
    one approaches k.
    """
    data = _as_bits(bits)
    if k < 1:
        raise InvalidLength(f"k must be >= 1, got {k}")
    if k > len(data):
        raise BlockTooLarge(f"block length {k} exceeds {len(data)} bits")
    counts = Counter(data[i:i + k] for i in range(len(data) - k + 1))
    if len(counts) == 1:
        return 0.0  # one block: the sum below would give -0.0
    total = len(data) - k + 1
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def no_short_period(bits, max_period: int) -> bool:
    """True when no period p <= max_period satisfies bits[t] == bits[t+p]
    for every valid t.  Requires more than 2 * max_period bits so every
    candidate period is tested against at least max_period positions."""
    data = _as_bits(bits)
    if max_period < 1:
        raise InvalidLength(f"max_period must be >= 1, got {max_period}")
    if len(data) <= 2 * max_period:
        raise InvalidLength(
            f"need more than {2 * max_period} bits, got {len(data)}")
    for p in range(1, max_period + 1):
        if data[:-p] == data[p:]:
            return False
    return True
