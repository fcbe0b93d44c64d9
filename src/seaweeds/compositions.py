"""Compositions of an integer and pairs of them (seaweed types).

A composition of n is an ordered tuple of positive parts summing to n.  The
compositions of n are in bijection with bitmasks in [0, 2^(n-1)): bit i-1 set
means "cut between position i and i+1".  Mask order is the canonical
enumeration order everywhere in this package, and a pair of compositions of n
gets the single rank  top_mask * 2^(n-1) + bottom_mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError

_PART_RE = re.compile(r"[1-9][0-9]*")
_COMPOSITION_RE = re.compile(r"[1-9][0-9]*(?:\|[1-9][0-9]*)*")


@dataclass(frozen=True)
class Composition:
    """An ordered sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return format_composition(self)

    def bitmask(self) -> int:
        """Inverse of composition_from_bitmask."""
        mask = 0
        pos = 0
        for p in self.parts[:-1]:
            pos += p
            mask |= 1 << (pos - 1)
        return mask


@dataclass(frozen=True)
class SeaweedType:
    """A pair of compositions of the same n: top/bottom."""

    top: Composition
    bottom: Composition

    def __post_init__(self):
        if self.top.n != self.bottom.n:
            raise ValueError(
                f"top sums to {self.top.n} but bottom sums to {self.bottom.n}"
            )

    @property
    def n(self) -> int:
        return self.top.n

    def __str__(self) -> str:
        return format_seaweed_type(self)

    def rank(self) -> int:
        """Position in the canonical enumeration of all pairs for this n."""
        return self.top.bitmask() << (self.n - 1) | self.bottom.bitmask()


def composition_from_bitmask(n: int, mask: int) -> Composition:
    """Composition of n whose cut set is the given bitmask.

    Bit i-1 set means a part boundary between positions i and i+1, so mask 0
    is the one-part composition (n) and mask 2^(n-1)-1 is all ones.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= mask < 1 << (n - 1):
        raise ValueError(f"mask {mask} out of range for n={n}")
    parts = []
    prev = 0
    for i in range(1, n):
        if mask >> (i - 1) & 1:
            parts.append(i - prev)
            prev = i
    parts.append(n - prev)
    return Composition(tuple(parts))


def all_compositions(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n in canonical (mask) order."""
    for mask in range(1 << (n - 1)):
        yield composition_from_bitmask(n, mask)


def all_pairs(
    n: int, start_rank: int = 0, stop_rank: int | None = None
) -> Iterator[SeaweedType]:
    """Pairs of compositions of n in rank order, optionally a sub-range.

    rank = top_mask * 2^(n-1) + bottom_mask; the full range is [0, 4^(n-1)).
    """
    half = 1 << (n - 1)
    total = half * half
    if stop_rank is None:
        stop_rank = total
    if not 0 <= start_rank <= stop_rank <= total:
        raise ValueError(f"bad rank range [{start_rank}, {stop_rank}) for n={n}")
    # cache decoded compositions: the same top repeats for half consecutive ranks
    bottoms = [composition_from_bitmask(n, m) for m in range(half)]
    rank = start_rank
    while rank < stop_rank:
        tmask, bmask = divmod(rank, half)
        top = composition_from_bitmask(n, tmask)
        run_stop = min(stop_rank, (tmask + 1) * half)
        for b in range(bmask, run_stop - tmask * half):
            yield SeaweedType(top, bottoms[b])
        rank = run_stop


def parse_composition(text: str) -> Composition:
    """Parse ``a1|a2|...|ak`` with decimal parts and no whitespace."""
    if _COMPOSITION_RE.fullmatch(text):
        try:
            return Composition(tuple(map(int, text.split("|"))))
        except ValueError:
            pass  # a part longer than int() takes; the scan below places it
    # malformed: scan part by part to report where
    if not text:
        raise ParseError("empty composition", 0)
    parts = []
    pos = 0
    while True:
        m = _PART_RE.match(text, pos)
        if not m:
            raise ParseError(f"expected part in {text!r}", pos)
        try:
            parts.append(int(m.group()))
        except ValueError:
            raise ParseError(
                f"part of {m.end() - pos} digits is too long to read", pos
            ) from None
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != "|":
            raise ParseError(f"expected '|' in {text!r}", pos)
        pos += 1
    return Composition(tuple(parts))


def parse_seaweed_type(text: str) -> SeaweedType:
    """Parse ``top/bottom`` where each side is a composition."""
    if text.count("/") != 1:
        raise ParseError(f"expected exactly one '/' in {text!r}")
    top_text, bottom_text = text.split("/")
    top = parse_composition(top_text)
    try:
        bottom = parse_composition(bottom_text)
    except ParseError as e:
        offset = len(top_text) + 1
        pos = None if e.position is None else offset + e.position
        raise ParseError(str(e).split(" (at position")[0], pos) from None
    try:
        return SeaweedType(top, bottom)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_composition(c: Composition) -> str:
    return "|".join(str(p) for p in c.parts)


def format_seaweed_type(t: SeaweedType) -> str:
    return f"{format_composition(t.top)}/{format_composition(t.bottom)}"
