"""Compositions of an integer and pairs of them (seaweed types).

A composition of n is an ordered tuple of positive parts summing to n.  The
compositions of n are in bijection with bitmasks in [0, 2^(n-1)): bit i-1 set
means "cut between position i and i+1".  Mask order is the canonical
enumeration order everywhere in this package; pairs of compositions of n run
top mask major, bottom mask minor.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import Frozen, ParseError, check_limit, read_int

# A parsed type builds n vertices and up to n arcs (index, wind, render):
# refuse larger n before any is built.  n = 10^6 takes seconds and a few
# hundred MB, far above the desk-scale types the commands serve.
MAX_TYPE_N = 10**6

_COMPOSITION_RE = re.compile(r"[1-9][0-9]*(?:\|[1-9][0-9]*)*")


class Composition(Frozen):
    """An ordered sequence of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        # the rule of Move's C size and HomotopyType's components too: an
        # int proper, so that str() prints the decimal the parsers read back
        # (not True, whose str is "True"), and at least 1
        for p in parts:
            if type(p) is not int or p < 1:
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


class SeaweedType(Frozen):
    """A pair of compositions of the same n: top/bottom."""

    __slots__ = ("top", "bottom")

    def __init__(self, top: Composition, bottom: Composition):
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        if top.n != bottom.n:
            raise ValueError(f"top sums to {top.n} but bottom sums to {bottom.n}")

    @property
    def n(self) -> int:
        return self.top.n

    def __str__(self) -> str:
        return format_seaweed_type(self)


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


def all_pairs(n: int) -> Iterator[SeaweedType]:
    """All 4^(n-1) pairs of compositions of n, top mask major."""
    comps = list(all_compositions(n))
    for top in comps:
        for bottom in comps:
            yield SeaweedType(top, bottom)


def parse_composition(text: str) -> Composition:
    """Parse ``a1|a2|...|ak`` with decimal parts and no whitespace.

    An error is placed by the longest well-formed prefix: a part in it too
    long for int() comes first, else the character that ends the prefix.
    """
    m = _COMPOSITION_RE.match(text)
    if not m:
        if not text:
            raise ParseError("empty composition", 0)
        raise ParseError(f"expected part in {text!r}", 0)
    end = m.end()
    if end == len(text):
        try:
            return Composition(tuple(map(int, text.split("|"))))
        except ValueError:
            pass  # a part longer than int() takes; placed below
    pos = 0
    for part in m.group().split("|"):
        read_int(part, "part", pos)
        pos += len(part) + 1
    if text[end] == "|":
        raise ParseError(f"expected part in {text!r}", end + 1)
    raise ParseError(f"expected '|' in {text!r}", end)


def parse_seaweed_type(text: str) -> SeaweedType:
    """Parse ``top/bottom`` where each side is a composition.

    A well-formed type whose n exceeds MAX_TYPE_N raises LimitExceeded.
    """
    if text.count("/") != 1:
        raise ParseError(f"expected exactly one '/' in {text!r}")
    top_text, bottom_text = text.split("/")
    top = parse_composition(top_text)
    try:
        bottom = parse_composition(bottom_text)
    except ParseError as e:  # shift the position past "top/"
        pos = None if e.position is None else len(top_text) + 1 + e.position
        raise ParseError(e.message, pos) from None
    try:
        st = SeaweedType(top, bottom)
    except ValueError as e:
        raise ParseError(str(e)) from None
    check_limit("type of", st.n, MAX_TYPE_N)
    return st


def format_composition(c: Composition) -> str:
    return "|".join(str(p) for p in c.parts)


def format_seaweed_type(t: SeaweedType) -> str:
    return f"{format_composition(t.top)}/{format_composition(t.bottom)}"
