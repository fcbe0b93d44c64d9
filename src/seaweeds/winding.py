"""Winding-down moves, signatures, and the homotopy type of a seaweed type.

A move looks at the leading parts a = top[0], b = bottom[0] and rewrites the
pair; exactly one guard applies:

    F       a < b            swap top and bottom
    C(c)    a == b == c      delete both leading parts (records component c)
    R       b < a < 2b       top -> b | rest,        bottom -> 2b-a | rest
    B       a == 2b          top -> b | rest,        bottom -> rest
    P       a > 2b           top -> a-2b | b | rest, bottom -> rest

C is the only move that can empty both sides, so winding down any pair
terminates in a well-defined multiset of recorded component sizes: the
homotopy type.  Each non-F move strictly decreases n and F never repeats, so
at most 2n+1 moves happen.  The sum of the recorded C-values plus everything
discarded by R/B/P moves accounts for all of n, hence sum(C-values) <= n,
with equality iff no R/B/P move ever fires (e.g. for a/a).

The meander of the seaweed deformation-retracts onto a wedge-like union of
circles, one per even recorded component plus one per pair of odd ones; its
index can be recovered from the homotopy type alone.  A component c counts
2*floor(c/2) + (c mod 2) = c, so

    index = sum(c_i) - 1

The moves only ever read leading parts, which is what lets _wind_tally count
the index over all pairs at once on fixed prefixes.  Between two states whose
top prefix is empty the moves are forced, so it follows them in a loop and
memoizes only those branch states, keyed (m, bottom prefix); a tally of
sum(C-values) is one int with a fixed bit width per sum, so a branch adds
ints and C(c) shifts by c widths.

Every non-F move takes the same d vertices off the front of both sides (C:
a, R: a-b, B and P: b) and rewrites only the leading parts.  verify's
winding certificate rests on that: for each move of leading parts b <= a it
compares the graph's boundary state of the prefix before and after, which
proves the winding index equals the graph index for every pair whose parts
are all within its bound.

A single pair is wound in one place, the deque kernel _wind_homotopy:
wind_down records its moves and homotopy_components its C-values.
wind_step is the single-step reference, one move on SeaweedType objects,
that the tests compare the kernel against and the certificate reads.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

from .compositions import Composition, SeaweedType
from .errors import ParseError, read_int

_SIG_TOKEN = re.compile(r"[FRBP]|C\((\d+)\)")


@dataclass(frozen=True)
class Move:
    tag: str  # one of F C R B P
    size: int | None = None  # recorded component, C only

    def __post_init__(self):
        if self.tag not in ("F", "C", "R", "B", "P"):
            raise ValueError(f"unknown move tag {self.tag!r}")
        if (self.tag == "C") != (self.size is not None):
            raise ValueError("size goes with C moves and only with them")

    def __str__(self) -> str:
        return f"C({self.size})" if self.tag == "C" else self.tag


@dataclass(frozen=True)
class Signature:
    """The full move sequence produced by winding a type down to nothing."""

    moves: tuple[Move, ...]

    def __str__(self) -> str:
        return format_signature(self)

    def homotopy_type(self) -> "HomotopyType":
        return HomotopyType(tuple(m.size for m in self.moves if m.tag == "C"))


@dataclass(frozen=True)
class HomotopyType:
    """Recorded C-values in elimination order; equality is as multisets."""

    components: tuple[int, ...]

    def __post_init__(self):
        for c in self.components:
            if c < 1:
                raise ValueError("components must be positive")

    def canonical(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomotopyType):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __str__(self) -> str:
        return "H(" + ",".join(str(c) for c in self.components) + ")"


def wind_step(t: SeaweedType) -> tuple[Move, SeaweedType | None]:
    """Apply one move; the new type is None exactly when a C empties both sides.

    The single-step public API, on validated objects: wind_down records the
    deque kernel's moves instead, and the tests check them against this.
    """
    a, b = t.top.parts[0], t.bottom.parts[0]
    ta, tb = t.top.parts[1:], t.bottom.parts[1:]
    if a < b:
        return Move("F"), SeaweedType(t.bottom, t.top)
    if a == b:
        if not ta and not tb:
            return Move("C", a), None
        if not ta or not tb:
            # sums of the two sides always stay equal, so one side cannot
            # run dry before the other
            raise AssertionError("one-sided exhaustion; invariant broken")
        return Move("C", a), SeaweedType(Composition(ta), Composition(tb))
    if a < 2 * b:
        return Move("R"), SeaweedType(
            Composition((b,) + ta), Composition((2 * b - a,) + tb)
        )
    if a == 2 * b:
        return Move("B"), SeaweedType(Composition((b,) + ta), Composition(tb))
    return Move("P"), SeaweedType(Composition((a - 2 * b, b) + ta), Composition(tb))


def wind_down(t: SeaweedType) -> tuple[Signature, HomotopyType]:
    """Wind t down to nothing: the moves the deque kernel records, and the
    homotopy type."""
    moves: list[Move] = []
    comps = _wind_homotopy(t.top.parts, t.bottom.parts, moves)
    return Signature(tuple(moves)), HomotopyType(comps)


def homotopy_components(t: SeaweedType) -> tuple[int, ...]:
    """Recorded C-values only, via the deque kernel (no object churn).

    wind_down records this kernel's moves; wind_step, one move at a time on
    SeaweedType objects, is the reference it is tested against.  No census
    calls it: homotopy_census winds parts with _wind_homotopy directly.
    """
    return _wind_homotopy(t.top.parts, t.bottom.parts)


_MOVES = {tag: Move(tag) for tag in "FRBP"}


def _wind_homotopy(top, bottom, moves=None) -> tuple[int, ...]:
    """Recorded C-values of top/bottom; each Move is appended to `moves` when
    a list is given."""
    dt, db = deque(top), deque(bottom)
    out = []
    while dt:
        a, b = dt[0], db[0]
        if a < b:
            dt, db = db, dt
            tag = "F"
        elif a == b:
            dt.popleft()
            db.popleft()
            out.append(a)
            tag = "C"
        elif a < 2 * b:
            dt[0] = b
            db[0] = 2 * b - a
            tag = "R"
        elif a == 2 * b:
            dt[0] = b
            db.popleft()
            tag = "B"
        else:
            dt[0] = b
            dt.appendleft(a - 2 * b)
            db.popleft()
            tag = "P"
        if moves is not None:
            moves.append(Move("C", a) if tag == "C" else _MOVES[tag])
    return tuple(out)


def _wind_tally(m: int, top: tuple[int, ...], bottom: tuple[int, ...],
                memo: dict, w: int) -> int:
    """Packed tally of sum(C-values) over all pairs of compositions of m
    whose top begins with the parts `top` and whose bottom with `bottom`.

    The count of sum s sits in bits [s*w, (s+1)*w) of the returned int, so w
    must exceed the bit length of every count: w = 2n holds any count of a
    census of n, which is at most 4^(n-1).  The parts after the prefixes are
    free.  While both prefixes are non-empty the move their leading parts
    select rewrites only the prefixes and every pair sharing them moves
    alike, so the moves are followed in a loop, C(a) adding a to every sum
    (a shift by a*w).  The loop stops at a branch state, an empty top prefix
    after F, which adds up its next part's m choices.  Only branch states
    are memoized, keyed (m, bottom) in `memo`; the caller owns it, keeps one
    w for it, and drops it.
    """
    shift = 0
    while True:
        if top and (not bottom or top[0] < bottom[0]):  # F
            top, bottom = bottom, top
        if not m:
            return 1 << shift
        if not top:
            break
        a, b = top[0], bottom[0]
        if a == b:  # C(a)
            m -= a
            shift += a * w
            top, bottom = top[1:], bottom[1:]
        elif a < 2 * b:  # R
            m -= a - b
            top, bottom = (b,) + top[1:], (2 * b - a,) + bottom[1:]
        elif a == 2 * b:  # B
            m -= b
            top, bottom = (b,) + top[1:], bottom[1:]
        else:  # P
            m -= b
            top, bottom = (a - 2 * b, b) + top[1:], bottom[1:]
    key = (m, bottom)
    got = memo.get(key)
    if got is None:
        got = 0
        for a in range(1, m + 1):
            got += _wind_tally(m, (a,), bottom, memo, w)
        memo[key] = got
    return got << shift


def homotopy_index(h: HomotopyType) -> int:
    """Index of any seaweed with this homotopy type."""
    if not h.components:
        raise ValueError("empty homotopy type")
    return sum(h.components) - 1


def format_signature(sig: Signature) -> str:
    return "".join(str(m) for m in sig.moves)


def parse_signature(text: str) -> Signature:
    if not text:
        raise ParseError("empty signature", 0)
    moves = []
    pos = 0
    while pos < len(text):
        m = _SIG_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad signature token in {text!r}", pos)
        if m.group().startswith("C"):
            size = read_int(m.group(1), "C size", pos)
            if size < 1:
                raise ParseError(f"C size must be positive in {text!r}", pos)
            moves.append(Move("C", size))
        else:
            moves.append(Move(m.group()))
        pos = m.end()
    return Signature(tuple(moves))


def parse_homotopy_type(text: str) -> HomotopyType:
    m = re.fullmatch(r"H\((\d+(?:,\d+)*)\)", text)
    if not m:
        raise ParseError(f"bad homotopy type {text!r}")
    comps = tuple(read_int(c, "component") for c in m.group(1).split(","))
    if any(c < 1 for c in comps):
        raise ParseError(f"components must be positive in {text!r}")
    return HomotopyType(comps)
