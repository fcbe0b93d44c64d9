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

The rule of C, R, B and P is written once, in _move(a, b): each takes the
same d vertices off the front of both sides (C: a, R: a-b, B and P: b) and
puts heads in place of a and b; F is the swap in each caller.  wind_step
builds its objects from it.  _wind_tally, which counts the index over all
pairs at once on fixed prefixes, and _wind_types, which counts the homotopy
types the same way, read it from a table (_move_table) built once a process;
the two tables differ only in what C adds to the run's accumulator: a shift
of the packed tally of sums, or the additive key of C's size (_type_key), so
a run of forced moves sums its C-values into one int in both.
verify's winding certificate reads _move too: for each move of leading parts
b <= a it compares the graph's boundary state of the prefix a/b with that of
the heads, which proves the winding index equals the graph index for every
pair whose parts are all within its bound.  So the census runs the rule the
certificate proves.  The deque kernel _wind_homotopy winds a single pair for
wind_down and homotopy_components; it keeps an inline copy of the rule on
purpose, pinned to _move by the tests on every head pair.

A Move keeps its text, set once when it is built and outside eq, hash and
repr, so format_signature joins texts and calls nothing a move.  The kernel
records shared moves: the one F, R, B and P of the module, and one C(c) a
size c a call, so a signature of thousands of moves builds a Move only per
distinct C size.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cache

from .compositions import Composition, SeaweedType
from .errors import Frozen, ParseError, read_int

_SIG_TOKEN = re.compile(r"[FRBP]|C\((\d+)\)")


class Move(Frozen):
    __slots__ = ("tag", "size", "_text")

    def __init__(self, tag: str, size: int | None = None):
        object.__setattr__(self, "tag", tag)  # one of F C R B P
        object.__setattr__(self, "size", size)  # recorded component, C only
        if tag not in ("F", "C", "R", "B", "P"):
            raise ValueError(f"unknown move tag {tag!r}")
        if (tag == "C") != (size is not None):
            raise ValueError("size goes with C moves and only with them")
        if tag == "C" and (type(size) is not int or size < 1):
            raise ValueError(f"C size must be a positive integer, got {size!r}")
        object.__setattr__(self, "_text", f"C({size})" if tag == "C" else tag)

    def __str__(self) -> str:
        return self._text


class Signature(Frozen):
    """The full move sequence produced by winding a type down to nothing."""

    __slots__ = ("moves",)

    def __init__(self, moves: tuple[Move, ...]):
        object.__setattr__(self, "moves", moves)

    def __str__(self) -> str:
        return format_signature(self)

    def homotopy_type(self) -> "HomotopyType":
        return HomotopyType(tuple(m.size for m in self.moves if m.tag == "C"))


class HomotopyType(Frozen):
    """Recorded C-values in elimination order; equality is as multisets."""

    __slots__ = ("components", "_canonical")

    def __init__(self, components: tuple[int, ...]):
        object.__setattr__(self, "components", components)
        for c in components:
            if type(c) is not int or c < 1:
                raise ValueError("components must be positive")
        object.__setattr__(self, "_canonical", tuple(sorted(components)))

    def canonical(self) -> tuple[int, ...]:
        return self._canonical

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomotopyType):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __str__(self) -> str:
        return "H(" + ",".join(str(c) for c in self.components) + ")"


def _move(a: int, b: int) -> tuple[str, int, tuple[int, ...], tuple[int, ...]]:
    """The move of leading parts a >= b: (tag, d, top head, bottom head).

    It takes d vertices off the front of both sides and puts the heads in
    place of a and b; C records d.  F, a < b, is the swap in each caller.
    """
    if a == b:
        return "C", a, (), ()
    if a < 2 * b:
        return "R", a - b, (b,), (2 * b - a,)
    if a == 2 * b:
        return "B", b, (b,), ()
    return "P", b, (a - 2 * b, b), ()


_MOVES = {tag: Move(tag) for tag in "FRBP"}
_F, _R, _B, _P = _MOVES.values()  # the moves _wind_homotopy records


def wind_step(t: SeaweedType) -> tuple[Move, SeaweedType | None]:
    """Apply one move; the new type is None exactly when a C empties both sides.

    The single-step public API, on validated objects, built from _move:
    wind_down records the deque kernel's moves instead.
    """
    top, bottom = t.top.parts, t.bottom.parts
    if top[0] < bottom[0]:
        return _MOVES["F"], SeaweedType(t.bottom, t.top)
    tag, d, th, bh = _move(top[0], bottom[0])
    top, bottom = th + top[1:], bh + bottom[1:]  # equal sums: both or neither empty
    return (Move("C", d) if tag == "C" else _MOVES[tag],
            SeaweedType(Composition(top), Composition(bottom)) if top else None)


def wind_down(t: SeaweedType) -> tuple[Signature, HomotopyType]:
    """Wind t down to nothing: the moves the deque kernel records, and the
    homotopy type."""
    moves: list[Move] = []
    comps = _wind_homotopy(t.top.parts, t.bottom.parts, moves)
    return Signature(tuple(moves)), HomotopyType(comps)


def homotopy_components(t: SeaweedType) -> tuple[int, ...]:
    """Recorded C-values only, via the deque kernel (no object churn).  No
    census calls it: homotopy_census runs the recurrence _wind_types."""
    return _wind_homotopy(t.top.parts, t.bottom.parts)


def _wind_homotopy(top, bottom, moves=None) -> tuple[int, ...]:
    """Recorded C-values of top/bottom; each Move is appended to `moves` when
    a list is given.

    The one copy of _move's rule, inline on purpose, for the `wind` query
    path: a kernel that calls _move a move took ~1.9-2.0x this one's time
    with moves recorded, and a block of the `queries` benchmark (seed 1)
    22-36% longer (medians of 5 and 7 alternating runs, 2-vCPU x86, CPython
    3.11).  Parts up to MAX_TYPE_N rule out a table.  Recorded moves are
    shared, not built a move: F, R, B and P are the module's one object of
    each (_F, _R, _B, _P), and C(a) is built once a size a call, in `sized`,
    so a many-part pair's moves cost a list append each.  Without `moves` a
    move only binds its object, and no dict is built.
    """
    dt, db = deque(top), deque(bottom)
    out = []
    sized = {} if moves is not None else None
    while dt:
        a, b = dt[0], db[0]
        if a < b:
            dt, db = db, dt
            move = _F
        elif a == b:
            dt.popleft()
            db.popleft()
            out.append(a)
            move = None
        elif a < 2 * b:
            dt[0] = b
            db[0] = 2 * b - a
            move = _R
        elif a == 2 * b:
            dt[0] = b
            db.popleft()
            move = _B
        else:
            dt[0] = b
            dt.appendleft(a - 2 * b)
            db.popleft()
            move = _P
        if moves is not None:
            if move is None:
                move = sized.get(a)
                if move is None:
                    move = sized[a] = Move("C", a)
            moves.append(move)
    return tuple(out)


def _type_key(components, b: int) -> int:
    """The additive key of a multiset of C-values: digit c - 1, b bits wide,
    counts the c among them.  No digit carries while each count is below
    2^b, so with b = n.bit_length() the keys of multisets of sum <= n add as
    the multisets unite: a value c occurs at most n/c < 2^b times."""
    return sum(1 << b * (c - 1) for c in components)


def _key_components(key: int, b: int) -> tuple[int, ...]:
    """The sorted C-values of a type key: _type_key's inverse."""
    out, mask, c = [], (1 << b) - 1, 1
    while key:
        out += [c] * (key & mask)
        key >>= b
        c += 1
    return tuple(out)


@cache
def _move_table(n: int, w: int, types: bool) -> tuple:
    """mv[a][b], 1 <= b <= a <= n: _move(a, b) as the census recurrences read
    it, (d, top head, bottom head, c), c = 0 but for C.  For _wind_tally
    (types false) C's c is d*w, the shift of a packed tally of sums; for
    _wind_types (types true) it is _type_key((d,), w), the type key of C(d).
    Built once a process for each argument tuple, and tuples throughout, so
    no caller can write a shared table.
    """
    def entry(a, b):
        tag, d, th, bh = _move(a, b)
        if tag != "C":
            return d, th, bh, 0
        return d, th, bh, _type_key((d,), w) if types else d * w

    return tuple((None,) + tuple(entry(a, b) for b in range(1, a + 1))
                 for a in range(n + 1))


def _wind_tally(m: int, top: tuple[int, ...], bottom: tuple[int, ...],
                memo: dict, mv: tuple) -> int:
    """Packed tally of sum(C-values) over all pairs of compositions of m
    whose top begins with the parts `top` and whose bottom with `bottom`.

    The count of sum s sits in bits [s*w, (s+1)*w) of the returned int, so w
    must exceed the bit length of every count: w = 2n holds any count of a
    census of n, which is at most 4^(n-1).  The parts after the prefixes are
    free.  While both prefixes are non-empty the move their leading parts
    select rewrites only the prefixes and every pair sharing them moves
    alike, so the moves are followed in a loop, read from mv =
    _move_table(n, w, False): C(a) adds a to every sum (a shift by a*w).
    The loop stops at a branch state, an empty top prefix after F, which
    adds up its next part's m choices.  Only branch states are memoized,
    keyed (m, bottom) in `memo`; the caller owns it, with the same w as mv,
    and drops it.
    """
    shift = 0
    while True:
        if top and (not bottom or top[0] < bottom[0]):  # F
            top, bottom = bottom, top
        if not m:
            return 1 << shift
        if not top:
            break
        d, th, bh, c = mv[top[0]][bottom[0]]
        m -= d
        shift += c
        top, bottom = th + top[1:], bh + bottom[1:]
    key = (m, bottom)
    got = memo.get(key)
    if got is None:
        got = 0
        for a in range(1, m + 1):
            got += _wind_tally(m, (a,), bottom, memo, mv)
        memo[key] = got
    return got << shift


_EMPTY_TYPE = {0: 1}  # the tally of the one pair of m = 0, read only


def _wind_types(m: int, top: tuple[int, ...], bottom: tuple[int, ...],
                memo: dict, mv: tuple) -> tuple[int, dict[int, int]]:
    """Tally of homotopy types over the same pairs as _wind_tally:
    compositions of m whose top begins with `top` and whose bottom with
    `bottom`.  Returns (rec, tally): every type of the pairs is rec + a key
    of the tally, with its count.

    Types are additive keys (_type_key, b = n.bit_length() bits a digit), so
    the same forced moves run in a loop, read from mv = _move_table(n, b,
    True), and the C-values they record sum into `rec` as C(d) adds d's
    digit.  Only branch states are memoized, keyed (m, bottom), and the
    branch's tally is returned unshifted: the caller adds `rec` to each key
    as it merges.  The same multiset added to distinct multisets keeps them
    distinct, so no two keys merge.  The returned dict may be a memo entry or
    shared: callers do not write it.
    """
    rec = 0
    while True:
        if top and (not bottom or top[0] < bottom[0]):  # F
            top, bottom = bottom, top
        if not m:
            return rec, _EMPTY_TYPE
        if not top:
            break
        d, th, bh, c = mv[top[0]][bottom[0]]
        m -= d
        rec += c
        top, bottom = th + top[1:], bh + bottom[1:]
    key = (m, bottom)
    got = memo.get(key)
    if got is None:
        got = {}
        for a in range(1, m + 1):
            r, tally = _wind_types(m, (a,), bottom, memo, mv)
            for k, v in tally.items():
                k += r
                got[k] = got.get(k, 0) + v
        memo[key] = got
    return rec, got


def homotopy_index(h: HomotopyType) -> int:
    """Index of any seaweed with this homotopy type."""
    if not h.components:
        raise ValueError("empty homotopy type")
    return sum(h.components) - 1


def format_signature(sig: Signature) -> str:
    return "".join([m._text for m in sig.moves])


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
