"""Censuses over pairs of compositions; ground truth for formulas.

census_cnk(n) tallies the seaweed index over all 4^(n-1) pairs by the
winding-down recurrence (winding._wind_tally): states are fixed leading parts
of both compositions, the moves of winding._move, read from a table, rewrite
only those, and the index is sum(C-values) - 1.  The tally is one int, 2n
bits a sum (_unpack_row reads it), and only states that branch over a next
part are memoized: 875 memo entries at n = 14, not 4^(n-1) meander walks.
It runs the rule verify's move certificate proves; its traversal of the
pairs is checked row by row by the transfer sweep and the exhaustive path.

_transfer_rows(n) is the row oracle of verify, and census_cnk(n, workers != 1)
runs it: one sweep over the vertices 1..n that reads only block arcs, so it
rests neither on the winding theorem nor on the common-cut lemma.  Each side
is opening or closing, and the open arc ends of both sides lie in one list,
end = [0, top ends outermost first, bottom ends innermost first]: a top end
is addressed by its position from the start, a bottom end by its negative
position from the end, so a side that pushes or pops its innermost end
moves no other address.  Each end holds the address of the other end of its
piece of the meander so far: another open end, or 0 for dead (a vertex with
no arc to come); slot 0 is scratch.  At a vertex each side opens an arc,
closes the innermost one or takes none, which gives the far end x (top) or
y (bottom) of its piece at the vertex: the new end, the popped end's
partner, or 0.  Both sides closing, with the top's popped end pointing at
the bottom's innermost end, finish a cycle; otherwise the vertex joins its
two pieces as meander._joins joins path ends, end[x], end[y] = y, x, and
two dead ends (x == y == 0) finish a path (an isolated vertex too).
The value of a state is the packed tally of 2*cycles + paths, shifted by 2w
for a cycle and w for a path (w = 2n bits).  A state with a side deeper
than the vertices left is dropped, and a state and its top/bottom mirror
share one entry.  After vertex m the fresh state (nothing open, both sides
opening) holds row C(m, .), so one sweep gives every row m <= n, with no
compose; ~1.5x per step of n.

census_cnk_exhaustive(n) is the graph oracle.  It rests on the common-cut
lemma: if both compositions cut after the same vertex c < n, no arc crosses
c, so the meander is the disjoint union of the two halves' meanders; cycles
and paths add, and

    index(T1T2/B1B2) = index(T1/B1) + index(T2/B2) + 1.

Every pair factors uniquely at its common cuts into irreducible pairs (no
common internal cut).  Each of the m-1 cut positions of size m is cut by the
top, by the bottom or by neither, so there are 3^(m-1) irreducible pairs of
size m, not 4^(m-1).  _census_rows tallies index + 1 over the irreducible
pairs of every size m <= n, g_m, packed like the recurrence's rows, so g_m
is the polynomial sum of count * y^(index + 1) at y = 2^(2n).  It joins
half the tops, by the mirror rule: reversing both compositions
(vertex i to m + 1 - i) mirrors the meander and keeps a pair irreducible,
so the top whose m - 1 cut bits are those of t reversed, rev(t), has the
index multiset of t.  Only canonical tops, t <= rev(t), are joined, and
each counts twice unless it is its own mirror.  _compose
multiplies them as ints: F_0 = 1, F_n = sum over m = 1..n of g_m * F_(n-m),
and C(n, k) is field k + 1 of F_n.  So one tally gives every row C(m, .),
m <= n (_exhaustive_rows), and census_cnk_exhaustive keeps the last.  A step
of n costs ~3x.

The join is meander._joins, written once: for each size m the parts and
block arcs of the compositions are built once, and each canonical top is
seeded once and joined with every bottom whose cut mask avoids its cuts,
the irreducible pairs, giving index + 1 = 2*cycles + paths.

census_cnk_naive goes through the public meander API.  census_c21 and
census_c22 tally the two restricted families.  Results are sparse maps (zero
counts omitted); every row C(n, .), of any census, is decoded by _unpack_row.

homotopy_census(n) runs the same recurrence on homotopy types
(winding._wind_types): the same states, moves and memo keys, but a tally is
a dict from type key to count, not a packed int.  A type key is an int that
adds as multisets unite, one b-bit digit a C size (winding._type_key, b =
n.bit_length()), so a run of forced moves sums its C-values into one int
and the caller adds it to each key of the branch state's tally as it
merges: nothing is sorted inside the recurrence.  The row's few dozen keys
are decoded once, at the end, through a cache (_keyed_type).  The memo of
row n holds every row m <= n at (m, ()), 97 entries at n = 8, and a step of
n costs ~1.8x.  Types also add at common cuts, H(T1T2/B1B2) = H(T1/B1) +
H(T2/B2), as test_homotopy_common_cut_lemma checks; the recurrence does not
rest on it.

Limits guard the 3x- to 4x-per-step cost of the exhaustive paths.  Each one
a variable overrides is an entry of LIMITS, read by limit(name) and refused
by _check_limit(name, n); _check_census_limit is the one guard of every
full-pair census.  Tables of c21 and c22 stop at n = GCD_TABLE_MAX_N.  Every
limit is refused by errors.check_limit.  Each table kind is an entry of
TABLES.  LIMITS, limit and TABLES are declared in the light module
declarations and imported here, so the CLI's --help lists both without
importing this module.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from functools import cache
from importlib import resources

from .compositions import all_pairs, composition_from_bitmask
from .declarations import LIMITS, TABLES, limit
from .errors import Frozen, UsageError, check_limit
from .formulas import gcd_index_2parts, gcd_index_3parts
from .meander import _block_edges, _joins, seaweed_index
from .winding import (HomotopyType, _key_components, _move_table, _wind_tally,
                      _wind_types)

# c21 and c22 tables: a c22 row costs (n-1)^2 gcds and its table n^2 CSV
# lines, so the table to this n takes a few seconds.
GCD_TABLE_MAX_N = 300


def _check_limit(name: str, n: int) -> None:
    check_limit(LIMITS[name].subject, n, limit(name), LIMITS[name].env)


def _check_census_limit(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_limit("census", n)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")


def _mirrors(w: int) -> list[int]:
    """Entry t: the w low bits of t in reverse order.  With w = n - 1 it is
    the cut mask of the mirror of composition t of n (vertex i to n + 1 - i)."""
    rev = [0]
    for i in range(w):
        rev = [r | b << i for r in rev for b in (0, 1)]
    return rev


def _census_rows(n: int) -> list[int]:
    """Entry m: packed tally of index + 1 (2n bits a sum, _unpack_row) over
    the irreducible pairs of size m; entry 0 is 0.

    The parts and arcs of the compositions of m are built once a size.  Each
    top t is joined, by meander._joins, with every bottom whose mask shares
    no cut with t.  Mirroring both compositions (vertex i to m + 1 - i)
    mirrors the meander and keeps a pair irreducible, so top rev(t) has the
    index multiset of top t: only canonical tops, t <= rev(t), are joined,
    each counted twice unless t == rev(t).
    """
    rows = [0]
    for m in range(1, n + 1):
        parts = [composition_from_bitmask(m, mask).parts for mask in range(1 << (m - 1))]
        arcs = [_block_edges(p) for p in parts]
        once, twice = Counter(), Counter()
        for t, rev in enumerate(_mirrors(m - 1)):
            if t <= rev:
                bottoms = [0]  # the masks that share no cut with t
                for i in range(m - 1):
                    if not t >> i & 1:
                        bottoms += [b | 1 << i for b in bottoms]
                (twice if t < rev else once).update(
                    v for _, v in _joins(parts[t], [arcs[b] for b in bottoms]))
        rows.append(sum((once[s] + 2 * twice[s]) << s * 2 * n
                        for s in range(1, m + 1)))
    return rows


def census_cnk(n: int, workers: int = 1) -> dict[int, int]:
    """Tally of seaweed_index over all 4^(n-1) pairs of compositions of n.

    With one worker it is computed by the winding-down recurrence, whose
    memo lives only for this call.  Any other worker count asks instead for
    the transfer sweep (_transfer_rows), the independent cross-check, as in
    `table cnk --workers N`; both run in the calling process.  Fewer than
    one worker is a UsageError, as in build_table.
    """
    _check_workers(workers)
    return _cnk_rows(n, workers)[n]


def _cnk_rows(n: int, workers: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n: the recurrence's for one worker, else the
    transfer sweep's."""
    return _recurrence_rows(n) if workers == 1 else _transfer_rows(n)


def _recurrence_rows(n: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n, from one winding recurrence: the memo of row
    n holds the branch state (m, ()) of every m <= n."""
    _check_census_limit(n)
    memo = {}
    _wind_tally(n, (), (), memo, _move_table(n, 2 * n, False))
    return {m: _unpack_row(memo[m, ()], 2 * n) for m in range(1, n + 1)}


def _unpack_row(packed: int, w: int) -> dict[int, int]:
    """Index -> count from a packed tally of sum(C-values), w bits a sum
    (winding._wind_tally); the index is the sum minus one."""
    row, mask = {}, (1 << w) - 1
    s = 0
    while packed:
        if count := packed & mask:
            row[s - 1] = count
        packed >>= w
        s += 1
    return row


_OPEN, _MIDDLE, _CLOSE = range(3)


def _side_moves(closing: bool, depth: int, left: int) -> tuple:
    """The moves of one side of the transfer sweep at a vertex, as (move,
    depth after, closing after), keeping only those that leave at most
    `left` arcs open, as many as the later vertices can close.

    An opening side opens an arc, closes the innermost one (the middle of an
    even block) or takes none: a block of 1 if no arc is open, else the
    middle of an odd block.  A closing side closes the innermost arc, and
    opens again when none is left.  So each composition is one sequence of
    moves.
    """
    if closing:
        moves = (_CLOSE,)
    else:
        moves = (_OPEN, _MIDDLE, _CLOSE) if depth else (_OPEN, _MIDDLE)
    after = {_OPEN: depth + 1, _MIDDLE: depth, _CLOSE: depth - 1}
    return tuple((move, after[move], move != _OPEN and after[move] > 0)
                 for move in moves if after[move] <= left)


def _transfer_rows(n: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n, from one left-to-right transfer sweep over
    the vertices (the module docstring gives its list of ends and its join).

    A state is (top closing, bottom closing, top depth nt, ends), where ends
    is the list without its scratch slot: top ends ends[:nt] outermost first,
    then the bottom ends innermost first.  Its value is the packed tally (2n
    bits a sum, _unpack_row) of 2*cycles + paths over the finished
    components.  The mirror of a state swaps the sides, which reverses the
    list and negates each address: (bc, tc, len(ends) - nt, ends reversed
    and negated).  It has the mirrored successors, so the two tally alike:
    each vertex folds them into the lesser key with the sum of their
    tallies, and sweeping that key gives each mirrored pair of successors
    the sum of theirs.  Row m is the fresh state after vertex m.

    No field carries: the prune keeps only states that extend to a full pair
    of n, so the prefixes counted in a field extend to distinct pairs of n,
    at most 4^(n-1) < 2^(2n).
    """
    _check_census_limit(n)
    w = 2 * n
    fresh = (False, False, 0, ())
    states = {fresh: 1}
    rows = {}
    for v in range(1, n + 1):
        moves = {(closing, depth): _side_moves(closing, depth, n - v)
                 for closing in (False, True) for depth in range(n + 1)}
        swept = {}
        for (tc, bc, nt, ends), tally in states.items():
            nb = len(ends) - nt
            for tmove, tdepth, tafter in moves[tc, nt]:
                for bmove, _, bafter in moves[bc, nb]:
                    end, t = [0, *ends], tally
                    x = end.pop(nt) if tmove == _CLOSE else 0
                    y = end.pop(-nb) if bmove == _CLOSE else 0
                    if tmove == bmove == _CLOSE and x == -nb:
                        t <<= 2 * w
                    else:
                        if tmove == _OPEN:
                            x = nt + 1
                            end.insert(x, 0)
                        if bmove == _OPEN:
                            y = -nb - 1
                            end.insert(len(end) - nb, 0)
                        end[x], end[y] = y, x
                        if x == y == 0:
                            t <<= w
                    key = (tafter, bafter, tdepth, tuple(end[1:]))
                    swept[key] = swept.get(key, 0) + t
        states = {}
        for key, t in swept.items():
            tc, bc, nt, ends = key
            key = min(key, (bc, tc, len(ends) - nt, tuple([-e for e in reversed(ends)])))
            states[key] = states.get(key, 0) + t
        rows[v] = _unpack_row(states.get(fresh, 0), w)
    return rows


def census_cnk_exhaustive(n: int) -> dict[int, int]:
    """Reference path: census_cnk as the last row of _exhaustive_rows."""
    return _exhaustive_rows(n)[n]


def _exhaustive_rows(n: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n, composed from one irreducible tally."""
    _check_census_limit(n)
    return _compose(n, _census_rows(n))


def _compose(n: int, g: list[int]) -> dict[int, dict[int, int]]:
    """Rows C(size, .), size = 1..n, from the packed irreducible tallies g
    (_census_rows).

    Pairs factor uniquely at their common cuts and index + 1 adds over the
    factors, so a row is a polynomial in y = 2^(2n) and F_0 = 1,
    F_size = sum over m of g[m] * F[size - m] by integer multiplication,
    C(size, k) = field k + 1 of F_size.  No field carries: each coefficient
    of a product counts distinct pairs of one size <= n, so it is at most
    4^(n-1) < 2^(2n).
    """
    F = [1]
    for size in range(1, n + 1):
        F.append(sum(g[m] * F[size - m] for m in range(1, size + 1)))
    return {size: _unpack_row(F[size], 2 * n) for size in range(1, n + 1)}


def census_cnk_naive(n: int) -> dict[int, int]:
    """Reference path: same tally through the public meander API, one
    seaweed_index call a pair; no shared seed and no common cuts."""
    _check_census_limit(n)
    return Counter(map(seaweed_index, all_pairs(n)))


def census_c21(n: int) -> dict[int, int]:
    """Tally of formulas.gcd_index_2parts(a, n-a) (a|n-a over n), a in [1, n-1]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return Counter(gcd_index_2parts(a, n - a) for a in range(1, n))


def census_c22(n: int, oracle: str = "gcd") -> dict[int, int]:
    """Tally over all (n-1)^2 pairs (a|n-a, c|n-c) of the seaweed index.

    oracle "gcd" uses formulas.gcd_index_3parts(a, n-a, c); oracle "meander"
    builds the arcs of the n-1 compositions once and joins them by
    meander._joins under each top, seeded once (bounded by LIMITS).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    firsts = range(1, n)
    if oracle == "gcd":
        return Counter(gcd_index_3parts(a, n - a, c) for a in firsts for c in firsts)
    if oracle != "meander":
        raise ValueError(f"unknown oracle {oracle!r}")
    _check_limit("c22_meander", n)
    comps = [(a, n - a) for a in firsts]
    bottoms = [_block_edges(c) for c in comps]
    return Counter(val - 1 for top in comps for _, val in _joins(top, bottoms))


@cache
def _count(v: int) -> int:
    """The one int object of count v, shared by every row as the keys are.

    Counts past 256 are fresh 32-byte ints otherwise, 10 of the 58 of n = 8:
    a kept row then holds ~2.6 KB, ~2.3 KB with shared counts (tracemalloc,
    CPython 3.11), and the `homotopy` benchmark keeps every row it computes.
    """
    return v


@cache
def _keyed_type(key: int, b: int) -> HomotopyType:
    """The one HomotopyType of a type key with b-bit digits
    (winding._type_key), shared by every row with that key: a row decodes
    each of its keys once a process.

    A kept row of n = 8 (58 types) holds ~13 KB when each key is a fresh
    HomotopyType and tuple, ~2.6 KB when the keys are shared (tracemalloc,
    CPython 3.11), so a caller that keeps many rows pays ~5x for fresh
    ones.  The cache holds one entry a multiset of sum <= n and digit width
    b: a few hundred for every n the default census limit allows.
    """
    return HomotopyType(_key_components(key, b))


def homotopy_census(n: int) -> dict[HomotopyType, int]:
    """Tally of canonical homotopy types over all 4^(n-1) pairs, in order of
    canonical tuple, by the winding recurrence (winding._wind_types), whose
    memo lives only for this call.  Each call builds a new dict; its keys and
    counts are the shared _keyed_type and _count objects.
    """
    _check_census_limit(n)
    b = n.bit_length()
    _, tally = _wind_types(n, (), (), {}, _move_table(n, b, True))
    row = sorted(((_keyed_type(key, b), v) for key, v in tally.items()),
                 key=lambda hv: hv[0].canonical())
    return {h: _count(v) for h, v in row}


# --- tables and golden data --------------------------------------------------

class IndexTable(Frozen):
    """Rows n -> (k -> count), zero cells omitted."""

    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: dict[int, dict[int, int]]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rows", rows)
        if kind not in TABLES:
            raise ValueError(f"unknown table kind {kind!r}")

    def n_range(self) -> tuple[int, int]:
        return min(self.rows), max(self.rows)

    def cell(self, n: int, k: int) -> int:
        return self.rows.get(n, {}).get(k, 0)

    def width(self) -> int:
        return max(self.rows)  # k columns run 0 .. max n - 1

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["n", "k", "count"])
        kmax = self.width() - 1
        for n in sorted(self.rows):
            for k in range(kmax + 1):
                w.writerow([n, k, self.cell(n, k)])
        return out.getvalue()

    def to_json(self) -> str:
        rows = {
            str(n): {str(k): v for k, v in sorted(self.rows[n].items())}
            for n in sorted(self.rows)
        }
        return json.dumps({"kind": self.kind, "rows": rows}, indent=2) + "\n"

    def to_markdown(self) -> str:
        kmax = self.width() - 1
        header = ["n\\k"] + [str(k) for k in range(kmax + 1)]
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "---|" * len(header))
        for n in sorted(self.rows):
            cells = [str(self.cell(n, k)) for k in range(kmax + 1)]
            lines.append("| " + " | ".join([str(n)] + cells) + " |")
        return "\n".join(lines) + "\n"

    def check_row_sums(self) -> None:
        for n, row in self.rows.items():
            got = sum(row.values())
            want = TABLES[self.kind].pairs(n)
            if got != want:
                raise AssertionError(f"row {n} sums to {got}, expected {want}")


def table_from_csv(kind: str, text: str) -> IndexTable:
    rows: dict[int, dict[int, int]] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["n", "k", "count"]:
        raise ValueError(f"bad table header {header!r}")
    for rec in reader:
        if not rec:
            continue
        n, k, count = (int(x) for x in rec)
        rows.setdefault(n, {})
        if count:
            rows[n][k] = count
    return IndexTable(kind, rows)


def build_table(
    kind: str, max_n: int, oracle: str = "gcd", workers: int = 1
) -> IndexTable:
    min_n = TABLES[kind].min_n
    if max_n < min_n:
        raise UsageError(f"max_n must be >= {min_n} for {kind}")
    _check_workers(workers)
    if kind == "cnk":
        return IndexTable(kind, _cnk_rows(max_n, workers))
    # fail fast before any row is computed
    if kind == "c22" and oracle == "meander":
        _check_limit("c22_meander", max_n)
    check_limit(f"table {kind} to", max_n, GCD_TABLE_MAX_N)
    rows = {n: census_c21(n) if kind == "c21" else census_c22(n, oracle=oracle)
            for n in range(min_n, max_n + 1)}
    return IndexTable(kind, rows)


def load_golden(kind: str) -> IndexTable:
    """The reference tables shipped with the package (data/*_reference.csv)."""
    text = (
        resources.files("seaweeds.data")
        .joinpath(f"{kind}_reference.csv")
        .read_text(encoding="ascii")
    )
    return table_from_csv(kind, text)


def diff_golden(table: IndexTable, golden: IndexTable) -> list[str]:
    """Cell-by-cell comparison over the golden rectangle restricted to the
    rows the table actually has; missing rows are reported as such."""
    problems = []
    kmax = golden.width() - 1
    lo, hi = table.n_range()
    for n in sorted(golden.rows):
        if n < lo or n > hi:
            continue
        if n not in table.rows:
            problems.append(f"row n={n} missing from computed table")
            continue
        for k in range(kmax + 1):
            want = golden.cell(n, k)
            got = table.cell(n, k)
            if want != got:
                problems.append(f"cell (n={n}, k={k}): expected {want}, got {got}")
    extra = set(table.rows) - set(golden.rows)
    for n in sorted(extra):
        problems.append(f"row n={n} has no golden reference")
    return problems
