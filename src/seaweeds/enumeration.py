"""Censuses over pairs of compositions; ground truth for formulas.

census_cnk(n) tallies the seaweed index over all 4^(n-1) pairs by the
winding-down recurrence (winding._wind_tally): states are fixed leading parts
of both compositions, the moves of winding._move, read from a table, rewrite
only those, and the index is sum(C-values) - 1.  The tally is one int, 2n
bits a sum (_unpack_row reads it), and only states that branch over a next
part are memoized: 875 memo entries at n = 14, not 4^(n-1) meander walks.
It runs the rule verify's move certificate proves; its traversal of the
pairs is checked row by row by the transfer sweep and the exhaustive path.

_transfer_rows(n) is the row oracle of verify: one sweep over the vertices
1..n that reads only block arcs, so it rests neither on the winding theorem
nor on the common-cut lemma.  Each side is opening or closing and keeps a
stack of open arc ends; each end holds the other end of its piece of the
meander so far, another open end or dead (a vertex with no arc to come).  At
a vertex each side opens an arc, closes the innermost one or takes none, and
the vertex joins its top and bottom pieces: closing both ends of one piece
finishes a cycle, two dead ends finish a path (an isolated vertex too), and
otherwise the two far ends become partners.  The value of a state is the
packed tally of 2*cycles + paths, shifted by 2w for a cycle and w for a path
(w = 2n bits).  A state with a stack deeper than the vertices left is
dropped, and a state and its top/bottom mirror share one entry.  After
vertex m the fresh state (both stacks empty, both sides opening) holds row
C(m, .), so one sweep gives every row m <= n, with no compose; ~1.5x per
step of n.

census_cnk_exhaustive(n) is the graph oracle, and census_cnk(n, workers != 1)
runs it.  It rests on the common-cut lemma: if both compositions cut after
the same vertex c < n, no arc crosses c, so the meander is the disjoint union
of the two halves' meanders; cycles and paths add, and

    index(T1T2/B1B2) = index(T1/B1) + index(T2/B2) + 1.

Every pair factors uniquely at its common cuts into irreducible pairs (no
common internal cut).  Each of the m-1 cut positions of size m is cut by the
top, by the bottom or by neither, so there are 3^(m-1) irreducible pairs of
size m, not 4^(m-1).  _census_rows tallies index + 1 over the irreducible
pairs of every size m <= n, g_m, packed like the recurrence's rows, so g_m
is the polynomial sum of count * y^(index + 1) at y = 2^(2n).  It runs the
kernel on half the tops, by the mirror rule: reversing both compositions
(vertex i to m + 1 - i) mirrors the meander and keeps a pair irreducible,
so the top whose m - 1 cut bits are those of t reversed, rev(t), has the
index multiset of t.  Only canonical tops, t <= rev(t), run the kernel,
and each counts twice unless it is its own mirror.  _compose
multiplies them as ints: F_0 = 1, F_n = sum over m = 1..n of g_m * F_(n-m),
and C(n, k) is field k + 1 of F_n.  So one tally gives every row C(m, .),
m <= n (_exhaustive_rows), and census_cnk_exhaustive keeps the last.  A step
of n costs ~3x.

Given a top partner table (1-based, as meander._partners builds it; it also
gives the top's arc count) and the top's cuts, _graph_sums grows the
bottom compositions that avoid those cuts as a prefix tree, adding each
block's arcs once for all that share the prefix, and joins path ends arc by
arc, at amortized O(1) a pair:

    index + 1 = 2*cycles + n - E

(E total arcs): a cycle with v vertices has v arcs and a path v-1, so
paths = n - E needs no path counted.  It writes one byte a bottom, in mask
order; a byte holds the value only while n < 256.

The census's unit of work is a range of top masks in [0, 2^(n-1)): size m takes
[tstart >> (n-m), tstop >> (n-m)) and builds the top tables of the
canonical tops of that range only; floor-shifting a partition of
[0, 2^(n-1)) gives a partition of [0, 2^(m-1)).  A range tallies its
canonical tops for their mirrors too, wherever those lie, so a range's
tally is not that of its own tops: only the sum over a partition is the
true tally.  Forked over procs processes (_forked: the caller runs the
first range itself and one os.fork each runs every other, results back
through a pipe), each process takes one range, cut so each holds an equal
share of the work: the irreducible pairs of canonical tops plus a set-up
cost a canonical top (_TOP_COST).  The caller fills the _bottom_blocks
tables first, so the children inherit them.  The parts' packed tallies add
size by size, which commutes, so the result never depends on the split.
census_cnk_naive goes through the public meander API.  census_c21 and
census_c22 tally the two restricted families.  Results are sparse maps (zero
counts omitted); every row C(n, .), either way, is decoded by _unpack_row.

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
TABLES, and the CLI's --help lists both.
"""

from __future__ import annotations

import csv
import io
import json
import marshal
import os
import signal
from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Callable, NamedTuple, NoReturn

from .compositions import all_pairs, composition_from_bitmask
from .errors import UsageError, check_limit
from .formulas import gcd_index_2parts, gcd_index_3parts
from .meander import _block_edges, _joins, _partners, seaweed_index
from .winding import (HomotopyType, _key_components, _move_table, _wind_tally,
                      _wind_types)

# c21 and c22 tables: a c22 row costs (n-1)^2 gcds and its table n^2 CSV
# lines, so the table to this n takes a few seconds.
GCD_TABLE_MAX_N = 300
# The fork's range cuts weigh each canonical top by its irreducible bottoms
# of size n plus this set-up cost: _top_table and the start of _graph_sums,
# paid again at every smaller size, cost about as much as 32 bottoms of the
# kernel.  Measured, not a setting: on 2 processes the CPU time of the first
# range over the second went from 0.63, 0.71 and 0.73 at n = 10, 12 and 14
# to 1.07, 1.00 and 0.92 with it (medians, 2-vCPU x86, CPython 3.11).
_TOP_COST = 32


class Limit(NamedTuple):
    """A limit an environment variable overrides, as --help lists it."""

    env: str
    default: int
    help: str  # what it bounds, as --help says it
    subject: str  # what its refusal names


LIMITS = {
    "census": Limit(
        "SEAWEEDS_CENSUS_LIMIT", 14, "bounds full-pair censuses", "census at"),
    "c22_meander": Limit(
        "SEAWEEDS_C22_MEANDER_LIMIT", 50, "bounds the two-over-two meander oracle",
        "c22 meander oracle at"),
}


def limit(name: str) -> int:
    """The current value of LIMITS[name]: its variable if set, else its default."""
    entry = LIMITS[name]
    try:
        return int(os.environ.get(entry.env, entry.default))
    except ValueError:
        text = os.environ[entry.env]
        raise UsageError(f"{entry.env} must be an integer, got {text!r}") from None


def _check_limit(name: str, n: int) -> None:
    check_limit(LIMITS[name].subject, n, limit(name), LIMITS[name].env)


def _check_census_limit(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_limit("census", n)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")


def _top_table(n: int, mask: int) -> list[int]:
    """Partner table (meander._partners) of the composition of n with mask."""
    return _partners(n, _block_edges(composition_from_bitmask(n, mask).parts))


@cache
def _bottom_blocks(n: int) -> tuple:
    """The prefix tree of bottom compositions of n, grown from the right.

    Entry p lists each block q+1..p that can close the prefix 1..p as (q, the
    mask bit of the cut after q, or 0 when q == 0, and the block's arcs: one
    part of p - q shifted by q), for q = p-1 down to 2, then 0, then 1.  A
    depth-first walk that pushes q > 1 and stores q <= 1 at once (vertex 1
    alone has no arc) then meets the masks in increasing order.
    """
    def block(q, p):
        arcs = tuple((j + q, k + q) for j, k in _block_edges((p - q,)))
        return q, 1 << (q - 1) if q else 0, arcs

    return tuple(
        tuple(block(q, p) for q in [*range(p - 1, 1, -1), *range(min(p, 2))])
        for p in range(n + 1))


def _graph_sums(n: int, T: list[int], tcuts: int = 0) -> bytearray:
    """Graph index + 1 of top table T over each bottom mask without a cut in
    tcuts, one byte each in mask order (a byte holds it while n < 256).

    T alone gives the top's arc count tarcs: one arc per vertex u < T[u].
    Depth first over _bottom_blocks, a node holds a path-end array, seeded
    with T (end[u] = far end of the path ending at u), and the running value
    n - tarcs + 2*cycles - barcs.  A bottom arc (u, w) closes a cycle if
    end[u] == w (+1); else the far ends x, y of u and w now end one path
    (end[x], end[y] = y, x; -1).  At a leaf the value is index + 1, since
    paths = n - E.  Only blocks with arcs copy the array, so T is never
    written.  A block whose cut bit is in tcuts is skipped with its subtree:
    with tcuts = the top's mask, only the pairs sharing no cut with the top
    remain, the irreducible pairs of the exhaustive census.

    meander._joins writes the same join for one seeded top.  The two are
    kept apart on purpose: a shared helper called once a block slowed this
    loop by ~13%.
    """
    blocks = _bottom_blocks(n)
    out = bytearray()
    tarcs = sum(u < w for u, w in enumerate(T))
    stack = [(n, T, n - tarcs)]
    while stack:
        p, end, val = stack.pop()
        for q, bit, arcs in blocks[p]:
            if bit & tcuts:
                continue
            e, v = end, val
            if arcs:
                e = end[:]
                for u, w in arcs:
                    x = e[u]
                    if x == w:
                        v += 1
                    else:
                        y = e[w]
                        e[x] = y
                        e[y] = x
                        v -= 1
            if q > 1:
                stack.append((q, e, v))
            else:
                out.append(v)
    return out


def _mirrors(w: int) -> list[int]:
    """Entry t: the w low bits of t in reverse order.  With w = n - 1 it is
    the cut mask of the mirror of composition t of n (vertex i to n + 1 - i),
    and entry t >> (n - m) that of composition t of m <= n."""
    rev = [0]
    for i in range(w):
        rev = [r | b << i for r in rev for b in (0, 1)]
    return rev


def _census_rows(n: int, tstart: int, tstop: int) -> list[int]:
    """Entry m: packed tally of index + 1 (2n bits a sum, _unpack_row) over
    the irreducible pairs of size m whose top mask t lies in
    [tstart >> (n - m), tstop >> (n - m)) and is canonical, t <= rev(t),
    each counted twice unless t == rev(t); entry 0 is 0.  The parallel work
    unit.

    Mirroring both compositions (vertex i to m + 1 - i) mirrors the meander
    and keeps a pair irreducible, so top rev(t) has the index multiset of
    top t and only canonical tops run _graph_sums.  A range thus tallies its
    canonical tops for their mirrors too, wherever those lie: only the sum
    over a partition of [0, 2^(n-1)) is the true tally.
    """
    mirror = _mirrors(n - 1)
    rows = [0]
    for m in range(1, n + 1):
        shift = n - m
        once, twice = bytearray(), bytearray()
        for tmask in range(tstart >> shift, tstop >> shift):
            rev = mirror[tmask] >> shift
            if tmask <= rev:
                (twice if tmask < rev else once).extend(
                    _graph_sums(m, _top_table(m, tmask), tmask))
        rows.append(sum((once.count(s) + 2 * twice.count(s)) << s * 2 * n
                        for s in range(1, m + 1)))
    return rows


def census_cnk(n: int, workers: int = 1) -> dict[int, int]:
    """Tally of seaweed_index over all 4^(n-1) pairs of compositions of n.

    With one worker it is computed by the winding-down recurrence, whose
    memo lives only for this call.  The recurrence is serial and takes
    milliseconds, so any other worker count asks instead for the exhaustive
    census forked over that many processes (census_cnk_exhaustive): the
    independent cross-check, as in `table cnk --workers N`.  Fewer than one
    worker is a UsageError, as in build_table.
    """
    return _cnk_rows(n, workers)[n]


def _cnk_rows(n: int, workers: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n: the recurrence's for one worker, else the
    forked exhaustive census's from one tally (which refuses workers < 1)."""
    if workers == 1:
        return _recurrence_rows(n)
    return _exhaustive_rows(n, workers)


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
    closing after it), keeping only those that leave at most `left` arcs
    open, as many as the later vertices can close.

    An opening side opens an arc, closes the innermost one (the middle of an
    even block) or takes none: a block of 1 if no arc is open, else the
    middle of an odd block.  A closing side closes the innermost arc, and
    opens again when none is left.  So each composition is one sequence of
    moves.
    """
    if closing:
        moves = [(_CLOSE, depth > 1)]
    elif depth:
        moves = [(_OPEN, False), (_MIDDLE, True), (_CLOSE, depth > 1)]
    else:
        moves = [(_OPEN, False), (_MIDDLE, False)]
    return tuple((move, after) for move, after in moves
                 if depth + (move == _OPEN) - (move == _CLOSE) <= left)


def _transfer_rows(n: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n, from one left-to-right transfer sweep over
    the vertices (the module docstring gives its sides and joins).

    A state is (top closing, top ends, bottom closing, bottom ends).  A
    side's ends are its open arc ends, outermost first, each holding the
    code of the other end of its piece: i + 1 for top end i, -(j + 1) for
    bottom end j, 0 for dead.  Its value is the packed tally (2n bits a sum,
    _unpack_row) of 2*cycles + paths over the finished components.  The
    mirror of a state (sides swapped, codes negated) has the mirrored
    successors, so the two tally alike: each vertex folds them into the
    lesser key with the sum of their tallies, and sweeping that key gives
    each mirrored pair of successors the sum of theirs.  Row m is the fresh
    state after vertex m.

    No field carries: the prune keeps only states that extend to a full pair
    of n, so the prefixes counted in a field extend to distinct pairs of n,
    at most 4^(n-1) < 2^(2n).
    """
    _check_census_limit(n)
    w = 2 * n
    fresh = (False, (), False, ())
    states = {fresh: 1}
    rows = {}
    for v in range(1, n + 1):
        moves = {(closing, depth): _side_moves(closing, depth, n - v)
                 for closing in (False, True) for depth in range(n + 1)}
        swept = {}
        for (tc, tp, bc, bp), tally in states.items():
            nt, nb = len(tp), len(bp)
            for tmove, tafter in moves[tc, nt]:
                for bmove, bafter in moves[bc, nb]:
                    T, B, t = list(tp), list(bp), tally
                    if tmove == bmove == _CLOSE and T[-1] == -nb:
                        T.pop()
                        B.pop()
                        t <<= 2 * w
                    else:
                        if tmove == _CLOSE:
                            x = T.pop()
                        elif tmove == _OPEN:
                            x = nt + 1
                            T.append(0)
                        else:
                            x = 0
                        if bmove == _CLOSE:
                            y = B.pop()
                        elif bmove == _OPEN:
                            y = -nb - 1
                            B.append(0)
                        else:
                            y = 0
                        if x > 0:
                            T[x - 1] = y
                        elif x < 0:
                            B[-x - 1] = y
                        if y > 0:
                            T[y - 1] = x
                        elif y < 0:
                            B[-y - 1] = x
                        elif not x:
                            t <<= w
                    key = (tafter, tuple(T), bafter, tuple(B))
                    swept[key] = swept.get(key, 0) + t
        states = {}
        for key, t in swept.items():
            tc, tp, bc, bp = key
            key = min(key, (bc, tuple([-e for e in bp]), tc, tuple([-e for e in tp])))
            states[key] = states.get(key, 0) + t
        rows[v] = _unpack_row(states.get(fresh, 0), w)
    return rows


def census_cnk_exhaustive(n: int, workers: int = 1) -> dict[int, int]:
    """Reference path: census_cnk as the last row of _exhaustive_rows."""
    return _exhaustive_rows(n, workers)[n]


def _exhaustive_rows(n: int, workers: int) -> dict[int, dict[int, int]]:
    """Rows C(m, .), m = 1..n, from one irreducible tally over
    min(workers, usable CPUs, 2^(n-1)) processes, one top-mask range each:
    the caller runs the first range and forks a child for each other."""
    _check_workers(workers)
    _check_census_limit(n)
    # before counting CPUs: no fork is an error on any host
    if workers > 1 and not hasattr(os, "fork"):
        raise UsageError(
            "workers > 1 needs the 'fork' start method, which this platform lacks")
    half = 1 << (n - 1)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    procs = min(workers, cpus, half)
    # a canonical top mask with j cuts runs _graph_sums on 2^(n-1-j)
    # irreducible bottoms of size n, after a set-up of _TOP_COST, any other
    # top on none: cut where that weight reaches each 1/procs
    mirror = _mirrors(n - 1)
    weights = [(1 << (n - 1 - tmask.bit_count())) + _TOP_COST
               if tmask <= mirror[tmask] else 0 for tmask in range(half)]
    total = sum(weights)
    cuts, acc = [0], 0
    for tmask, weight in enumerate(weights):
        acc += weight
        while len(cuts) < procs and acc * procs >= total * len(cuts):
            cuts.append(tmask + 1)
    jobs = [(n, lo, hi) for lo, hi in zip(cuts, [*cuts[1:], half])]
    # filled here, the tables of every size are inherited by each child and
    # stay for the next call
    for m in range(1, n + 1):
        _bottom_blocks(m)
    return _compose(n, list(map(sum, zip(*_forked(_census_rows, jobs)))))


def _forked(fn, jobs: list[tuple]) -> list:
    """[fn(*job) for job in jobs]: jobs[0] runs in the caller, each other job
    in a child process forked for it, so [] and one job fork nothing.

    A child marshals its result into a pipe and always leaves by os._exit,
    so it runs none of the caller's exit handlers and flushes none of its
    buffers.  It takes the default action on SIGTERM: a signal sent to the
    process group stops it rather than run a handler written for the caller,
    while the caller's own job keeps the caller's handlers.  Signals stay
    blocked from before each fork until the caller has recorded the child
    and the child is inside its own try, so no handler runs in between.
    Once every child runs, the caller runs jobs[0], then reads every pipe,
    reaps every child, and raises ChildProcessError if one failed.  On any
    exception of its own, its job failing or a SystemExit from a SIGTERM
    handler included, it kills and reaps every child before re-raising, so
    no census leaves a process behind.
    """
    pids, reads = [], []
    try:
        for job in jobs[1:]:
            r, w = os.pipe()
            reads.append(r)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if not pid:
                    _child(fn, job, w, mask)
                pids.append(pid)
            finally:
                os.close(w)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [fn(*job) for job in jobs[:1]]
        blobs = []
        for r in reads:
            with open(r, "rb", closefd=False) as pipe:
                blobs.append(pipe.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise ChildProcessError(f"census processes failed, exit codes {codes}")
    return results + [marshal.loads(blob) for blob in blobs]


def _child(fn, job: tuple, w: int, mask) -> NoReturn:
    """The body of a child of _forked: SIGTERM default and the caller's
    signal mask back, then fn(*job) marshalled into w."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        data = marshal.dumps(fn(*job))
        with open(w, "wb", closefd=False) as pipe:
            pipe.write(data)
        os._exit(0)
    except BaseException:
        import traceback  # only a failing child pays for it
        traceback.print_exc()
    finally:
        os._exit(1)


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
    seaweed_index call a pair; no census kernel and no common cuts."""
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
def _homotopy_type(key: tuple[int, ...]) -> HomotopyType:
    """The one HomotopyType of canonical tuple `key`, shared by every row.

    A kept row of n = 8 (58 types) holds ~11 KB when each key is a fresh
    HomotopyType and tuple, ~2.6 KB when the keys are shared (tracemalloc),
    so a caller that keeps many rows pays ~4x for fresh ones.  The cache
    holds one entry a multiset of sum <= n: a few hundred for every n the
    default census limit allows.
    """
    return HomotopyType(key)


@cache
def _count(v: int) -> int:
    """The one int object of count v, shared by every row as the keys are.

    Counts past 256 are fresh 32-byte ints otherwise, 10 of the 58 of n = 8:
    a kept row then holds ~2.6 KB, ~2.3 KB with shared counts (tracemalloc),
    and the `homotopy` benchmark keeps every row it computes.
    """
    return v


@cache
def _keyed_type(key: int, b: int) -> HomotopyType:
    """The shared _homotopy_type of a type key with b-bit digits
    (winding._type_key): a row decodes each of its keys once a process."""
    return _homotopy_type(_key_components(key, b))


def homotopy_census(n: int) -> dict[HomotopyType, int]:
    """Tally of canonical homotopy types over all 4^(n-1) pairs, in order of
    canonical tuple, by the winding recurrence (winding._wind_types), whose
    memo lives only for this call.  Each call builds a new dict; its keys and
    counts are the shared _homotopy_type and _count objects.
    """
    _check_census_limit(n)
    b = n.bit_length()
    _, tally = _wind_types(n, (), (), {}, _move_table(n, b, True))
    row = sorted(((_keyed_type(key, b), v) for key, v in tally.items()),
                 key=lambda hv: hv[0].canonical())
    return {h: _count(v) for h, v in row}


# --- tables and golden data --------------------------------------------------

class Table(NamedTuple):
    """A table kind: its first row, its default last row, the pairs in row n."""

    min_n: int
    max_n: int
    pairs: Callable[[int], int]


TABLES = {
    "cnk": Table(1, 10, lambda n: 1 << (2 * (n - 1))),
    "c21": Table(2, 12, lambda n: n - 1),
    "c22": Table(2, 11, lambda n: (n - 1) * (n - 1)),
}


@dataclass(frozen=True)
class IndexTable:
    """Rows n -> (k -> count), zero cells omitted."""

    kind: str
    rows: dict[int, dict[int, int]]

    def __post_init__(self):
        if self.kind not in TABLES:
            raise ValueError(f"unknown table kind {self.kind!r}")

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
