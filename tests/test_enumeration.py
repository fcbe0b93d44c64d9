import copy
import gc
import json
import os
import random
import signal
import sys
import time
from collections import Counter

import pytest

from seaweeds import enumeration
from seaweeds.enumeration import (
    IndexTable,
    build_table,
    census_c21,
    census_c22,
    census_cnk,
    census_cnk_exhaustive,
    census_cnk_naive,
    diff_golden,
    homotopy_census,
    load_golden,
    table_from_csv,
)
from seaweeds.compositions import Composition, SeaweedType, composition_from_bitmask
from seaweeds.errors import LimitExceeded, UsageError
from seaweeds.formulas import DIAGONALS
from seaweeds.meander import (
    _block_edges,
    _partners,
    build_meander,
    component_summary,
    seaweed_index,
)
from seaweeds.winding import (
    HomotopyType,
    _key_components,
    _move_table,
    _wind_homotopy,
    _wind_types,
    homotopy_index,
)


def test_census_small_rows():
    assert census_cnk(1) == {0: 1}
    assert census_cnk(2) == {0: 2, 1: 2}
    assert census_cnk(3) == {0: 6, 1: 6, 2: 4}
    assert census_cnk(4) == {0: 14, 1: 26, 2: 16, 3: 8}


def test_census_matches_naive():
    for n in range(1, 9):
        assert census_cnk(n) == census_cnk_exhaustive(n) == census_cnk_naive(n)


def test_census_row_sums():
    for n in range(1, 9):
        assert sum(census_cnk(n).values()) == 4 ** (n - 1)


def test_census_matches_golden():
    golden = load_golden("cnk")
    transfer = enumeration._transfer_rows(10)
    for n in range(1, 11):
        assert (census_cnk(n) == census_cnk_exhaustive(n) == transfer[n]
                == golden.rows[n])


def test_recurrence_rows_past_the_exhaustive_reach(monkeypatch):
    # 2n bits a count: every row of n = 20 must still add up to 4^(m-1) and
    # agree with the closed-form diagonals, so no count spills into the next;
    # the transfer sweep, which never winds, gives the same rows
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "20")
    rows = enumeration._recurrence_rows(20)
    assert sorted(rows) == list(range(1, 21))
    assert enumeration._transfer_rows(20) == rows
    for m, row in rows.items():
        assert sum(row.values()) == 4 ** (m - 1), m
        for j, diag in DIAGONALS.items():
            if m >= j:
                assert row.get(m - j, 0) == diag(m), (m, j)


def test_transfer_rows_match_the_exhaustive_rows():
    # the sweep reads block arcs only, the exhaustive census composes the
    # graph index of the irreducible pairs: every row n <= 12 agrees
    assert enumeration._transfer_rows(12) == enumeration._exhaustive_rows(12, 1)


def test_census_frees_its_memo():
    gc.collect()
    gc.disable()
    try:
        census_cnk(9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_parallel_agrees():
    assert census_cnk_exhaustive(8, workers=3) == census_cnk_exhaustive(8, workers=1)


def _unfolded_rows(n):
    """_census_rows(n, 0, 2^(n-1)) with _graph_sums run on every top."""
    rows = [0]
    for m in range(1, n + 1):
        sums = b"".join(enumeration._graph_sums(m, enumeration._top_table(m, t), t)
                        for t in range(1 << (m - 1)))
        rows.append(sum(sums.count(s) << s * 2 * n for s in range(1, m + 1)))
    return rows


def test_census_rows_split_anywhere():
    # the fork cuts [0, 2^(n-1)) into one top-mask range per process.  A
    # range tallies its canonical tops, t <= rev(t), twice unless t is its
    # own mirror, so only a partition's sum is the true tally: any cuts,
    # empty ranges and a top apart from its mirror included, merge to the
    # unfolded tally and compose to the same rows.  Skipping the doubling,
    # or doubling the palindromes, changes the sum.
    rng = random.Random(6)
    recurrence = enumeration._recurrence_rows(10)
    for n in range(1, 11):
        half = 1 << (n - 1)
        want = _unfolded_rows(n)
        rows = enumeration._compose(n, want)
        assert rows == {m: recurrence[m] for m in range(1, n + 1)}, n
        partitions = [[0, half]]
        if n >= 3:
            # top 1 (a cut after vertex 1) apart from its mirror 2^(n-2)
            assert enumeration._mirrors(n - 1)[1] == half >> 1
            partitions.append([0, 2, half])
        for k in (2, 3, 5):
            for _ in range(2):
                inner = sorted(rng.randint(0, half) for _ in range(k - 1))
                partitions.append([0, *inner, half])
        for cuts in partitions:
            parts = [enumeration._census_rows(n, lo, hi)
                     for lo, hi in zip(cuts, cuts[1:])]
            merged = list(map(sum, zip(*parts)))
            assert merged == want, (n, cuts)
            assert enumeration._compose(n, merged) == rows, (n, cuts)
        assert enumeration._census_rows(n, half, half) == [0] * (n + 1)
        assert enumeration._census_rows(n, 0, 0) == [0] * (n + 1)


def test_census_composes_the_full_rows():
    # the common-cut decomposition against every pair's graph index
    for n in range(1, 11):
        full = Counter()
        for tmask in range(1 << (n - 1)):
            T = enumeration._top_table(n, tmask)
            full.update(s - 1 for s in enumeration._graph_sums(n, T))
        assert census_cnk_exhaustive(n) == full, n


def test_compose_keeps_every_pair_in_one_field():
    # every pair factors uniquely into irreducibles, 3^(m-1) of size m: with
    # all of them in field 0, each row holds all 4^(size-1) pairs there, and
    # only a field of at least 2n - 1 bits holds 4^(n-1) without a carry
    n = 14
    rows = enumeration._compose(n, [0] + [3 ** (m - 1) for m in range(1, n + 1)])
    assert rows == {size: {-1: 4 ** (size - 1)} for size in range(1, n + 1)}


def test_irreducible_pairs_per_size():
    # pairs without a common internal cut: top, bottom or neither cuts at
    # each of the m - 1 positions
    n = 12
    rows = enumeration._census_rows(n, 0, 1 << (n - 1))
    sizes = [sum(enumeration._unpack_row(packed, 2 * n).values()) for packed in rows]
    assert sizes == [0] + [3 ** (m - 1) for m in range(1, n + 1)]


def _mirror_masks(m):
    """Entry t: the mask of the composition of m with the parts of
    composition t in reverse order."""
    half = 1 << (m - 1)
    mask_of = {composition_from_bitmask(m, t).parts: t for t in range(half)}
    return [mask_of[composition_from_bitmask(m, t).parts[::-1]] for t in range(half)]


def test_mirrored_tops_have_one_index_multiset():
    # the fold rests on this: mirroring both compositions mirrors the meander
    # and keeps a pair irreducible, so top rev(t) meets the irreducible
    # bottoms of t's mirror, index for index
    for m in range(1, 10):
        mirror = _mirror_masks(m)
        assert enumeration._mirrors(m - 1) == mirror, m
        for t, r in enumerate(mirror):
            sums = enumeration._graph_sums(m, enumeration._top_table(m, t), t)
            rsums = enumeration._graph_sums(m, enumeration._top_table(m, r), r)
            assert sorted(sums) == sorted(rsums), (m, t)


def _sigterm_is_default(n, tstart, tstop):
    # one irreducible pair of size n, of index 1 if SIGTERM is default, else 0
    s = 1 + (signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    return [0] * n + [1 << s * 2 * n]


def test_census_children_take_default_sigterm(monkeypatch):
    # a forked child takes the default action on SIGTERM, since a caller's
    # Python-level handler inherited through fork is written for the caller;
    # the range the caller runs itself keeps that handler
    monkeypatch.setattr(enumeration, "_census_rows", _sigterm_is_default)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    old = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        assert census_cnk_exhaustive(8, workers=2) == {0: 1, 1: 1}
    finally:
        signal.signal(signal.SIGTERM, old)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raises(n, tstart, tstop):
    raise RuntimeError("census range failed")


def test_census_child_failure_raises_in_parent(monkeypatch):
    # a child that raises exits nonzero: the caller reaps every child and
    # raises with the child's exit code, and no process is left behind.  The
    # caller runs the range at top 0, the child the other
    census_rows = enumeration._census_rows
    monkeypatch.setattr(enumeration, "_census_rows",
                        lambda n, lo, hi: (_raises if lo else census_rows)(n, lo, hi))
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    with pytest.raises(ChildProcessError,
                       match=r"^census processes failed, exit codes \[1\]$"):
        census_cnk_exhaustive(8, workers=2)
    _no_child_left()


def test_census_caller_range_failure_propagates(monkeypatch):
    # the caller's own range raising kills and reaps its child, and the
    # range's exception is the one that propagates
    monkeypatch.setattr(enumeration, "_census_rows", _raises)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    with pytest.raises(RuntimeError, match=r"^census range failed$"):
        census_cnk_exhaustive(8, workers=2)
    _no_child_left()


def test_forked_parent_exception_kills_its_children():
    # an exception in the parent while its children run, here SystemExit
    # from a signal handler as a terminated benchmark raises, kills and
    # reaps them before it propagates
    old = signal.signal(signal.SIGALRM, lambda signum, frame: sys.exit(3))
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(SystemExit):
            enumeration._forked(time.sleep, [(60,), (60,)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - start < 30
    _no_child_left()


def _sleep_unless_zero(seconds):
    if not seconds:
        raise RuntimeError("caller's job failed")
    time.sleep(seconds)


def test_forked_caller_job_failure_kills_sleeping_children():
    # the caller's job raising while its children sleep kills and reaps
    # them before the exception propagates
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"^caller's job failed$"):
        enumeration._forked(_sleep_unless_zero, [(0,), (60,), (60,)])
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_forked_fewer_than_two_jobs_fork_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("a child was forked")

    monkeypatch.setattr(enumeration.os, "fork", no_fork)
    assert enumeration._forked(pow, []) == []
    assert enumeration._forked(pow, [(3, 5)]) == [243]


def test_forked_census_matches_serial(monkeypatch):
    # real forks: the caller and up to three children, every row n <= 10
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3}, raising=False)
    for n in range(1, 11):
        serial = enumeration._exhaustive_rows(n, 1)
        for workers in (2, 3, 4):
            assert enumeration._exhaustive_rows(n, workers) == serial, (n, workers)
    _no_child_left()


def test_forked_ranges_inherit_the_bottom_blocks(monkeypatch):
    # the caller fills _bottom_blocks for every size before it forks, so no
    # range builds a table: each range's cache misses ride in entry 0 of its
    # tally, which _compose never reads, and their sum is 0
    census_rows, compose = enumeration._census_rows, enumeration._compose
    misses = []

    def counting(n, tstart, tstop):
        before = enumeration._bottom_blocks.cache_info().misses
        rows = census_rows(n, tstart, tstop)
        rows[0] = enumeration._bottom_blocks.cache_info().misses - before
        return rows

    def recording(n, g):
        misses.append(g[0])
        return compose(n, g)

    monkeypatch.setattr(enumeration, "_census_rows", counting)
    monkeypatch.setattr(enumeration, "_compose", recording)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    enumeration._bottom_blocks.cache_clear()
    assert enumeration._exhaustive_rows(10, 3) == enumeration._recurrence_rows(10)
    assert misses == [0]


def test_forked_results_in_job_order():
    assert enumeration._forked(pow, [(2, 100), (3, 5), (7, 0)]) == [2 ** 100, 243, 1]
    _no_child_left()


def _in_process(calls):
    """Stands in for _forked: records the number of jobs, one process each,
    and runs them in this process."""
    def forked(fn, jobs):
        calls.append(len(jobs))
        return [fn(*job) for job in jobs]
    return forked


def test_census_forks_bounded_by_cpus(monkeypatch):
    calls = []
    monkeypatch.setattr(enumeration, "_forked", _in_process(calls))
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    want = census_cnk_exhaustive(8)
    assert census_cnk_exhaustive(8, workers=1000) == want
    assert census_cnk_exhaustive(8, workers=2) == want
    assert calls == [1, 3, 2]
    # no affinity call: the CPU count bounds the processes
    monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 5)
    assert census_cnk_exhaustive(8, workers=1000) == want
    assert calls[-1] == 5


def test_forked_table_forks_once(monkeypatch):
    # every row of the table comes from one forked tally
    calls = []
    monkeypatch.setattr(enumeration, "_forked", _in_process(calls))
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    table = build_table("cnk", 8, workers=2)
    assert calls == [2]
    golden = load_golden("cnk")
    assert table.rows == {n: golden.rows[n] for n in range(1, 9)}


def test_census_without_fork_is_a_usage_error(monkeypatch):
    monkeypatch.delattr(enumeration.os, "fork")
    with pytest.raises(UsageError):
        census_cnk_exhaustive(8, workers=2)
    assert census_cnk_exhaustive(8, workers=1) == census_cnk(8)


@pytest.mark.parametrize("census, workers", [
    (census_cnk, 0), (census_cnk, -2), (census_cnk_exhaustive, 0)])
def test_census_workers_below_one(monkeypatch, census, workers):
    # the library refuses the worker counts build_table refuses, before a row
    def no_rows(*args):
        raise AssertionError("a row was computed")

    for name in ("_wind_tally", "_census_rows"):
        monkeypatch.setattr(enumeration, name, no_rows)
    with pytest.raises(UsageError, match=rf"^workers must be >= 1, got {workers}$"):
        census(4, workers=workers)


def test_census_workers_run_exhaustive(monkeypatch):
    # more than one worker asks for the forked exhaustive census
    calls = []
    monkeypatch.setattr(enumeration, "_exhaustive_rows",
                        lambda n, workers: calls.append(workers) or {n: {}})
    census_cnk(4, workers=2)
    census_cnk(4, workers=1)
    assert calls == [2]
    monkeypatch.undo()
    assert census_cnk(8, workers=2) == census_cnk(8)


def test_graph_indices_match_seaweed_index_per_pair():
    # tallies cannot see per-pair errors that cancel; the verify winding
    # check reads these values pair by pair
    for n in range(1, 8):
        half = 1 << (n - 1)
        comps = [composition_from_bitmask(n, m) for m in range(half)]
        for tmask in range(half):
            T = enumeration._top_table(n, tmask)
            got = enumeration._graph_sums(n, T)
            # the component walk: seaweed_index is this kernel's own join
            want = [component_summary(build_meander(SeaweedType(comps[tmask], bottom)))
                    .index + 1 for bottom in comps]
            assert got == bytes(want)
            # the census's irreducible pairs: bottoms sharing no top cut
            got = enumeration._graph_sums(n, T, tmask)
            assert got == bytes(v for bmask, v in enumerate(want) if not bmask & tmask)


@pytest.mark.parametrize("n", [11, 12])
def test_graph_indices_match_seaweed_index_at_verify_depth(n):
    # verify's formulas check runs the kernel up to n = 12; a few seeded rows
    # there, every bottom mask against component_summary's own walk
    rng = random.Random(n)
    half = 1 << (n - 1)
    comps = [composition_from_bitmask(n, m) for m in range(half)]
    for tmask in [0, half - 1] + rng.sample(range(1, half - 1), 2):
        edges = _block_edges(comps[tmask].parts)
        got = enumeration._graph_sums(n, _partners(n, edges))
        want = [component_summary(build_meander(SeaweedType(comps[tmask], bottom)))
                .index + 1 for bottom in comps]
        assert got == bytes(want), tmask


def test_census_rows_leave_the_top_tables_unchanged(monkeypatch):
    # the kernel seeds its path-end array with the top table itself; a write
    # to it would not show in any tally, so compare the tables
    top_table = enumeration._top_table
    for n in range(1, 9):
        tables = {(m, mask): top_table(m, mask)
                  for m in range(1, n + 1) for mask in range(1 << (m - 1))}
        before = copy.deepcopy(tables)
        monkeypatch.setattr(enumeration, "_top_table",
                            lambda m, mask: tables[m, mask])
        assert census_cnk_exhaustive(n) == census_cnk(n)
        monkeypatch.undo()
        assert tables == before, n


def test_census_c21():
    assert census_c21(2) == {0: 1}
    assert census_c21(12) == {0: 4, 1: 2, 2: 2, 3: 2, 5: 1}
    for n in range(2, 30):
        assert sum(census_c21(n).values()) == n - 1
    with pytest.raises(ValueError):
        census_c21(1)


def test_census_c22_gcd():
    assert census_c22(2) == {1: 1}
    assert census_c22(10) == {0: 32, 1: 32, 4: 8, 9: 9}
    for n in range(2, 30):
        assert sum(census_c22(n).values()) == (n - 1) ** 2
    with pytest.raises(ValueError):
        census_c22(1)


def test_census_c22_meander_oracle():
    assert census_c22(4, oracle="meander") == {0: 4, 1: 2, 3: 3}
    for n in range(2, 13):
        assert census_c22(n, oracle="meander") == census_c22(n, oracle="gcd")


def test_census_c22_meander_oracle_tallies_seaweed_index():
    # the seeded join of census_c22 against one seaweed_index call a pair
    for n in range(2, 13):
        comps = [Composition((a, n - a)) for a in range(1, n)]
        assert census_c22(n, oracle="meander") == Counter(
            seaweed_index(SeaweedType(top, bottom))
            for top in comps for bottom in comps), n


def test_census_c22_bad_oracle():
    with pytest.raises(ValueError):
        census_c22(4, oracle="bogus")


def test_homotopy_census_small():
    assert homotopy_census(1) == {HomotopyType((1,)): 1}
    assert homotopy_census(2) == {
        HomotopyType((1,)): 2,
        HomotopyType((1, 1)): 1,
        HomotopyType((2,)): 1,
    }


def test_homotopy_census_collapses_to_index_census():
    for n in range(1, 13):
        hc = homotopy_census(n)
        assert sum(hc.values()) == 4 ** (n - 1)
        by_index: dict[int, int] = {}
        for h, cnt in hc.items():
            k = homotopy_index(h)
            by_index[k] = by_index.get(k, 0) + cnt
        assert by_index == census_cnk(n)


def _homotopy_census_brute(n):
    # the oracle: wind all 4^(n-1) pairs, no common cuts
    parts = [composition_from_bitmask(n, m).parts for m in range(1 << (n - 1))]
    counts = Counter(tuple(sorted(_wind_homotopy(tp, bp)))
                     for tp in parts for bp in parts)
    return {HomotopyType(key): v for key, v in sorted(counts.items())}


def test_homotopy_census_matches_brute_force():
    for n in range(1, 10):
        got, want = homotopy_census(n), _homotopy_census_brute(n)
        # components too: HomotopyType equality is only as multisets
        assert [(h.components, v) for h, v in got.items()] == [
            (h.components, v) for h, v in want.items()], n


def test_homotopy_memo_holds_every_smaller_row():
    # one recurrence memo of n = 9 holds the row of every m <= 9 at (m, ()),
    # its keys the additive type keys of 9.bit_length() = 4 bits a digit
    memo = {}
    _wind_types(9, (), (), memo, _move_table(9, 4, True))
    for m in range(1, 10):
        row = homotopy_census(m)
        assert len(memo[m, ()]) == len(row), m
        assert {_key_components(k, 4): v for k, v in memo[m, ()].items()} == {
            h.components: v for h, v in row.items()}, m


def test_homotopy_common_cut_lemma():
    # H(T1T2/B1B2) = H(T1/B1) + H(T2/B2) at every common cut, n <= 8
    for n in range(2, 9):
        parts = [composition_from_bitmask(n, m).parts for m in range(1 << (n - 1))]
        for tmask, tp in enumerate(parts):
            for bmask, bp in enumerate(parts):
                whole = sorted(_wind_homotopy(tp, bp))
                common = tmask & bmask
                while common:
                    c = (common & -common).bit_length()  # cut after vertex c
                    common &= common - 1
                    t1, b1 = _split(tp, c), _split(bp, c)
                    halves = (_wind_homotopy(tp[:t1], bp[:b1])
                              + _wind_homotopy(tp[t1:], bp[b1:]))
                    assert whole == sorted(halves), (tp, bp, c)


def _split(parts, c):
    """The number of leading parts that sum to c."""
    total = 0
    for i, p in enumerate(parts):
        if total == c:
            return i
        total += p
    raise AssertionError(f"no cut after {c} in {parts}")


def test_homotopy_census_rows_are_fresh_keys_shared():
    first, second = homotopy_census(7), homotopy_census(7)
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    assert all(a is b for a, b in zip(first.values(), second.values()))
    assert list(first.items()) == list(second.items())
    key = next(iter(first))
    first[key] += 1
    del first[next(reversed(first))]
    assert homotopy_census(7) == second


def test_census_limit_default():
    with pytest.raises(LimitExceeded):
        census_cnk(15)


def test_census_limit_env(monkeypatch):
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "5")
    census_cnk(5)
    with pytest.raises(LimitExceeded):
        census_cnk(6)
    with pytest.raises(LimitExceeded):
        census_cnk_exhaustive(6)
    with pytest.raises(LimitExceeded):
        homotopy_census(6)


@pytest.mark.parametrize(
    "census", [census_cnk, census_cnk_exhaustive, census_cnk_naive, homotopy_census,
               enumeration._transfer_rows],
    ids=lambda f: f.__name__,
)
def test_census_guard(monkeypatch, census):
    # one guard for every full-pair census, checked before any pair or vertex
    def no_pairs(*args):
        raise AssertionError("a pair was computed")

    for name in ("_wind_tally", "_graph_sums", "seaweed_index",
                 "_wind_types", "_side_moves"):
        monkeypatch.setattr(enumeration, name, no_pairs)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        census(0)
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "5")
    with pytest.raises(LimitExceeded) as e:
        census(6)
    assert str(e.value) == ("census at n=6 exceeds the limit n <= 5 "
                            "(set SEAWEEDS_CENSUS_LIMIT to override)")


def test_c22_meander_limit_env(monkeypatch):
    monkeypatch.setenv("SEAWEEDS_C22_MEANDER_LIMIT", "6")
    census_c22(6, oracle="meander")
    with pytest.raises(LimitExceeded) as direct:
        census_c22(7, oracle="meander")
    census_c22(7, oracle="gcd")  # only the quadratic meander path is limited
    # a table checks its last row before it computes the first, with the
    # same message
    rows = []
    monkeypatch.setattr(enumeration, "census_c22",
                        lambda n, oracle: rows.append(n) or {})
    with pytest.raises(LimitExceeded) as table:
        build_table("c22", 7, oracle="meander")
    assert str(table.value) == str(direct.value)
    assert rows == []


def test_table_csv_round_trip():
    t = build_table("cnk", 5)
    again = table_from_csv("cnk", t.to_csv())
    assert again == t
    lines = t.to_csv().splitlines()
    assert lines[0] == "n,k,count"
    assert lines[1] == "1,0,1"
    # full rectangle: 5 rows x 5 columns
    assert len(lines) == 1 + 5 * 5


def test_table_json_shape():
    t = build_table("c21", 4)
    doc = json.loads(t.to_json())
    assert doc["kind"] == "c21"
    assert doc["rows"]["2"] == {"0": 1}
    assert set(doc["rows"]) == {"2", "3", "4"}


def test_table_markdown_shape():
    t = build_table("cnk", 3)
    lines = t.to_markdown().splitlines()
    assert lines[0] == "| n\\k | 0 | 1 | 2 |"
    assert lines[2] == "| 1 | 1 | 0 | 0 |"
    assert lines[4] == "| 3 | 6 | 6 | 4 |"


def test_table_from_csv_skips_blank_lines():
    text = build_table("cnk", 3).to_csv()
    assert table_from_csv("cnk", text.replace("\n2,", "\n\n2,", 1)) == (
        table_from_csv("cnk", text))


def test_table_from_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        table_from_csv("cnk", "a,b,c\n1,0,1\n")


def test_table_kind_validated():
    with pytest.raises(ValueError):
        IndexTable("bogus", {})


def test_build_table_range_errors():
    with pytest.raises(ValueError):
        build_table("cnk", 0)
    with pytest.raises(ValueError):
        build_table("c21", 1)


def test_check_row_sums():
    t = build_table("cnk", 6)
    t.check_row_sums()
    t.rows[6][0] += 1
    with pytest.raises(AssertionError):
        t.check_row_sums()


def test_goldens_load_and_sum():
    for kind in ("cnk", "c21", "c22"):
        g = load_golden(kind)
        g.check_row_sums()
    assert load_golden("cnk").n_range() == (1, 10)
    assert load_golden("c21").n_range() == (2, 12)
    assert load_golden("c22").n_range() == (2, 11)


def test_diff_golden_clean_and_tampered():
    golden = load_golden("cnk")
    t = build_table("cnk", 5)
    assert diff_golden(t, golden) == []
    t.rows[4][2] -= 1
    problems = diff_golden(t, golden)
    assert problems == ["cell (n=4, k=2): expected 16, got 15"]


def test_diff_golden_missing_and_extra_rows():
    golden = load_golden("cnk")
    holes = IndexTable("cnk", {1: {0: 1}, 3: {0: 6, 1: 6, 2: 4}})
    assert diff_golden(holes, golden) == ["row n=2 missing from computed table"]
    small_golden = IndexTable("cnk", {n: dict(census_cnk(n)) for n in (1, 2, 3)})
    t4 = build_table("cnk", 4)
    problems = diff_golden(t4, small_golden)
    assert problems == ["row n=4 has no golden reference"]
