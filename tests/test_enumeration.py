import gc
import json
import signal
import sys

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
    merge_counts,
    table_from_csv,
)
from seaweeds.compositions import SeaweedType, composition_from_bitmask
from seaweeds.errors import LimitExceeded, UsageError
from seaweeds.meander import seaweed_index
from seaweeds.winding import HomotopyType, homotopy_index


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
    for n in range(1, 11):
        assert census_cnk(n) == census_cnk_exhaustive(n) == golden.rows[n]


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


def _sigterm_is_default(n, start, stop):
    return {signal.getsignal(signal.SIGTERM) == signal.SIG_DFL: 1}


def test_census_pool_workers_take_default_sigterm(monkeypatch):
    # leaving the pool stops its workers with SIGTERM; a caller's
    # Python-level handler inherited through fork can miss it and hang
    monkeypatch.setattr(enumeration, "_census_range", _sigterm_is_default)
    old = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        assert census_cnk_exhaustive(8, workers=2) == {True: 2}
    finally:
        signal.signal(signal.SIGTERM, old)


class _FakeContext:
    """Stands in for the fork context: records the pool size it is asked
    for and runs the jobs in this process."""

    def __init__(self):
        self.sizes, self.jobs = [], []

    def Pool(self, processes, initializer=None):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs):
        self.jobs.append(len(jobs))
        return [fn(*job) for job in jobs]


def test_census_pool_bounded_by_cpus(monkeypatch):
    ctx = _FakeContext()
    monkeypatch.setattr(enumeration, "get_context", lambda method: ctx)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    want = census_cnk_exhaustive(8)
    assert census_cnk_exhaustive(8, workers=1000) == want
    assert census_cnk_exhaustive(8, workers=2) == want
    assert ctx.sizes == [3, 2]
    assert ctx.jobs == [1000, 2]
    # no affinity call: the CPU count bounds the pool
    monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 5)
    assert census_cnk_exhaustive(8, workers=1000) == want
    assert ctx.sizes[-1] == 5


def test_census_without_fork_is_a_usage_error(monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(enumeration, "get_context", no_fork)
    with pytest.raises(UsageError):
        census_cnk_exhaustive(8, workers=2)
    assert census_cnk_exhaustive(8, workers=1) == census_cnk(8)


def test_census_workers_run_exhaustive(monkeypatch):
    # more than one worker asks for the forked exhaustive census
    calls = []
    monkeypatch.setattr(enumeration, "census_cnk_exhaustive",
                        lambda n, workers: calls.append(workers) or {})
    census_cnk(4, workers=2)
    census_cnk(4, workers=1)
    assert calls == [2]
    monkeypatch.undo()
    assert census_cnk(8, workers=2) == census_cnk(8)


def test_graph_indices_match_seaweed_index_per_pair():
    # tallies cannot see per-pair errors that cancel; the verify winding
    # check reads these values pair by pair
    for n in range(1, 8):
        partners, arcs = enumeration._mask_tables(n)
        half = 1 << (n - 1)
        comps = [composition_from_bitmask(n, m) for m in range(half)]
        for tmask in range(half):
            got = enumeration._graph_indices(n, partners[tmask], arcs[tmask],
                                             partners, arcs, 0, half)
            want = [seaweed_index(SeaweedType(comps[tmask], bottom))
                    for bottom in comps]
            assert got == want
            lo, hi = half // 3, half - half // 4
            assert enumeration._graph_indices(
                n, partners[tmask], arcs[tmask], partners, arcs, lo, hi
            ) == want[lo:hi]


def test_merge_counts():
    assert merge_counts([{0: 1, 2: 5}, {2: 1, 3: 4}, {}]) == {0: 1, 2: 6, 3: 4}
    assert merge_counts([]) == {}


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
    for n in range(1, 7):
        hc = homotopy_census(n)
        assert sum(hc.values()) == 4 ** (n - 1)
        by_index: dict[int, int] = {}
        for h, cnt in hc.items():
            k = homotopy_index(h)
            by_index[k] = by_index.get(k, 0) + cnt
        assert by_index == census_cnk(n)


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


def test_c22_meander_limit_env(monkeypatch):
    monkeypatch.setenv("SEAWEEDS_C22_MEANDER_LIMIT", "6")
    census_c22(6, oracle="meander")
    with pytest.raises(LimitExceeded):
        census_c22(7, oracle="meander")
    census_c22(7, oracle="gcd")  # only the quadratic meander path is limited


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
