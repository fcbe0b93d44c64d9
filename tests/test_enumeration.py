import copy
import gc
import json
import os
import random
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
    assert enumeration._transfer_rows(12) == enumeration._exhaustive_rows(12)


def test_census_frees_its_memo():
    gc.collect()
    gc.disable()
    try:
        census_cnk(9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _unfolded_rows(n):
    """_census_rows(n) with _graph_sums run on every top."""
    rows = [0]
    for m in range(1, n + 1):
        sums = b"".join(enumeration._graph_sums(m, enumeration._top_table(m, t), t)
                        for t in range(1 << (m - 1)))
        rows.append(sum(sums.count(s) << s * 2 * n for s in range(1, m + 1)))
    return rows


def test_census_rows_fold_the_mirrors():
    # the census runs _graph_sums on the canonical tops, t <= rev(t), only,
    # each counted twice unless t is its own mirror: skipping the doubling,
    # or doubling the palindromes, changes the tally.  Composed, the rows
    # are the recurrence's
    recurrence = enumeration._recurrence_rows(10)
    for n in range(1, 11):
        rows = enumeration._census_rows(n)
        assert rows == _unfolded_rows(n), n
        assert enumeration._compose(n, rows) == {
            m: recurrence[m] for m in range(1, n + 1)}, n


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
    rows = enumeration._census_rows(n)
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


def test_census_without_fork_runs_every_worker_count(monkeypatch):
    # no census forks: where os.fork is missing, more than one worker still
    # gives the row
    monkeypatch.delattr(os, "fork")
    assert census_cnk(8, workers=2) == census_cnk(8, workers=1)


@pytest.mark.parametrize("census, workers", [
    (census_cnk, 0), (census_cnk, -2)])
def test_census_workers_below_one(monkeypatch, census, workers):
    # the library refuses the worker counts build_table refuses, before a row
    def no_rows(*args):
        raise AssertionError("a row was computed")

    for name in ("_wind_tally", "_side_moves"):
        monkeypatch.setattr(enumeration, name, no_rows)
    with pytest.raises(UsageError, match=rf"^workers must be >= 1, got {workers}$"):
        census(4, workers=workers)


def test_census_workers_run_the_transfer_sweep(monkeypatch):
    # more than one worker asks for the transfer sweep, the cross-check
    calls = []
    monkeypatch.setattr(enumeration, "_transfer_rows",
                        lambda n: calls.append(n) or {n: {}})
    census_cnk(4, workers=2)
    census_cnk(4, workers=1)
    assert calls == [4]
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
