import gc
import json
import sys
from collections import Counter
from functools import cache

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
    _joins,
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


def test_transfer_rows_of_every_sweep_length():
    # each length n prunes against its own n - v: every sweep to n <= 14
    # gives the recurrence's rows m <= n
    rows = enumeration._recurrence_rows(14)
    for n in range(1, 15):
        assert enumeration._transfer_rows(n) == {m: rows[m] for m in range(1, n + 1)}, n


def test_transfer_move_tables_stop_at_the_prune(monkeypatch):
    # after vertex v - 1 no side is deeper than the n - v + 1 vertices then
    # left, so vertex v asks for the moves of sides that deep, and no deeper
    calls = []
    side_moves = enumeration._side_moves

    def recorded(closing, depth, left):
        calls.append((depth, left))
        return side_moves(closing, depth, left)

    monkeypatch.setattr(enumeration, "_side_moves", recorded)
    enumeration._transfer_rows(12)
    assert max(depth - left for depth, left in calls) == 1


def test_transfer_fold_keeps_no_mirror_beside_its_key(monkeypatch):
    # each vertex's states, read where _transfer_rows unpacks its row: a
    # complete fold keeps one key of each mirrored pair (bc, tc, len(ends) -
    # nt, ends reversed and negated); a fold that breaks the tie one way
    # keeps the rows right but some mirrors beside their keys
    rows = enumeration._recurrence_rows(12)
    counts, beside = [], []
    unpack = enumeration._unpack_row

    def read_states(packed, w):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "_transfer_rows"
        states = caller.f_locals["states"]
        counts.append(len(states))
        for key in states:
            tc, bc, nt, ends = key
            mirror = (bc, tc, len(ends) - nt, tuple([-e for e in ends[::-1]]))
            if mirror != key and mirror in states:
                beside.append(key)
        return unpack(packed, w)

    monkeypatch.setattr(enumeration, "_unpack_row", read_states)
    assert enumeration._transfer_rows(12) == rows
    assert beside == []
    assert len(counts) == 12
    assert (sum(counts), max(counts)) == (1992, 544)

def test_side_moves_spell_each_composition_once():
    # one side of the transfer sweep, walked alone from the fresh side with
    # left = m - v: the walks that end fresh spell each composition of m
    # once (a part ends wherever the side is fresh again), and the arcs they
    # make (an open pushes v, a close pops u and makes arc (u, v)) are its
    # block arcs
    for m in range(1, 10):
        walks = [(False, (), (), ())]  # closing, open arc ends, arcs, part ends
        for v in range(1, m + 1):
            stepped = []
            for closing, stack, arcs, ends in walks:
                moves = enumeration._side_moves(closing, len(stack), m - v)
                for move, depth, after in moves:
                    if move == enumeration._OPEN:
                        walk = (stack + (v,), arcs)
                    elif move == enumeration._CLOSE:
                        walk = (stack[:-1], arcs + ((stack[-1], v),))
                    else:
                        walk = (stack, arcs)
                    assert depth == len(walk[0])
                    fresh = not (after or depth)
                    stepped.append((after, *walk, ends + (v,) * fresh))
            walks = stepped
        spelled = Counter()
        for closing, stack, arcs, ends in walks:
            if not (closing or stack):
                parts = tuple(b - a for a, b in zip((0, *ends), ends))
                spelled[parts] += 1
                assert set(arcs) == set(_block_edges(parts)), parts
        assert spelled == Counter(composition_from_bitmask(m, mask).parts
                                  for mask in range(1 << (m - 1))), m


def test_census_frees_its_memo():
    gc.collect()
    gc.disable()
    try:
        census_cnk(9)
        assert gc.collect() == 0
    finally:
        gc.enable()


@cache
def _compositions(m):
    """Parts and block arcs of each composition of m, in mask order."""
    parts = [composition_from_bitmask(m, mask).parts for mask in range(1 << (m - 1))]
    return parts, [_block_edges(p) for p in parts]


def _joined(m, t, irreducible=True):
    """index + 1 of top t of m by meander._joins, in mask order, over every
    bottom or only those sharing no cut with t."""
    parts, arcs = _compositions(m)
    bottoms = [a for b, a in enumerate(arcs) if not (irreducible and b & t)]
    return [v for _, v in _joins(parts[t], bottoms)]


def _unfolded_rows(n):
    """_census_rows(n) with every top joined."""
    rows = [0]
    for m in range(1, n + 1):
        sums = Counter(v for t in range(1 << (m - 1)) for v in _joined(m, t))
        rows.append(sum(c << s * 2 * n for s, c in sums.items()))
    return rows


def test_census_rows_fold_the_mirrors():
    # the census joins the canonical tops, t <= rev(t), only,
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
            full.update(s - 1 for s in _joined(n, tmask, irreducible=False))
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
            assert sorted(_joined(m, t)) == sorted(_joined(m, r)), (m, t)


@pytest.mark.parametrize("census, workers", [
    (census_cnk, 0), (census_cnk, -2)])
def test_census_workers_below_one(monkeypatch, census, workers):
    # the library refuses fewer than one worker, before a row
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
    # the census's irreducible pairs, bottoms sharing no top cut, against
    # the component walk with no join, tallied as _census_rows packs them
    sums = [Counter()]
    for m in range(1, 8):
        comps = [composition_from_bitmask(m, mask) for mask in range(1 << (m - 1))]
        sums.append(Counter(
            component_summary(build_meander(SeaweedType(comps[t], comps[b]))).index + 1
            for t in range(len(comps)) for b in range(len(comps)) if not t & b))
    for n in range(1, 8):
        assert enumeration._census_rows(n) == [
            sum(c << s * 2 * n for s, c in sums[m].items()) for m in range(n + 1)], n


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

    for name in ("_wind_tally", "_joins", "seaweed_index",
                 "_wind_types", "_side_moves"):
        monkeypatch.setattr(enumeration, name, no_pairs)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        census(0)
    monkeypatch.setenv("SEAWEEDS_CENSUS_LIMIT", "5")
    with pytest.raises(LimitExceeded) as e:
        census(6)
    assert str(e.value) == ("census at n=6 exceeds the limit n <= 5 "
                            "(set SEAWEEDS_CENSUS_LIMIT to override)")


@pytest.mark.parametrize("oracle", ["gcd", "meander"])
def test_census_c22_limit(monkeypatch, oracle):
    # either oracle refuses n past the table bound before any gcd or join,
    # and runs at the bound
    bound = enumeration.GCD_TABLE_MAX_N

    def no_pairs(*args):
        raise AssertionError("a pair was computed")

    with monkeypatch.context() as m:
        for name in ("gcd_index_3parts", "_joins"):
            m.setattr(enumeration, name, no_pairs)
        with pytest.raises(LimitExceeded) as e:
            census_c22(bound + 1, oracle)
    assert str(e.value) == f"c22 census at n={bound + 1} exceeds the limit n <= {bound}"
    assert sum(census_c22(bound, oracle).values()) == (bound - 1) ** 2


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
