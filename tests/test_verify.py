import pytest

from seaweeds import enumeration, verify
from seaweeds.meander import _block_edges
from seaweeds.verify import (
    SUITES,
    CheckResult,
    VerifySuiteReport,
    _run,
    run_suite,
)


def test_suite_names():
    assert set(SUITES) == {"formulas", "gf", "recursion", "gcd", "winding", "all"}


def test_recursion_suite_passes():
    report = run_suite("recursion")
    assert report.passed
    assert len(report.checks) == 2
    lines = report.format().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1] == "suite recursion: passed (2/2)"


def test_gf_suite_passes():
    report = run_suite("gf")
    assert report.passed
    assert {c.name for c in report.checks} >= {
        "denominators are (1-2x)^j",
        "diag3 series vs closed form",
        "two extraction methods agree",
        "series vs reference table",
    }


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_gcd_suite_passes():
    report = run_suite("gcd")
    assert report.passed
    assert len(report.checks) == 3


def test_all_suite_runs_everything():
    report = run_suite("all")
    assert report.suite == "all"
    assert report.passed
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))  # no duplicated work
    assert len(names) >= 12
    assert "winding: winding index equals graph index" in names
    assert "gcd: two parts over two vs meander" in names


ALL_CHECKS = [
    ("formulas: diag1 closed form vs census",
     "n=1..12 vs full census; all equal"),
    ("formulas: diag2 closed form vs census",
     "n=2..12 vs full census; all equal"),
    ("formulas: diag3 closed form vs census",
     "n=3..12 vs full census; all equal"),
    ("formulas: cnk winding DP vs transfer census",
     "n=1..12, full rows; all equal"),
    ("formulas: diag3 long-form sum vs closed form",
     "n=3..25; all equal"),
    ("formulas: c21 formula vs gcd brute force",
     "n<=60, all k; all equal"),
    ("formulas: c22 formula vs gcd brute force",
     "n<=40, all k; all equal"),
    ("formulas: c22 gcd oracle vs meander oracle",
     "n<=14; all equal"),
    ("formulas: coprime-sum totient identity",
     "sum of coprimes below t is t*phi(t)/2, t=3..200; all equal"),
    ("formulas: aux identity 1 exact",
     "sum (n-k)2^k == 2^(n+1)-2n-2 for n=1..30; failures: []"),
    ("formulas: aux identity 2 audit (stated form fails)",
     "stated RHS 4-3*2^n+n*2^n first fails at n=2 (n=2: lhs=1, stated rhs=0); "
     "fitted RHS (n-3)*2^n+n+3 matches n=1..30: True"),
    ("gf: denominators are (1-2x)^j",
     "all equal"),
    ("gf: diag1 series vs closed form",
     "orders 0..30; all equal"),
    ("gf: diag2 series vs closed form",
     "orders 0..30; all equal"),
    ("gf: diag3 series vs closed form",
     "orders 0..30; all equal"),
    ("gf: two extraction methods agree",
     "recurrence vs long division to order 50; all equal"),
    ("gf: series vs reference table",
     "series vs reference table diagonals, n<=10; all equal"),
    ("recursion: third-diagonal recursion exact",
     "n=1..25; failures: []"),
    ("recursion: recursion anchor values",
     "all equal"),
    ("gcd: two parts over one vs meander",
     "a+b<=40 (780 types); all equal"),
    ("gcd: three parts over one vs meander",
     "a+b+c<=25 (2300 types); all equal"),
    ("gcd: two parts over two vs meander",
     "two parts over two, n<=25 (4899 types); all equal"),
    ("winding: winding index equals graph index",
     "leading parts b<=a<=24 (300 moves); all equal"),
    ("winding: worked 15-vertex example",
     "all equal"),
    ("winding: equal index, distinct homotopy witness",
     "all equal"),
    ("winding: same-composition homotopy",
     "wind(p/p) returns the parts of p, n<=10"),
]


def test_all_checks_and_details_are_pinned():
    # every check of `verify all`, in order, with the detail it prints
    assert [(c.name, c.detail) for c in run_suite("all").checks] == ALL_CHECKS


def test_suites_are_looked_up_when_run(monkeypatch):
    # a suite replaced on the module, as a tracer replaces it, is the one
    # that runs, alone and inside "all"
    stub = VerifySuiteReport("gcd", (CheckResult("stub check", True, "ok", 0.0),))
    monkeypatch.setattr(verify, "suite_gcd", lambda: stub)
    assert run_suite("gcd") is stub
    names = [c.name for c in run_suite("all").checks]
    assert "gcd: stub check" in names
    assert not any(name.startswith("gcd: two parts") for name in names)


@pytest.mark.parametrize("side, other, failed", [
    ((5,), (2, 3), ("two parts over one vs meander",
                    "a+b<=40 (780 types); "
                    "1 mismatch(es); first: 2|3/5: expected 0, got 1")),
    ((3, 2), (1, 4), ("two parts over two vs meander",
                      "two parts over two, n<=25 (4899 types); "
                      "1 mismatch(es); first: 3|2/1|4: expected 0, got 1")),
], ids=["two-over-one", "two-over-two"])
def test_gcd_checks_read_the_join_when_run(monkeypatch, side, other, failed):
    # a join off by one on one type alone, 2|3/5 (the side (5) seeded, 2|3
    # joined) or 3|2/1|4, fails the one family it belongs to and names it
    joins, planted = verify._joins, _block_edges(other)

    def off_on_one_type(seeded, bottoms):
        bottoms = list(bottoms)
        for arcs, (end, value) in zip(bottoms, joins(seeded, bottoms)):
            yield end, value + (seeded == side and arcs == planted)

    monkeypatch.setattr(verify, "_joins", off_on_one_type)
    report = run_suite("gcd")
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [failed]


def test_formulas_suite_tallies_once(monkeypatch):
    # every census row the suite reads comes from one transfer sweep, made
    # anew by each run of the suite, and no exhaustive tally runs
    sweeps, tallies = [], []
    transfer_rows = verify._transfer_rows

    def counted(n):
        sweeps.append(n)
        return transfer_rows(n)

    monkeypatch.setattr(verify, "_transfer_rows", counted)
    monkeypatch.setattr(enumeration, "_census_rows",
                        lambda *args: tallies.append(args))
    for runs in (1, 2):
        assert run_suite("formulas").passed
        assert sweeps == [verify.DIAG_CENSUS_MAX_N] * runs
    assert tallies == []


def test_failing_report_formatting():
    checks = (
        CheckResult("good", True, "ok", 0.0),
        CheckResult("bad", False, "broke", 0.01),
    )
    report = VerifySuiteReport("demo", checks)
    assert not report.passed
    text = report.format()
    assert "[FAIL] bad (0.01s): broke" in text
    assert text.splitlines()[-1] == "suite demo: FAILED (1/2)"


def test_run_captures_exceptions():
    checks: list[CheckResult] = []

    def boom():
        raise RuntimeError("nope")

    _run(checks, "boom", boom)
    _run(checks, "fine", lambda: (True, "all good"))
    assert not checks[0].passed
    assert "RuntimeError" in checks[0].detail
    assert checks[1].passed
    assert checks[1].detail == "all good"


def _plant(monkeypatch, tag, rule):
    # verify's _move with its `tag` moves replaced by rule(a, b)
    move = verify._move

    def faulty(a, b):
        got = move(a, b)
        return rule(a, b) if got[0] == tag else got

    monkeypatch.setattr(verify, "_move", faulty)


def _failed_winding_line():
    line = next(line for line in run_suite("winding").format().splitlines()
                if "winding index equals graph index" in line)
    assert line.startswith("[FAIL] winding index equals graph index (")
    return line


# one wrong rule per move, each taking off the top what its top head leaves:
# R gives bottom a-b, not 2b-a (the two agree where 2a = 3b), B keeps its
# bottom, P swaps its two new parts, C records a + 1
FAULTS = {
    "R": lambda a, b: ("R", a - b, (b,), (a - b,)),
    "B": lambda a, b: ("B", b, (b,), (b,)),
    "P": lambda a, b: ("P", b, (b, a - 2 * b), ()),
    "C": lambda a, b: ("C", a + 1, (), ()),
}


def _only_at(at, tag):
    # the fault of `tag` at leading parts `at`, the true move everywhere else
    move = verify._move
    return lambda a, b: FAULTS[tag](a, b) if (a, b) == at else move(a, b)


@pytest.mark.parametrize("tag, first", [
    ("R", "(4, 3, R): expected ((0,), 0), got ((0, 0), 0)"),
    ("B", "(2, 1, B): expected ((0,), 0), got ((), 1)"),
    ("P", "(4, 1, P): expected ((2, 1, 0), 0), got ((0, 3, 2), 0)"),
    ("C", "(1, 1, C(2)): expected ((), 1), got ((), 2)"),
], ids=list(FAULTS))
def test_winding_check_names_a_planted_move_fault(monkeypatch, tag, first):
    # each fault is caught at the smallest leading parts it changes, so the
    # states the check compares are not equal by construction
    _plant(monkeypatch, tag, FAULTS[tag])
    assert f"; first: {first}" in _failed_winding_line()


def test_winding_check_reports_a_short_top_as_a_mismatch(monkeypatch):
    # R with its new parts swapped leaves top 1 over bottom 2 at (3, 2): a
    # mismatch, not an IndexError out of the partner table
    _plant(monkeypatch, "R", lambda a, b: ("R", 2 * (a - b), (2 * b - a,), (b,)))
    line = _failed_winding_line()
    assert ("; first: (3, 2, R): expected ((0,), 0), "
            "got a top shorter than its bottom") in line
    assert "raised" not in line


@pytest.mark.parametrize("fault, got", [
    (("R", 2, (2,), (1,)), "2 vertices off, 1 off the top"),
    (("R", 0, (3,), (2,)), "0 vertices off, 0 off the top"),
], ids=["d past the heads", "no move"])
def test_winding_check_names_a_move_that_takes_the_wrong_d(monkeypatch, fault, got):
    # equal states at 3 over 2, but the census takes d vertices off the sides
    # the heads replace: one too many, or none, so the pair never shrinks
    move = verify._move
    monkeypatch.setattr(verify, "_move",
                        lambda a, b: fault if (a, b) == (3, 2) else move(a, b))
    assert _failed_winding_line().endswith(
        f"1 mismatch(es); first: (3, 2, R): expected ((0,), 0), got {got}")


def test_winding_check_fails_on_one_pair(monkeypatch):
    # C(5) recording 6 and every other move right: one mismatch, named
    _plant(monkeypatch, "C", _only_at((5, 5), "C"))
    assert _failed_winding_line().endswith("(300 moves); 1 mismatch(es); "
                         "first: (5, 5, C(6)): expected ((), 5), got ((), 6)")


def test_winding_check_reaches_the_last_pair(monkeypatch):
    # the last move the loop reaches below WINDING_MAX_PART = 24: 24 over 23
    _plant(monkeypatch, "R", _only_at((24, 23), "R"))
    assert "; 1 mismatch(es); first: (24, 23, R): " in _failed_winding_line()


def test_winding_check_names_a_middle_pair(monkeypatch):
    # 7 over 2 alone, so a label with a and b swapped, or taken from another
    # move, names another pair
    _plant(monkeypatch, "P", _only_at((7, 2), "P"))
    assert "; 1 mismatch(es); first: (7, 2, P): " in _failed_winding_line()


@pytest.mark.parametrize("top, bottom, first", [
    ((24,), (24,), "(24, 24, C(24)): expected ((), 25), got ((), 24)"),
    ((23,), (21,), "(23, 21, R): expected ((0, 0), 1), got ((0, 0), 0)"),
    ((1, 1), (), "(3, 1, P): expected ((0, 0), 0), got ((0, 0), 1)"),
], ids=["last C", "graph side", "winding side"])
def test_winding_check_catches_a_graph_fault(monkeypatch, top, bottom, first):
    # the join off by one on one prefix: the state of the pair before a move
    # (the graph side) or of the prefix a move leaves (the winding side).  One
    # move reads each of these: R leaves 23/21 of 25/23 too, past the bound
    join = verify._join

    def off_on_one_prefix(t, b):
        end, value = join(t, b)
        return end, value + ((t, b) == (top, bottom))

    monkeypatch.setattr(verify, "_join", off_on_one_prefix)
    assert f"; 1 mismatch(es); first: {first}" in _failed_winding_line()


def test_details_and_loops_follow_the_bounds(monkeypatch):
    # each detail states the bound its loop runs to, read from one constant
    c21_rows, c22_rows, wound, stepped = [], [], set(), set()
    census_c21, wind_homotopy = verify.census_c21, verify._wind_homotopy
    census_c22, move = verify.census_c22, verify._move
    monkeypatch.setattr(verify, "census_c21",
                        lambda n: c21_rows.append(n) or census_c21(n))
    monkeypatch.setattr(verify, "census_c22",
                        lambda n, oracle: c22_rows.append((n, oracle))
                        or census_c22(n, oracle))
    monkeypatch.setattr(verify, "_wind_homotopy",
                        lambda t, b: wound.add(sum(t)) or wind_homotopy(t, b))
    monkeypatch.setattr(verify, "_move", lambda a, b: stepped.add(a) or move(a, b))
    monkeypatch.setattr(verify, "C21_MAX_N", 7)
    monkeypatch.setattr(verify, "C22_GCD_MAX_N", 6)
    monkeypatch.setattr(verify, "C22_MEANDER_MAX_N", 4)
    monkeypatch.setattr(verify, "WINDING_MAX_N", 4)
    monkeypatch.setattr(verify, "WINDING_MAX_PART", 5)
    details = {c.name: c.detail for c in run_suite("formulas").checks}
    assert details["c21 formula vs gcd brute force"] == "n<=7, all k; all equal"
    assert details["c22 formula vs gcd brute force"] == "n<=6, all k; all equal"
    assert details["c22 gcd oracle vs meander oracle"] == "n<=4; all equal"
    assert c21_rows == list(range(2, 8))
    # the brute-force rows, then the two oracles side by side
    assert c22_rows == [(n, "gcd") for n in range(2, 7)] + [
        (n, oracle) for n in range(2, 5) for oracle in ("gcd", "meander")]
    details = {c.name: c.detail for c in run_suite("winding").checks}
    # C(a) for each a <= 5 and the 10 moves of leading parts b < a <= 5
    assert details["winding index equals graph index"] == (
        "leading parts b<=a<=5 (15 moves); all equal")
    assert stepped == {1, 2, 3, 4, 5}
    assert details["same-composition homotopy"] == (
        "wind(p/p) returns the parts of p, n<=4")
    assert wound == {1, 2, 3, 4}
