import pytest

from seaweeds import enumeration, verify
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
     "all 349525 pairs with n<=10 agree: 29524 irreducible by the graph "
     "kernel, the rest composed at their last common cut"),
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


def test_gcd_checks_read_seaweed_index_when_run(monkeypatch):
    # an index off by one on 2|3/5 alone fails the one family it belongs to
    seaweed_index = verify.seaweed_index
    monkeypatch.setattr(
        verify, "seaweed_index",
        lambda st: seaweed_index(st) + (str(st) == "2|3/5"))
    report = run_suite("gcd")
    failed = [(c.name, c.detail) for c in report.checks if not c.passed]
    assert failed == [("two parts over one vs meander",
                       "a+b<=40 (780 types); "
                       "1 mismatch(es); first: 2|3/5: expected 0, got 1")]


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


def _winding_check_with_one_off_pair(monkeypatch, n, entry):
    # the graph side comes from the census kernel; the winding side comes
    # from the mask tables, with one pair's sum off by one
    wind_sums = verify._wind_sums

    def off_on_one_pair(n_max):
        sums = wind_sums(n_max)
        sums[n][entry] += 1
        return sums

    monkeypatch.setattr(verify, "_wind_sums", off_on_one_pair)
    report = run_suite("winding")
    return next(line for line in report.format().splitlines()
                if "winding index equals graph index" in line)


def test_winding_check_fails_on_one_pair(monkeypatch):
    # the first pair, so the check stops at once
    line = _winding_check_with_one_off_pair(monkeypatch, 1, 0)
    assert line.startswith("[FAIL] winding index equals graph index")
    assert "pair (n=1, 0, 0): graph 0 != winding 1" in line


def test_winding_check_reaches_the_last_pair(monkeypatch):
    # the last pair of the largest size: 1|...|1 over itself, ten C(1)s
    line = _winding_check_with_one_off_pair(monkeypatch, 10, -1)
    assert line.startswith("[FAIL] winding index equals graph index")
    assert "pair (n=10, 511, 511): graph 9 != winding 10" in line


def test_winding_check_names_a_middle_pair(monkeypatch):
    # top 1|2|4 (mask 5) over bottom 1|3|3 (mask 9): both masks nonzero and
    # not maximal, so a swapped or shifted (tmask, bmask) names another pair
    line = _winding_check_with_one_off_pair(monkeypatch, 7, 5 << 6 | 9)
    assert line.startswith("[FAIL] winding index equals graph index")
    assert "pair (n=7, 5, 9): graph 1 != winding 2" in line


def test_winding_check_names_the_small_pair_not_its_compositions(monkeypatch):
    # top 1|1|1 (mask 3) over bottom 1|2 (mask 1) cuts in common after vertex
    # 1; the graph side builds every larger pair that begins with it from its
    # byte, and the check still names the fault where it sits, at n = 3
    line = _winding_check_with_one_off_pair(monkeypatch, 3, 3 << 2 | 1)
    assert line.startswith("[FAIL] winding index equals graph index")
    assert "pair (n=3, 3, 1): graph 1 != winding 2" in line


@pytest.mark.parametrize("n, want", [(10, "graph 10 != winding 9"),
                                     (2, "graph 2 != winding 1")])
def test_winding_check_catches_a_graph_fault_at_an_irreducible_pair(
        monkeypatch, n, want):
    # the kernel off by one at top (n) over bottom (n), an irreducible pair:
    # at n = 10 no larger pair reads it, at n = 2 every composed pair with it
    # as a factor inherits the fault, and the check names (n, 0, 0) either way
    graph_sums = enumeration._graph_sums

    def off_at_whole_over_whole(m, T, tcuts=0):
        out = graph_sums(m, T, tcuts)
        if m == n and tcuts == 0:
            out[0] += 1
        return out

    monkeypatch.setattr(enumeration, "_graph_sums", off_at_whole_over_whole)
    line = next(line for line in run_suite("winding").format().splitlines()
                if "winding index equals graph index" in line)
    assert line.startswith("[FAIL] winding index equals graph index")
    assert f"pair (n={n}, 0, 0): {want}" in line


def test_details_and_loops_follow_the_bounds(monkeypatch):
    # each detail states the bound its loop runs to, read from one constant
    c21_rows, c22_rows, wound = [], [], set()
    census_c21, wind_homotopy = verify.census_c21, verify._wind_homotopy
    census_c22 = verify.census_c22
    monkeypatch.setattr(verify, "census_c21",
                        lambda n: c21_rows.append(n) or census_c21(n))
    monkeypatch.setattr(verify, "census_c22",
                        lambda n, oracle: c22_rows.append((n, oracle))
                        or census_c22(n, oracle))
    monkeypatch.setattr(verify, "_wind_homotopy",
                        lambda t, b: wound.add(sum(t)) or wind_homotopy(t, b))
    monkeypatch.setattr(verify, "C21_MAX_N", 7)
    monkeypatch.setattr(verify, "C22_GCD_MAX_N", 6)
    monkeypatch.setattr(verify, "C22_MEANDER_MAX_N", 4)
    monkeypatch.setattr(verify, "WINDING_MAX_N", 4)
    details = {c.name: c.detail for c in run_suite("formulas").checks}
    assert details["c21 formula vs gcd brute force"] == "n<=7, all k; all equal"
    assert details["c22 formula vs gcd brute force"] == "n<=6, all k; all equal"
    assert details["c22 gcd oracle vs meander oracle"] == "n<=4; all equal"
    assert c21_rows == list(range(2, 8))
    # the brute-force rows, then the two oracles side by side
    assert c22_rows == [(n, "gcd") for n in range(2, 7)] + [
        (n, oracle) for n in range(2, 5) for oracle in ("gcd", "meander")]
    details = {c.name: c.detail for c in run_suite("winding").checks}
    # 1 + 4 + 16 + 64 pairs, 1 + 3 + 9 + 27 of them irreducible
    assert details["winding index equals graph index"] == (
        "all 85 pairs with n<=4 agree: 40 irreducible by the graph kernel, "
        "the rest composed at their last common cut")
    assert details["same-composition homotopy"] == (
        "wind(p/p) returns the parts of p, n<=4")
    assert wound == {1, 2, 3, 4}
