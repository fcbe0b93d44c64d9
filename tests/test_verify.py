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
    c21_rows, wound = [], set()
    census_c21, wind_homotopy = verify.census_c21, verify._wind_homotopy
    monkeypatch.setattr(verify, "census_c21",
                        lambda n: c21_rows.append(n) or census_c21(n))
    monkeypatch.setattr(verify, "_wind_homotopy",
                        lambda t, b: wound.add(sum(t)) or wind_homotopy(t, b))
    monkeypatch.setattr(verify, "C21_MAX_N", 7)
    monkeypatch.setattr(verify, "WINDING_MAX_N", 4)
    c21 = next(c for c in run_suite("formulas").checks
               if c.name == "c21 formula vs gcd brute force")
    assert c21.detail == "n<=7, all k; all equal"
    assert c21_rows == list(range(2, 8))
    details = {c.name: c.detail for c in run_suite("winding").checks}
    # 1 + 4 + 16 + 64 pairs, 1 + 3 + 9 + 27 of them irreducible
    assert details["winding index equals graph index"] == (
        "all 85 pairs with n<=4 agree: 40 irreducible by the graph kernel, "
        "the rest composed at their last common cut")
    assert details["same-composition homotopy"] == (
        "wind(p/p) returns the parts of p, n<=4")
    assert wound == {1, 2, 3, 4}
