"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (with capture suspended so the
lines always show up in the run log) and then asserts, so pytest still
records the outcome.
"""

import time
from math import gcd

from seaweeds import cli
from seaweeds.compositions import all_pairs, parse_seaweed_type
from seaweeds.enumeration import (
    census_c21,
    census_c22,
    census_cnk,
    census_cnk_exhaustive,
    load_golden,
)
from seaweeds.formulas import (
    c21,
    c22,
    c_diag1,
    c_diag2,
    c_diag3,
    c_diag3_longform,
    gcd_index_2parts,
    gcd_index_3parts,
    identity_audit,
    identity_k2k,
    recursion_check,
    recursion_lhs,
)
from seaweeds.genfunc import builtin_gfs, gf_coefficients
from seaweeds.meander import seaweed_dimension, seaweed_index
from seaweeds.winding import format_signature, homotopy_components, wind_down


def _report(capsys, num: int, slug: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_index_table_regenerated(capsys):
    t0 = time.perf_counter()
    code = cli.main(["table", "cnk", "--max-n", "10", "--check-golden"])
    elapsed = time.perf_counter() - t0
    golden = load_golden("cnk")
    spots = golden.cell(9, 3) == 17596 and golden.cell(10, 4) == 63380
    ok = code == 0 and spots and elapsed < 120.0
    _report(capsys, 1, "index-table-regenerated", ok, f"exit {code}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_two_part_trivial_counts(capsys):
    golden = load_golden("c21")
    golden_ok = all(census_c21(n) == golden.rows[n] for n in range(2, 13))
    t0 = time.perf_counter()
    formula_ok = True
    for n in range(2, 61):
        brute = census_c21(n)
        for k in range(n):
            if c21(n, k) != brute.get(k, 0):
                formula_ok = False
    elapsed = time.perf_counter() - t0
    ok = golden_ok and formula_ok and elapsed < 1.0
    _report(capsys, 2, "two-part-trivial-counts", ok, f"golden rows 2..12, formula n<=60, {elapsed:.2f}s")
    assert ok


def test_criterion_03_two_part_two_part_counts(capsys):
    t0 = time.perf_counter()
    golden = load_golden("c22")
    golden_ok = all(census_c22(n) == golden.rows[n] for n in range(2, 12))
    formula_ok = True
    for n in range(2, 41):
        brute = census_c22(n, oracle="gcd")
        for k in range(n):
            if c22(n, k) != brute.get(k, 0):
                formula_ok = False
    oracles_ok = all(
        census_c22(n, oracle="meander") == census_c22(n, oracle="gcd")
        for n in range(2, 15)
    )
    elapsed = time.perf_counter() - t0
    ok = golden_ok and formula_ok and oracles_ok and elapsed < 30.0
    _report(capsys, 3, "two-part-two-part-counts", ok, f"golden rows 2..11, oracles n<=14, {elapsed:.1f}s")
    assert ok


def test_criterion_04_closed_form_diagonals(capsys):
    diag_ok = True
    for n in range(1, 13):
        row = census_cnk(n)
        if row.get(n - 1, 0) != c_diag1(n):
            diag_ok = False
        if n >= 2 and row.get(n - 2, 0) != c_diag2(n):
            diag_ok = False
        if n >= 3 and row.get(n - 3, 0) != c_diag3(n):
            diag_ok = False
    longform_ok = all(c_diag3_longform(n) == c_diag3(n) for n in range(3, 26))
    ok = diag_ok and longform_ok
    _report(capsys, 4, "closed-form-diagonals", ok, "census n<=12, long form n<=25")
    assert ok


def test_criterion_05_recursion(capsys):
    anchors = recursion_lhs(1) == 226 and recursion_lhs(2) == 600
    ok = anchors and all(recursion_check(n) for n in range(1, 26))
    _report(capsys, 5, "third-diagonal-recursion", ok, "n=1..25")
    assert ok


def test_criterion_06_generating_functions(capsys):
    gfs = builtin_gfs()
    c1 = gf_coefficients(gfs[1], 30)
    c2 = gf_coefficients(gfs[2], 30)
    c3 = gf_coefficients(gfs[3], 30)
    closed_ok = (
        all(c1[n] == c_diag1(n) for n in range(1, 31))
        and all(c2[n] == c_diag2(n) for n in range(2, 31))
        and all(c3[n] == c_diag3(n) for n in range(3, 31))
    )
    golden = load_golden("cnk")
    table_ok = (
        all(c1[n] == golden.cell(n, n - 1) for n in range(1, 11))
        and all(c2[n] == golden.cell(n, n - 2) for n in range(2, 11))
        and all(c3[n] == golden.cell(n, n - 3) for n in range(3, 11))
    )
    ok = closed_ok and table_ok
    _report(capsys, 6, "generating-functions", ok, "orders<=30, table cells n<=10")
    assert ok


def test_criterion_07_winding_down_sound(capsys):
    agree = True
    checked = 0
    for n in range(1, 11):
        for st in all_pairs(n):
            if sum(homotopy_components(st)) - 1 != seaweed_index(st):
                agree = False
            checked += 1
    sig, h = wind_down(parse_seaweed_type("15/2|5|1|5|2"))
    example_ok = format_signature(sig) == "PPC(1)C(5)C(2)" and str(h) == "H(1,5,2)"
    w1 = parse_seaweed_type("5|3/3|3|2")
    w2 = parse_seaweed_type("4|4/2|4|2")
    _, h1 = wind_down(w1)
    _, h2 = wind_down(w2)
    witness_ok = (
        str(h1) == "H(1,1)"
        and str(h2) == "H(2)"
        and h1 != h2
        and seaweed_index(w1) == seaweed_index(w2) == 1
        and seaweed_dimension(w1) == seaweed_dimension(w2) == 27
    )
    ok = agree and example_ok and witness_ok
    _report(capsys, 7, "winding-down-soundness", ok, f"{checked} pairs, n<=10")
    assert ok


def test_criterion_08_gcd_formulas(capsys):
    mismatches = 0
    for total in range(2, 41):
        for a in range(1, total):
            b = total - a
            st = parse_seaweed_type(f"{a}|{b}/{total}")
            if gcd_index_2parts(a, b) != seaweed_index(st):
                mismatches += 1
    for total in range(3, 26):
        for a in range(1, total - 1):
            for b in range(1, total - a):
                c = total - a - b
                one_sided = parse_seaweed_type(f"{a}|{b}|{c}/{total}")
                if seaweed_index(one_sided) != gcd_index_3parts(a, b, c):
                    mismatches += 1
    # split shape: top a|b fixes n = a+b, bottom cut c ranges freely
    for n in range(3, 26):
        for a in range(1, n):
            b = n - a
            for c in range(1, n):
                split = parse_seaweed_type(f"{a}|{b}/{c}|{n - c}")
                if seaweed_index(split) != gcd_index_3parts(a, b, c):
                    mismatches += 1
    sanity = gcd_index_2parts(2, 4) == gcd(2, 4) - 1 == 1
    ok = mismatches == 0 and sanity
    _report(capsys, 8, "gcd-index-formulas", ok, f"{mismatches} mismatches")
    assert ok


def test_criterion_09_parallel_determinism(capsys):
    serial = census_cnk(10, workers=1)
    parallel = census_cnk(10, workers=4)
    ok = (serial == parallel == census_cnk_exhaustive(10)
          and sum(serial.values()) == 4 ** 9)
    _report(capsys, 9, "parallel-determinism", ok, "n=10, workers 1 vs 4")
    assert ok


def test_criterion_10_identity_audit(capsys):
    first_ok = all(identity_k2k(n) for n in range(1, 31))
    rows = identity_audit(30)
    stated_failures = [r.n for r in rows if not r.stated_ok]
    # the printed second identity fails from n=2 on; the fitted form holds
    audit_ok = (
        len(rows) == 30
        and rows[0].stated_ok
        and stated_failures == list(range(2, 31))
        and all(r.fitted_ok for r in rows)
    )
    ok = first_ok and audit_ok
    _report(capsys, 10, "identity-audit", ok, f"stated form first fails at n={stated_failures[0]}")
    assert ok
