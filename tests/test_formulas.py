import math
import random
from math import gcd

import pytest

from seaweeds.compositions import Composition, SeaweedType, all_pairs
from seaweeds.enumeration import census_c21, census_c22, census_cnk
from seaweeds.formulas import (
    c21,
    c22,
    c_diag1,
    c_diag2,
    c_diag3,
    c_diag3_longform,
    case_terms,
    coprime_sum,
    euler_phi,
    gcd_index_2parts,
    gcd_index_3parts,
    identity_audit,
    identity_k2_2k,
    identity_k2_2k_fitted,
    identity_k2_2k_sides,
    identity_k2k,
    recursion_check,
    recursion_lhs,
)
from seaweeds.meander import build_meander, component_summary, seaweed_index


def test_diag1_values():
    assert c_diag1(1) == 1
    assert c_diag1(6) == 32
    assert c_diag1(10) == 512
    with pytest.raises(ValueError):
        c_diag1(0)


def test_diag2_values():
    assert c_diag2(2) == 2
    assert c_diag2(4) == 16
    assert c_diag2(10) == 2560
    with pytest.raises(ValueError):
        c_diag2(1)


def test_diag3_values():
    assert c_diag3(3) == 6
    assert c_diag3(4) == 26
    assert c_diag3(5) == 80  # both branches meet here
    assert (7 * 5 - 15) * 2 ** (5 - 3) == 80
    assert (2 * 25 + 55 - 25) * 2 ** 0 == 80
    assert c_diag3(10) == 9120
    with pytest.raises(ValueError):
        c_diag3(2)


def test_diagonals_match_census_small():
    for n in range(1, 10):
        row = census_cnk(n)
        assert row.get(n - 1, 0) == c_diag1(n)
        if n >= 2:
            assert row.get(n - 2, 0) == c_diag2(n)
        if n >= 3:
            assert row.get(n - 3, 0) == c_diag3(n)


def test_longform_equals_closed_form():
    for n in range(3, 26):
        assert c_diag3_longform(n) == c_diag3(n)
    with pytest.raises(ValueError):
        c_diag3_longform(2)


def test_case_terms_sum_and_arity():
    for n in range(3, 26):
        terms = case_terms(n)
        assert len(terms) == 15
        assert all(t >= 0 for t in terms)
        assert sum(terms) == c_diag3_longform(n)
    assert sum(case_terms(5)) == 80


def _blocks(comp):
    out = []
    p = 0
    for a in comp.parts:
        out.append(range(p + 1, p + a + 1))
        p += a
    return out


def _classify(st):
    """Structural family of a meander with index n-3; None otherwise."""
    n = st.n
    m = build_meander(st)
    s = component_summary(m)
    if 2 * s.cycles + s.paths - 1 != n - 3:
        return None
    deg = [0] * (n + 1)
    for u, v in m.top_edges + m.bottom_edges:
        deg[u] += 1
        deg[v] += 1
    cycles = [c for c in s.components if all(deg[v] == 2 for v in c)]
    paths = [c for c in s.components if not all(deg[v] == 2 for v in c)]
    blocks = _blocks(st.top) + _blocks(st.bottom)
    if any(len(c) == 4 for c in cycles):
        return "A"
    two_paths = [p for p in paths if len(p) == 2]
    if len(two_paths) == 2:
        p1, p2 = two_paths
        both = set(p1) | set(p2)
        if any(both <= set(b) for b in blocks):
            return "B"
        if not any(set(b) & set(p1) and set(b) & set(p2) for b in blocks):
            return "C"
        return "D"
    (path3,) = [p for p in paths if len(p) == 3]
    ends = {v for v in path3 if deg[v] <= 1}
    if any(ends <= set(b) for b in blocks):
        return "F"
    return "E"


def test_case_terms_match_structural_classifier():
    # at n=8, bucket every index-5 pair by meander shape and compare the
    # bucket sizes against the grouped contributions
    n = 8
    buckets = {f: 0 for f in "ABCDEF"}
    for st in all_pairs(n):
        fam = _classify(st)
        if fam is not None:
            buckets[fam] += 1
    t = case_terms(n)
    assert buckets["A"] == t[0] + t[1]
    assert buckets["B"] == t[2] + t[3]
    assert buckets["C"] == t[4] + t[5] + t[6] + t[7]
    assert buckets["D"] == t[8] + t[9]
    assert buckets["E"] == t[10] + t[11] + t[12]
    assert buckets["F"] == t[13] + t[14]
    assert sum(buckets.values()) == c_diag3(n)


def test_recursion():
    assert recursion_lhs(1) == 226 == c_diag3(6)
    assert recursion_lhs(2) == 600 == c_diag3(7)
    for n in range(1, 26):
        assert recursion_check(n)


def test_identity_1_exact():
    for n in range(1, 31):
        assert identity_k2k(n)


def test_identity_2_fails_as_stated():
    assert identity_k2_2k(1)  # both sides are 0
    assert not identity_k2_2k(2)
    assert identity_k2_2k_sides(2) == (1, 0)
    assert identity_k2_2k_sides(3) == (6, 4)
    for n in range(2, 31):
        assert not identity_k2_2k(n)


def test_identity_2_fitted_form():
    for n in range(1, 41):
        lhs, _ = identity_k2_2k_sides(n)
        assert lhs == identity_k2_2k_fitted(n)


def test_identity_audit_rows():
    rows = identity_audit(30)
    assert len(rows) == 30
    assert rows[0].stated_ok and rows[0].fitted_ok
    assert all(r.fitted_ok for r in rows)
    assert [r.n for r in rows if not r.stated_ok][0] == 2


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(3) == 2
    assert euler_phi(12) == 4
    for t in range(1, 301):
        assert euler_phi(t) == sum(1 for s in range(1, t + 1) if gcd(s, t) == 1)
    with pytest.raises(ValueError):
        euler_phi(0)


def test_coprime_sum_identity():
    assert coprime_sum(1) == 0
    assert coprime_sum(2) == 1
    for t in range(3, 201):
        assert 2 * coprime_sum(t) == t * euler_phi(t)


def test_gcd_index_examples():
    assert gcd_index_2parts(2, 4) == 1
    assert gcd_index_2parts(3, 5) == 0
    assert gcd_index_3parts(1, 2, 3) == 0
    assert gcd_index_3parts(2, 2, 2) == 3
    with pytest.raises(ValueError):
        gcd_index_2parts(0, 1)
    with pytest.raises(ValueError):
        gcd_index_3parts(1, 0, 1)


def test_gcd_formulas_on_large_random_types():
    # 20 seeded types of each shape, n log-uniform in [3, 10^5]
    rng = random.Random(1015)

    def draw_n():
        return round(math.exp(rng.uniform(math.log(3), math.log(10**5))))

    def index(top, bottom):
        return seaweed_index(SeaweedType(Composition(top), Composition(bottom)))

    for _ in range(20):
        n = draw_n()
        a = rng.randint(1, n - 1)
        assert index((a, n - a), (n,)) == gcd_index_2parts(a, n - a), (a, n)
        n = draw_n()
        i, j = sorted(rng.sample(range(1, n), 2))
        a, b, c = i, j - i, n - j
        assert index((a, b, c), (n,)) == gcd_index_3parts(a, b, c), (a, b, c)
        n = draw_n()
        a, c = rng.randint(1, n - 1), rng.randint(1, n - 1)
        assert index((a, n - a), (c, n - c)) == gcd_index_3parts(a, n - a, c), (a, c, n)


def test_c21_values():
    assert c21(12, 3) == 2
    assert c21(7, 1) == 0
    assert c21(5, 0) == 4
    # the k = n-1 column is empty: gcd(a, n) = n needs a = n, out of range
    assert c21(12, 11) == 0
    assert c21(2, 1) == 0
    assert c21(9, 2) == 2
    with pytest.raises(ValueError):
        c21(1, 0)
    with pytest.raises(ValueError):
        c21(4, -1)


def test_c21_matches_brute_force():
    for n in range(2, 61):
        brute = census_c21(n)
        for k in range(n):
            assert c21(n, k) == brute.get(k, 0), (n, k)


def test_c22_values():
    assert c22(9, 2) == 14
    assert c22(5, 4) == 4
    assert c22(6, 1) == 8
    assert c22(2, 1) == 1
    assert c22(7, 3) == 0
    with pytest.raises(ValueError):
        c22(1, 0)
    with pytest.raises(ValueError):
        c22(3, -2)


def test_c22_matches_brute_force():
    for n in range(2, 41):
        brute = census_c22(n, oracle="gcd")
        for k in range(n):
            assert c22(n, k) == brute.get(k, 0), (n, k)
        assert sum(brute.values()) == (n - 1) ** 2
