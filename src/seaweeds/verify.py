"""Verification suites: every counting formula re-checked against brute force.

Each suite runs a fixed list of named checks at documented desk-scale bounds
and returns a VerifySuiteReport; a suite passes iff all its checks pass.  A
check that raises is reported as a failure, not a crash, except that a
census refused by its limit (LimitExceeded) stops the suite: it disproves
nothing, so the CLI exits 3 as for any other command.

Most checks compare (label, want, got) triples by the one rule _mismatches:
a check passes iff every want equals its got, and its detail is the bound
its loop ran to (read from the constant that drives the loop), then "all
equal" or the count and first mismatch.  SUITES is the only list of suites;
run_suite and suite_all look `suite_<name>` up in the module's globals when
called, so a suite replaced on the module (as a tracer does) is what runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial

from .compositions import Composition, SeaweedType, composition_from_bitmask
from .enumeration import (
    _recurrence_rows,
    _transfer_rows,
    census_c21,
    census_c22,
    load_golden,
)
from .errors import LimitExceeded
from .formulas import (
    DIAGONALS,
    c21,
    c22,
    c_diag3,
    c_diag3_longform,
    coprime_sum,
    euler_phi,
    gcd_index_2parts,
    gcd_index_3parts,
    identity_audit,
    identity_k2k,
    recursion_check,
    recursion_lhs,
)
from .genfunc import (
    builtin_gfs,
    denominator_power_of_1_minus_2x,
    gf_coefficients,
    gf_coefficients_by_division,
)
from .meander import _block_edges, _join, _joins, seaweed_dimension, seaweed_index
from .winding import (
    _move,
    _wind_homotopy,
    format_signature,
    homotopy_index,
    wind_down,
)

SUITES = ("formulas", "gf", "recursion", "gcd", "winding", "all")

DIAG_CENSUS_MAX_N = 12
LONGFORM_MAX_N = 25
RECURSION_MAX_N = 25
C21_MAX_N = 60
C22_GCD_MAX_N = 40
C22_MEANDER_MAX_N = 14
TOTIENT_SUM_MAX_T = 200
IDENTITY_MAX_N = 30
GF_CLOSED_FORM_ORDER = 30
GF_CROSSCHECK_ORDER = 50
GCD_2PARTS_MAX_N = 40
GCD_3PARTS_MAX_N = 25
WINDING_MAX_N = 10
WINDING_MAX_PART = 24


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class VerifySuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name} ({c.elapsed:.2f}s): {c.detail}")
        status = "passed" if self.passed else "FAILED"
        lines.append(f"suite {self.suite}: {status} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)


def _run(checks: list[CheckResult], name: str, fn) -> None:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except LimitExceeded:
        raise
    except Exception as e:  # a broken check is a failed check
        passed, detail = False, f"raised {type(e).__name__}: {e}"
    checks.append(CheckResult(name, passed, detail, time.perf_counter() - start))


def _mismatches(pairs, bound=None) -> tuple[bool, str]:
    """(ok, detail) of (label, want, got) triples: the bound, if any, then
    "all equal" or the count and the first mismatch."""
    bad = [f"{label}: expected {want}, got {got}" for label, want, got in pairs
           if want != got]
    msg = f"{len(bad)} mismatch(es); first: {bad[0]}" if bad else "all equal"
    return not bad, msg if bound is None else f"{bound}; {msg}"


# --- suites -------------------------------------------------------------------


def suite_formulas() -> VerifySuiteReport:
    checks: list[CheckResult] = []

    @cache  # one transfer sweep, run and timed by the first check to read it
    def census():
        return _transfer_rows(DIAG_CENSUS_MAX_N)

    for j, fn in DIAGONALS.items():
        def diag_check(j=j, fn=fn):
            pairs = [(f"n={n}", fn(n), census()[n].get(n - j, 0))
                     for n in range(j, DIAG_CENSUS_MAX_N + 1)]
            return _mismatches(pairs, f"n={j}..{DIAG_CENSUS_MAX_N} vs full census")

        _run(checks, f"diag{j} closed form vs census", diag_check)

    def winding_dp():
        rows = _recurrence_rows(DIAG_CENSUS_MAX_N)
        pairs = [(f"n={n}", census()[n], rows[n])
                 for n in range(1, DIAG_CENSUS_MAX_N + 1)]
        return _mismatches(pairs, f"n=1..{DIAG_CENSUS_MAX_N}, full rows")

    _run(checks, "cnk winding DP vs transfer census", winding_dp)

    def longform():
        pairs = [(f"n={n}", c_diag3(n), c_diag3_longform(n))
                 for n in range(3, LONGFORM_MAX_N + 1)]
        return _mismatches(pairs, f"n=3..{LONGFORM_MAX_N}")

    _run(checks, "diag3 long-form sum vs closed form", longform)

    for kind, census_of, formula, max_n in (
            ("c21", census_c21, c21, C21_MAX_N),
            ("c22", lambda n: census_c22(n, oracle="gcd"), c22, C22_GCD_MAX_N)):
        def brute(census_of=census_of, formula=formula, max_n=max_n):
            rows = {n: census_of(n) for n in range(2, max_n + 1)}
            pairs = [(f"(n={n},k={k})", row.get(k, 0), formula(n, k))
                     for n, row in rows.items() for k in range(n)]
            return _mismatches(pairs, f"n<={max_n}, all k")

        _run(checks, f"{kind} formula vs gcd brute force", brute)

    def c22_oracles():
        pairs = [(f"n={n}", census_c22(n, "gcd"), census_c22(n, "meander"))
                 for n in range(2, C22_MEANDER_MAX_N + 1)]
        return _mismatches(pairs, f"n<={C22_MEANDER_MAX_N}")

    _run(checks, "c22 gcd oracle vs meander oracle", c22_oracles)

    def totient_sum():
        pairs = [(f"t={t}", t * euler_phi(t), 2 * coprime_sum(t))
                 for t in range(3, TOTIENT_SUM_MAX_T + 1)]
        return _mismatches(pairs, "sum of coprimes below t is t*phi(t)/2, "
                                  f"t=3..{TOTIENT_SUM_MAX_T}")

    _run(checks, "coprime-sum totient identity", totient_sum)

    def ident1():
        bad = [n for n in range(1, IDENTITY_MAX_N + 1) if not identity_k2k(n)]
        return not bad, (f"sum (n-k)2^k == 2^(n+1)-2n-2 for n=1..{IDENTITY_MAX_N}; "
                         f"failures: {bad}")

    _run(checks, "aux identity 1 exact", ident1)

    def ident2():
        rows = identity_audit(IDENTITY_MAX_N)
        first_bad = next((r.n for r in rows if not r.stated_ok), None)
        fitted_ok = all(r.fitted_ok for r in rows)
        expected = first_bad == 2 and fitted_ok
        detail = (
            "stated RHS 4-3*2^n+n*2^n "
            + ("never fails" if first_bad is None else f"first fails at n={first_bad}")
            + f" (n=2: lhs={rows[1].lhs}, stated rhs={rows[1].rhs_stated}); "
            + f"fitted RHS (n-3)*2^n+n+3 matches n=1..{IDENTITY_MAX_N}: {fitted_ok}"
        )
        return expected, detail

    _run(checks, "aux identity 2 audit (stated form fails)", ident2)
    return VerifySuiteReport("formulas", tuple(checks))


def suite_gf() -> VerifySuiteReport:
    checks: list[CheckResult] = []
    gfs = builtin_gfs()

    def denoms():
        pairs = [(f"gf{j}", j, denominator_power_of_1_minus_2x(gfs[j]))
                 for j in gfs]
        return _mismatches(pairs)

    _run(checks, "denominators are (1-2x)^j", denoms)

    for j, fn in DIAGONALS.items():
        def against_closed(j=j, fn=fn):
            coeffs = gf_coefficients(gfs[j], GF_CLOSED_FORM_ORDER)
            pairs = [(f"x^{n}", fn(n), coeffs[n])
                     for n in range(j, GF_CLOSED_FORM_ORDER + 1)]
            pairs += [(f"x^{n}", 0, coeffs[n]) for n in range(0, j)]
            return _mismatches(pairs, f"orders 0..{GF_CLOSED_FORM_ORDER}")

        _run(checks, f"diag{j} series vs closed form", against_closed)

    def crosscheck():
        pairs = [(f"gf{j}", gf_coefficients(gfs[j], GF_CROSSCHECK_ORDER),
                  gf_coefficients_by_division(gfs[j], GF_CROSSCHECK_ORDER))
                 for j in gfs]
        return _mismatches(
            pairs, f"recurrence vs long division to order {GF_CROSSCHECK_ORDER}")

    _run(checks, "two extraction methods agree", crosscheck)

    def vs_golden():
        golden = load_golden("cnk")
        _, top = golden.n_range()
        pairs = []
        for j in DIAGONALS:
            coeffs = gf_coefficients(gfs[j], top)
            for n in range(j, top + 1):
                pairs.append((f"(j={j},n={n})", golden.cell(n, n - j), coeffs[n]))
        return _mismatches(pairs, f"series vs reference table diagonals, n<={top}")

    _run(checks, "series vs reference table", vs_golden)
    return VerifySuiteReport("gf", tuple(checks))


def suite_recursion() -> VerifySuiteReport:
    checks: list[CheckResult] = []

    def recur():
        bad = [n for n in range(1, RECURSION_MAX_N + 1) if not recursion_check(n)]
        return not bad, f"n=1..{RECURSION_MAX_N}; failures: {bad}"

    _run(checks, "third-diagonal recursion exact", recur)

    def anchor():
        pairs = [("n=1", 226, recursion_lhs(1)), ("n=2", 600, recursion_lhs(2))]
        return _mismatches(pairs)

    _run(checks, "recursion anchor values", anchor)
    return VerifySuiteReport("recursion", tuple(checks))


def suite_gcd() -> VerifySuiteReport:
    checks: list[CheckResult] = []

    def against_meander(bound, groups):
        # groups: (seeded side, [(label, arcs of the other side, the gcd
        # formula's index)]); _joins seeds each side once for its group
        pairs = []
        for side, types in groups:
            joined = _joins(side, [arcs for _, arcs, _ in types])
            pairs += [(label, want, val - 1)
                      for (label, _, want), (_, val) in zip(types, joined)]
        return _mismatches(pairs, f"{bound} ({len(pairs)} types)")

    def two_over_one():
        # the meander of t/b is that of b/t with its layers swapped, so the
        # one-part side (n) is seeded as the top and a|b joined below it
        for n in range(2, GCD_2PARTS_MAX_N + 1):
            yield (n,), [(f"{a}|{n - a}/{n}", _block_edges((a, n - a)),
                          gcd_index_2parts(a, n - a)) for a in range(1, n)]

    def three_over_one():
        for n in range(3, GCD_3PARTS_MAX_N + 1):
            yield (n,), [(f"{a}|{b}|{n - a - b}/{n}", _block_edges((a, b, n - a - b)),
                          gcd_index_3parts(a, b, n - a - b))
                         for a in range(1, n - 1) for b in range(1, n - a)]

    def two_over_two():
        for n in range(3, GCD_3PARTS_MAX_N + 1):
            bottoms = [_block_edges((c, n - c)) for c in range(1, n)]
            for a in range(1, n):
                yield (a, n - a), [(f"{a}|{n - a}/{c}|{n - c}", arcs,
                                    gcd_index_3parts(a, n - a, c))
                                   for c, arcs in enumerate(bottoms, 1)]

    for name, bound, groups in (
        ("two parts over one", f"a+b<={GCD_2PARTS_MAX_N}", two_over_one()),
        ("three parts over one", f"a+b+c<={GCD_3PARTS_MAX_N}", three_over_one()),
        ("two parts over two", f"two parts over two, n<={GCD_3PARTS_MAX_N}",
         two_over_two()),
    ):
        _run(checks, f"{name} vs meander", partial(against_meander, bound, groups))
    return VerifySuiteReport("gcd", tuple(checks))


def _boundary_state(top, bottom):
    """The boundary state of a prefix, top parts over bottom parts.

    The top covers vertices 1..n and the bottom 1..m, m <= n.  The rest of a
    pair meets its prefix only at the bottom sides of the boundary vertices
    m+1..n, so the prefix acts on every rest through its state: for each
    boundary vertex, the boundary position (1..n-m) at which its path through
    the prefix ends, or 0 for a dead end (a path that ends inside, or at the
    vertex itself), and the value 2*cycles + paths of the components that
    touch no boundary vertex.  Prefixes with equal states give every rest
    the same graph index + 1.  A top shorter than its bottom has none.

    The move of leading parts b < a takes d vertices off both fronts and
    maps the boundary of a/b onto that of its new prefix, so equal states
    before and after each move, with C(a) recording the value a of a/a,
    prove by induction on n that the winding index equals the graph index
    for every pair whose parts are all within the bound (no move raises the
    largest part, and F is the mirror image).
    """
    n, m = sum(top), sum(bottom)
    if n < m:
        return "a top shorter than its bottom"
    end, value = _join(top, bottom)
    ends = tuple(end[v] - m if m < end[v] != v else 0 for v in range(m + 1, n + 1))
    # each path through the boundary has two ends there or one dead end
    dead = ends.count(0)
    return ends, value - dead - (len(ends) - dead) // 2


def suite_winding() -> VerifySuiteReport:
    checks: list[CheckResult] = []

    def agreement():
        # the graph side is the state of the prefix a/b, the winding side that
        # of the heads _move puts in its place once d vertices are off the
        # top.  C(d) leaves no heads and must record d = the value of a/a
        pairs = []
        for a in range(1, WINDING_MAX_PART + 1):
            for b in (a, *range(1, a)):
                tag, d, th, bh = _move(a, b)
                if tag == "C":
                    tag, got = f"C({d})", ((), d) if th == bh == () else (th, bh)
                else:
                    got = (_boundary_state(th, bh) if 0 < d == a - sum(th)
                           else f"{d} vertices off, {a - sum(th)} off the top")
                pairs.append((f"({a}, {b}, {tag})", _boundary_state((a,), (b,)), got))
        return _mismatches(pairs, f"leading parts b<=a<={WINDING_MAX_PART} "
                                  f"({len(pairs)} moves)")

    _run(checks, "winding index equals graph index", agreement)

    def worked_example():
        st = SeaweedType(Composition((15,)), Composition((2, 5, 1, 5, 2)))
        sig, h = wind_down(st)
        pairs = [
            ("signature", "PPC(1)C(5)C(2)", format_signature(sig)),
            ("homotopy", "H(1,5,2)", str(h)),
            ("index", 7, homotopy_index(h)),
        ]
        return _mismatches(pairs)

    _run(checks, "worked 15-vertex example", worked_example)

    def finer_than_index():
        s1 = SeaweedType(Composition((5, 3)), Composition((3, 3, 2)))
        s2 = SeaweedType(Composition((4, 4)), Composition((2, 4, 2)))
        _, h1 = wind_down(s1)
        _, h2 = wind_down(s2)
        pairs = [
            ("h1", "H(1,1)", str(h1)),
            ("h2", "H(2)", str(h2)),
            ("index1", 1, seaweed_index(s1)),
            ("index2", 1, seaweed_index(s2)),
            ("dim1", 27, seaweed_dimension(s1)),
            ("dim2", 27, seaweed_dimension(s2)),
            ("distinct homotopy", True, h1 != h2),
        ]
        return _mismatches(pairs)

    _run(checks, "equal index, distinct homotopy witness", finer_than_index)

    def same_composition():
        for n in range(1, WINDING_MAX_N + 1):
            for mask in range(1 << (n - 1)):
                p = composition_from_bitmask(n, mask).parts
                if _wind_homotopy(p, p) != p:
                    return False, f"p/p gave {_wind_homotopy(p, p)} for parts {p}"
        return True, f"wind(p/p) returns the parts of p, n<={WINDING_MAX_N}"

    _run(checks, "same-composition homotopy", same_composition)
    return VerifySuiteReport("winding", tuple(checks))


def suite_all() -> VerifySuiteReport:
    checks: list[CheckResult] = []
    for name in SUITES[:-1]:  # every suite but "all" itself
        checks += [CheckResult(f"{name}: {c.name}", c.passed, c.detail, c.elapsed)
                   for c in globals()[f"suite_{name}"]().checks]
    return VerifySuiteReport("all", tuple(checks))


def run_suite(name: str) -> VerifySuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return globals()[f"suite_{name}"]()
