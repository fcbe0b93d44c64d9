"""Closed-form counts for the top index diagonals, plus gcd/totient formulas.

C(n, k) below means: the number of ordered pairs of compositions of n whose
seaweed has index k (what enumeration.census_cnk tallies).  The three top
diagonals have closed forms:

    c_diag1(n) = C(n, n-1) = 2^(n-1)           (only top == bottom attains n-1)
    c_diag2(n) = C(n, n-2) = n * 2^(n-2)
    c_diag3(n) = C(n, n-3) = (7n-15) * 2^(n-3)         for 3 <= n <= 5
                           = (2n^2+11n-25) * 2^(n-5)   for n >= 5

c_diag3 also equals a long sum obtained by classifying the meanders of index
n-3 into six structural families; case_terms returns the fifteen individual
contributions and c_diag3_longform their total.  Everything here is exact
integer arithmetic.
"""

from __future__ import annotations

from math import gcd

from .errors import Frozen


def c_diag1(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - 1)


def c_diag2(n: int) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    return n << (n - 2)


def c_diag3(n: int) -> int:
    if n < 3:
        raise ValueError("n must be >= 3")
    if n <= 5:
        return (7 * n - 15) << (n - 3)
    # both branches give 80 at the n=5 seam
    return (2 * n * n + 11 * n - 25) << (n - 5)


# C(n, n-j) in closed form for n >= j, by j
DIAGONALS = {1: c_diag1, 2: c_diag2, 3: c_diag3}


def case_terms(n: int) -> tuple[int, ...]:
    """The fifteen per-case contributions to C(n, n-3), in a fixed order.

    A meander on n vertices has index n-3 in exactly one of six shapes; each
    shape splits by which of its free composition slots are empty:

      A. one 4-vertex cycle                 -> terms 0 (interior) and 1 (boundary)
      B. two 2-paths inside a single block  -> terms 2, 3 (same counts as A)
      C. two 2-paths, no block mixes them   -> terms 4, 5, 6, 7
      D. two 2-paths sharing a block partly -> terms 8, 9
      E. one 3-path, endpoints in two blocks-> terms 10, 11, 12
      F. one 3-path, endpoints in one block -> terms 13, 14

    Sums whose upper bound is below their lower bound are empty.  The two
    boundary constants of A/B and the boundary powers of D/F count shapes
    that need at least 4 (resp. 3) vertices to exist, so they are gated on n;
    without the gates the total would overshoot at n=3.
    """
    if n < 3:
        raise ValueError("n must be >= 3")

    def s1(mlo: int, mhi: int, weight) -> int:
        # sum over m of (number of i choices) * 2^exponent * weight(m)
        return sum(
            (n - m - 1) * (1 << (n - m - 2)) * weight(m) for m in range(mlo, mhi + 1)
        )

    def s0(mlo: int, mhi: int, weight) -> int:
        return sum((1 << (n - m - 1)) * weight(m) for m in range(mlo, mhi + 1))

    one = lambda m: 1
    a_interior = 2 * s1(4, n - 2, one)
    a_boundary = (2 if n >= 4 else 0) + 4 * s0(4, n - 1, one)
    b_interior = 2 * s1(4, n - 2, one)
    b_boundary = (2 if n >= 4 else 0) + 4 * s0(4, n - 1, one)
    c_interior = 4 * sum(
        (1 << (n - m - 3)) * (m - 3)
        for m in range(4, n - 2)
        for i in range(1, n - m - 1)
        for j in range(1, n - m - i)
    )
    c_one_empty = 12 * s1(4, n - 2, lambda m: m - 3)
    c_two_empty = 12 * s0(4, n - 1, lambda m: m - 3)
    c_all_empty = 4 * (n - 3) if n >= 4 else 0
    d_interior = 2 * (n - 5) * (1 << (n - 6)) if n >= 6 else 0
    d_boundary = (1 << (n - 3)) if n >= 4 else 0
    e_interior = 2 * s1(3, n - 2, lambda m: m - 2)
    e_one_empty = 4 * s0(3, n - 1, lambda m: m - 2)
    e_both_empty = 2 * (n - 2)
    f_interior = 4 * (n - 4) * (1 << (n - 5)) if n >= 5 else 0
    f_boundary = 1 << (n - 1)

    return (
        a_interior,
        a_boundary,
        b_interior,
        b_boundary,
        c_interior,
        c_one_empty,
        c_two_empty,
        c_all_empty,
        d_interior,
        d_boundary,
        e_interior,
        e_one_empty,
        e_both_empty,
        f_interior,
        f_boundary,
    )


def c_diag3_longform(n: int) -> int:
    """Case-by-case sum for C(n, n-3); equals c_diag3(n) for every n >= 3."""
    return sum(case_terms(n))


def recursion_lhs(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 50 * c_diag1(n) + 8 * c_diag2(n + 1) + 2 * c_diag3(n + 4)


def recursion_check(n: int) -> bool:
    """50*C(n,n-1) + 8*C(n+1,n-1) + 2*C(n+4,n+1) == C(n+5,n+2)."""
    return recursion_lhs(n) == c_diag3(n + 5)


# --- auxiliary summation identities -----------------------------------------
#
# Two textbook-style identities that come up when collapsing the long-form
# sum into the recursion.  The first is correct for all n >= 1.  The second
# is stated in circulation with right-hand side 4 - 3*2^n + n*2^n, which is
# wrong for every n >= 2; the closed form that actually matches the sum is
# (n-3)*2^n + n + 3.  identity_audit reports both sides so the discrepancy
# is visible rather than silently patched.


def identity_k2k_sides(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = sum((n - k) << k for k in range(1, n + 1))
    rhs = (1 << (n + 1)) - 2 * n - 2
    return lhs, rhs


def identity_k2k(n: int) -> bool:
    lhs, rhs = identity_k2k_sides(n)
    return lhs == rhs


def identity_k2_2k_sides(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("n must be >= 1")
    # the k=n summand is 0 * 2^(-1): zero by convention, so skip it and never
    # form a negative power
    lhs = sum(k * (n - k) << (n - k - 1) for k in range(1, n))
    rhs = 4 - 3 * (1 << n) + n * (1 << n)
    return lhs, rhs


def identity_k2_2k(n: int) -> bool:
    lhs, rhs = identity_k2_2k_sides(n)
    return lhs == rhs


def identity_k2_2k_fitted(n: int) -> int:
    """Closed form matching sum(k*(n-k)*2^(n-k-1)): (n-3)*2^n + n + 3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 3) * (1 << n) + n + 3


class IdentityAuditRow(Frozen):
    __slots__ = ("n", "lhs", "rhs_stated", "stated_ok", "rhs_fitted", "fitted_ok")

    def __init__(self, n: int, lhs: int, rhs_stated: int, stated_ok: bool,
                 rhs_fitted: int, fitted_ok: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs_stated", rhs_stated)
        object.__setattr__(self, "stated_ok", stated_ok)
        object.__setattr__(self, "rhs_fitted", rhs_fitted)
        object.__setattr__(self, "fitted_ok", fitted_ok)


def identity_audit(n_max: int = 30) -> list[IdentityAuditRow]:
    """Evaluate the second identity's sum against both closed forms."""
    rows = []
    for n in range(1, n_max + 1):
        lhs, rhs = identity_k2_2k_sides(n)
        fit = identity_k2_2k_fitted(n)
        rows.append(IdentityAuditRow(n, lhs, rhs, lhs == rhs, fit, lhs == fit))
    return rows


# --- gcd index formulas and the restricted counts ---------------------------


def gcd_index_2parts(a: int, b: int) -> int:
    """Index of the type a|b over the one-part composition: gcd(a,b) - 1."""
    if a < 1 or b < 1:
        raise ValueError("parts must be >= 1")
    return gcd(a, b) - 1


def gcd_index_3parts(a: int, b: int, c: int) -> int:
    """Index of a|b|c over one part, and of a|b over c|(a+b-c): gcd(a+b, b+c) - 1."""
    if a < 1 or b < 1 or c < 1:
        raise ValueError("parts must be >= 1")
    return gcd(a + b, b + c) - 1


def euler_phi(t: int) -> int:
    if t < 1:
        raise ValueError("t must be >= 1")
    result = t
    m = t
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def coprime_sum(t: int) -> int:
    """Sum of s in [1, t) with gcd(s, t) = 1; equals t*phi(t)/2 for t > 2."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return sum(s for s in range(1, t) if gcd(s, t) == 1)


def c21(n: int, k: int) -> int:
    """Count of a in [1, n-1] with gcd(a, n) = k+1.

    Nonzero only when k+1 divides n; writing n = (k+1)t the count is phi(t)
    for t >= 2.  For t = 1 (k = n-1) it is 0: gcd(a, n) = n forces a = n,
    which is out of range.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    if n % (k + 1):
        return 0
    t = n // (k + 1)
    return euler_phi(t) if t >= 2 else 0


def c22(n: int, k: int) -> int:
    """Count of ordered pairs (a|n-a, c|n-c) whose seaweed has index k.

    Nonzero only when k+1 divides n; with n = (k+1)t the count is n-1 when
    t = 1 (the full diagonal a = c) and (n-2)*phi(t) otherwise.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    if n % (k + 1):
        return 0
    t = n // (k + 1)
    if t == 1:
        return n - 1
    return (n - 2) * euler_phi(t)
