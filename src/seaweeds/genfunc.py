"""Integer polynomials and rational generating functions, all exact.

A polynomial is a tuple of arbitrary-precision integer coefficients indexed
by power of x, with trailing zeros trimmed (the zero polynomial is the empty
tuple).  A RationalGF is a numerator/denominator pair whose denominator has
constant term 1, so its power-series expansion is integral and unique.

The three built-in generating functions expand to the diagonal counts:

    x/(1-2x)                        -> c_diag1(n), n >= 1
    (2x^2-2x^3)/(1-2x)^2            -> c_diag2(n), n >= 2
    (6x^3-10x^4-4x^5+10x^6-4x^7)/(1-2x)^3 -> c_diag3(n), n >= 3
"""

from __future__ import annotations

from .errors import Frozen

Poly = tuple[int, ...]


def poly_trim(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p: Poly, e: int) -> Poly:
    if e < 0:
        raise ValueError("exponent must be >= 0")
    out: Poly = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


class RationalGF(Frozen):
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator: Poly):
        object.__setattr__(self, "numerator", poly_trim(numerator))
        object.__setattr__(self, "denominator", poly_trim(denominator))
        if not self.denominator or self.denominator[0] != 1:
            raise ValueError("denominator must have constant term 1")

    def __str__(self) -> str:
        return format_gf(self)


def gf_coefficients(gf: RationalGF, upto: int) -> list[int]:
    """Power-series coefficients c_0..c_upto via the linear recurrence
    c_m = [x^m]N - sum_{j>=1} D_j c_{m-j}."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    num, den = gf.numerator, gf.denominator
    coeffs: list[int] = []
    for m in range(upto + 1):
        c = num[m] if m < len(num) else 0
        for j in range(1, min(m, len(den) - 1) + 1):
            c -= den[j] * coeffs[m - j]
        coeffs.append(c)
    return coeffs


def gf_coefficients_by_division(gf: RationalGF, upto: int) -> list[int]:
    """Same series by truncated long division; independent cross-check."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    rem = list(gf.numerator) + [0] * (upto + 1 - len(gf.numerator))
    den = gf.denominator
    out = []
    for m in range(upto + 1):
        q = rem[m]  # den[0] == 1
        out.append(q)
        if q:
            for j in range(1, len(den)):
                if m + j <= upto:
                    rem[m + j] -= q * den[j]
    return out


def denominator_power_of_1_minus_2x(gf: RationalGF) -> int:
    """The m with denominator == (1-2x)^m, or raise if it is not of that form."""
    m = len(gf.denominator) - 1
    if gf.denominator != poly_pow((1, -2), m):
        raise ValueError(f"denominator {format_poly(gf.denominator)} is not (1-2x)^m")
    return m


def builtin_gfs() -> dict[int, RationalGF]:
    """The diagonal generating functions, keyed by diagonal offset j in
    C(n, n-j)."""
    gfs = {
        1: RationalGF((0, 1), (1, -2)),
        2: RationalGF((0, 0, 2, -2), poly_pow((1, -2), 2)),
        3: RationalGF((0, 0, 0, 6, -10, -4, 10, -4), poly_pow((1, -2), 3)),
    }
    for j, gf in gfs.items():
        assert denominator_power_of_1_minus_2x(gf) == j
    return gfs


def format_poly(p: Poly) -> str:
    """Ascending powers, explicit signs, x^k notation (x^1 printed as x)."""
    p = poly_trim(p)
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpart = "x" if k == 1 else f"x^{k}"
            body = xpart if mag == 1 else f"{mag}{xpart}"
        parts.append(sign + body)
    return "".join(parts)


def format_gf(gf: RationalGF) -> str:
    return f"({format_poly(gf.numerator)})/({format_poly(gf.denominator)})"

