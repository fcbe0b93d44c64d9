import pytest

from seaweeds.formulas import c_diag1, c_diag2, c_diag3
from seaweeds.genfunc import (
    RationalGF,
    builtin_gfs,
    denominator_power_of_1_minus_2x,
    format_gf,
    format_poly,
    gf_coefficients,
    gf_coefficients_by_division,
    poly_mul,
    poly_pow,
    poly_trim,
)


def test_poly_ops():
    assert poly_mul((1, -2), (1, -2)) == (1, -4, 4)
    assert poly_pow((1, -2), 3) == (1, -6, 12, -8)
    assert poly_pow((1, -2), 0) == (1,)
    assert poly_mul((0,), (1, 2, 3)) == ()
    assert poly_trim((0, 1, 0, 0)) == (0, 1)
    assert poly_trim((0, 0)) == ()
    with pytest.raises(ValueError):
        poly_pow((1, -2), -1)


def test_format_poly():
    assert format_poly((0, 0, 0, 6, -10, -4, 10, -4)) == "6x^3-10x^4-4x^5+10x^6-4x^7"
    assert format_poly((1, -2)) == "1-2x"
    assert format_poly(()) == "0"
    assert format_poly((0,)) == "0"
    assert format_poly((0, 1)) == "x"
    assert format_poly((0, -1, 1)) == "-x+x^2"
    assert format_poly((5,)) == "5"


def test_rational_gf_validates_denominator():
    with pytest.raises(ValueError):
        RationalGF((0, 1), (2, -4))
    with pytest.raises(ValueError):
        RationalGF((0, 1), ())
    gf = RationalGF((0, 1, 0), (1, -2, 0))
    assert gf.numerator == (0, 1)
    assert gf.denominator == (1, -2)


def test_geometric_series():
    gf = RationalGF((0, 1), (1, -2))
    assert gf_coefficients(gf, 5) == [0, 1, 2, 4, 8, 16]
    assert gf_coefficients(gf, 0) == [0]
    with pytest.raises(ValueError):
        gf_coefficients(gf, -1)


def test_builtin_coefficient_spot_checks():
    gfs = builtin_gfs()
    assert gf_coefficients(gfs[2], 5)[4] == 16
    assert gf_coefficients(gfs[3], 7)[6] == 226


def test_builtins_match_closed_forms():
    gfs = builtin_gfs()
    c1 = gf_coefficients(gfs[1], 31)
    c2 = gf_coefficients(gfs[2], 31)
    c3 = gf_coefficients(gfs[3], 31)
    for n in range(1, 31):
        assert c1[n] == c_diag1(n)
    assert c2[0] == c2[1] == 0
    for n in range(2, 31):
        assert c2[n] == c_diag2(n)
    assert c3[:3] == [0, 0, 0]
    for n in range(3, 31):
        assert c3[n] == c_diag3(n)


def test_recurrence_extraction_matches_long_division():
    for gf in builtin_gfs().values():
        assert gf_coefficients(gf, 51) == gf_coefficients_by_division(gf, 51)


def test_denominator_power_detection():
    gfs = builtin_gfs()
    for j in (1, 2, 3):
        assert denominator_power_of_1_minus_2x(gfs[j]) == j
    with pytest.raises(ValueError):
        denominator_power_of_1_minus_2x(RationalGF((0, 1), (1, -1)))
    with pytest.raises(ValueError):
        denominator_power_of_1_minus_2x(RationalGF((1,), (1, -4, 5)))
    # trailing zeros are trimmed on construction, so this one is fine
    assert denominator_power_of_1_minus_2x(RationalGF((1,), (1, -4, 4, 0, 0))) == 2


def test_format_gf():
    gfs = builtin_gfs()
    assert format_gf(gfs[1]) == "(x)/(1-2x)"
    assert format_gf(gfs[2]) == "(2x^2-2x^3)/(1-4x+4x^2)"

