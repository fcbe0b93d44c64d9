import pytest

from seaweeds.errors import ParseError
from seaweeds.formulas import c_diag1, c_diag2, c_diag3
from seaweeds.genfunc import (
    MAX_POLY_DEGREE,
    RationalGF,
    builtin_gfs,
    denominator_power_of_1_minus_2x,
    format_gf,
    format_poly,
    gf_coefficients,
    gf_coefficients_by_division,
    parse_gf,
    parse_poly,
    poly_add,
    poly_mul,
    poly_pow,
    poly_trim,
)


def test_poly_ops():
    assert poly_mul((1, -2), (1, -2)) == (1, -4, 4)
    assert poly_pow((1, -2), 3) == (1, -6, 12, -8)
    assert poly_pow((1, -2), 0) == (1,)
    assert poly_mul((0,), (1, 2, 3)) == ()
    assert poly_add((1, 2), (3, -2)) == (4,)
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


@pytest.mark.parametrize(
    "text",
    ["6x^3-10x^4-4x^5+10x^6-4x^7", "1-2x", "0", "x", "-x+x^2", "1-4x+4x^2", "5"],
)
def test_poly_round_trip(text):
    assert format_poly(parse_poly(text)) == text


def test_parse_poly_accepts_unsorted_and_duplicates():
    assert parse_poly("x^2+1") == (1, 0, 1)
    assert parse_poly("x+x") == (0, 2)
    assert parse_poly("2x-2x") == ()


@pytest.mark.parametrize("bad", ["", "x^", "3^2", "x**2", "1 + x", "++x", "x^-1"])
def test_parse_poly_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_parse_poly_error_position():
    # "1" then "-2" parse as terms; the first unconsumable character is "y"
    try:
        parse_poly("1-2y")
    except ParseError as e:
        assert e.position == 3
    else:
        pytest.fail("no error raised")


def test_parse_poly_needs_a_sign_between_terms():
    with pytest.raises(ParseError) as e:
        parse_poly("x2")
    assert e.value.message == "missing sign between terms in 'x2'"
    assert e.value.position == 1


def test_parse_poly_bounds_the_degree():
    assert parse_poly(f"x^{MAX_POLY_DEGREE}") == (0,) * MAX_POLY_DEGREE + (1,)
    assert parse_poly("x^0007") == (0,) * 7 + (1,)
    # refused at the term, before a dense list of that length is built; a
    # digit string past int()'s limit is refused the same way
    for text, pos in [(f"1+x^{MAX_POLY_DEGREE + 1}", 1), ("x^999999999", 0),
                      ("2-3x^" + "9" * 5000, 1)]:
        with pytest.raises(ParseError, match="exceeds the limit") as e:
            parse_poly(text)
        assert e.value.position == pos


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


def test_gf_round_trip():
    gfs = builtin_gfs()
    for gf in gfs.values():
        assert parse_gf(format_gf(gf)) == gf
    assert format_gf(gfs[1]) == "(x)/(1-2x)"
    assert format_gf(gfs[2]) == "(2x^2-2x^3)/(1-4x+4x^2)"


def test_parse_gf_rejects():
    with pytest.raises(ParseError):
        parse_gf("x/(1-2x)")
    with pytest.raises(ParseError):
        parse_gf("(x)")
    with pytest.raises(ParseError):
        parse_gf("(x)/(2-2x)")
