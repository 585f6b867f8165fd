import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.algebra import Monomial, Poly, format_monomial, format_poly
from copoisson.fileformat import SpecFormatError, parse_monomial
from copoisson.parser import (
    MAX_NESTING, MAX_POWER_TERMS, ParseError, parse_poly)


VARS2 = ["x1", "x2"]
VARS3 = ["x1", "x2", "x3"]


def test_basic_expression():
    p = parse_poly("x1*x2 - 2*x3^2", VARS3)
    assert p == Poly({Monomial((1, 1, 0)): Fraction(1),
                      Monomial((0, 0, 2)): Fraction(-2)})


def test_zero_and_constants():
    assert parse_poly("0", VARS2).is_zero()
    assert parse_poly("3/4", VARS2) == Poly.constant(2, Fraction(3, 4))
    assert parse_poly("-5", VARS2) == Poly.constant(2, -5)


def test_rational_literal_is_a_token():
    # 1/2 is one literal, not a division of polynomials
    p = parse_poly("1/2*x1", VARS2)
    assert p == Poly({Monomial((1, 0)): Fraction(1, 2)})


def test_parentheses_and_powers():
    p = parse_poly("(x1 + x2)^2", VARS2)
    assert p == parse_poly("x1^2 + 2*x1*x2 + x2^2", VARS2)
    assert parse_poly("x1^0", VARS2) == Poly.constant(2, 1)


def test_large_exponent_is_fast():
    # powers are taken by repeated squaring, not n successive products
    start = time.perf_counter()
    p = parse_poly("x1^999999999", VARS2)
    assert time.perf_counter() - start < 1
    assert p == Poly.from_monomial(Monomial((999999999, 0)))


def test_power_equals_repeated_product():
    base = parse_poly("x1 - 2*x2 + 1/2", VARS2)
    product = Poly.constant(2, 1)
    for _ in range(7):
        product = product * base
    assert parse_poly("(x1 - 2*x2 + 1/2)^7", VARS2) == product


def test_unary_signs():
    assert parse_poly("-x1 + +x2", VARS2) == parse_poly("x2 - x1", VARS2)
    assert parse_poly("-(x1 - x2)", VARS2) == parse_poly("x2 - x1", VARS2)
    # unary minus binds looser than exponentiation
    assert parse_poly("-x1^2", VARS2) == parse_poly("0 - x1^2", VARS2)


def test_unknown_identifier_column():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + y", VARS2)
    assert "unknown identifier 'y' at column 6" in str(e.value)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x1", VARS2)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", VARS2)
    with pytest.raises(ParseError):
        parse_poly("(x1)(x2)", VARS2)


def test_malformed_exponent():
    with pytest.raises(ParseError):
        parse_poly("x1^x2", VARS2)
    with pytest.raises(ParseError):
        parse_poly("x1^", VARS2)
    with pytest.raises(ParseError):
        parse_poly("x1^(2)", VARS2)


def test_syntax_errors_positioned():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + * x2", VARS2)
    assert e.value.column == 6
    with pytest.raises(ParseError):
        parse_poly("(x1 + x2", VARS2)
    with pytest.raises(ParseError):
        parse_poly("", VARS2)
    with pytest.raises(ParseError):
        parse_poly("x1 @ x2", VARS2)
    # tokens are read as they are needed: the leftmost error is reported
    with pytest.raises(ParseError, match="unexpected token 'x2'") as e:
        parse_poly("x1 x2 @ 1/0", VARS2)
    assert e.value.column == 4


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("1/0", VARS2)


def test_roundtrip_with_formatter(rng):
    from conftest import random_poly

    for _ in range(20):
        p = random_poly(rng, 3, 4)
        text = format_poly(p)
        assert parse_poly(text, VARS3) == p


def test_nesting_limit():
    # parentheses and unary signs count together
    half = MAX_NESTING // 2
    at_limit = "(" * half + "-" * (MAX_NESTING - half) + "x1" + ")" * half
    assert parse_poly(at_limit, VARS2) == Poly.from_monomial(
        Monomial((1, 0)), (-1) ** (MAX_NESTING - half))
    over = "(" * half + "-" * (MAX_NESTING - half + 1) + "x1" + ")" * half
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse_poly(over, VARS2)
    assert exc.value.column == MAX_NESTING + 1


def test_power_limit():
    # (x1 + 1)^n has n + 1 terms; (x1 + x2 + x3 + 1)^n has C(n + 3, 3)
    last = MAX_POWER_TERMS - 1
    assert len(parse_poly(f"(x1 + 1)^{last}", VARS2).terms) == last + 1
    for text, column in [(f"(x1 + 1)^{last + 1}", 10), ("(x1 + 1)^4000", 10),
                         ("(x1 + x2 + x3 + 1)^32", 20),
                         ("(x1 + x2 + x3 + 1)^8", 20),
                         ("x1 + -(x1 - 1)^2^64", 18)]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power of a sum") as exc:
            parse_poly(text, VARS3)
        assert time.perf_counter() - start < 0.1, text
        assert exc.value.column == column, text
    assert len(parse_poly("(x1 + x2 + x3 + 1)^7", VARS3).terms) == 120
    # plain factors and one-term bases keep their direct path
    assert parse_poly("2^40*x1^999999", VARS2) == Poly.from_monomial(
        Monomial((999999, 0)), 2 ** 40)
    assert parse_poly("(x1 + x2 - x2)^4000", VARS2) == Poly.from_monomial(
        Monomial((4000, 0)))
    assert parse_poly("(x1 - x1)^4000", VARS2).is_zero()


def test_number_power_limit():
    # n times the larger bit length of c's numerator and denominator may
    # not pass int()'s digit limit on literals, 4300 by default; 0, 1 and
    # -1 take any exponent
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    assert parse_poly("2^2150*x1", VARS2) == Poly.from_monomial(
        Monomial((1, 0)), 2 ** 2150)
    assert parse_poly("(1/3*x1)^2150", VARS2) == Poly.from_monomial(
        Monomial((2150, 0)), Fraction(1, 3 ** 2150))
    assert parse_poly("(x1 - x1 + 7/2)^1433", VARS2) == Poly.constant(
        2, Fraction(7, 2) ** 1433)
    for text in ["2^2151*x1", "3^10000000*x1", "x1*(3)^10000000",
                 "-(1/3*x1)^2151", "(x1 - x1 + 7/2)^1434"]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power of a number past the "
                                             "4300-digit limit") as exc:
            parse_poly(text, VARS2)
        assert time.perf_counter() - start < 0.1, text
        assert exc.value.column == text.index("^") + 2, text  # the exponent
    for text, want in [("1^99999999999", 1), ("(-1)^99999999999", -1),
                       ("-1^99999999999*x1^0", -1), ("0^99999999999", 0)]:
        assert parse_poly(text, VARS2) == Poly.constant(2, want), text


def test_sum_power_coefficient_limit():
    # a power of a sum of t > 1 terms: n times (the larger bit length of a
    # coefficient's numerator or denominator, plus t.bit_length()) may not
    # pass the same limit; 127 * (23 + 2) = 3175 and 100 * (41 + 2) = 4300
    assert parse_poly("(x1 + 7654321/1234567)^127", VARS2).coeff(
        Monomial((0, 0))) == Fraction(7654321, 1234567) ** 127
    assert len(parse_poly("(x1 + 2^40)^100", VARS2).terms) == 101
    for text in ["(x1 + 2^41)^100", "(x1 - 1/2199023255552)^100",
                 "(x1 + " + "7" * 100 + ")^127",
                 "(x1 + " + "7" * 1000 + ")^127"]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power of a sum past the "
                                             "4300-digit limit") as exc:
            parse_poly(text, VARS2)
        assert time.perf_counter() - start < 0.1, text
        assert exc.value.column == text.rindex("^") + 2, text


def test_product_coefficient_limit():
    # a product of two numbers in a term, or of two parenthesized factors:
    # bits1 + bits2 + log2 min(t1, t2) may not pass the same limit; both
    # are refused at their third factor, and the text after it is not read
    numbers = "*".join(["2^2000"] * 4000)
    grouped = "*".join(["(2^2000*x1 + 2^2000)"] * 127)
    for text, column in [(numbers, 2 * len("2^2000*")),
                         (grouped, 2 * len("(2^2000*x1 + 2^2000)*"))]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="product past the "
                                             "4300-digit limit") as exc:
            parse_poly(text, VARS2)
        assert time.perf_counter() - start < 0.1, text[:40]
        assert exc.value.column == column, text[:40]  # at the second "*"
    # 2001 + 2001 bits, and 2001 + 2001 + log2 2 for the parenthesized
    assert parse_poly("2^2000*2^2000", VARS2) == Poly.constant(2, 2 ** 4000)
    assert len(parse_poly(grouped[:2 * len("(2^2000*x1 + 2^2000)") + 1],
                          VARS2).terms) == 3
    # 1, -1 and 0 never grow a coefficient, however long the other one
    big = "9" * 2500
    assert len(parse_poly(f"-{big}*x2*-1*x1", VARS2).terms) == 1
    assert len(parse_poly(f"(x1 + x2)*({big})", VARS2).terms) == 2


def test_coefficient_times_parenthesized_product_is_bounded():
    # a term's number part times its parenthesized product used to be
    # multiplied unchecked, so a 6 KB bracket parsed into a coefficient
    # of 6000 digits that a written file could not be read back from
    sevens, threes = "7" * 3000, "3" * 3000
    text = f"{sevens}*({threes}*x3 + 1)"
    with pytest.raises(ParseError, match="product past the "
                                         "4300-digit limit") as exc:
        parse_poly(text, VARS3)
    assert exc.value.column == 3001  # at the "*" where both parts exist
    # refused there, before a later syntax error is read
    with pytest.raises(ParseError, match="product past the ") as exc:
        parse_poly(f"{sevens}*({threes}*x1 + 1)*(x1 @", VARS3)
    assert exc.value.column == 3001
    # checked at every "*" once both exist: 2001 + 2001 bits pass at the
    # first, 4001 + 2001 do not at the second
    text = "2^2000*(2^2000*x1 + 1)*2^2000"
    with pytest.raises(ParseError, match="product past the ") as exc:
        parse_poly(text, VARS3)
    assert exc.value.column == text.rindex("*") + 1
    # a factor with coefficients 1 and -1 only grows no coefficient
    assert parse_poly(f"{'7' * 1300}*(x1 + x2)", VARS3) == Poly({
        Monomial((1, 0, 0)): Fraction(int("7" * 1300)),
        Monomial((0, 1, 0)): Fraction(int("7" * 1300))})


def test_a_one_term_factor_adds_no_terms():
    # (x1)*(a sum of 200 terms) was refused as a product that may have
    # more than MAX_POWER_TERMS terms, though x1*(...) and 2*(...) were not
    names = [f"x{i}" for i in range(1, 201)]
    wide = "(" + " + ".join(names) + ")"
    for one in ("(x1)", "(-3*x2^2)", "(0)"):
        assert parse_poly(f"{one}*{wide}", names) == parse_poly(
            f"{one[1:-1]}*{wide}", names)
    assert len(parse_poly(f"(x1)*{wide}", names).terms) == 200
    with pytest.raises(ParseError, match="product may have more than"):
        parse_poly(f"(x1 + x2)*{wide}", names)


def test_non_text_is_a_parse_error():
    for value in [5, 2.5, None, True, [], {}, [["x1"]]]:
        with pytest.raises(ParseError, match="expected text, got"):
            parse_poly(value, VARS2)


def geometric(x, n):
    """(x^0 + x^1 + ... + x^(n-1)): n terms."""
    return " + ".join(f"{x}^{k}" for k in range(n)).join("()")


def test_product_limit():
    # a product of parenthesized factors with t1 and t2 terms is refused
    # when min(t1 * t2, C(d + deg1 + deg2, d)) is past MAX_POWER_TERMS
    eight = "(" + " + ".join(f"x{i}" for i in range(1, 9)) + ")"
    names = [f"x{i}" for i in range(1, 9)]
    assert len(parse_poly(eight + "*" + eight, names).terms) == 36
    start = time.perf_counter()
    with pytest.raises(ParseError, match="product may have more than") as exc:
        parse_poly("*".join([eight] * 12), names)
    assert time.perf_counter() - start < 0.1
    assert exc.value.column == 2 * len(eight) + 2  # at the second "*"
    # 8 * 8 > 128 pairs of terms, but at most C(2 + 4, 2) = 15 monomials
    wide = "(" + " + ".join(f"{k}*x1^2" for k in range(1, 9)) + " + x2)"
    assert parse_poly(wide + "*" + wide, VARS2) == parse_poly(
        f"{wide}^2", VARS2)
    # at the limit: 16 * 8 pairs of terms give 128 distinct monomials
    text = geometric("x1", 16) + "*" + geometric("x2", 8)
    assert len(parse_poly(text, VARS2).terms) == MAX_POWER_TERMS
    with pytest.raises(ParseError, match="product may have more than"):
        parse_poly(geometric("x1", 43) + "*" + geometric("x2", 3), VARS2)
    # plain factors between the parenthesized ones do not count
    quadratic = "(1 + x1 + x2 + x1^2 + x2^2 + x1*x2)"
    assert len(parse_poly(f"x1*{quadratic}*2*{quadratic}", VARS2).terms) == 15
    assert MAX_POWER_TERMS == 128


NAMES = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True),
                 min_size=1, max_size=4, unique=True)


@settings(deadline=None)
@given(NAMES, st.data())
def test_monomial_format_roundtrip(names, data):
    m = Monomial(data.draw(st.lists(st.integers(0, 12), min_size=len(names),
                                    max_size=len(names))))
    assert parse_monomial(format_monomial(m, names), names) == m


@settings(deadline=None)
@given(NAMES, st.data())
def test_poly_format_roundtrip(names, data):
    monos = st.lists(st.integers(0, 5), min_size=len(names),
                     max_size=len(names)).map(Monomial)
    coeffs = st.fractions(max_denominator=12, min_value=-50, max_value=50)
    p = Poly(data.draw(st.dictionaries(monos, coeffs, max_size=6)))
    assert parse_poly(format_poly(p, names), names) == p


def monomial_via_parse_poly(s, variables, where=""):
    """The monomial reader as it was before the direct path: parse_poly."""
    try:
        p = parse_poly(s, variables)
    except ParseError as e:
        raise SpecFormatError(f"bad monomial {s!r}{where}: {e}") from None
    items = list(p.terms.items())
    if len(items) != 1 or items[0][1] != 1:
        raise SpecFormatError(
            f"expected a single monomial with coefficient 1{where}, got {s!r}")
    return items[0][0]


@pytest.mark.parametrize("text", [
    "1", "x1", "x2^3", "x1*x2^2", "x2*x1", "x1*x1", "x1^0", "x1^02",
    "x1^1*x2", " x1", "x1 * x2", "(x1)", "1*x1", "2/2*x1", "x1^2^3",
    "", "*", "x1*", "x1**x2", "x1^", "x1^-1", "x1^1/2", "x1x2", "y",
    "2", "0", "-x1", "x1+x2", "x1 @ x2", "x1^(2)", "1*1", "x1*1",
    "a*2", "a^2",
])
@pytest.mark.parametrize("names", [["x1", "x2"], ["a", "2"]])
def test_monomial_reader_matches_parse_poly(text, names):
    # a variable named "2" is never read as a name, by either route
    try:
        want = monomial_via_parse_poly(text, names, " (row 1)")
    except SpecFormatError as e:
        with pytest.raises(SpecFormatError) as got:
            parse_monomial(text, names, " (row 1)")
        assert str(got.value) == str(e)
    else:
        assert parse_monomial(text, names, " (row 1)") == want
