"""parse_poly against the recursive-descent parser it replaces.

The reference below is the parser as it was before terms were read
directly: every factor a Poly, every term a chain of Poly products, every
expression a chain of Poly sums.  It shares only the tokenizer with the
library.  On valid text both must give the same terms with the same value
types; on malformed text, the same ParseError message and column.  The
reference applies the documented limits on powers of sums, on products of
parenthesized factors, on powers of numbers and on the coefficients of
products (a term's plain product times its parenthesized product among
them) by counting, not through the library's binomials and bit lengths.
"""

import sys
from itertools import combinations_with_replacement, count, product

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.algebra import Monomial, Poly, format_poly
from copoisson.parser import (
    MAX_NESTING, MAX_POWER_TERMS, ParseError, _tokenize, parse_poly, quoted)

from conftest import random_poly


# --- reference -------------------------------------------------------------

def saturated_counts(items, size, cap):
    """[number of multisets of k out of `items` things for k <= size], each
    counted by prefix sums over the things and held at `cap`."""
    row = [1] + [0] * size
    for _ in range(items):
        total, out = 0, []
        for ways in row:
            total = min(total + ways, cap)
            out.append(total)
        row = out
    return row


def monomial_count(d, top):
    """The monomials of degree <= top in d variables, held at the cap."""
    cap = MAX_POWER_TERMS + 1
    return min(sum(saturated_counts(d, min(top, MAX_POWER_TERMS), cap)), cap)


def past_product_limit(p, f, d):
    """The documented limit on a product of parenthesized factors: refused
    when each factor has more than one term (a factor of one term adds
    none) and both the pairs of their terms and the monomials of degree <=
    the sum of their degrees outnumber MAX_POWER_TERMS."""
    if len(p.terms) <= 1 or len(f.terms) <= 1:
        return False
    pairs = sum(1 for _ in product(p.terms, f.terms))
    top = p.degree() + f.degree()
    return min(pairs, monomial_count(d, top)) > MAX_POWER_TERMS


def past_digit_limit(c, n):
    """The documented limit on a power c^n of a number other than 0, 1 and
    -1: n times the binary digits of its numerator or denominator past
    int()'s digit limit on literals."""
    limit = sys.get_int_max_str_digits()
    digits = max(len(format(abs(c.numerator), "b")),
                 len(format(c.denominator, "b")))
    return bool(limit) and abs(c) != 1 and n * digits > limit


def past_sum_digit_limit(p, n):
    """The documented limit on the coefficients of a power p^n of a sum of
    t > 1 terms: n times (the most binary digits of a numerator or
    denominator of p, plus the binary digits of t) past int()'s digit
    limit on literals."""
    limit = sys.get_int_max_str_digits()
    digits = max(len(format(abs(v), "b")) for c in p.terms.values()
                 for v in (c.numerator, c.denominator))
    return bool(limit) and n * (digits + len(format(len(p.terms), "b"))) > limit


def past_product_digit_limit(p, f):
    """The documented limit on the coefficients of a product of two factors
    (two plain ones, two parenthesized ones, or a term's plain product and
    its parenthesized product): the most binary digits of a numerator or
    denominator of each, summed, plus log2 of the fewer terms rounded up,
    past int()'s digit limit on literals; unless one factor has at most one
    term and one has only coefficients 1 and -1, so that no coefficient
    grows."""
    if min(len(p.terms), len(f.terms)) <= 1 and any(
            all(abs(c) == 1 for c in g.terms.values()) for g in (p, f)):
        return False
    limit = sys.get_int_max_str_digits()
    digits = sum(max(len(format(abs(v), "b")) for c in g.terms.values()
                     for v in (c.numerator, c.denominator)) for g in (p, f))
    t = min(len(p.terms), len(f.terms))
    return bool(limit) and digits + next(
        k for k in count() if 2 ** k >= t) > limit


def past_power_limit(t, n, d, deg):
    """The documented limit on a power p^n of a sum of t > 1 terms of
    degree deg in d variables, counted rather than taken from binomials:
    refused when both the products of n of its terms (multisets) and the
    monomials of degree <= n*deg outnumber MAX_POWER_TERMS.  Both counts
    grow with the exponent and pass the limit by the time it reaches
    MAX_POWER_TERMS, so counting stops there."""
    n = min(n, MAX_POWER_TERMS)
    products = saturated_counts(t, n, MAX_POWER_TERMS + 1)[n]
    return min(products, monomial_count(d, n * deg)) > MAX_POWER_TERMS


class ReferenceParser:
    def __init__(self, src, variables):
        self.tokens = _tokenize(src)
        self.next = None
        self.depth = 0
        self.parenthesized = False  # whether the last factor's base was
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.d = len(self.variables)

    def peek(self):
        # a token is read only when asked for, as in the library
        if self.next is None:
            self.next = next(self.tokens)
        return self.next

    def advance(self):
        tok = self.peek()
        self.next = None
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {quoted(tok[1])}", tok[2])
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            p = p + rhs if op == "+" else p - rhs
        return p

    def term(self):
        p = self.factor()
        # the limits count the parenthesized factors and the plain ones apart
        grouped, plain = (p, None) if self.parenthesized else (None, p)
        while self.peek()[0] == "*":
            col = self.advance()[2]
            f = self.factor()
            if self.parenthesized:
                if grouped is not None and past_product_limit(
                        grouped, f, self.d):
                    raise ParseError(f"product may have more than "
                                     f"{MAX_POWER_TERMS} terms", col)
                if grouped is not None and past_product_digit_limit(
                        grouped, f):
                    raise ParseError(f"product past the "
                                     f"{sys.get_int_max_str_digits()}-digit "
                                     f"limit", col)
                grouped = f if grouped is None else grouped * f
            else:
                if plain is not None and past_product_digit_limit(plain, f):
                    raise ParseError(f"product past the "
                                     f"{sys.get_int_max_str_digits()}-digit "
                                     f"limit", col)
                plain = f if plain is None else plain * f
            # the plain product times the parenthesized one, at each "*"
            # once both exist
            if (grouped is not None and plain is not None
                    and past_product_digit_limit(plain, grouped)):
                raise ParseError(f"product past the "
                                 f"{sys.get_int_max_str_digits()}-digit "
                                 f"limit", col)
            p = p * f
        return p

    def factor(self):
        p = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            tok = self.advance()
            if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
                raise ParseError("exponent must be a non-negative integer",
                                 tok[2] if tok[0] != "end" else caret[2])
            n = int(tok[1])
            if len(p.terms) == 1 and past_digit_limit(*p.terms.values(), n):
                raise ParseError(f"power of a number past the "
                                 f"{sys.get_int_max_str_digits()}-digit "
                                 f"limit", tok[2])
            if len(p.terms) > 1 and past_power_limit(
                    len(p.terms), n, self.d, p.degree()):
                raise ParseError(f"power of a sum may have more than "
                                 f"{MAX_POWER_TERMS} terms", tok[2])
            if len(p.terms) > 1 and past_sum_digit_limit(p, n):
                raise ParseError(f"power of a sum past the "
                                 f"{sys.get_int_max_str_digits()}-digit "
                                 f"limit", tok[2])
            out = Poly.constant(self.d, 1)
            while n:
                if n & 1:
                    out = out * p
                n >>= 1
                if n:
                    p = p * p
            return out
        return p

    def atom(self):
        kind, value, col = self.advance()
        self.parenthesized = False
        if kind == "num":
            return Poly.constant(self.d, value)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown identifier {quoted(value)}", col)
            return Poly.from_monomial(Monomial.variable(self.d, self.index[value]))
        if kind in ("(", "-", "+"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING}", col)
            if kind == "(":
                p = self.expr()
                self.expect(")")
                self.parenthesized = True
            elif kind == "-":
                p = -self.factor()
            else:
                p = self.factor()
            self.depth -= 1
            return p
        if kind == "end":
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected token {quoted(value)}", col)


def outcome(parse, text, names):
    """("ok", {monomial: (value, type)}) or ("error", message, column)."""
    try:
        p = parse(text, names)
    except ParseError as e:
        return ("error", str(e), e.column)
    return ("ok", {m: (c, type(c)) for m, c in p.terms.items()})


def assert_same(text, names):
    want = outcome(lambda s, v: ReferenceParser(s, v).parse(), text, names)
    assert outcome(parse_poly, text, names) == want, text
    return want


# --- valid text --------------------------------------------------------------

NAMES = [["x1", "x2", "x3"], ["a", "b_2", "Z"], ["t"]]


@pytest.mark.parametrize("names", NAMES, ids=lambda n: ",".join(n))
def test_canonical_text_matches_reference(rng, names):
    for _ in range(40):
        p = random_poly(rng, len(names), 4, density=0.4)
        text = format_poly(p, names)
        assert assert_same(text, names)[0] == "ok"
        assert parse_poly(text, names) == p


VARS = ["x1", "x2", "x3"]
numbers = st.one_of(st.integers(0, 12).map(str),
                    st.tuples(st.integers(0, 9), st.integers(1, 6)).map(
                        lambda t: f"{t[0]}/{t[1]}"))
names = st.sampled_from(VARS)
plain = st.one_of(
    numbers, names,
    st.tuples(names, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
    st.tuples(numbers, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    names.map(lambda n: f"0*{n}"))
signs = st.sampled_from(["", "", "-", "+", "--", "- ", "-+"])
ops = st.sampled_from([" + ", " - ", "+", "-", " +-"])


def expressions(factors):
    signed = st.tuples(signs, factors).map("".join)
    terms = st.lists(signed, min_size=1, max_size=4).map("*".join)
    return st.tuples(terms, st.lists(st.tuples(ops, terms), max_size=3)).map(
        lambda t: t[0] + "".join(op + term for op, term in t[1]))


def nest(exprs):
    return expressions(st.one_of(
        plain,
        exprs.map(lambda e: f"({e})"),
        st.tuples(exprs, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}")))


LIMIT_MESSAGES = ("power of a sum may have more than",
                  "product may have more than")
trees = st.recursive(expressions(plain), nest, max_leaves=6)


@settings(deadline=None, max_examples=300)
@given(trees)
def test_expression_trees_match_reference(text):
    # the trees are grammatical, so only a documented size limit refuses
    # one, e.g. (0 + (x1 + 1)^2*(0 + 1 + x2 + x3))^3, a power of a sum
    got = assert_same(text, VARS)
    assert got[0] == "ok" or got[1].startswith(LIMIT_MESSAGES), got


# --- malformed and edge-case text ------------------------------------------

QUADRATIC = "(1 + x1 + x2 + x3 + x1^2 + x2^2 + x3^2 + x1*x2 + x1*x3 + x2*x3)"


def test_reference_counts_are_multisets():
    for items in range(5):
        counts = saturated_counts(items, 5, 10 ** 6)
        assert counts == [
            len(list(combinations_with_replacement(range(items), k)))
            for k in range(6)]
    assert saturated_counts(3, 40, 129)[40] == 129


EDGE = [
    "x1^", "x1^-1", "x1^1/2", "x1^2^3", "2^3*x1", "-x1^2", "-x1^2^3",
    "+x1^2^3", "--x1^2^3^4", "(x1+1)^3*x2", "x1 + y", "y^2", "x1*y",
    "x1^" + "9" * 5000, "9" * 5000 + "*x1", "x1^x2", "x1^(2)", "x1 x2",
    "2x1", "x1**2", "(x1", "x1)", ")", "", "  ", "x1 +", "x1 @ x2", "1/0",
    "0^0", "0*x1 + x1^0", "x1 - x1", "-(x1 - x2)^2", "(-x1)^3", "-2^2",
    "x1^99999999*x2", "-" * MAX_NESTING + "x1", "-" * (MAX_NESTING + 1) + "x1",
    "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
    "-(" * (MAX_NESTING // 2) + "x1" + ")" * (MAX_NESTING // 2),
    "-(" * (MAX_NESTING // 2) + "-x1" + ")" * (MAX_NESTING // 2),
    "x1*(" + "-" * MAX_NESTING + "x2)",
    "(x1 + 1)^127", "(x1 + 1)^128", "-(x1 - 1)^4000", "(x1 + x2 + x3 + 1)^7",
    "(x1 + x2 + x3 + 1)^8", "(x1 - x1)^4000", "(x1 + x2 - x2)^4000",
    "(x1^50 + 1)^100", "-(x1 + 1)^2^100", "(x1 + 1)^" + "9" * 100,
    "(x1 + x2 + 1)^14", "(x1 + x2 + 1)^15",
    # ten terms of degree <= 2: the monomial count (84, then 165) decides
    QUADRATIC + "^3", QUADRATIC + "^4",
    # products of parenthesized factors: 35 * 10 pairs but 84 monomials
    # pass, 84 * 10 pairs and 165 monomials do not
    "*".join([QUADRATIC] * 3), "*".join([QUADRATIC] * 4),
    "x1*" + "*2*".join([QUADRATIC] * 4) + "*x2",
    "0*" + "*".join([QUADRATIC] * 4),
    "(x1 + x2)*(x1 - x1)*" + QUADRATIC + "^3",
    "(x1^200 + 1)*(x2^300 + x3)", "-(x1 + 1)^100*(x2 + 1)",
    "(x1 + 1)^100*(x2 + 1)*(x3 + 1)",
    # 16 * 8 = 128 pairs of terms make 128 monomials; 43 * 3 = 129 do not
    "*".join(" + ".join(f"{x}^{k}" for k in range(n)).join("()")
             for x, n in (("x1", 16), ("x2", 8))),
    "*".join(" + ".join(f"{x}^{k}" for k in range(n)).join("()")
             for x, n in (("x1", 43), ("x2", 3))),
    # powers of numbers at and past the digit limit
    "2^2150*x1", "2^2151*x1", "(1/3*x1)^2150", "-(1/3*x1)^2151",
    "(x1 - x1 + 7/2)^1433", "(x1 - x1 + 7/2)^1434", "x1*(3)^10000000",
    "3^10000000*x1", "1^99999999", "(-1)^99999999", "-1^99999999^2",
    "0^99999999", "(x1 + x2 - x2)^99999999",
    # powers of sums at and past the digit limit: 100 * (41 + 2) = 4300
    "(x1 + 7654321/1234567)^127", "(x1 + " + "7" * 100 + ")^127",
    "(x1 + 1099511627776)^100", "-(x1 + 2199023255552)^100",
    "(x1 + 1/1099511627776)^100", "(x1 - 1/2199023255552)^100",
    "(x1 + x2 + 2/3)^2*(x3 + " + "9" * 1000 + ")^5",
    # products of numbers and of parenthesized factors at and past the
    # digit limit: 2151 + 2149 (+ log2 1) = 4300 passes, 4301 does not
    "2^2150*2^2148", "2^2150*x1*2^2149", "2^2000*2^2000*3",
    "*".join(["2^2000"] * 400), "(2^2150*x1)*(2^2148*x2 + 1)",
    "(2^2150*x1 + 1)*(2^2148*x2 + 1)", "(2^2150*x1)*(-2^2149*x2)",
    "*".join(["(2^2000*x1 + 2^2000)"] * 127),
    # one coefficient, past the limit alone, times 1, -1 or 0
    "9" * 2500 + "*x2", "-" + "9" * 2500 + "*-1*x1*0", "3*" + "9" * 2500,
    "(" + "9" * 2500 + "*x1)*(x1 - x2 + x3)", "(x1 + x2)*(" + "9" * 2500 + ")",
    "(x1 - x1)*(" + "9" * 2500 + "*x1 + 3)", "(2*x1)*(" + "9" * 2500 + ")",
    # a term's plain product times its parenthesized product, checked at
    # each "*" once both exist
    "7" * 3000 + "*(" + "3" * 3000 + "*x3 + 1)",
    "7" * 3000 + "*(" + "3" * 3000 + "*x1 + 1)*(x1 @",
    "2^2000*(2^2000*x1 + 1)", "2^2000*(2^2000*x1 + 1)*2^2000",
    "(2^2000*x1 + 1)*2^2000*x2*2^2000", "2^2150*(2^2148*x1 - 1)",
    "2^2150*(2^2149*x1 - 1)", "2^2000*(2^2000*x1 + 1)*(2^300*x2 + 1)",
    "x1*2^2000*(x2 + x3)*(x1 - x3)*" + "7" * 1300,
    "0*(" + "9" * 2500 + "*x1 + 3)*" + "9" * 2500,
    # a factor of one term adds no terms
    "(x1)*" + " + ".join(f"x1^{k}" for k in range(200)).join("()"),
    "(x1 + x2)*" + " + ".join(f"x1^{k}" for k in range(200)).join("()"),
]


@pytest.mark.parametrize("text", EDGE, ids=lambda t: t[:40])
def test_edge_cases_match_reference(text):
    assert_same(text, VARS)


fragments = st.sampled_from(["x1", "x2", "y", "0", "1", "2", "2/3", "^", "*",
                             "+", "-", "(", ")", "^2", "@", "1/0"])


@settings(deadline=None, max_examples=400)
@given(st.lists(fragments, max_size=14))
def test_token_soup_matches_reference(parts):
    # joined with spaces, so that no two number fragments merge into a
    # large exponent
    assert_same(" ".join(parts), VARS)
