"""Small recursive-descent parser for polynomial expressions.

Accepted grammar (no implicit multiplication):

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := (atom | ("+" | "-") factor) ("^" integer)?
    atom    := rational | integer | variable | "(" expr ")"

Rational literals like 3/4 are single tokens, not a division operator.
Tokens are read as the parser asks for them, so the error reported is the
leftmost one, and no text past a refusal is read.
A term's plain factors (numbers, variables and their integer powers, with
any unary signs) are read straight into one coefficient and one exponent
vector; only parenthesized factors are multiplied as polynomials.
Parentheses and unary signs nest at most MAX_NESTING deep, counted
together, so that hostile input ends in a ParseError, not a RecursionError.
A power p^n of a sum of t > 1 terms in d variables is refused before the
first product when its term bound min(C(t+n-1, n), C(d+n*deg p, d)) is
past MAX_POWER_TERMS, and so is a product of parenthesized factors when
min(t1*t2, C(d+deg1+deg2, d)) is.  A number c^n, c not 0, 1 or -1, is
refused when n times the bit length of c's numerator or denominator is
past int()'s digit limit on literals, sys.get_int_max_str_digits(), and
so is a power of a sum of t > 1 terms when n times (the largest such bit
length among its coefficients, plus t.bit_length()) is.  A product of two
numbers in a term, or of two parenthesized factors, is refused when
bits1 + bits2 + log2 min(t1, t2) is past that limit, bits the largest bit
length among a factor's coefficients and t its number of terms, unless no
coefficient can grow: one factor has at most one term, and one has only
coefficients 1 and -1.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from .algebra import Poly, _trusted_monomial, bump


MAX_NESTING = 100
MAX_POWER_TERMS = 128  # (x1 + 7654321/1234567)^127 parses in about 0.2 s
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _bits(c):
    """The bit length of c's numerator or denominator, the longer one."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _product_past_limit(b1, b2, t):
    """Whether a product of two factors, whose coefficients have at most b1
    and b2 bits and the smaller of which has t terms, may have a
    coefficient past the digit limit: each is a sum of at most t products,
    so it has at most b1 + b2 + log2 t bits.  With t <= 1 and a bound <= 1
    (coefficients 1 and -1 only), the product copies the other factor's
    coefficients, and passes."""
    limit = sys.get_int_max_str_digits()  # 0 when there is none
    return ((t > 1 or min(b1, b2) > 1) and bool(limit)
            and b1 + b2 + (t - 1).bit_length() > limit)


def _past_limit_error(what, col):
    return ParseError(
        f"{what} past the {sys.get_int_max_str_digits()}-digit limit", col)


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries a 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.column = column


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+\s*/\s*\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))")


def _tokenize(src):
    """Yield the tokens of src as the parser asks for them, the last one
    ("end", None, column): text past a refusal is never read."""
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            col = len(src) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col)
        col = m.start(m.lastgroup) + 1
        kind = m.lastgroup
        text = m.group(kind)
        if kind in ("rat", "int"):
            try:
                num, den = (map(int, text.split("/")) if kind == "rat"
                            else (int(text), 1))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal too long", col) from None
            if den == 0:
                raise ParseError("zero denominator", col)
            yield ("num", Fraction(num, den), col)
        elif kind == "name":
            yield ("name", text, col)
        else:
            yield (text, text, col)
        pos = m.end()
    yield ("end", None, len(src) + 1)


class _Parser:
    def __init__(self, src, variables):
        self.tokens = _tokenize(src)
        self.next = None  # the token peeked at, not yet taken
        self.depth = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.d = len(self.variables)

    def peek(self):
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
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self):
        acc = {}
        self.term(acc, _ONE)
        while self.peek()[0] in ("+", "-"):
            self.term(acc, _ONE if self.advance()[0] == "+" else _MINUS_ONE)
        return Poly._trusted(acc)

    def term(self, acc, sign):
        """acc += sign * (the next term), in place.  Plain factors multiply
        into one coefficient and one exponent vector; only the Poly
        factors of parentheses are multiplied as polynomials."""
        coeff, exps, poly = sign, [0] * self.d, None
        while True:
            f = self.factor()
            if type(f) is Poly:
                if poly is not None:
                    if MAX_POWER_TERMS < min(
                            len(poly.terms) * len(f.terms),
                            comb(self.d + poly.degree() + f.degree(), self.d)):
                        raise ParseError(f"product may have more than "
                                         f"{MAX_POWER_TERMS} terms", col)
                    if _product_past_limit(
                            max(map(_bits, poly.terms.values()), default=0),
                            max(map(_bits, f.terms.values()), default=0),
                            min(len(poly.terms), len(f.terms))):
                        raise _past_limit_error("product", col)
                poly = f if poly is None else poly * f
            else:
                c, i, n = f
                if c is not None:
                    if _product_past_limit(_bits(coeff), _bits(c), 1):
                        raise _past_limit_error("product", col)
                    coeff *= c
                if i is not None:
                    exps[i] += n
            if self.peek()[0] != "*":
                break
            col = self.advance()[2]
        mono = _trusted_monomial(exps)
        if poly is None:
            bump(acc, mono, coeff)
        else:
            for m, c in poly.terms.items():
                bump(acc, m * mono, c * coeff)

    def factor(self):
        """A factor with its unary signs and powers: a plain factor as
        (coefficient or None for 1, variable index or None, exponent), a
        parenthesized one as a Poly.  Each unary sign opens a level that
        may take one more power: -x1^2^3 is (-(x1^2))^3."""
        signs = []
        while self.peek()[0] in ("+", "-"):
            kind, _, col = self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING}", col)
            signs.append(kind)
        f = self.power(self.atom())
        for kind in reversed(signs):
            if kind == "-":
                if type(f) is Poly:
                    f = -f
                else:
                    c, i, n = f
                    f = (-c if c is not None else _MINUS_ONE, i, n)
            f = self.power(f)
        self.depth -= len(signs)
        return f

    def power(self, f):
        """f ^ n when a power follows: a plain factor's coefficient and
        exponent are raised directly, a Poly by repeated squaring."""
        if self.peek()[0] != "^":
            return f
        caret = self.advance()
        tok = self.advance()
        if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
            raise ParseError("exponent must be a non-negative integer",
                             tok[2] if tok[0] != "end" else caret[2])
        n = int(tok[1])
        # the coefficients of f: a plain factor's one, None standing for 1
        cs = f.terms.values() if type(f) is Poly else (f[0] or _ONE,)
        t = len(cs)  # f^n of a sum has n + 1 terms or more: no comb
        if t > 1 and (n >= MAX_POWER_TERMS or MAX_POWER_TERMS < min(
                comb(t + n - 1, n), comb(self.d + n * f.degree(), self.d))):
            raise ParseError(f"power of a sum may have more than "
                             f"{MAX_POWER_TERMS} terms", tok[2])
        bits = max(map(_bits, cs), default=0) + (t.bit_length() if t > 1 else 0)
        limit = sys.get_int_max_str_digits()  # 0 when there is none
        if limit and bits > 1 and n * bits > limit:  # bits <= 1: 0, 1, -1
            raise _past_limit_error(
                f"power of a {'sum' if t > 1 else 'number'}", tok[2])
        if type(f) is not Poly:
            c, i, e = f
            return (c ** n if c is not None else None, i, e * n)
        # repeated squaring: O(log n) products
        out = Poly.constant(self.d, 1)
        while n:
            if n & 1:
                out = out * f
            n >>= 1
            if n:
                f = f * f
        return out

    def atom(self):
        kind, value, col = self.advance()
        if kind == "num":
            return (value, None, 0)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown identifier {value!r}", col)
            return (None, self.index[value], 1)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING}", col)
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        if kind == "end":
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected token {value!r}", col)


def parse_poly(src, variables):
    """Parse `src` into a Poly over the given ordered variable names."""
    if not isinstance(src, str):
        raise ParseError(f"expected text, got {type(src).__name__}", 1)
    return _Parser(src, variables).parse()
