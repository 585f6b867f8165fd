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
Every product and every power passes through one bound, _Parser.limit.
It measures each operand, a Fraction or a Poly, by its terms t, its
degree g and its bits b (the bit length of its longest numerator or
denominator), and with L int()'s digit limit on literals,
sys.get_int_max_str_digits(), it refuses

    x * y   when t1, t2 > 1 and min(t1*t2, C(d+g1+g2, d)) > MAX_POWER_TERMS,
            or when b1 + b2 + ceil(log2 min(t1, t2)) > L, unless one factor
            has one term and one has only coefficients 1 and -1;
    x ^ n   of a sum (t > 1) when n >= MAX_POWER_TERMS, when
            min(C(t+n-1, n), C(d+n*g, d)) > MAX_POWER_TERMS or when
            n*(b + bit length of t) > L; of one term when b > 1 and n*b > L.

A term bounds its plain coefficient times its parenthesized product at
each "*" once both exist, so the leftmost refusal is the one reported.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from .algebra import Poly, _trusted_monomial, bump


MAX_NESTING = 100
MAX_POWER_TERMS = 128  # (x1 + 7654321/1234567)^127 parses in about 0.2 s
QUOTE_CHARS = 40
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def quoted(value):
    """repr(value) for an error line; a longer one is cut to its first
    QUOTE_CHARS characters and followed by its length, so that refused
    input of any size gives a short line."""
    text = repr(value)
    if len(text) <= QUOTE_CHARS:
        return text
    return f"{text[:QUOTE_CHARS]}... ({len(text)} characters)"


def _size(v):
    """A Fraction's or a Poly's size estimate (terms, degree, bits)."""
    if type(v) is Fraction:
        return 1, 0, max(v.numerator.bit_length(), v.denominator.bit_length())
    return len(v.terms), v.degree(), max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for c in v.terms.values()), default=0)


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

    def nest(self, col):
        """Open one more level of parentheses or unary signs, at col."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING}", col)

    def expr(self):
        acc = {}
        self.term(acc, _ONE)
        while self.peek()[0] in ("+", "-"):
            self.term(acc, _ONE if self.advance()[0] == "+" else _MINUS_ONE)
        return Poly._trusted(acc)

    def term(self, acc, sign):
        """acc += sign * (the next term), in place.  Plain factors multiply
        into one coefficient and one exponent vector; only the Poly
        factors of parentheses are multiplied as polynomials.  The first
        factor multiplies only sign, which no bound refuses, so it needs
        no column."""
        coeff, exps, poly, col = sign, [0] * self.d, None, None
        while True:
            f = self.factor()
            if type(f) is Poly:
                if poly is not None:
                    self.limit(col, poly, f)
                    f = poly * f
                poly = f
            else:
                c, i, n = f
                if c is not None:
                    self.limit(col, coeff, c)
                    coeff *= c
                if i is not None:
                    exps[i] += n
            if poly is not None:
                self.limit(col, coeff, poly)
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
            self.nest(col)
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
        exponent are raised directly, a Poly by square and multiply."""
        if self.peek()[0] != "^":
            return f
        caret = self.advance()
        tok = self.advance()
        if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
            raise ParseError("exponent must be a non-negative integer",
                             tok[2] if tok[0] != "end" else caret[2])
        n = int(tok[1])
        self.limit(tok[2], f if type(f) is Poly else f[0] or _ONE, n=n)
        if type(f) is not Poly:
            c, i, e = f
            return (c if c is None else c ** n, i, e * n)
        out = Poly.constant(self.d, 1)
        for bit in bin(n)[2:]:  # square and multiply: O(log n) products
            out = out * out
            if bit == "1":
                out = out * f
        return out

    def limit(self, col, x, y=None, n=0):
        """Refuse x * y, or x ^ n when y is None, with a ParseError at col
        when the result may have more than MAX_POWER_TERMS terms or a
        coefficient past the digit limit (the bounds of the module
        docstring).  x and y are Fractions or Polys."""
        t, g, b = _size(x)
        if t <= 1 and b <= 1:
            return  # x is 0, 1, -1 or +-(a monomial): y need not be measured
        u, h, c = (t, g, b) if y is None else _size(y)
        if min(t, u) <= 1 and min(b, c) <= 1:
            return  # one factor has one term, one only coefficients +-1
        if y is None:
            what = f"power of a {'sum' if t > 1 else 'number'}"
            many = t > 1 and (n >= MAX_POWER_TERMS or MAX_POWER_TERMS < min(
                comb(t + n - 1, n), comb(self.d + n * g, self.d)))
            bits = n * (b + (t.bit_length() if t > 1 else 0))
        else:
            what = "product"
            many = min(t, u) > 1 and MAX_POWER_TERMS < min(
                t * u, comb(self.d + g + h, self.d))
            bits = b + c + (min(t, u) - 1).bit_length()
        if many:
            raise ParseError(
                f"{what} may have more than {MAX_POWER_TERMS} terms", col)
        digits = sys.get_int_max_str_digits()  # 0 when there is none
        if digits and bits > digits:
            raise ParseError(f"{what} past the {digits}-digit limit", col)

    def atom(self):
        kind, value, col = self.advance()
        if kind == "num":
            return (value, None, 0)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown identifier {quoted(value)}", col)
            return (None, self.index[value], 1)
        if kind == "(":
            self.nest(col)
            p = self.expr()
            tok = self.advance()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2])
            self.depth -= 1
            return p
        if kind == "end":
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected token {quoted(value)}", col)


def parse_poly(src, variables):
    """Parse `src` into a Poly over the given ordered variable names."""
    if not isinstance(src, str):
        raise ParseError(f"expected text, got {type(src).__name__}", 1)
    parser = _Parser(src, variables)
    p = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected token {quoted(tok[1])}", tok[2])
    return p
