"""Small recursive-descent parser for polynomial expressions.

Accepted grammar (no implicit multiplication):

    expr    := term (("+" | "-") term)*
    term    := factor ("*" factor)*
    factor  := atom ("^" integer)?
    atom    := rational | integer | variable | "(" expr ")" | ("+"|"-") atom

Rational literals like 3/4 are single tokens, not a division operator.
Parentheses and unary signs nest at most MAX_NESTING deep, counted
together, so that hostile input ends in a ParseError, not a RecursionError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Monomial, Poly


MAX_NESTING = 100


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries a 1-based column."""

    def __init__(self, message, column):
        super().__init__(f"{message} at column {column}")
        self.column = column


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rat>\d+\s*/\s*\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))")


def _tokenize(src):
    tokens = []
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
            tokens.append(("num", Fraction(num, den), col))
        elif kind == "name":
            tokens.append(("name", text, col))
        else:
            tokens.append((text, text, col))
        pos = m.end()
    tokens.append(("end", None, len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src, variables):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.d = len(self.variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
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
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            p = p + rhs if op == "+" else p - rhs
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self):
        p = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            tok = self.advance()
            if tok[0] != "num" or tok[1].denominator != 1 or tok[1] < 0:
                raise ParseError("exponent must be a non-negative integer",
                                 tok[2] if tok[0] != "end" else caret[2])
            # repeated squaring: O(log n) products, so x1^999999999 is cheap
            n = int(tok[1])
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
        if kind == "num":
            return Poly.constant(self.d, value)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown identifier {value!r}", col)
            return Poly.from_monomial(Monomial.variable(self.d, self.index[value]))
        if kind in ("(", "-", "+"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING}", col)
            if kind == "(":
                p = self.expr()
                self.expect(")")
            elif kind == "-":
                # unary minus binds looser than ^: -x1^2 means -(x1^2)
                p = -self.factor()
            else:
                p = self.factor()
            self.depth -= 1
            return p
        if kind == "end":
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected token {value!r}", col)


def parse_poly(src, variables):
    """Parse `src` into a Poly over the given ordered variable names."""
    return _Parser(src, variables).parse()
