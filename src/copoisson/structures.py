"""Concrete (co)Poisson structure objects on k[x1..xd].

Bracket tables drive Poisson brackets through the partial-derivative
formula; I-tables drive cobrackets through q(a) = I(a_1) Delta(a_2).  The
factorial rescaling between the two sides realizes the bijection between
Poisson structures on power series and co-Poisson structures on
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    DegreeBoundError,
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    axpy,
    bump,
    factorial,
    monomials,
    splittings,
)
from .hopf import QMap, q_from_i


@dataclass(frozen=True)
class SkewMatrix:
    """A d x d skew-symmetric rational matrix, stored as a tuple of rows."""

    entries: tuple

    @classmethod
    def from_rows(cls, rows):
        d = len(rows)
        ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
        for row in ent:
            if len(row) != d:
                raise ValueError("skew matrix must be square")
        for i in range(d):
            if ent[i][i]:
                raise ValueError(f"nonzero diagonal entry at ({i},{i})")
            for j in range(i + 1, d):
                if ent[i][j] != -ent[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) not skew")
        return cls(ent)

    @classmethod
    def from_upper(cls, d, upper):
        """Build from {(i, j): value} with 0 <= i < j < d."""
        rows = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), v in upper.items():
            if not 0 <= i < j < d:
                raise ValueError(f"upper entries must have i<j, got ({i},{j})")
            v = Fraction(v)
            rows[i][j] = v
            rows[j][i] = -v
        return cls.from_rows(rows)

    @classmethod
    def zero(cls, d):
        return cls(tuple((Fraction(0),) * d for _ in range(d)))

    @property
    def d(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_zero(self):
        return all(not v for row in self.entries for v in row)

    def to_tensor2(self):
        """sum lambda^ij x_i (x) x_j as an element of the skew space."""
        d = self.d
        out = {}
        for i in range(d):
            for j in range(d):
                v = self.entries[i][j]
                if v:
                    out[(Monomial.variable(d, i), Monomial.variable(d, j))] = v
        return Tensor2(out)


@dataclass
class ITable:
    """The family {lambda_a^ij}: monomials -> skew matrices, i.e. I: A -> the
    span of the skew generator 2-tensors.  Absent rows are zero."""

    d: int
    domain_degree_bound: int
    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        for m, mat in self.rows.items():
            if len(m) != self.d or mat.d != self.d:
                raise DimensionMismatchError(
                    f"row {m!r} inconsistent with d={self.d}")
            if m.degree > self.domain_degree_bound:
                raise DegreeBoundError(
                    f"row {m!r} beyond bound {self.domain_degree_bound}")

    def matrix(self, m):
        return self.rows.get(m, SkewMatrix.zero(self.d))

    def __call__(self, m):
        if m.degree > self.domain_degree_bound:
            raise DegreeBoundError(
                f"I requested at degree {m.degree}, table bound is "
                f"{self.domain_degree_bound}", required=m.degree)
        return self.matrix(m).to_tensor2()

    def support_degrees(self):
        return sorted({m.degree for m, mat in self.rows.items()
                       if not mat.is_zero()})

    def max_support_degree(self):
        degs = self.support_degrees()
        return degs[-1] if degs else -1


@dataclass
class BracketTable:
    """Skew family f_ij of polynomial (or degree-truncated series) entries.

    Only i<j entries are stored; f_ji = -f_ij and f_ii = 0 implicitly.
    truncation_degree None means polynomial mode; an integer N means
    power-series mode with arithmetic reduced modulo degree > N.
    """

    d: int
    f: dict = field(default_factory=dict)
    truncation_degree: int | None = None

    def __post_init__(self):
        for (i, j) in self.f:
            if not 0 <= i < j < self.d:
                raise ValueError(f"bracket keys must have 0 <= i < j < d, got ({i},{j})")
        if self.truncation_degree is not None:
            self.f = {k: p.truncate(self.truncation_degree)
                      for k, p in self.f.items()}

    @property
    def series_mode(self):
        return self.truncation_degree is not None

    def entry(self, i, j):
        """f_ij with the skew extension for arbitrary index order."""
        if i == j:
            return Poly()
        if i < j:
            return self.f.get((i, j), Poly())
        return -self.f.get((j, i), Poly())

    def _reduce(self, p):
        if self.series_mode:
            return p.truncate(self.truncation_degree)
        return p


def poisson_bracket(B, f, g):
    """{f, g} = sum_ij (df/dx_i)(dg/dx_j) f_ij (truncated in series mode)."""
    out = {}
    for (i, j), fij in B.f.items():
        if fij.is_zero():
            continue
        term = (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i)) * fij
        axpy(out, term.terms)
    return B._reduce(Poly._trusted(out))


def bracket_monomials(B, a, b):
    return poisson_bracket(B, Poly.from_monomial(a), Poly.from_monomial(b))


def make_copoisson(I):
    """Materialize q(a) = I(a_1) Delta(a_2) on all monomials within bound."""
    assignments = {}
    for m in monomials(I.d, I.domain_degree_bound):
        v = q_from_i(I, m)
        if v:
            assignments[m] = v
    return QMap(d=I.d, domain_degree_bound=I.domain_degree_bound,
                assignments=assignments)


@dataclass
class StructConsts:
    """Structure constants lambda^ij_l of a linear bracket {x_i,x_j} = sum lambda^ij_l x_l.

    Stored on i<j only; skew in (i, j)."""

    d: int
    lam: dict = field(default_factory=dict)

    def __post_init__(self):
        for (i, j, l) in self.lam:
            if not (0 <= i < j < self.d and 0 <= l < self.d):
                raise ValueError(f"bad structure-constant index ({i},{j},{l})")
        self.lam = {k: Fraction(v) for k, v in self.lam.items() if Fraction(v)}

    def get(self, i, j, l):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.lam.get((i, j, l), Fraction(0))
        return -self.lam.get((j, i, l), Fraction(0))


def linear_poisson(c):
    """BracketTable with f_ij = sum_l lambda^ij_l x_l."""
    f = {}
    for i in range(c.d):
        for j in range(i + 1, c.d):
            p = Poly({Monomial.variable(c.d, l): c.get(i, j, l)
                      for l in range(c.d) if c.get(i, j, l)})
            if p:
                f[(i, j)] = p
    return BracketTable(d=c.d, f=f)


def itable_from_consts(c):
    """I(x_s) = sum_ij lambda^ij_s x_i (x) x_j, zero on all other monomials."""
    rows = {}
    for s in range(c.d):
        upper = {}
        for i in range(c.d):
            for j in range(i + 1, c.d):
                v = c.get(i, j, s)
                if v:
                    upper[(i, j)] = v
        if upper:
            rows[Monomial.variable(c.d, s)] = SkewMatrix.from_upper(c.d, upper)
    return ITable(d=c.d, domain_degree_bound=1, rows=rows)


def copoisson_from_series(B):
    """ITable with entry at monomial a equal to a! * (coefficient of a in f_ij)."""
    if not B.series_mode:
        raise ValueError("copoisson_from_series requires a series-mode bracket table")
    N = B.truncation_degree
    rows = {}
    for m in monomials(B.d, N):
        fac = factorial(m)
        upper = {}
        for (i, j), fij in B.f.items():
            v = fij.coeff(m)
            if v:
                upper[(i, j)] = fac * v
        if upper:
            rows[m] = SkewMatrix.from_upper(B.d, upper)
    return ITable(d=B.d, domain_degree_bound=N, rows=rows)


def series_from_copoisson(I):
    """Inverse of copoisson_from_series: f_ij = sum_a (entry_a / a!) a."""
    f = {}
    for i in range(I.d):
        for j in range(i + 1, I.d):
            terms = {}
            for m, mat in I.rows.items():
                v = mat[i, j]
                if v:
                    terms[m] = v / factorial(m)
            p = Poly(terms)
            if p:
                f[(i, j)] = p
    return BracketTable(d=I.d, f=f, truncation_degree=I.domain_degree_bound)


def is_rational(I):
    """Whether rows vanish from some degree n <= bound on, and the least such n.

    Only degrees <= the table bound are inspected; a pass certifies the
    stored data, not behavior beyond the bound.
    """
    top = I.max_support_degree()
    least = top + 1
    if least <= I.domain_degree_bound:
        return True, least
    return False, None


def _embed(m, left_pad, right_pad):
    return Monomial((0,) * left_pad + tuple(m) + (0,) * right_pad)


def tensor_copoisson(qC, qD):
    """The cobracket on C(x)D = k[x's, y's] built from two cobrackets.

    q(a.b) = shuffle(qC(a) (x) Delta(b)) + shuffle(Delta(a) (x) qD(b)),
    under the identification of the monomial a(x)b with the product a.b in
    the combined variables.
    """
    if qC.domain_degree_bound != qD.domain_degree_bound:
        raise DegreeBoundError(
            f"bound mismatch: {qC.domain_degree_bound} vs {qD.domain_degree_bound}")
    d1, d2 = qC.d, qD.d
    d = d1 + d2
    M = qC.domain_degree_bound
    assignments = {}
    for m in monomials(d, M):
        a = Monomial(m[:d1])
        b = Monomial(m[d1:])
        out = {}
        for (u, v), cq in qC(a).terms.items():
            for cb, (b1, b2) in splittings(b, 2):
                key = (_embed(u, 0, d2) * _embed(b1, d1, 0),
                       _embed(v, 0, d2) * _embed(b2, d1, 0))
                bump(out, key, cq * cb)
        for ca, (a1, a2) in splittings(a, 2):
            for (u, v), cq in qD(b).terms.items():
                key = (_embed(a1, 0, d2) * _embed(u, d1, 0),
                       _embed(a2, 0, d2) * _embed(v, d1, 0))
                bump(out, key, ca * cq)
        if out:
            assignments[m] = Tensor2._trusted(out)
    return QMap(d=d, domain_degree_bound=M, assignments=assignments)


def tensor_poisson(BA, BB):
    """Block bracket on the (d1+d2)-variable algebra; cross-block brackets zero."""
    if BA.series_mode or BB.series_mode:
        raise ValueError("tensor_poisson is defined in polynomial mode only")
    d1, d2 = BA.d, BB.d
    f = {}
    for (i, j), p in BA.f.items():
        f[(i, j)] = Poly({_embed(m, 0, d2): c for m, c in p.terms.items()})
    for (i, j), p in BB.f.items():
        f[(d1 + i, d1 + j)] = Poly({_embed(m, d1, 0): c
                                    for m, c in p.terms.items()})
    return BracketTable(d=d1 + d2, f=f)
