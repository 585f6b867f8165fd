"""Concrete (co)Poisson structure objects on k[x1..xd].

Bracket tables drive Poisson brackets through the closed form of the
bracket of two monomials, memoized per table; I-tables drive cobrackets
through q(a) = I(a_1) Delta(a_2).  The factorial rescaling between the two
sides realizes the bijection between Poisson structures on power series
and co-Poisson structures on polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebra import (
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    axpy,
    bump,
    cached_scaling,
    factorial,
    frozen_entries,
    generators,
    monomials,
)
from .hopf import PMap, QMap, q_from_i


class SkewMatrix(Tensor2):
    """The skew 2-tensor sum_{i<j} lambda^ij (x_i (x) x_j - x_j (x) x_i) in
    d variables, indexed as the d x d skew matrix (lambda^ij): `terms`
    holds lambda^ij at (x_i, x_j) and -lambda^ij at (x_j, x_i) for each
    nonzero lambda^ij, and nothing else.  It compares as a Tensor2, and
    its sums, negatives and multiples are plain Tensor2s."""

    __slots__ = ("d",)

    @classmethod
    def from_rows(cls, rows):
        d = len(rows)
        ent = [[Fraction(v) for v in row] for row in rows]
        for i, row in enumerate(ent):
            if len(row) != d:
                raise ValueError("skew matrix must be square")
            for j in range(i + 1):  # j == i: a nonzero diagonal entry
                if row[j] != -ent[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) not skew")
        return cls.from_upper(d, {(i, j): ent[i][j] for i in range(d)
                                  for j in range(i + 1, d)})

    @classmethod
    def from_upper(cls, d, upper):
        """Build from {(i, j): value} with 0 <= i < j < d."""
        g = generators(d)
        terms = {}
        for (i, j), v in upper.items():
            if not 0 <= i < j < d:
                raise ValueError(f"upper entries must have i<j, got ({i},{j})")
            v = Fraction(v)
            if v:
                terms[g[i], g[j]] = v
                terms[g[j], g[i]] = -v
        mat = object.__new__(cls)
        mat.terms, mat.d = terms, d
        return mat

    @classmethod
    def zero(cls, d):
        return cls.from_upper(d, {})

    _trusted = Tensor2._trusted

    def __getitem__(self, ij):
        i, j = ij
        g = generators(self.d)
        return self.terms.get((g[i], g[j]), Fraction(0))

    def upper(self):
        """The nonzero entries (i, j, lambda^ij), i < j, in (i, j) order."""
        entries = ((u.index(1), v.index(1), c)
                   for (u, v), c in self.terms.items())
        return sorted(e for e in entries if e[0] < e[1])


@dataclass(frozen=True)
class ITable(QMap):
    """The family {lambda_a^ij}: monomials -> skew matrices, i.e. I: A -> the
    span of the skew generator 2-tensors, a QMap of that span.  Absent rows
    are zero.  Frozen: `rows` is a read-only copy checked at construction,
    and it is also `assignments`, which QMap's lookup, bound check and
    scaled() read, so each row is stored once, as its SkewMatrix."""

    assignments: dict = field(default=None, init=False, compare=False,
                              repr=False)
    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        # in place of QMap's, which would check and copy the rows again
        frozen_entries(self, "rows", "row")
        for m, mat in self.rows.items():
            if mat.d != self.d:
                raise DimensionMismatchError(
                    f"row {m!r} inconsistent with d={self.d}")
        object.__setattr__(self, "assignments", self.rows)

    def matrix(self, m):
        mat = self.rows.get(m)
        return SkewMatrix.zero(self.d) if mat is None else mat


@dataclass
class BracketTable:
    """Skew family f_ij of polynomial (or degree-truncated series) entries.

    Only i<j entries are stored; f_ji = -f_ij and f_ii = 0 implicitly.
    truncation_degree None means polynomial mode; an integer N means
    power-series mode with arithmetic reduced modulo degree > N.

    `f` and `truncation_degree` are not mutated after __post_init__:
    `_memo` caches the monomial brackets computed from them (see
    bracket_monomials), and `_scaled` the pair scaled() returns.
    """

    d: int
    f: dict = field(default_factory=dict)
    truncation_degree: int | None = None
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)
    _scaled: tuple = field(default=None, init=False, compare=False,
                           repr=False)

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
        p = self.f.get((i, j) if i < j else (j, i)) or Poly()  # f_ii: a miss
        return p if i < j else -p

    def _reduce(self, p):
        if self.series_mode:
            return p.truncate(self.truncation_degree)
        return p

    def scaled(self):
        """(D B, D), made once: D the lcm of the denominators of the f_ij,
        D B int-valued, with its own bracket memo."""
        return cached_scaling(
            self, (c for p in self.f.values() for c in p.terms.values()),
            lambda scale: BracketTable(self.d, {
                ij: Poly._trusted({m: scale(c) for m, c in p.terms.items()})
                for ij, p in self.f.items()}, self.truncation_degree))


def poisson_bracket(B, f, g):
    """{f, g}: the bilinear extension of bracket_monomials."""
    out = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            axpy(out, bracket_monomials(B, a, b).terms, ca * cb)
    return Poly._trusted(out)


def bracket_monomials(B, a, b):
    """{x^a, x^b} = sum_{i<j} (a_i b_j - a_j b_i) x^(a+b-e_i-e_j) f_ij.

    Reduced by B._reduce (truncated in series mode) and memoized in
    B._memo, so each monomial pair is evaluated once per table.  The
    result is shared between callers: do not mutate it.
    """
    key = (a, b)
    val = B._memo.get(key)
    if val is None:
        ab = a * b
        out = {}
        for (i, j), fij in B.f.items():
            w = a[i] * b[j] - a[j] * b[i]
            if w:
                # w != 0 needs x_i and x_j both in ab, so no exponent is negative
                shift = Monomial(e - (k == i) - (k == j)
                                 for k, e in enumerate(ab))
                for m, c in fij.terms.items():
                    bump(out, shift * m, w * c)
        val = B._memo[key] = B._reduce(Poly._trusted(out))
    return val


def pmap_from_bracket(B, N):
    """p(a (x) b) = {a, b} on all monomial pairs of degree <= N."""
    assignments = {}
    for a in monomials(B.d, N):
        for b in monomials(B.d, N):
            val = bracket_monomials(B, a, b)
            if val:
                assignments[(a, b)] = val
    return PMap(d=B.d, domain_degree_bound=N, assignments=assignments)


def make_copoisson(I):
    """Materialize q(a) = I(a_1) Delta(a_2) on all monomials within bound,
    summed on the int-valued D I of I.scaled(); the int sums D q, with D,
    become q's scaled() pair, so q is divided by D once."""
    t, D = I.scaled()
    Dq = {}
    for m in monomials(I.d, I.domain_degree_bound):
        v = q_from_i(t, m)
        if v:
            Dq[m] = v
    return QMap.from_scaled(QMap(I.d, I.domain_degree_bound, Dq), D)


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
    for i, j in combinations(range(c.d), 2):
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
        for i, j in combinations(range(c.d), 2):
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
    for m, mat in I.rows.items():
        fac = factorial(m)
        for i, j, v in mat.upper():
            f.setdefault((i, j), {})[m] = v / fac
    return BracketTable(d=I.d, f={ij: Poly(f[ij]) for ij in sorted(f)},
                        truncation_degree=I.domain_degree_bound)


def _embed(m, left_pad, right_pad):
    return Monomial((0,) * left_pad + tuple(m) + (0,) * right_pad)


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
