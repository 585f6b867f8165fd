"""Hopf-algebra operations of A = k[x1..xd] and the reciprocity transforms.

The comultiplication is the unique algebra morphism with primitive
generators, so on a monomial basis every coproduct is a finite
binomial-weighted splitting sum.  The q<->I and p<->J transforms are the
mutually inverse signed splitting sums that characterize co-Poisson and
Poisson structures on A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add

from .algebra import (
    DegreeBoundError,
    Poly,
    Tensor2,
    Tensor3,
    _trusted_monomial,
    axpy,
    bump,
    cached_scaling,
    frozen_entries,
    splittings,
    t2_swap,
)


@lru_cache(maxsize=4096)
def comult(a):
    """Delta(x^a) = sum over b <= a of binom(a, b) x^b (x) x^(a-b).
    Memoized: the result is shared, do not mutate it."""
    return Tensor2._trusted({bc: coeff for coeff, bc in splittings(a, 2)})


def mul_comult(out, v, c, w):
    """out += w * v Delta(x^c) in place on a plain dict, for a Tensor2 v
    over the variables of c: each product term is bumped in directly."""
    for coeff, (c1, c2) in splittings(c, 2):
        cw = coeff * w
        for (a, b), cv in v.terms.items():
            bump(out, (_trusted_monomial(map(add, a, c1)),
                       _trusted_monomial(map(add, b, c2))),
                 cv if cw == 1 else cv * cw)


def comult_poly(f):
    """Linear extension of comult to polynomials."""
    out = {}
    for m, c in f.terms.items():
        axpy(out, comult(m).terms, c)
    return Tensor2._trusted(out)


def counit(f):
    """epsilon: the coefficient of the empty monomial."""
    for m, c in f.terms.items():
        if m.degree == 0:
            return c
    return Fraction(0)


def antipode(f):
    """S: x^a -> (-1)^|a| x^a, extended linearly."""
    return Poly._trusted(
        {m: -c if m.degree % 2 else c for m, c in f.terms.items()})


def antipode_tensor2(t):
    """(S (x) S) applied to a Tensor2."""
    return Tensor2._trusted({
        k: -c if (k[0].degree + k[1].degree) % 2 else c
        for k, c in t.terms.items()})


def cocommutator(a):
    """Delta' = Delta - t2.Delta; identically zero on A (cocommutativity)."""
    d = comult(a)
    return d - t2_swap(d)


@dataclass(frozen=True)
class QMap:
    """A linear map q: A -> A(x)A stored on monomials of degree <= bound.

    Missing assignments are zero.  Requests beyond the bound fail loudly:
    the truncation must stay visible.  Frozen: `assignments` is a read-only
    copy whose keys are checked against d and the bound at construction,
    so a lookup that hits is in bound, and scaled() is made once.
    """

    d: int
    domain_degree_bound: int
    assignments: dict = field(default_factory=dict)
    _scaled: tuple = field(default=None, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        frozen_entries(self, "assignments", "assignment")

    @staticmethod
    def from_scaled(t, D):
        """The plain QMap t / D, with (t, D) as its scaled(): t is int-valued
        and D any common denominator of t / D, not necessarily the least."""
        q = QMap(t.d, t.domain_degree_bound,
                 {m: v / D for m, v in t.assignments.items()})
        object.__setattr__(q, "_scaled", (t, D))
        return q

    def __call__(self, m):
        v = self.assignments.get(m)
        if v is None:
            if m.degree > self.domain_degree_bound:
                raise DegreeBoundError(
                    f"q requested at degree {m.degree}, table bound is "
                    f"{self.domain_degree_bound}")
            return Tensor2()
        return v

    def scaled(self):
        """(D q, D), made once: D the lcm of the denominators, D q int-valued."""
        return cached_scaling(
            self, (c for t in self.assignments.values()
                   for c in t.terms.values()),
            lambda scale: QMap(self.d, self.domain_degree_bound, {
                m: Tensor2._trusted({k: scale(c) for k, c in t.terms.items()})
                for m, t in self.assignments.items()}))


@dataclass
class PMap:
    """A linear map p: A(x)A -> A stored on monomial pairs within bound.

    Not frozen, unlike QMap: callers fill `assignments` after building the
    map, so it keeps no scaled copy that could go stale."""

    d: int
    domain_degree_bound: int
    assignments: dict = field(default_factory=dict)

    def __call__(self, a, b):
        if a.degree > self.domain_degree_bound or b.degree > self.domain_degree_bound:
            raise DegreeBoundError(
                f"p requested at degrees ({a.degree},{b.degree}), table bound "
                f"is {self.domain_degree_bound}")
        return self.assignments.get((a, b)) or Poly()


def _q_i_sum(table, a, signed):
    """table(a_1) Delta(a_2), times (-1)^|a_2| when `signed`.  The first
    splitting is (a, 1): the table's bound check runs before any work."""
    out = {}
    for coeff, (b, c) in splittings(a, 2):
        v = table(b)
        if v:
            mul_comult(out, v, c, -coeff if signed and c.degree % 2 else coeff)
    return Tensor2._trusted(out)


def q_from_i(I, a):
    """q(a) = I(a_1) Delta(a_2): binomial-weighted componentwise products."""
    return _q_i_sum(I, a, False)


def i_from_q(q, a):
    """I(a) = (-1)^|a_2| q(a_1) Delta(a_2): the inverse signed sum, run on
    the int-valued D q of q.scaled() and divided by D once."""
    t, D = q.scaled()
    return _q_i_sum(t, a, True) / D


def _p_j_sum(table, a, b, signed):
    """table(a_1 (x) b_1) a_2 b_2, times (-1)^(|a_2|+|b_2|) when `signed`.

    table(a, b) runs the bound check once: every a_1, b_1 lies within the
    degrees of a, b, so the other entries are read from the assignments
    directly.  b's splittings are listed once, with their degrees."""
    table(a, b)
    entry = table.assignments.get
    b_splits = [(cb, b1, b2, b2.degree) for cb, (b1, b2) in splittings(b, 2)]
    out = {}
    for ca, (a1, a2) in splittings(a, 2):
        da = a2.degree
        for cb, b1, b2, db in b_splits:
            v = entry((a1, b1))
            if v:
                w = -ca * cb if signed and (da + db) % 2 else ca * cb
                a2b2 = _trusted_monomial(map(add, a2, b2))
                for m, c in v.terms.items():
                    bump(out, _trusted_monomial(map(add, m, a2b2)),
                         c if w == 1 else w * c)
    return Poly._trusted(out)


def p_from_j(J, a, b):
    """p(a (x) b) = J(a_1 (x) b_1) a_2 b_2."""
    return _p_j_sum(J, a, b, False)


def j_from_p(p, a, b):
    """J(a (x) b) = (-1)^(|a_2|+|b_2|) p(a_1 (x) b_1) a_2 b_2."""
    return _p_j_sum(p, a, b, True)


# Tensor3-valued helpers used by the axiom checks.

def delta_left(t):
    """(Delta (x) 1) applied to a Tensor2: q_left with q = Delta."""
    return q_left(t, comult)


def delta_right(t):
    """(1 (x) Delta) applied to a Tensor2: q_right with q = Delta."""
    return q_right(t, comult)


def q_left(t, q):
    """(q (x) 1) applied to a Tensor2; needs q at the left tensor factors."""
    out = {}
    for (u, v), c in t.terms.items():
        for (w1, w2), cq in q(u).terms.items():
            bump(out, (w1, w2, v), c * cq)
    return Tensor3._trusted(out)


def q_right(t, q):
    """(1 (x) q) applied to a Tensor2."""
    out = {}
    for (u, v), c in t.terms.items():
        for (w1, w2), cq in q(v).terms.items():
            bump(out, (u, w1, w2), c * cq)
    return Tensor3._trusted(out)


def q_outer_left_degree(t):
    """Largest left-factor degree appearing in a Tensor2 (for bound checks)."""
    return max((u.degree for (u, _v) in t.terms), default=0)
