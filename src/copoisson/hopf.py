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

from .algebra import (
    DegreeBoundError,
    Poly,
    Tensor2,
    Tensor3,
    axpy,
    bump,
    splittings,
    t2_swap,
    tensor2_mul,
)


def comult(a):
    """Delta(x^a) = sum over b <= a of binom(a, b) x^b (x) x^(a-b)."""
    return Tensor2._trusted({bc: coeff for coeff, bc in splittings(a, 2)})


def comult_poly(f):
    """Linear extension of comult to polynomials."""
    out = {}
    for m, c in f.terms.items():
        axpy(out, comult(m).terms, c)
    return Tensor2._trusted(out)


def comult2(a):
    """Delta^(2)(x^a): the trinomial splitting sum in A(x)A(x)A."""
    return Tensor3._trusted({bce: coeff for coeff, bce in splittings(a, 3)})


def counit(f):
    """epsilon: the coefficient of the empty monomial."""
    for m, c in f.terms.items():
        if m.degree == 0:
            return c
    return Fraction(0)


def antipode(f):
    """S: x^a -> (-1)^|a| x^a, extended linearly."""
    return Poly({m: -c if m.degree % 2 else c for m, c in f.terms.items()})


def antipode_tensor2(t):
    """(S (x) S) applied to a Tensor2."""
    return Tensor2({
        k: -c if (k[0].degree + k[1].degree) % 2 else c
        for k, c in t.terms.items()})


def cocommutator(a):
    """Delta' = Delta - t2.Delta; identically zero on A (cocommutativity)."""
    d = comult(a)
    return d - t2_swap(d)


@dataclass
class QMap:
    """A linear map q: A -> A(x)A stored on monomials of degree <= bound.

    Missing assignments are zero.  Requests beyond the bound fail loudly:
    the truncation must stay visible.
    """

    d: int
    domain_degree_bound: int
    assignments: dict = field(default_factory=dict)

    def __call__(self, m):
        if m.degree > self.domain_degree_bound:
            raise DegreeBoundError(
                f"q requested at degree {m.degree}, table bound is "
                f"{self.domain_degree_bound}", required=m.degree)
        return self.assignments.get(m, Tensor2())

    def apply_poly(self, f):
        out = {}
        for m, c in f.terms.items():
            axpy(out, self(m).terms, c)
        return Tensor2._trusted(out)


@dataclass
class PMap:
    """A linear map p: A(x)A -> A stored on monomial pairs within bound."""

    d: int
    domain_degree_bound: int
    assignments: dict = field(default_factory=dict)

    def __call__(self, a, b):
        if a.degree > self.domain_degree_bound or b.degree > self.domain_degree_bound:
            raise DegreeBoundError(
                f"p requested at degrees ({a.degree},{b.degree}), table bound "
                f"is {self.domain_degree_bound}",
                required=max(a.degree, b.degree))
        return self.assignments.get((a, b), Poly())


def q_from_i(I, a):
    """q(a) = I(a_1) Delta(a_2): binomial-weighted componentwise products."""
    if a.degree > I.domain_degree_bound:
        raise DegreeBoundError(
            f"I needed up to degree {a.degree}, table bound is "
            f"{I.domain_degree_bound}", required=a.degree)
    out = {}
    for coeff, (b, c) in splittings(a, 2):
        iv = I(b)
        if iv:
            axpy(out, tensor2_mul(iv, comult(c)).terms, coeff)
    return Tensor2._trusted(out)


def i_from_q(q, a):
    """I(a) = (-1)^|a_2| q(a_1) Delta(a_2): the inverse signed sum."""
    if a.degree > q.domain_degree_bound:
        raise DegreeBoundError(
            f"q needed up to degree {a.degree}, table bound is "
            f"{q.domain_degree_bound}", required=a.degree)
    out = {}
    for coeff, (b, c) in splittings(a, 2):
        qv = q(b)
        if qv:
            sign = -1 if c.degree % 2 else 1
            axpy(out, tensor2_mul(qv, comult(c)).terms, sign * coeff)
    return Tensor2._trusted(out)


def p_from_j(J, a, b):
    """p(a (x) b) = J(a_1 (x) b_1) a_2 b_2."""
    if a.degree > J.domain_degree_bound or b.degree > J.domain_degree_bound:
        raise DegreeBoundError(
            f"J needed at degrees ({a.degree},{b.degree}), table bound is "
            f"{J.domain_degree_bound}", required=max(a.degree, b.degree))
    out = {}
    for ca, (a1, a2) in splittings(a, 2):
        for cb, (b1, b2) in splittings(b, 2):
            jv = J(a1, b1)
            if jv:
                axpy(out, (jv * Poly.from_monomial(a2 * b2)).terms, ca * cb)
    return Poly._trusted(out)


def j_from_p(p, a, b):
    """J(a (x) b) = (-1)^(|a_2|+|b_2|) p(a_1 (x) b_1) a_2 b_2."""
    if a.degree > p.domain_degree_bound or b.degree > p.domain_degree_bound:
        raise DegreeBoundError(
            f"p needed at degrees ({a.degree},{b.degree}), table bound is "
            f"{p.domain_degree_bound}", required=max(a.degree, b.degree))
    out = {}
    for ca, (a1, a2) in splittings(a, 2):
        for cb, (b1, b2) in splittings(b, 2):
            pv = p(a1, b1)
            if pv:
                sign = -1 if (a2.degree + b2.degree) % 2 else 1
                axpy(out, (pv * Poly.from_monomial(a2 * b2)).terms,
                     sign * ca * cb)
    return Poly._trusted(out)


# Tensor3-valued helpers used by the axiom checks.

def delta_left(t):
    """(Delta (x) 1) applied to a Tensor2."""
    out = {}
    for (u, v), c in t.terms.items():
        for coeff, (u1, u2) in splittings(u, 2):
            bump(out, (u1, u2, v), c * coeff)
    return Tensor3._trusted(out)


def delta_right(t):
    """(1 (x) Delta) applied to a Tensor2."""
    out = {}
    for (u, v), c in t.terms.items():
        for coeff, (v1, v2) in splittings(v, 2):
            bump(out, (u, v1, v2), c * coeff)
    return Tensor3._trusted(out)


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
