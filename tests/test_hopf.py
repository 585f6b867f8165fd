from fractions import Fraction

import pytest

from copoisson.algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    monomials,
    splittings,
    t2_swap,
    tensor2_mul,
)
from copoisson.hopf import (
    PMap,
    QMap,
    antipode,
    cocommutator,
    comult,
    comult_poly,
    counit,
    i_from_q,
    j_from_p,
    p_from_j,
    q_from_i,
)
from copoisson.checks import (
    check_antipode_coanti,
    check_cojacobi,
    check_cojacobi_coeffs,
    check_coleibniz,
    check_counit_kill,
    check_delta_derivation,
    check_skew,
    check_support_condition,
    cojacobi_affordable_degree,
)
from copoisson.structures import ITable, SkewMatrix, make_copoisson

from conftest import random_bracket, random_itable


def mono(*exps):
    return Monomial(exps)


def comult2(a):
    """Delta^(2)(x^a): the trinomial splitting sum in A(x)A(x)A."""
    return Tensor3._trusted({bce: coeff for coeff, bce in splittings(a, 3)})


def test_comult_examples():
    one = mono(0)
    x = mono(1)
    assert comult(one) == Tensor2.from_pair(one, one)
    assert comult(x) == Tensor2.from_pair(x, one) + Tensor2.from_pair(one, x)
    # Delta(x^2) via the morphism property: oracle is Delta(x)*Delta(x)
    assert comult(mono(2)) == tensor2_mul(comult(x), comult(x))


def test_comult_is_algebra_morphism(rng):
    for _ in range(20):
        d = rng.choice([2, 3])
        a = Monomial(tuple(rng.randint(0, 3) for _ in range(d)))
        b = Monomial(tuple(rng.randint(0, 3) for _ in range(d)))
        assert comult(a * b) == tensor2_mul(comult(a), comult(b))


def test_coassociativity_and_cocommutativity():
    for m in monomials(2, 4):
        t = comult(m)
        assert t2_swap(t) == t
        left = Tensor3()
        right = Tensor3()
        for (u, v), c in t.terms.items():
            for cu, (u1, u2) in splittings(u, 2):
                left = left + Tensor3.from_triple(u1, u2, v, c * cu)
            for cv, (v1, v2) in splittings(v, 2):
                right = right + Tensor3.from_triple(u, v1, v2, c * cv)
        assert left == right == comult2(m)


def test_counit_axiom():
    for m in monomials(3, 3):
        left = Poly()
        right = Poly()
        for (u, v), c in comult(m).terms.items():
            if u.degree == 0:
                left = left + Poly.from_monomial(v, c)
            if v.degree == 0:
                right = right + Poly.from_monomial(u, c)
        assert left == right == Poly.from_monomial(m)


def test_counit_values():
    p = Poly({mono(0, 0): Fraction(1), mono(1, 0): Fraction(3)})
    assert counit(p) == 1
    assert counit(Poly.from_monomial(mono(2, 1))) == 0
    assert counit(Poly()) == 0


def test_antipode():
    x = Poly.from_monomial(mono(1, 0))
    assert antipode(x) == -x
    assert antipode(Poly.from_monomial(mono(2, 1))) == Poly.from_monomial(
        mono(2, 1), -1)
    assert antipode(antipode(x + x * x)) == x + x * x


def test_antipode_convolution_inverse():
    # mu (S (x) 1) Delta(a) = eps(a) 1
    for m in monomials(2, 4):
        total = Poly()
        for (u, v), c in comult(m).terms.items():
            total = total + (antipode(Poly.from_monomial(u))
                             * Poly.from_monomial(v)).scale(c)
        expected = Poly.constant(2, 1) if m.degree == 0 else Poly()
        assert total == expected


def test_cocommutator_vanishes():
    for m in monomials(2, 5):
        assert cocommutator(m).is_zero()


def test_q_from_i_spec_examples():
    # d=2, I(x) = x(x)y - y(x)x, zero elsewhere
    d = 2
    x, y = mono(1, 0), mono(0, 1)
    I = ITable(d=d, domain_degree_bound=3,
               rows={x: SkewMatrix.from_upper(d, {(0, 1): Fraction(1)})})
    ixy = Tensor2.from_pair(x, y) - Tensor2.from_pair(y, x)
    assert q_from_i(I, x) == ixy
    assert q_from_i(I, mono(0, 0)).is_zero()
    xy = mono(1, 1)
    expected = (Tensor2.from_pair(xy, y) + Tensor2.from_pair(x, mono(0, 2))
                - Tensor2.from_pair(mono(0, 2), x) - Tensor2.from_pair(y, xy))
    assert q_from_i(I, xy) == expected
    # and the inverse recovers I(xy) = 0
    q = make_copoisson(I)
    assert i_from_q(q, xy).is_zero()


def test_q_i_roundtrip_random(rng):
    for _ in range(10):
        d = rng.choice([2, 3, 4])
        M = rng.choice([3, 4])
        I = random_itable(rng, d, M)
        q = make_copoisson(I)
        for m in monomials(d, M):
            assert i_from_q(q, m) == I(m)


def test_i_from_arbitrary_q_roundtrip(rng):
    # the other composition order: start from a random q table
    for _ in range(5):
        d = rng.choice([2, 3])
        M = 3
        assignments = {}
        for m in monomials(d, M):
            terms = {}
            for u in monomials(d, 2):
                for v in monomials(d, 2):
                    if rng.random() < 0.1:
                        terms[(u, v)] = Fraction(rng.randint(-3, 3))
            t = Tensor2(terms)
            if t:
                assignments[m] = t
        q = QMap(d=d, domain_degree_bound=M, assignments=assignments)
        ivals = {m: i_from_q(q, m) for m in monomials(d, M)}

        class _Tbl:
            def __init__(self):
                self.d = d
                self.domain_degree_bound = M

            def __call__(self, m):
                return ivals[m]

        I = _Tbl()
        for m in monomials(d, M):
            assert q_from_i(I, m) == q(m)


def test_p_j_examples():
    # J(x(x)y) = 1, zero elsewhere, on k[x,y]
    d = 2
    x, y = mono(1, 0), mono(0, 1)
    J = PMap(d=d, domain_degree_bound=4,
             assignments={(x, y): Poly.constant(d, 1)})
    assert p_from_j(J, x, y) == Poly.constant(d, 1)
    # {x^2, y} = 2x by Leibniz
    assert p_from_j(J, mono(2, 0), y) == Poly.from_monomial(x, 2)
    # inverse vanishes off degree (1,1)
    pvals = {}
    for a in monomials(d, 4):
        for b in monomials(d, 4):
            v = p_from_j(J, a, b)
            if v:
                pvals[(a, b)] = v
    p = PMap(d=d, domain_degree_bound=4, assignments=pvals)
    assert j_from_p(p, mono(2, 0), y).is_zero()
    assert j_from_p(p, x, y) == Poly.constant(d, 1)


def test_p_j_roundtrip_random(rng):
    from copoisson.structures import bracket_monomials

    for _ in range(5):
        d = rng.choice([2, 3])
        B = random_bracket(rng, d, 2)
        M = 3
        pvals = {}
        for a in monomials(d, M):
            for b in monomials(d, M):
                v = bracket_monomials(B, a, b)
                if v:
                    pvals[(a, b)] = v
        p = PMap(d=d, domain_degree_bound=M, assignments=pvals)
        jvals = {}
        for a in monomials(d, M):
            for b in monomials(d, M):
                v = j_from_p(p, a, b)
                if v:
                    jvals[(a, b)] = v
        J = PMap(d=d, domain_degree_bound=M, assignments=jvals)
        for a in monomials(d, M):
            for b in monomials(d, M):
                assert p_from_j(J, a, b) == p(a, b)


def test_degree_bound_enforced():
    q = QMap(d=2, domain_degree_bound=2)
    with pytest.raises(DegreeBoundError):
        q(mono(2, 1))
    I = ITable(d=2, domain_degree_bound=1)
    with pytest.raises(DegreeBoundError):
        q_from_i(I, mono(1, 1))


def test_turn_identity():
    """sum (-1)^(|a1|+|a2|) a1a3 (x) a2 (x) a4
    = sum (-1)^|a1| 1 (x) a1 (x) a2, both from 4-part splittings."""
    for m in monomials(2, 6):
        lhs = Tensor3()
        for c, (a1, a2, a3, a4) in splittings(m, 4):
            sign = -1 if (a1.degree + a2.degree) % 2 else 1
            lhs = lhs + Tensor3.from_triple(a1 * a3, a2, a4, sign * c)
        rhs = Tensor3()
        one = Monomial.unit(2)
        for c, (a1, a2) in splittings(m, 2):
            sign = -1 if a1.degree % 2 else 1
            rhs = rhs + Tensor3.from_triple(one, a1, a2, sign * c)
        assert lhs == rhs


def test_comult_poly_linearity():
    p = Poly({mono(1, 0): Fraction(2), mono(0, 2): Fraction(-1, 3)})
    expect = comult(mono(1, 0)).scale(2) + comult(mono(0, 2)).scale(
        Fraction(-1, 3))
    assert comult_poly(p) == expect


def test_shared_comult_is_never_mutated(rng):
    # comult is memoized, so every caller reads the same Tensor2
    snapshot = {m: dict(comult(m).terms) for m in monomials(3, 3)}
    for m, terms in snapshot.items():
        assert terms == {bc: c for c, bc in splittings(m, 2)}
    I = random_itable(rng, 3, 3, density=0.6)
    q = make_copoisson(I)
    for m in monomials(3, 3):
        assert i_from_q(q, m) == I(m)
    check_skew(q, 3)
    check_counit_kill(q, 3)
    for form in ("definition", "form1", "form2"):
        check_coleibniz(q, 3, form)
    check_cojacobi(q, cojacobi_affordable_degree(q))
    check_cojacobi_coeffs(I, 2)
    check_delta_derivation(q, 3)
    check_antipode_coanti(q, 3)
    check_support_condition(I)
    for m in monomials(3, 3):
        comult_poly(Poly.from_monomial(m, 3))
        cocommutator(m)
    for m, terms in snapshot.items():
        assert comult(m).terms == terms
        assert comult(m) is comult(m)
