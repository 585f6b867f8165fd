from fractions import Fraction
from math import comb

import pytest

from copoisson.algebra import (
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    binomial,
    cyclic_sum,
    factorial,
    format_coeff,
    format_monomial,
    format_poly,
    grlex_key,
    monomials,
    splittings,
    t2_swap,
    t3_cycle,
)

from conftest import unlimited_int_str


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert m * Monomial((0, 1, 0)) == Monomial((2, 1, 1))
    assert Monomial((1, 0, 0)).divides(m)
    assert m.quotient(Monomial((1, 0, 1))) == Monomial((1, 0, 0))
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(DimensionMismatchError):
        m * Monomial((1, 1))


def test_monomial_products_are_unchecked_but_construction_is_not():
    p = Monomial((1, 0)) * Monomial((0, 2))
    assert type(p) is Monomial and p == (1, 2) and p.degree == 3
    q = p.quotient(Monomial((1, 1)))
    assert type(q) is Monomial and q == (0, 1)
    for bad in ((1, -1), (-1,), (0, 0, -3)):
        with pytest.raises(ValueError):
            Monomial(bad)


def test_monomials_enumeration_grlex():
    ms = monomials(2, 2)
    assert ms == [Monomial(t) for t in
                  [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]]
    assert ms == sorted(ms, key=grlex_key)
    # count: C(d + N, N) monomials up to degree N
    assert len(monomials(3, 4)) == comb(3 + 4, 4)


def test_binomial_and_factorial():
    a = Monomial((3, 2))
    b = Monomial((1, 2))
    assert binomial(a, b) == 3
    assert binomial(b, a) == 0
    assert factorial(a) == 12


def test_splittings_reconstruct_and_weights():
    m = Monomial((2, 1))
    parts = list(splittings(m, 2))
    # 3 * 2 = 6 ordered splittings
    assert len(parts) == 6
    for coeff, (u, v) in parts:
        assert u * v == m
        assert coeff == binomial(m, u)
    # multinomial weights over 3 parts sum to 3^|m|
    total = sum(c for c, _ in splittings(m, 3))
    assert total == 3 ** m.degree


def test_poly_arithmetic():
    d = 2
    x = Poly.from_monomial(Monomial.variable(d, 0))
    y = Poly.from_monomial(Monomial.variable(d, 1))
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.coeff(Monomial((2, 0))) == 1
    assert (p - p).is_zero()
    assert p.partial(0) == x.scale(2)
    assert p.degree() == 2
    assert Poly().degree() == -1
    assert p.truncate(1).is_zero()


def test_poly_no_stored_zeros():
    p = Poly({Monomial((1, 0)): Fraction(1)}) - Poly({Monomial((1, 0)): Fraction(1)})
    assert p.terms == {}


def test_tensor_permutations():
    a, b, c = (Monomial.variable(3, i) for i in range(3))
    t = Tensor2.from_pair(a, b)
    assert t2_swap(t) == Tensor2.from_pair(b, a)
    assert t2_swap(t2_swap(t)) == t
    u = Tensor3.from_triple(a, b, c)
    assert t3_cycle(u) == Tensor3.from_triple(c, a, b)
    assert t3_cycle(t3_cycle(t3_cycle(u))) == u
    cs = cyclic_sum(u)
    assert cs == (Tensor3.from_triple(a, b, c) + Tensor3.from_triple(c, a, b)
                  + Tensor3.from_triple(b, c, a))
    # cyclic sum is t3-invariant
    assert t3_cycle(cs) == cs


def test_tensor_componentwise_products():
    x = Monomial((1, 0))
    y = Monomial((0, 1))
    one = Monomial((0, 0))
    t = Tensor2.from_pair(x, one) * Tensor2.from_pair(y, y)
    assert t == Tensor2.from_pair(x * y, y)


def test_formatting():
    p = Poly({Monomial((2, 0, 1)): Fraction(3, 2),
              Monomial((0, 0, 0)): Fraction(-1)})
    assert format_poly(p) == "-1 + 3/2*x1^2*x3"
    assert format_monomial(Monomial((0, 0))) == "1"
    assert format_poly(Poly()) == "0"


@pytest.mark.parametrize("digits", [1, 602, 603, 604, 4300, 4301, 9000,
                                    20001])
def test_format_coeff_past_the_int_str_limit(digits):
    n = 10 ** (digits - 1) + 7 ** (2 * digits) % 10 ** (digits - 1)
    den = 10 ** (digits - 1) + 7
    with unlimited_int_str():
        want = [str(n), f"-{n}", f"{n}/{den}", f"-{n}/{den}"]
    got = [format_coeff(n), format_coeff(-n), format_coeff(Fraction(n, den)),
           format_coeff(Fraction(-n, den))]
    assert got == want
    # the split points of the conversion: runs of zeros in the low part
    with unlimited_int_str():
        want = str(10 ** (digits + 700) + 1)
    assert format_coeff(10 ** (digits + 700) + 1) == want
