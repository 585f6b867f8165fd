from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.algebra import (
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    binomial,
    cyclic_sum,
    default_names,
    factorial,
    format_coeff,
    format_monomial,
    format_poly,
    format_tensor,
    grlex_key,
    monomials,
    splittings,
    t2_swap,
    t3_cycle,
)
from copoisson.checks import _format_counit_kill

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


# The divide-then-format path that scaled witnesses took before they were
# written from the integer residual: divide a copy by Fraction(D ** p),
# then write each Fraction term.  str() stands in for _decimal.
def _old_coeff(c):
    c = Fraction(c)
    return (str(c.numerator) if c.denominator == 1
            else f"{c.numerator}/{c.denominator}")


def _old_terms(items, render_key):
    out = []
    for key, c in items:
        mono, mag = render_key(key), abs(c)
        if mono == "1":
            body = _old_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_old_coeff(mag)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out) if out else "0"


def _old_mono(m):
    return format_monomial(m, default_names(len(m)))  # bypasses the memo


def _old_render(t, den):
    t = t / Fraction(den)
    if isinstance(t, Poly):
        return _old_terms(t.items_sorted(), _old_mono)
    return _old_terms(t.items_sorted(),
                      lambda key: "(x)".join(map(_old_mono, key)))


def _old_counit_kill(t, den):
    t = t / Fraction(den)
    left = {v: c for (u, v), c in t.terms.items() if u.degree == 0}
    right = {u: c for (u, v), c in t.terms.items() if v.degree == 0}
    return (f"(eps(x)1)q = {_old_render(Poly._trusted(left), 1)}; "
            f"(1(x)eps)q = {_old_render(Poly._trusted(right), 1)}")


def _assert_renders_as_before(t, den):
    with unlimited_int_str():
        want = _old_render(t, den)
        want_kill = _old_counit_kill(t, den) if isinstance(t, Tensor2) else None
    new = format_poly if isinstance(t, Poly) else format_tensor
    assert new(t, den=den) == want
    if want_kill is not None:
        assert _format_counit_kill(t, den=den) == want_kill


@st.composite
def _scaled_residuals(draw):
    """(t, D ** p): an int-valued Poly, Tensor2 or Tensor3 over d <= 3
    variables, some of whose coefficients are +-D ** p or past 2000 bits."""
    d = draw(st.integers(1, 3))
    den = draw(st.integers(1, 12)) ** draw(st.sampled_from((1, 2)))
    kind, parts = draw(st.sampled_from(((Poly, 1), (Tensor2, 2),
                                        (Tensor3, 3))))
    mono = st.tuples(*[st.integers(0, 2)] * d).map(Monomial)
    key = mono if parts == 1 else st.tuples(*[mono] * parts)
    coeff = st.one_of(st.integers(-30, 30), st.sampled_from((den, -den)),
                      st.integers(2 ** 2000, 2 ** 2100),
                      st.integers(-2 ** 2100, -2 ** 2000))
    terms = draw(st.dictionaries(key, coeff.filter(bool), max_size=6))
    return kind._trusted(terms), den


@settings(max_examples=200, deadline=None)
@given(_scaled_residuals())
def test_rendering_from_the_integer_residual_is_unchanged(case):
    _assert_renders_as_before(*case)


def test_rendering_from_the_integer_residual_edge_cases():
    one, x, y = Monomial((0, 0)), Monomial((1, 0)), Monomial((0, 1))
    big = 3 ** 1400 * 7  # 2222 bits: _decimal splits it
    for den in (1, 2, 9, 144):
        for c in (den, -den, 2 * den, 1, -1, big, -big, big * den):
            _assert_renders_as_before(Poly._trusted({one: c, x: -c}), den)
            _assert_renders_as_before(
                Tensor2._trusted({(one, y): c, (x, one): c, (one, one): -c,
                                  (x, y): 5}), den)
            _assert_renders_as_before(
                Tensor3._trusted({(one, one, one): c, (x, one, y): -c}), den)
    assert format_poly(Poly._trusted({one: 4, x: -4}), den=4) == "1 - x1"
    assert format_coeff(0, 6) == "0"
    assert format_coeff(-6, 4) == "-3/2"
    assert format_coeff(Fraction(3, 2), 3) == "1/2"


def test_truediv_is_scale_by_the_inverse():
    x, y = Monomial((1, 0)), Monomial((0, 1))
    values = (3, -4, Fraction(5, 6), Fraction(-7, 2))
    for t in (Poly._trusted(dict(zip((x, y, x * y, x * x), values))),
              Tensor2._trusted(dict(zip(((x, y), (y, x), (x, x), (y, y)),
                                        values))),
              Tensor3._trusted(dict(zip(((x, y, x), (y, x, y), (x, x, x),
                                         (y, y, y)), values)))):
        for D in (1, 2, 3, 12, 35, Fraction(3, 2), Fraction(-5, 7)):
            got, want = t / D, t.scale(Fraction(1, D))
            assert type(got) is type(t) and got == want
            assert all(type(v) is Fraction for v in got.terms.values())
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                t / zero
            with pytest.raises(ZeroDivisionError):
                type(t)() / zero
        with pytest.raises(TypeError):
            t / 2.0
