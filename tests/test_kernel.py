"""Property tests for the sparse accumulation kernel and `splittings`.

Every operation is compared with a naive dict reference, and no result
may store a zero coefficient.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial

from hypothesis import given, settings, strategies as st

from copoisson.algebra import (
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    axpy,
    bump,
    splittings,
)

D = 2

coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
monos = st.tuples(*[st.integers(0, 3)] * D).map(Monomial)


def sparse(cls, arity):
    key = monos if arity == 1 else st.tuples(*[monos] * arity)
    return st.dictionaries(key, coeffs, max_size=8).map(cls)


values = st.one_of(sparse(Poly, 1), sparse(Tensor2, 2), sparse(Tensor3, 3))
pairs = st.one_of(*[st.tuples(sparse(cls, n), sparse(cls, n))
                    for cls, n in ((Poly, 1), (Tensor2, 2), (Tensor3, 3))])


def naive(x, y, c=1):
    """x + c*y on plain dicts, zeros dropped at the end."""
    out = {}
    for k in set(x) | set(y):
        out[k] = x.get(k, 0) + c * y.get(k, 0)
    return {k: v for k, v in out.items() if v}


def clean(terms):
    return all(type(v) is Fraction and v for v in terms.values())


@settings(deadline=None)
@given(pairs)
def test_add_sub_match_reference(xy):
    x, y = xy
    for res, c in ((x + y, 1), (x - y, -1)):
        assert type(res) is type(x)
        assert res.terms == naive(x.terms, y.terms, c)
        assert clean(res.terms)
    assert (x - x).is_zero()


@settings(deadline=None)
@given(values, st.one_of(coeffs, st.integers(-2, 2)))
def test_neg_and_scale_match_reference(x, c):
    assert (-x).terms == naive({}, x.terms, -1)
    s = x.scale(c)
    assert s.terms == naive({}, x.terms, c)
    assert clean((-x).terms) and clean(s.terms)


@settings(deadline=None)
@given(pairs, st.one_of(coeffs, st.integers(-2, 2)))
def test_axpy_matches_reference(xy, c):
    x, y = xy
    source = dict(y.terms)
    acc = dict(x.terms)
    axpy(acc, y.terms, c)
    assert acc == naive(x.terms, y.terms, c)
    assert clean(acc)
    assert y.terms == source


@settings(deadline=None)
@given(st.lists(st.tuples(monos, coeffs), max_size=12))
def test_bump_drops_zero_sums(updates):
    acc = {}
    ref = {}
    for k, v in updates:
        bump(acc, k, v)
        ref[k] = ref.get(k, 0) + v
    assert acc == {k: v for k, v in ref.items() if v}
    assert clean(acc)


@settings(deadline=None)
@given(monos, st.integers(1, 4))
def test_splittings_are_stable_iterators(m, k):
    it = splittings(m, k)
    assert isinstance(it, Iterator)
    first = list(it)
    assert list(splittings(m, k)) == first
    assert len(first) == len({f for _c, f in first})
    n_expected = 1
    for e in m:
        n_expected *= comb(e + k - 1, k - 1)
    assert len(first) == n_expected
    for c, factors in first:
        assert len(factors) == k
        prod = Monomial.unit(D)
        for f in factors:
            prod = prod * f
        assert prod == m
        weight = 1
        for j in range(D):
            weight *= factorial(m[j])
            for f in factors:
                weight //= factorial(f[j])
        assert type(c) is Fraction and c == weight
