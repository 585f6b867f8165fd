"""Property tests for the sparse accumulation kernel, `splittings` and
the fused co-side kernels.

Every operation is compared with a naive dict reference, or with the
composition of tensor products it replaces, and no result may store a
zero coefficient.
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
    cyclic_sum,
    splittings,
    t3_cycle,
    tensor2_mul,
)
from copoisson.checks import (
    COLEIBNIZ_FORMS,
    _cojacobi_residual,
    _coleibniz_residual,
    _delta_derivation_residual,
)
from copoisson.hopf import (
    QMap,
    comult,
    delta_left,
    delta_right,
    mul_comult,
    q_left,
    q_right,
)
from copoisson.structures import ITable, SkewMatrix, make_copoisson

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
        assert type(c) is int and c == weight


# --- the fused co-side kernels, against the compositions they replace ------
# Tables hold Fraction values, as the public q does, or int values, as the
# scaled copies the checks run on do.  A monomial drawn has degree at most
# D * 3 and a product of two at most twice that, the tables' bound, so
# every q-value a residual reads is in bound.

ints = st.integers(-3, 3)


def tensors(vals):
    return st.dictionaries(st.tuples(monos, monos), vals, max_size=6).map(
        lambda t: Tensor2._trusted({k: v for k, v in t.items() if v}))


def tables(vals):
    return st.dictionaries(monos, tensors(vals), max_size=5).map(
        lambda a: QMap(D, 2 * D * 3, a))


def kernel_clean(terms):
    return all(type(v) in (int, Fraction) and v for v in terms.values())


@settings(deadline=None)
@given(st.one_of(st.tuples(tensors(coeffs), tensors(coeffs)),
                 st.tuples(tensors(ints), tensors(ints))),
       monos, ints)
def test_mul_comult_matches_tensor_product(outv, c, w):
    out, v = outv
    want = dict(out.terms)
    axpy(want, tensor2_mul(v, comult(c)).terms, w)
    got = dict(out.terms)
    mul_comult(got, v, c, w)
    assert got == want
    assert kernel_clean(got)


@settings(deadline=None)
@given(st.one_of(tables(coeffs), tables(ints)), monos)
def test_cojacobi_residual_matches_cyclic_sum(t, m):
    got = _cojacobi_residual(t, m)
    assert got.terms == cyclic_sum(q_left(t(m), t)).terms
    assert kernel_clean(got.terms)


@settings(deadline=None)
@given(st.one_of(tables(coeffs), tables(ints)), monos, monos)
def test_delta_derivation_residual_matches_tensor_products(t, a, b):
    got = _delta_derivation_residual(t, (a, b))
    want = t(a * b) - (tensor2_mul(t(a), comult(b))
                       + tensor2_mul(comult(a), t(b)))
    assert got.terms == want.terms
    assert kernel_clean(got.terms)


def composed_coleibniz(form, t, m):
    """lhs - rhs of one co-Leibniz form as Tensor3 compositions."""
    dm = comult(m)
    if form == "definition":
        lhs = delta_left(t(m))
        rhs = q_right(dm, t) - t3_cycle(t3_cycle(q_left(dm, t)))
    elif form == "form1":
        lhs = delta_right(t(m))
        rhs = q_left(dm, t) - t3_cycle(q_right(dm, t))
    else:
        lhs = delta_left(t(m))
        r = q_right(dm, t)
        rhs = r - t3_cycle(r)
    return lhs - rhs


@st.composite
def cobrackets(draw, vals):
    """make_copoisson of a drawn I-table, which satisfies co-Leibniz, or
    its int-scaled copy; with one drawn tensor added at one monomial.  The
    co-Leibniz residual at m reads q only at divisors of m, within D * 3."""
    entries = draw(st.dictionaries(monos, coeffs, max_size=4))
    rows = {m: SkewMatrix.from_upper(D, {(0, 1): c})
            for m, c in entries.items() if c}
    q = make_copoisson(ITable(D, D * 3, rows))
    if vals is ints:
        q = q.scaled()[0]
    m, extra = draw(monos), draw(tensors(vals))
    return QMap(q.d, q.domain_degree_bound, {**q.assignments, m: q(m) + extra})


@settings(deadline=None)
@given(st.one_of(tables(coeffs), tables(ints), cobrackets(coeffs),
                 cobrackets(ints)), monos, st.sampled_from(COLEIBNIZ_FORMS))
def test_coleibniz_residual_matches_compositions(t, m, form):
    got = _coleibniz_residual(form, t, m)
    assert got.terms == composed_coleibniz(form, t, m).terms
    assert kernel_clean(got.terms)
