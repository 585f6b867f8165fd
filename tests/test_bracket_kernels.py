"""The memoized enumerations and the bracket-side kernels against the
straightforward code they replace.

Each reference below is the plain loop the library ran before its kernel
was rewritten: `_p_j_sum` reading every table entry through the bound
check, `dual_bracket` scanning every term of q(c), `_pairs` as a filtered
generator and `monomials` rebuilt on every call.  Results, value types
and error texts must match.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    Tensor2,
    bump,
    factorial,
    grlex_key,
    monomials,
    splittings,
)
from copoisson.checks import _pairs
from copoisson.dual import dual_bracket
from copoisson.hopf import PMap, QMap, j_from_p, p_from_j, q_from_i
from copoisson.structures import ITable, SkewMatrix, make_copoisson

from conftest import random_fraction, random_itable


# --- references ------------------------------------------------------------

def reference_monomials(d, max_degree):
    def compositions(n, k):
        if k == 0:
            if n == 0:
                yield ()
            return
        for first in range(n, -1, -1):
            for rest in compositions(n - first, k - 1):
                yield (first,) + rest
    return [Monomial(c) for total in range(max_degree + 1)
            for c in compositions(total, d)]


def reference_pairs(d, N):
    for a in reference_monomials(d, N):
        for b in reference_monomials(d, N - a.degree):
            if grlex_key(b) >= grlex_key(a):
                yield a, b


def reference_p_j_sum(table, a, b, signed):
    out = {}
    for ca, (a1, a2) in splittings(a, 2):
        for cb, (b1, b2) in splittings(b, 2):
            v = table(a1, b1)
            if v:
                sign = -1 if signed and (a2.degree + b2.degree) % 2 else 1
                w = sign * ca * cb
                a2b2 = a2 * b2
                for m, c in v.terms.items():
                    bump(out, m * a2b2, w * c)
    return Poly._trusted(out)


def reference_dual_bracket(q, f, g, N):
    f = f.truncate(N)
    g = g.truncate(N)
    out = {}
    for c in monomials(q.d, N):
        total = Fraction(0)
        for (u, v), w in q(c).terms.items():
            fu = f.coeff(u)
            gv = g.coeff(v)
            if fu and gv:
                total += w * fu * factorial(u) * gv * factorial(v)
        if total:
            out[c] = total / factorial(c)
    return Poly._trusted(out)


def typed(p):
    """A value's terms with the type of each coefficient."""
    return {k: (v, type(v)) for k, v in p.terms.items()}


# --- strategies --------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def pmaps(draw):
    """(p, a, b): a random PMap, Fraction- or int-valued, and one pair of
    monomials within its bound."""
    d = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 3))
    monos = st.sampled_from(reference_monomials(d, bound))
    as_int = draw(st.booleans())
    coeff = st.integers(-4, 4) if as_int else fractions
    value = st.dictionaries(st.sampled_from(reference_monomials(d, 3)), coeff,
                            max_size=4)
    assignments = {}
    for key, terms in draw(st.dictionaries(st.tuples(monos, monos), value,
                                           max_size=12)).items():
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            assignments[key] = Poly._trusted(terms)
    p = PMap(d=d, domain_degree_bound=bound, assignments=assignments)
    return p, draw(monos), draw(monos)


@settings(deadline=None, max_examples=150)
@given(pmaps())
def test_p_j_transforms_match_reference(pab):
    p, a, b = pab
    for fn, signed in ((p_from_j, False), (j_from_p, True)):
        assert typed(fn(p, a, b)) == typed(reference_p_j_sum(p, a, b, signed))


def test_p_j_transforms_match_reference_seeded(rng):
    for _ in range(12):
        d, bound = rng.choice([(2, 3), (3, 1), (3, 2), (4, 2)])
        monos = monomials(d, bound)
        values = monomials(d, 2)
        as_int = rng.random() < 0.5
        assignments = {}
        for a in monos:
            for b in monos:
                if rng.random() < 0.5:
                    terms = {}
                    for m in rng.sample(values, 3):
                        c = rng.randint(-5, 5) if as_int else random_fraction(rng)
                        if c:
                            terms[m] = c
                    if terms:
                        assignments[(a, b)] = Poly._trusted(terms)
        p = PMap(d=d, domain_degree_bound=bound, assignments=assignments)
        for a in monos:
            for b in monos:
                for fn, signed in ((p_from_j, False), (j_from_p, True)):
                    assert typed(fn(p, a, b)) == typed(
                        reference_p_j_sum(p, a, b, signed))


def test_p_j_bound_error_text_unchanged():
    p = PMap(d=2, domain_degree_bound=1, assignments={
        (Monomial((1, 0)), Monomial((0, 1))): Poly({Monomial((0, 0)): 1})})
    for a, b in (((2, 0), (0, 0)), ((0, 0), (1, 1)), ((3, 0), (0, 2))):
        a, b = Monomial(a), Monomial(b)
        for fn, signed in ((p_from_j, False), (j_from_p, True)):
            with pytest.raises(DegreeBoundError) as want:
                reference_p_j_sum(p, a, b, signed)
            with pytest.raises(DegreeBoundError) as got:
                fn(p, a, b)
            assert str(got.value) == str(want.value)


@st.composite
def dual_cases(draw):
    """(q, f, g, N): a random QMap of bound N whose factors reach degree
    N + 1, and series f, g with terms up to degree N + 2."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(0, 3))
    wide = st.sampled_from(reference_monomials(d, N + 2))
    factor = st.sampled_from(reference_monomials(d, N + 1))
    assignments = {}
    for c in reference_monomials(d, N):
        terms = draw(st.dictionaries(st.tuples(factor, factor), fractions,
                                     max_size=6))
        t = Tensor2(terms)
        if t:
            assignments[c] = t
    q = QMap(d=d, domain_degree_bound=N, assignments=assignments)
    f = Poly(draw(st.dictionaries(wide, fractions, max_size=6)))
    g = Poly(draw(st.dictionaries(wide, fractions, max_size=6)))
    return q, f, g, N


@settings(deadline=None, max_examples=150)
@given(dual_cases())
def test_dual_bracket_matches_reference(case):
    q, f, g, N = case
    assert typed(dual_bracket(q, f, g, N)) == typed(
        reference_dual_bracket(q, f, g, N))


def test_dual_bracket_matches_reference_seeded(rng):
    for _ in range(10):
        d = rng.choice([2, 3])
        N = rng.choice([2, 3])
        q = make_copoisson(random_itable(rng, d, N, density=0.6))
        monos = monomials(d, N + 1)
        f = Poly({m: random_fraction(rng) for m in rng.sample(monos, 5)})
        g = Poly({m: random_fraction(rng) for m in rng.sample(monos, 5)})
        assert typed(dual_bracket(q, f, g, N)) == typed(
            reference_dual_bracket(q, f, g, N))


@pytest.mark.parametrize("d", range(5))
def test_pairs_match_reference(d):
    for N in range(-1, 5):
        assert _pairs(d, N) == tuple(reference_pairs(d, N))


# --- memo safety -------------------------------------------------------------

def test_monomials_returns_a_fresh_list():
    first = monomials(2, 2)
    want = list(first)
    first.append(Monomial((9, 9)))
    first[0] = Monomial((5, 5))
    del first[1]
    assert monomials(2, 2) == want
    assert monomials(2, 2) is not monomials(2, 2)


def test_monomials_match_uncached_enumeration():
    for d in range(6):
        for N in range(-1, 6):
            got = monomials(d, N)
            assert type(got) is list
            assert got == reference_monomials(d, N)
            assert all(type(m) is Monomial for m in got)


def test_make_copoisson_matches_unscaled_q_from_i(rng):
    for _ in range(12):
        d = rng.choice([2, 3])
        bound = rng.choice([1, 2, 3])
        I = random_itable(rng, d, bound, density=0.6)
        # entries n/k with |n| <= 4, divided by 6: none is an integer
        I = ITable(d=d, domain_degree_bound=bound, rows={
            m: SkewMatrix.from_upper(d, {(i, j): v / 6
                                         for i, j, v in mat.upper()})
            for m, mat in I.rows.items()})
        assert any(v.denominator > 1 for mat in I.rows.values()
                   for v in mat.terms.values())
        q = make_copoisson(I)
        for m in monomials(d, bound):
            want = q_from_i(I, m)
            assert q(m) == want
            assert (m in q.assignments) == bool(want)
            assert all(type(c) is Fraction for c in q(m).terms.values())
