from fractions import Fraction

import pytest

from copoisson.algebra import (
    Monomial,
    Poly,
    factorial,
    monomials,
    splittings,
)
from copoisson.dual import dual_bracket, pairing, verify_main5_roundtrip
from copoisson.finite import rref
from copoisson.structures import (
    BracketTable,
    bracket_monomials,
    copoisson_from_series,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
)

from conftest import nambu_bracket, random_poly, so3_consts


def mono(*exps):
    return Monomial(exps)


def variable(d, i):
    return Poly.from_monomial(Monomial.variable(d, i))


def test_pairing_orthogonality():
    one = Poly.constant(2, 1)
    assert pairing(one, Poly.constant(2, 1)) == 1
    X1 = variable(2, 0)
    assert pairing(X1, Poly.from_monomial(mono(0, 1))) == 0
    X1sq = Poly.from_monomial(mono(2, 0))
    assert pairing(X1sq, Poly.from_monomial(mono(2, 0))) == 2  # 2! weight


def test_gram_matrix_diagonal():
    N = 3
    for a in monomials(2, N):
        for b in monomials(2, N):
            val = pairing(Poly.from_monomial(b), Poly.from_monomial(a))
            assert val == (factorial(a) if a == b else 0)


def test_dual_mul_is_convolution(rng):
    # <f*g, a> = sum <f, a1> <g, a2>
    N = 3
    for _ in range(5):
        f = random_poly(rng, 2, N)
        g = random_poly(rng, 2, N)
        prod = (f * g).truncate(N)
        for a in monomials(2, N):
            conv = Fraction(0)
            for c, (a1, a2) in splittings(a, 2):
                conv += c * pairing(f, Poly.from_monomial(a1)) * pairing(
                    g, Poly.from_monomial(a2))
            assert pairing(prod, Poly.from_monomial(a)) == conv


def test_dual_mul_examples():
    N = 4
    X1 = variable(2, 0)
    X2 = variable(2, 1)
    assert (X1 * X1).truncate(N) == Poly.from_monomial(mono(2, 0))
    assert (X1 * X2).truncate(N) == Poly.from_monomial(mono(1, 1))
    assert (Poly.constant(2, 1) * X1).truncate(N) == X1
    # a product beyond degree N is zero in the truncated dual
    cube = Poly.from_monomial(mono(2, 1))
    assert (cube * cube).truncate(N).is_zero()


def test_dual_bracket_skew_and_recovery():
    N = 4
    B = BracketTable(d=3, f=dict(linear_poisson(so3_consts()).f),
                     truncation_degree=N)
    q = make_copoisson(copoisson_from_series(B))
    X = [variable(3, i) for i in range(3)]
    for i in range(3):
        assert dual_bracket(q, X[i], X[i], N).is_zero()
        for j in range(i + 1, 3):
            got = dual_bracket(q, X[i], X[j], N)
            assert got == B.entry(i, j)
            assert dual_bracket(q, X[j], X[i], N) == -got


def test_dual_bracket_ignores_terms_beyond_n(rng):
    N = 3
    # the constant term of f_12 gives I(1) != 0, so q(c) with |c| = N has
    # left and right factors of degree N + 1
    B = BracketTable(d=2, f={(0, 1): Poly.constant(2, 1)
                             + random_poly(rng, 2, N)}, truncation_degree=N)
    q = make_copoisson(copoisson_from_series(B))
    high = Poly({m: Fraction(1) for m in monomials(2, N + 2) if m.degree > N})
    for _ in range(5):
        f = random_poly(rng, 2, N) + variable(2, 0)
        g = random_poly(rng, 2, N) + variable(2, 1)
        assert dual_bracket(q, f + high, g, N) == dual_bracket(q, f, g, N)
        assert dual_bracket(q, f, g + high, N) == dual_bracket(q, f, g, N)


def test_dual_bracket_leibniz(rng):
    N = 3
    B = nambu_bracket(rng, truncation=N)
    q = make_copoisson(copoisson_from_series(B))

    def mul(f, g):
        return (f * g).truncate(N)

    for _ in range(5):
        f = random_poly(rng, 3, N)
        g = random_poly(rng, 3, N)
        h = random_poly(rng, 3, N)
        lhs = dual_bracket(q, mul(f, g), h, N)
        rhs = mul(f, dual_bracket(q, g, h, N)) + mul(
            dual_bracket(q, f, h, N), g)
        assert lhs == rhs


def test_verify_main5_so3():
    N = 4
    B = BracketTable(d=3, f=dict(linear_poisson(so3_consts()).f),
                     truncation_degree=N)
    rep = verify_main5_roundtrip(B, N)
    assert rep.passed


def test_verify_main5_zero_bracket():
    B = BracketTable(d=2, f={}, truncation_degree=3)
    assert verify_main5_roundtrip(B, 3).passed


def test_verify_main5_jacobi_precondition():
    bad = BracketTable(d=3, f={
        (0, 1): Poly.from_monomial(mono(0, 0, 1)),
        (1, 2): Poly.from_monomial(mono(0, 0, 1)),
        (0, 2): Poly.from_monomial(mono(0, 1, 0), -1),
    }, truncation_degree=3)
    rep = verify_main5_roundtrip(bad, 3)
    assert not rep.passed
    assert "precondition" in rep.note


def _x1_cobracket_rank(n, N):
    """Rank of the form (a, b) -> xi({a, b}) on the monomials of degree
    <= N in n variables, xi the x1-coordinate functional (the series X1
    under `pairing`), {,} the family {x_i, x_{i+1}} = x1 (i >= 2)."""
    X1 = variable(n, 0)
    B = BracketTable(d=n, f={(i, i + 1): X1 for i in range(1, n - 1)})
    monos = monomials(n, N)
    rows = [{j: v for j, b in enumerate(monos)
             if (v := pairing(X1, bracket_monomials(B, a, b)))}
            for a in monos]
    return len(rref(rows, len(monos))[1])


@pytest.mark.parametrize("n", range(3, 13))
def test_non_noetherian_family_cobracket_has_growing_rank(n):
    """The failure of H° to be co-Poisson without the noetherian condition,
    shown on the repo's fixture family {x_i, x_{i+1}} = x1 (i >= 2) of
    test_acceptance_5, with a proof sketch; this is not the paper's own
    counterexample, which only its full text gives.

    xi = X1 is primitive, so it lies in H°, and its cobracket is
    delta(xi)(a (x) b) = xi({a, b}).  An element of H° (x) H° is a finite
    sum of xi' (x) xi'', so if delta(xi) lay there the form
    (a, b) -> xi({a, b}) would have finite rank.  The family's brackets of
    generators are linear, so {a, b} is homogeneous of degree
    |a| + |b| - 1, and xi reads only its x1 term: only pairs of variables
    contribute.  The form is then the skew adjacency matrix of the path
    x2 - x3 - ... - xn, of rank 2 floor((n - 1) / 2), which is unbounded
    over k[x1, x2, ...].  For fixed n the rank does not grow with the
    degree bound: the noetherian side."""
    rank = 2 * ((n - 1) // 2)
    assert _x1_cobracket_rank(n, 2) == rank
    if n <= 6:
        assert _x1_cobracket_rank(n, 3) == rank
