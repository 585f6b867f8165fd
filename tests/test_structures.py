from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import copoisson.checks
from copoisson.algebra import (
    Monomial, Poly, Tensor2, bump, monomials, splittings)
from copoisson.cli import _qmap_to_itable
from copoisson.fileformat import load_spec
from copoisson.hopf import QMap
from copoisson.structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    StructConsts,
    bracket_monomials,
    copoisson_from_series,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
    poisson_bracket,
    series_from_copoisson,
    tensor_poisson,
)
from copoisson.checks import (
    check_cojacobi,
    check_coleibniz,
    check_counit_kill,
    check_poisson_hopf_compat,
    check_skew,
    cojacobi_affordable_degree,
)

from conftest import (
    FIXTURES, random_bracket, random_itable, random_poly, so3_consts)


def mono(*exps):
    return Monomial(exps)


def test_skew_matrix_validation():
    SkewMatrix.from_rows([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        SkewMatrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        SkewMatrix.from_rows([[0, 1], [1, 0]])
    m = SkewMatrix.from_upper(3, {(0, 2): Fraction(5)})
    assert m[0, 2] == 5 and m[2, 0] == -5 and m[1, 1] == 0
    with pytest.raises(ValueError):
        SkewMatrix.from_upper(3, {(2, 0): Fraction(1)})


def test_itable_to_tensor():
    I = ITable(d=2, domain_degree_bound=2, rows={
        mono(1, 0): SkewMatrix.from_upper(2, {(0, 1): Fraction(3)})})
    t = I(mono(1, 0))
    x, y = mono(1, 0), mono(0, 1)
    assert t == Tensor2.from_pair(x, y, 3) + Tensor2.from_pair(y, x, -3)
    assert I(mono(0, 1)).is_zero()


def fixture_itables():
    """The I-table of each fixture that has one: its own and the one read
    back from its q-map, the one of its structure constants, or the one
    of its bracket read as a series truncated at its max_degree."""
    for path in sorted(FIXTURES.glob("*.json")):
        spec = load_spec(path)
        s = spec.structure
        if spec.kind == "copoisson":
            yield s
            yield _qmap_to_itable(make_copoisson(s), spec.variables)
        elif spec.kind == "struct_consts":
            yield itable_from_consts(s)
        elif spec.kind == "poisson":
            yield copoisson_from_series(
                BracketTable(s.d, s.f, truncation_degree=spec.max_degree))


def test_each_row_is_stored_once_as_its_skew_tensor(rng):
    fixtures = list(fixture_itables())
    assert len(fixtures) == 8 and all(I.rows for I in fixtures)
    for I in fixtures + [random_itable(rng, rng.choice([2, 3, 4]),
                                       rng.choice([1, 2, 3]))
                         for _ in range(12)]:
        for m, mat in I.rows.items():
            assert I.matrix(m) is I(m) is mat
            d = mat.d
            upper = {(i, j): v for i, j, v in mat.upper()}
            assert upper and all(upper.values())
            dense = [[mat[i, j] for j in range(d)] for i in range(d)]
            for other in (SkewMatrix.from_rows(dense),
                          SkewMatrix.from_upper(d, upper)):
                assert other.d == d and other.terms == mat.terms
            # zeros at the other pairs are not kept
            padded = SkewMatrix.from_upper(d, {
                **dict.fromkeys(combinations(range(d), 2), 0), **upper})
            assert padded.terms == mat.terms and all(padded.terms.values())
            assert len(mat.terms) == 2 * len(upper)


def test_poisson_bracket_so3():
    B = linear_poisson(so3_consts())
    x1 = Poly.from_monomial(mono(1, 0, 0))
    x2 = Poly.from_monomial(mono(0, 1, 0))
    x3 = Poly.from_monomial(mono(0, 0, 1))
    assert poisson_bracket(B, x1, x2) == x3
    assert poisson_bracket(B, x2, x3) == x1
    assert poisson_bracket(B, x3, x1) == x2
    f = x1 * x2 + x3
    assert poisson_bracket(B, f, f).is_zero()


def test_poisson_bracket_leibniz(rng):
    for _ in range(10):
        d = rng.choice([2, 3])
        B = random_bracket(rng, d, 2)
        f = random_poly(rng, d, 2)
        g = random_poly(rng, d, 2)
        h = random_poly(rng, d, 2)
        lhs = poisson_bracket(B, f * g, h)
        rhs = f * poisson_bracket(B, g, h) + poisson_bracket(B, f, h) * g
        assert lhs == rhs


def test_poisson_bracket_simple():
    # {x^2, y} = 2x with f_12 = 1 on k[x,y]
    B = BracketTable(d=2, f={(0, 1): Poly.constant(2, 1)})
    assert poisson_bracket(
        B, Poly.from_monomial(mono(2, 0)), Poly.from_monomial(mono(0, 1))
    ) == Poly.from_monomial(mono(1, 0), 2)


def test_series_mode_truncates():
    B = BracketTable(d=2, f={(0, 1): Poly.from_monomial(mono(2, 0))},
                     truncation_degree=2)
    v = poisson_bracket(B, Poly.from_monomial(mono(1, 0)),
                        Poly.from_monomial(mono(0, 1)))
    assert v == Poly.from_monomial(mono(2, 0))
    w = poisson_bracket(B, Poly.from_monomial(mono(2, 0)),
                        Poly.from_monomial(mono(0, 1)))
    assert w.is_zero()  # 2 x^3 is beyond the truncation


def reference_bracket(B, f, g):
    """{f, g} = sum_{i<j} (df/dx_i dg/dx_j - df/dx_j dg/dx_i) f_ij, reduced
    like the table's own arithmetic: the partial-derivative formula."""
    out = Poly()
    for (i, j), fij in B.f.items():
        out = out + (f.partial(i) * g.partial(j)
                     - f.partial(j) * g.partial(i)) * fij
    return B._reduce(out)


coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def tables_and_polys(draw):
    """A random bracket table in polynomial or series mode, with a
    monomial strategy and a polynomial strategy over its variables."""
    d = draw(st.integers(2, 3))
    monos = st.tuples(*[st.integers(0, 3)] * d).map(Monomial)
    polys = st.dictionaries(monos, coeffs, max_size=4).map(Poly)
    f = {}
    for i in range(d):
        for j in range(i + 1, d):
            p = draw(polys)
            if p:
                f[(i, j)] = p
    truncation = draw(st.one_of(st.none(), st.integers(0, 6)))
    return BracketTable(d=d, f=f, truncation_degree=truncation), monos, polys


def fractions_only(p):
    return all(type(c) is Fraction for c in p.terms.values())


@settings(deadline=None, max_examples=60)
@given(tables_and_polys(), st.data())
def test_bracket_kernel_matches_partial_derivative_formula(table, data):
    B, monos, polys = table
    a, b = data.draw(monos), data.draw(monos)
    ab = bracket_monomials(B, a, b)
    assert ab == reference_bracket(B, Poly.from_monomial(a),
                                   Poly.from_monomial(b))
    assert fractions_only(ab)
    assert bracket_monomials(B, b, a) == -ab
    assert bracket_monomials(B, a, b) == ab
    f, g = data.draw(polys), data.draw(polys)
    fg = poisson_bracket(B, f, g)
    assert fg == reference_bracket(B, f, g)
    assert fractions_only(fg)
    assert poisson_bracket(B, g, f) == -fg
    assert poisson_bracket(B, f, g) == fg


def test_compat_check_evaluates_each_monomial_bracket_once(monkeypatch):
    # the check reads the int-scaled copy S = D B that B keeps; the kernel
    # reduces each closed-form evaluation on S exactly once, so counting
    # S._reduce counts evaluations
    B = linear_poisson(so3_consts())
    S = B.scaled()[0]
    reduce = S._reduce
    evaluations = []
    calls = []

    def counted_reduce(p):
        evaluations.append(p)
        return reduce(p)

    def counted_bracket(B, a, b):
        calls.append((a, b))
        return bracket_monomials(B, a, b)

    monkeypatch.setattr(S, "_reduce", counted_reduce)
    monkeypatch.setattr(copoisson.checks, "bracket_monomials",
                        counted_bracket)
    assert check_poisson_hopf_compat(B, 4).passed
    assert len(evaluations) == len(S._memo) == len(set(calls))
    assert 10 * len(S._memo) < len(calls)
    assert not B._memo  # the table as given is not read


def test_linear_poisson_assembly():
    c = StructConsts(d=3, lam={(0, 1, 0): Fraction(1)})
    B = linear_poisson(c)
    assert B.entry(0, 1) == Poly.from_monomial(mono(1, 0, 0))
    assert B.entry(0, 2).is_zero() and B.entry(1, 2).is_zero()
    assert B.entry(1, 0) == -B.entry(0, 1)


def test_make_copoisson_always_skew_coleibniz(rng):
    # forward direction of the characterization, on random tables
    for _ in range(8):
        d = rng.choice([2, 3])
        M = 3
        I = random_itable(rng, d, M)
        q = make_copoisson(I)
        assert check_skew(q, M).passed
        assert check_coleibniz(q, M).passed
        assert check_counit_kill(q, M).passed


def test_two_variable_closed_form(rng):
    # d=2: q(a) = sum l_{a1} binom-weighted (x a2 (x) y a3 - y a2 (x) x a3)
    d = 2
    I = random_itable(rng, d, 4, density=0.8)
    q = make_copoisson(I)
    x, y = mono(1, 0), mono(0, 1)
    from copoisson.algebra import splittings
    for m in monomials(d, 4):
        expect = Tensor2()
        for c, (a1, rest) in splittings(m, 2):
            lam = I.matrix(a1)[0, 1]
            if not lam:
                continue
            for c2, (a2, a3) in splittings(rest, 2):
                w = c * c2 * lam
                expect = expect + Tensor2.from_pair(x * a2, y * a3, w)
                expect = expect + Tensor2.from_pair(y * a2, x * a3, -w)
        assert q(m) == expect


def test_main5_correspondence_roundtrip(rng):
    for _ in range(5):
        d = rng.choice([2, 3])
        N = 4
        B = random_bracket(rng, d, 3, truncation=N)
        I = copoisson_from_series(B)
        B2 = series_from_copoisson(I)
        assert B2.truncation_degree == N
        for i in range(d):
            for j in range(i + 1, d):
                assert B2.entry(i, j) == B.entry(i, j)
        # and the other order
        I2 = copoisson_from_series(B2)
        assert I2.rows == I.rows


def test_main5_factorial_scaling():
    B = BracketTable(d=2, f={(0, 1): Poly.from_monomial(mono(2, 0))},
                     truncation_degree=3)
    I = copoisson_from_series(B)
    assert I.matrix(mono(2, 0))[0, 1] == 2  # 2! * 1
    back = series_from_copoisson(I)
    assert back.entry(0, 1) == Poly.from_monomial(mono(2, 0))


def test_itable_from_consts_so3():
    I = itable_from_consts(so3_consts())
    assert I.domain_degree_bound == 1
    assert I.matrix(mono(0, 0, 1))[0, 1] == 1
    assert I.matrix(mono(1, 0, 0))[1, 2] == 1
    assert I.matrix(mono(0, 1, 0))[0, 2] == -1
    assert I.matrix(mono(0, 0, 0)).is_zero()


def is_rational(I):
    """Whether rows vanish from some degree n <= bound on, and the least such n.

    Only degrees <= the table bound are inspected; a pass certifies the
    stored data, not behavior beyond the bound.
    """
    least = max((m.degree for m, mat in I.rows.items()
                 if not mat.is_zero()), default=-1) + 1
    if least <= I.domain_degree_bound:
        return True, least
    return False, None


def test_is_rational():
    I0 = ITable(d=2, domain_degree_bound=3)
    assert is_rational(I0) == (True, 0)
    I1 = ITable(d=2, domain_degree_bound=3, rows={
        mono(1, 0): SkewMatrix.from_upper(2, {(0, 1): Fraction(1)})})
    assert is_rational(I1) == (True, 2)
    rows = {m: SkewMatrix.from_upper(2, {(0, 1): Fraction(1)})
            for m in monomials(2, 3)}
    Ifull = ITable(d=2, domain_degree_bound=3, rows=rows)
    assert is_rational(Ifull) == (False, None)


def test_tensor_poisson_blocks():
    BA = linear_poisson(so3_consts())
    BB = BracketTable(d=2, f={(0, 1): Poly.constant(2, 1)})
    T = tensor_poisson(BA, BB)
    assert T.d == 5
    assert T.entry(0, 1) == Poly.from_monomial(mono(0, 0, 1, 0, 0))
    assert T.entry(3, 4) == Poly.constant(5, 1)
    for i in range(3):
        for j in range(3, 5):
            assert T.entry(i, j).is_zero()


def embed(m, left_pad, right_pad):
    return Monomial((0,) * left_pad + tuple(m) + (0,) * right_pad)


def tensor_copoisson(qC, qD):
    """The cobracket on C(x)D = k[x's, y's] built from two cobrackets of
    one bound: q(a.b) = shuffle(qC(a) (x) Delta(b)) + shuffle(Delta(a)
    (x) qD(b)), the monomial a(x)b read as the product a.b in the
    combined variables."""
    d1, d2 = qC.d, qD.d
    M = qC.domain_degree_bound
    assignments = {}
    for m in monomials(d1 + d2, M):
        a, b = Monomial(m[:d1]), Monomial(m[d1:])
        out = {}
        for (u, v), cq in qC(a).terms.items():
            for cb, (b1, b2) in splittings(b, 2):
                bump(out, (embed(u, 0, d2) * embed(b1, d1, 0),
                           embed(v, 0, d2) * embed(b2, d1, 0)), cq * cb)
        for ca, (a1, a2) in splittings(a, 2):
            for (u, v), cq in qD(b).terms.items():
                bump(out, (embed(a1, 0, d2) * embed(u, d1, 0),
                           embed(a2, 0, d2) * embed(v, d1, 0)), ca * cq)
        if out:
            assignments[m] = Tensor2._trusted(out)
    return QMap(d=d1 + d2, domain_degree_bound=M, assignments=assignments)


def test_tensor_copoisson_axioms(rng):
    qC = make_copoisson(random_itable(rng, 2, 3))
    qD = make_copoisson(random_itable(rng, 2, 3))
    q = tensor_copoisson(qC, qD)
    assert q.d == 4
    assert check_skew(q, 3).passed
    assert check_coleibniz(q, 3).passed
    assert check_counit_kill(q, 3).passed
    cj = cojacobi_affordable_degree(q)
    if cj >= 0:
        # both factors are d=2 cobrackets, so co-Jacobi holds on each;
        # the tensor construction preserves it
        assert check_cojacobi(q, cj).passed


def test_tensor_copoisson_one_variable_trivial():
    # with d=1 there is no skew generator 2-tensor, so both factors vanish
    qC = make_copoisson(ITable(d=1, domain_degree_bound=3))
    qD = make_copoisson(ITable(d=1, domain_degree_bound=3))
    q = tensor_copoisson(qC, qD)
    for m in monomials(2, 3):
        assert q(m).is_zero()
