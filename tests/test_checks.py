import json
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.algebra import (
    DegreeBoundError,
    DimensionMismatchError,
    Monomial,
    Poly,
    Tensor2,
    format_coeff,
    format_monomial,
    format_tensor,
    monomials,
    splittings,
    t2_swap,
)
from copoisson.checks import (
    COLEIBNIZ_FORMS,
    WITNESS_CAP,
    CheckReport,
    _check,
    _one_based,
    _scaled_check,
    check_antipode_coanti,
    check_cojacobi,
    check_cojacobi_coeffs,
    check_coleibniz,
    check_counit_kill,
    check_delta_derivation,
    check_dual_of_abcd,
    check_eps_s_morphisms,
    check_jacobi,
    check_linear_relations,
    check_poisson_hopf_compat,
    check_skew,
    check_support_condition,
    cojacobi_affordable_degree,
    cojacobi_required_bound,
    in_skew_generator_space,
)
from copoisson.hopf import QMap, comult, i_from_q, q_from_i
from copoisson.structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    StructConsts,
    bracket_monomials,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
)

from conftest import nambu_bracket, random_itable, so3_consts


def mono(*exps):
    return Monomial(exps)


def test_skew_pass_and_fail():
    q0 = QMap(d=2, domain_degree_bound=2)
    assert check_skew(q0, 2).passed
    bad = QMap(d=2, domain_degree_bound=1, assignments={
        mono(1, 0): Tensor2.from_pair(mono(1, 0), mono(0, 1))})
    rep = check_skew(bad, 1)
    assert not rep.passed
    assert rep.witnesses[0][0] == "x1"
    assert rep.total_violations == 1


def test_cojacobi_d2_always_passes(rng):
    for _ in range(5):
        I = random_itable(rng, 2, 4)
        q = make_copoisson(I)
        N = cojacobi_affordable_degree(q)
        assert check_cojacobi(q, N).passed


def test_cojacobi_bound_inflation():
    # a nonzero row at the empty monomial pushes the needed q-degree past
    # the table bound, so the check must refuse rather than extrapolate
    rows = {mono(0, 0, 0): SkewMatrix.from_upper(3, {(0, 1): Fraction(1)})}
    I = ITable(d=3, domain_degree_bound=2, rows=rows)
    q = make_copoisson(I)
    with pytest.raises(DegreeBoundError):
        check_cojacobi(q, 2)
    assert cojacobi_affordable_degree(q) < 2


def affordable_degree_by_rescan(q):
    """The largest affordable co-Jacobi degree found by trying every N in
    turn, each try rescanning the monomials: the reference for the one-pass
    cojacobi_affordable_degree."""
    best = -1
    for N in range(q.domain_degree_bound + 1):
        if cojacobi_required_bound(q, N) <= q.domain_degree_bound:
            best = N
        else:
            break
    return best


def test_affordable_degree_matches_rescan(rng):
    kinds = set()
    for _ in range(400):
        d = rng.randint(1, 3)
        bound = rng.randint(0, 4)
        assignments = {}
        for m in monomials(d, bound):
            if rng.random() < 0.3:
                u = rng.choice(monomials(d, bound + 2))
                v = rng.choice(monomials(d, 1))
                assignments[m] = Tensor2.from_pair(u, v)
        q = QMap(d=d, domain_degree_bound=bound, assignments=assignments)
        got = cojacobi_affordable_degree(q)
        assert got == affordable_degree_by_rescan(q)
        kinds.add((got == -1, got == bound))
    # tables affordable at no degree, at every degree and at some degrees
    assert kinds == {(True, False), (False, True), (False, False)}


def test_cojacobi_failing_case():
    # so(3) with one extra constant is no longer a Lie structure, and the
    # induced cobracket violates co-Jacobi
    bad = StructConsts(d=3, lam={
        (0, 1, 2): Fraction(1), (1, 2, 0): Fraction(1),
        (0, 2, 1): Fraction(-1), (1, 2, 2): Fraction(1)})
    I = ITable(d=3, domain_degree_bound=3,
               rows=dict(itable_from_consts(bad).rows))
    q = make_copoisson(I)
    for N in (1, 2):
        t = check_cojacobi(q, N)
        c = check_cojacobi_coeffs(I, N)
        assert t.passed == c.passed  # the two formulations agree
        assert not t.passed


def test_cojacobi_coeffs_agreement_random(rng):
    for _ in range(10):
        I = random_itable(rng, 3, 4, density=0.25)
        q = make_copoisson(I)
        N = min(2, cojacobi_affordable_degree(q))
        a = check_cojacobi(q, N).passed
        b = check_cojacobi_coeffs(I, N).passed
        assert a == b


def test_coleibniz_forms_agree(rng):
    for _ in range(5):
        I = random_itable(rng, 3, 3)
        q = make_copoisson(I)
        verdicts = {form: check_coleibniz(q, 3, form).passed
                    for form in ("definition", "form1", "form2")}
        assert len(set(verdicts.values())) == 1
        assert verdicts["definition"]
    # a violating q: q(a) = Delta(a)
    bad = QMap(d=2, domain_degree_bound=2, assignments={
        m: comult(m) for m in monomials(2, 2)})
    verdicts = [check_coleibniz(bad, 2, f).passed
                for f in ("definition", "form1", "form2")]
    assert verdicts == [False, False, False]


def test_counit_kill_failure():
    x = mono(1, 0)
    one = mono(0, 0)
    bad = QMap(d=2, domain_degree_bound=1, assignments={
        x: Tensor2.from_pair(one, x) - Tensor2.from_pair(x, one)})
    rep = check_counit_kill(bad, 1)
    assert not rep.passed


def test_delta_derivation_support(rng):
    # degree-1 supported tables are delta-derivations, higher support is not
    I1 = itable_from_consts(so3_consts())
    Iwide = ITable(d=3, domain_degree_bound=4, rows=dict(I1.rows))
    q = make_copoisson(Iwide)
    assert check_delta_derivation(q, 4).passed
    assert check_support_condition(Iwide).passed

    rows = dict(I1.rows)
    rows[mono(1, 1, 0)] = SkewMatrix.from_upper(3, {(0, 1): Fraction(1)})
    I2 = ITable(d=3, domain_degree_bound=4, rows=rows)
    q2 = make_copoisson(I2)
    assert not check_delta_derivation(q2, 4).passed
    rep = check_support_condition(I2)
    assert not rep.passed
    assert rep.witnesses[0][0] == "x1*x2"


def test_jacobi_so3_and_perturbation():
    B = linear_poisson(so3_consts())
    assert check_jacobi(B, 6).passed
    bad = StructConsts(d=3, lam={
        (0, 1, 2): Fraction(1), (1, 2, 0): Fraction(1),
        (0, 2, 1): Fraction(-1), (1, 2, 2): Fraction(1)})
    repb = check_jacobi(linear_poisson(bad), 2)
    assert not repb.passed
    relb = check_linear_relations(bad)
    assert not relb.passed
    assert relb.witnesses  # concrete (i,j,k,s) witness


def test_linear_relations_match_jacobi(rng):
    for _ in range(15):
        lam = {}
        for i in range(3):
            for j in range(i + 1, 3):
                for l in range(3):
                    if rng.random() < 0.4:
                        lam[(i, j, l)] = Fraction(rng.randint(-2, 2))
        c = StructConsts(d=3, lam=lam)
        assert (check_linear_relations(c).passed
                == check_jacobi(linear_poisson(c), 3).passed)


def test_poisson_hopf_compat():
    B = linear_poisson(so3_consts())
    assert check_poisson_hopf_compat(B, 4).passed
    # non-primitive bracket value breaks compatibility
    bad = BracketTable(d=2, f={(0, 1): Poly.from_monomial(mono(2, 0))})
    assert not check_poisson_hopf_compat(bad, 3).passed
    with pytest.raises(ValueError):
        check_poisson_hopf_compat(
            BracketTable(d=2, f={}, truncation_degree=2), 2)


def test_eps_s_morphisms():
    B = linear_poisson(so3_consts())
    rep = check_eps_s_morphisms(B, 4)
    assert rep.passed and not rep.skipped
    bad = BracketTable(d=2, f={(0, 1): Poly.from_monomial(mono(2, 0))})
    rep2 = check_eps_s_morphisms(bad, 3)
    assert rep2.skipped and rep2.passed
    # a precomputed compatibility report gives the same verdict
    for br, N in ((B, 4), (bad, 3)):
        compat = check_poisson_hopf_compat(br, N)
        assert (check_eps_s_morphisms(br, N, compat).to_dict()
                == check_eps_s_morphisms(br, N).to_dict())


def test_antipode_coanti(rng):
    # asserted for Hopf-compatible (degree-1-supported) cobrackets only
    I = itable_from_consts(so3_consts())
    q = make_copoisson(I)
    assert check_antipode_coanti(q, 1).passed
    for _ in range(5):
        lam = {}
        for i in range(3):
            for j in range(i + 1, 3):
                for l in range(3):
                    if rng.random() < 0.5:
                        lam[(i, j, l)] = Fraction(rng.randint(-3, 3))
        c = StructConsts(d=3, lam=lam)
        I1 = itable_from_consts(c)
        Iwide = ITable(d=3, domain_degree_bound=3, rows=dict(I1.rows))
        assert check_antipode_coanti(make_copoisson(Iwide), 3).passed


def test_membership_equivalence(rng):
    """skew + co-Leibniz for q iff every recovered I(a) lies in the span of
    the skew generator 2-tensors."""
    for _ in range(8):
        d = rng.choice([2, 3])
        M = 3
        I = random_itable(rng, d, M)
        q = make_copoisson(I)
        ok = check_skew(q, M).passed and check_coleibniz(q, M).passed
        member = all(in_skew_generator_space(i_from_q(q, m))
                     for m in monomials(d, M))
        assert ok and member
    # a structure violating membership: q(x) = x^2 (x) y - y (x) x^2
    x2 = mono(2, 0)
    y = mono(0, 1)
    bad = QMap(d=2, domain_degree_bound=1, assignments={
        mono(1, 0): Tensor2.from_pair(x2, y) - Tensor2.from_pair(y, x2)})
    assert check_skew(bad, 1).passed
    assert not check_coleibniz(bad, 1).passed
    assert not in_skew_generator_space(i_from_q(bad, mono(1, 0)))


def test_in_skew_generator_space_direct():
    x, y = mono(1, 0), mono(0, 1)
    good = Tensor2.from_pair(x, y) - Tensor2.from_pair(y, x)
    assert in_skew_generator_space(good)
    assert in_skew_generator_space(Tensor2())
    assert not in_skew_generator_space(Tensor2.from_pair(x, y))
    assert not in_skew_generator_space(
        Tensor2.from_pair(x * x, y) - Tensor2.from_pair(y, x * x))


def test_dual_of_abcd_trivial_on_polynomials():
    # on the polynomial algebra the cocommutator vanishes, so both sides
    # of the identity are zero; spot-check the ingredient directly
    from copoisson.hopf import cocommutator
    for m in monomials(2, 4):
        assert cocommutator(m).is_zero()


def test_dual_of_abcd_h4():
    from copoisson.finite import (
        qvals_from_vector,
        solve_copoisson_family,
        sweedler_h4,
    )
    H = sweedler_h4()
    fam = solve_copoisson_family(H)
    for vec in fam.basis:
        assert check_dual_of_abcd(H, qvals_from_vector(H, vec)).passed
    # and combinations
    combo = fam.member([Fraction(2), Fraction(-3, 2)])
    assert check_dual_of_abcd(H, qvals_from_vector(H, combo)).passed


def test_report_serialization():
    rep = check_skew(QMap(d=2, domain_degree_bound=1), 1)
    doc = rep.to_dict()
    assert doc["check"] == "skew" and doc["passed"] is True
    assert doc["witnesses"] == []


# --- integer scaling of the co-side checks ---------------------------------

class UnscaledQ(QMap):
    """A QMap whose checks run on q itself, in Fraction arithmetic."""

    def scaled(self):
        return self, 1


class UnscaledI(ITable):
    """An ITable whose checks and make_copoisson run on I itself."""

    def scaled(self):
        return self, 1


DENOMINATORS = (1, 2, 3, 5, 7)
denominators = st.sampled_from(DENOMINATORS)
rationals = st.builds(Fraction, st.integers(-3, 3), denominators)


@st.composite
def fractional_tables(draw):
    """(I, q): an I-table with denominators from DENOMINATORS, and its
    cobracket with one fractional term added to one row, so checks fail."""
    d = draw(st.integers(2, 3))
    bound = draw(st.integers(1, 5 - d))
    rows = {}
    for m in monomials(d, bound):
        mat = SkewMatrix.from_upper(d, {
            (i, j): draw(rationals)
            for i in range(d) for j in range(i + 1, d)})
        if not mat.is_zero():
            rows[m] = mat
    I = ITable(d=d, domain_degree_bound=bound, rows=rows)
    q = make_copoisson(I)
    m, u, v = (draw(st.sampled_from(monomials(d, bound))) for _ in range(3))
    c = Fraction(draw(st.integers(1, 3)), draw(st.sampled_from(DENOMINATORS)))
    q = QMap(d, bound, {**q.assignments, m: q(m) + Tensor2.from_pair(u, v, c)})
    return I, q


def co_side_reports(q, I):
    N = q.domain_degree_bound
    reports = [check_skew(q, N), check_counit_kill(q, N),
               check_delta_derivation(q, N), check_antipode_coanti(q, N),
               check_cojacobi_coeffs(I, N - 1)]
    reports += [check_coleibniz(q, N, form) for form in COLEIBNIZ_FORMS]
    top = cojacobi_affordable_degree(q)
    if top >= 0:
        reports.append(check_cojacobi(q, top))
    return [r.to_dict() for r in reports]


def fractions_only(t):
    return all(type(c) is Fraction for c in t.terms.values())


@settings(deadline=None, max_examples=30)
@given(fractional_tables())
def test_scaled_checks_match_unscaled_arithmetic(tables):
    I, q = tables
    scaled = co_side_reports(q, I)
    assert scaled == co_side_reports(
        UnscaledQ(q.d, q.domain_degree_bound, q.assignments),
        UnscaledI(I.d, I.domain_degree_bound, I.rows))
    assert not scaled[0]["passed"]  # the added term u (x) v is never skew
    # no int leaks into the public tables
    q0 = make_copoisson(I)
    assert q0 == make_copoisson(
        UnscaledI(I.d, I.domain_degree_bound, I.rows))
    assert all(fractions_only(t) for t in q0.assignments.values())
    for m in monomials(I.d, I.domain_degree_bound):
        assert fractions_only(q_from_i(I, m))
        assert fractions_only(i_from_q(q, m))


def reference_cojacobi_coeffs(I, N):
    """The coefficient form of co-Jacobi with each lambda_a^{ij} read off the
    skew matrix of row a, in Fraction arithmetic: a reference that shares
    no lookup with check_cojacobi_coeffs."""
    def residual(key):
        a, (i, j, k) = key
        total = 0
        for coeff, (a1, a2) in splittings(a, 2):
            m1 = I.matrix(a1)
            for s in range(I.d):
                m2 = I.matrix(Monomial.variable(I.d, s) * a2)
                total += coeff * (m1[s, k] * m2[i, j] + m1[s, i] * m2[j, k]
                                  + m1[s, j] * m2[k, i])
        return total
    return _check("cojacobi-coeffs", N,
                  product(monomials(I.d, N), combinations(range(I.d), 3)),
                  residual, lambda key: f"a={format_monomial(key[0])}, "
                  f"(i,j,k)={_one_based(key[1])}", format_coeff)


@settings(deadline=None, max_examples=30)
@given(fractional_tables())
def test_cojacobi_coeffs_matches_the_skew_matrix_reference(tables):
    I, _ = tables
    for N in range(I.domain_degree_bound):
        assert (check_cojacobi_coeffs(I, N).to_dict()
                == reference_cojacobi_coeffs(I, N).to_dict())


def rescaled(q, k):
    """q with (k D q, k D) as its scaled(): a common denominator k times
    the least one."""
    t, D = q.scaled()
    return QMap.from_scaled(QMap(q.d, q.domain_degree_bound, {
        m: Tensor2._trusted({key: k * c for key, c in v.terms.items()})
        for m, v in t.assignments.items()}), k * D)


@settings(deadline=None, max_examples=30)
@given(fractional_tables(), st.integers(2, 6))
def test_the_choice_of_d_does_not_change_a_report(tables, k):
    I, q = tables
    made = make_copoisson(I)
    # make_copoisson hands q the D of I.scaled(); a fresh QMap of the same
    # assignments finds its own lcm
    assert made._scaled is not None and made.scaled()[1] == I.scaled()[1]
    own = QMap(made.d, made.domain_degree_bound, made.assignments)
    assert own == made and made.scaled()[1] % own.scaled()[1] == 0
    assert (json.dumps(co_side_reports(made, I))
            == json.dumps(co_side_reports(own, I)))
    # a common denominator k times the least, on a table that fails checks
    assert (json.dumps(co_side_reports(rescaled(q, k), I))
            == json.dumps(co_side_reports(q, I)))
    for m in monomials(I.d, I.domain_degree_bound):
        assert i_from_q(made, m) == i_from_q(own, m) == I(m)
        assert i_from_q(rescaled(q, k), m) == i_from_q(q, m)
    # the tables are frozen, and a key past the bound is refused at once
    m = next(iter(q.assignments))
    with pytest.raises(TypeError):
        q.assignments[m] = Tensor2()
    with pytest.raises(TypeError):
        I.rows[m] = SkewMatrix.zero(I.d)
    with pytest.raises(FrozenInstanceError):
        q.assignments = {}
    with pytest.raises(FrozenInstanceError):
        I.rows = {}
    past = Monomial((I.domain_degree_bound + 1,) + (0,) * (I.d - 1))
    with pytest.raises(DegreeBoundError, match="beyond bound"):
        QMap(q.d, q.domain_degree_bound, {**q.assignments, past: q(m)})
    with pytest.raises(DimensionMismatchError, match="inconsistent with d"):
        QMap(q.d + 1, q.domain_degree_bound, q.assignments)


class UnscaledB(BracketTable):
    """A BracketTable whose checks run on B itself, in Fraction arithmetic."""

    def scaled(self):
        return self, 1


@st.composite
def fractional_brackets(draw):
    """(d, f, truncation): entries of degree <= 2 with denominators from
    DENOMINATORS; f_12 has a constant term, so eps({x1, x2}) != 0."""
    d = draw(st.integers(2, 4))
    f = {}
    for i in range(d):
        for j in range(i + 1, d):
            terms = {m: draw(rationals) for m in monomials(d, 2)
                     if draw(st.integers(0, 2)) == 0}
            if (i, j) == (0, 1):
                terms[Monomial.unit(d)] = Fraction(draw(st.integers(1, 3)),
                                                   draw(denominators))
            f[(i, j)] = Poly(terms)
    return d, f, draw(st.one_of(st.none(), st.integers(1, 3)))


def bracket_side_reports(B, N):
    reports = [check_jacobi(B, N)]
    if not B.series_mode:
        # eps/S runs as if compatibility passed, so that it can fail
        forced = CheckReport("poisson-hopf", passed=True, degree_checked=N)
        reports += [check_poisson_hopf_compat(B, N),
                    check_eps_s_morphisms(B, N, compat=forced)]
    return [r.to_dict() for r in reports]


@settings(deadline=None, max_examples=40)
@given(fractional_brackets(), st.integers(2, 3))
def test_scaled_bracket_checks_match_unscaled_arithmetic(bracket, N):
    d, f, truncation = bracket
    B = BracketTable(d=d, f=f, truncation_degree=truncation)
    scaled = bracket_side_reports(B, N)
    assert scaled == bracket_side_reports(UnscaledB(d, f, truncation), N)
    if truncation is None:
        assert not scaled[2]["passed"]  # eps({x1, x2}) != 0 at N >= 2
    # no int leaks into the table as given or into its brackets
    assert all(fractions_only(p) for p in B.f.values())
    for a in monomials(d, 2):
        assert fractions_only(bracket_monomials(B, a, a * a))


def test_scaled_bracket_table():
    x1, x2, x3 = (Poly.from_monomial(mono(*(int(k == i) for k in range(3))))
                  for i in range(3))
    f = {(0, 1): Fraction(1, 2) * x3 + Fraction(2, 3) * x1 * x2,
         (1, 2): Fraction(-5, 4) * x1, (0, 2): 7 * x2}
    B = BracketTable(d=3, f=f)
    S, D = B.scaled()
    assert D == 12 and B.scaled() is B.scaled()
    assert S.f == {(0, 1): Poly({mono(0, 0, 1): 6, mono(1, 1, 0): 8}),
                   (1, 2): Poly({mono(1, 0, 0): -15}),
                   (0, 2): Poly({mono(0, 1, 0): 84})}
    assert all(type(c) is int for p in S.f.values() for c in p.terms.values())
    assert S.scaled() == (S, 1) and not S.series_mode
    # the copy keeps its own memo; the table as given stays Fraction-valued
    a, b = mono(1, 1, 0), mono(0, 1, 1)
    assert bracket_monomials(S, a, b) == bracket_monomials(B, a, b).scale(D)
    assert all(type(c) is int
               for c in bracket_monomials(S, a, b).terms.values())
    assert fractions_only(bracket_monomials(B, a, b))
    assert all(fractions_only(p) for p in B.f.values())
    assert S._memo.keys() == B._memo.keys() == {(a, b)}
    # series mode: the copy is truncated as the table is, and stays int
    T, D = BracketTable(d=3, f=f, truncation_degree=1).scaled()
    assert D == 4 and T.truncation_degree == 1
    assert T.f[(0, 1)] == Poly({mono(0, 0, 1): 2})
    assert type(T.f[(0, 1)].terms[mono(0, 0, 1)]) is int
    assert BracketTable(d=2).scaled()[1] == 1


def test_scaled_tables():
    x, y = mono(1, 0), mono(0, 1)
    q = QMap(d=2, domain_degree_bound=1, assignments={
        x: Tensor2({(x, y): Fraction(1, 6), (y, x): Fraction(-3, 4)})})
    qs, D = q.scaled()
    assert D == 12 and q.scaled() is q.scaled()
    assert qs(x).terms == {(x, y): 2, (y, x): -9}
    assert all(type(c) is int for c in qs(x).terms.values())
    assert QMap(d=2, domain_degree_bound=1).scaled()[1] == 1
    I = ITable(d=2, domain_degree_bound=1, rows={
        x: SkewMatrix.from_upper(2, {(0, 1): Fraction(2, 5)})})
    Is, D = I.scaled()
    # an I-table scales as the QMap of its generator-pair tensors it is
    assert D == 5 and I.scaled() is I.scaled() and type(Is) is QMap
    assert Is(x).terms == {(x, y): 2, (y, x): -2}
    assert all(type(c) is int for c in Is(x).terms.values())
    assert I(x) is I(x) and I(x) == I.matrix(x)
    # the inherited constructor builds a plain QMap, not an ITable
    back = ITable.from_scaled(Is, D)
    assert type(back) is QMap and back.assignments == I.assignments
    assert ITable(d=2, domain_degree_bound=1).scaled()[1] == 1


def test_only_the_kept_witnesses_are_formatted(monkeypatch):
    N = 4
    one = mono(0, 0)
    q = QMap(d=2, domain_degree_bound=N, assignments={
        m: Tensor2.from_pair(m, one, Fraction(1, 3)) for m in monomials(2, N)})
    # every monomial is a skew violation; an eager formatter is the reference
    want = [(format_monomial(m), format_tensor(q(m) + t2_swap(q(m))))
            for m in monomials(2, N)]
    assert len(want) > WITNESS_CAP
    rendered = []

    def render(t, names=None, den=1):
        rendered.append(t)
        return format_tensor(t, names, den=den)

    got = _scaled_check("skew", q, N, lambda t, m: t(m) + t2_swap(t(m)),
                        render=render)
    assert 0 < len(rendered) <= WITNESS_CAP
    assert got.witnesses == want[:WITNESS_CAP]
    assert got.total_violations == len(want)
    assert got.to_dict() == check_skew(q, N).to_dict()

    # the bracket side: {x1, x2} = x1^2 breaks Hopf compatibility on more
    # pairs than the cap, and the check renders with format_tensor
    bad = BracketTable(d=2, f={(0, 1): Poly.from_monomial(mono(2, 0))})
    reference = check_poisson_hopf_compat(bad, N)
    assert reference.total_violations > WITNESS_CAP
    rendered.clear()
    monkeypatch.setattr("copoisson.checks.format_tensor", render)
    assert check_poisson_hopf_compat(bad, N).to_dict() == reference.to_dict()
    assert 0 < len(rendered) <= WITNESS_CAP
