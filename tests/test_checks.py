from fractions import Fraction

import pytest

from copoisson.algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    Tensor2,
    monomials,
)
from copoisson.checks import (
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
    in_skew_generator_space,
)
from copoisson.hopf import QMap, comult, i_from_q
from copoisson.structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    StructConsts,
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
