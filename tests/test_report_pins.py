"""Full-report pins for failing checks that no golden CLI digest covers.

The golden digests run the CLI on passing fixtures or on co-side tables,
so they do not fix the witness text, the witness order or the cap of the
bracket-side and finite-carrier checks.  Each case here pins the whole
`to_dict()` of one failing report.
"""

from fractions import Fraction

from copoisson.algebra import Monomial, Poly, monomials
from copoisson.checks import (
    WITNESS_CAP,
    check_dual_of_abcd,
    check_jacobi,
    check_poisson_hopf_compat,
    check_support_condition,
)
from copoisson.finite import sweedler_h4
from copoisson.structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    StructConsts,
    linear_poisson,
)


def test_dual_of_abcd_report_with_main_and_corollary_violations():
    H = sweedler_h4()
    qvals = {c: {} for c in range(H.dim)}
    qvals[1] = {(1, 2): Fraction(1), (2, 1): Fraction(-1)}  # q(g) = g^x - x^g
    assert check_dual_of_abcd(H, qvals).to_dict() == {
        "check": "dual-of-abcd",
        "degree_checked": 0,
        "passed": False,
        "total_violations": 4,
        "witnesses": [
            {"input": "basis element x",
             "residual": "-1*g(x)x(x)1(x)x + 1*g(x)x(x)g(x)x + "
                         "1*g(x)x(x)x(x)1 + -1*g(x)x(x)x(x)g + "
                         "1*x(x)g(x)1(x)x + -1*x(x)g(x)g(x)x + "
                         "-1*x(x)g(x)x(x)1 + 1*x(x)g(x)x(x)g"},
            {"input": "basis element x (corollary identity)",
             "residual": "1*g(x)x(x)g(x)1(x)x + -1*g(x)x(x)g(x)g(x)x + "
                         "-1*g(x)x(x)g(x)x(x)1 + 1*g(x)x(x)g(x)x(x)g + "
                         "-1*x(x)g(x)g(x)1(x)x + 1*x(x)g(x)g(x)g(x)x + "
                         "1*x(x)g(x)g(x)x(x)1 + -1*x(x)g(x)g(x)x(x)g"},
            {"input": "basis element gx",
             "residual": "-1*1(x)gx(x)g(x)x + 1*1(x)gx(x)x(x)g + "
                         "1*g(x)gx(x)g(x)x + -1*g(x)gx(x)x(x)g + "
                         "1*gx(x)1(x)g(x)x + -1*gx(x)1(x)x(x)g + "
                         "-1*gx(x)g(x)g(x)x + 1*gx(x)g(x)x(x)g"},
            {"input": "basis element gx (corollary identity)",
             "residual": "1*1(x)gx(x)g(x)g(x)x + -1*1(x)gx(x)g(x)x(x)g + "
                         "-1*g(x)gx(x)g(x)g(x)x + 1*g(x)gx(x)g(x)x(x)g + "
                         "-1*gx(x)1(x)g(x)g(x)x + 1*gx(x)1(x)g(x)x(x)g + "
                         "1*gx(x)g(x)g(x)g(x)x + -1*gx(x)g(x)g(x)x(x)g"},
        ],
    }


def test_series_jacobi_report_drops_terms_past_the_truncation():
    x1, x2, x3 = (Poly.from_monomial(Monomial.variable(3, i))
                  for i in range(3))
    f = {(0, 1): x3 * x3 + x1 * x2 * x3, (1, 2): x1 + x2 * x2,
         (0, 2): x1 * x2}
    series = BracketTable(d=3, f=f, truncation_degree=3)
    assert check_jacobi(series, 3).to_dict() == {
        "check": "jacobi",
        "degree_checked": 3,
        "passed": False,
        "total_violations": 1,
        "witnesses": [{"input": "(i,j,k)=(1,2,3)",
                       "residual": "x1^2*x3 - 3*x2*x3^2"}],
    }
    # the polynomial bracket keeps the degree-4 term the series drops
    assert check_jacobi(BracketTable(d=3, f=f), 3).witnesses == [
        ("(i,j,k)=(1,2,3)", "x1^2*x3 - 3*x2*x3^2 - x1*x2^2*x3")]


def test_jacobi_report_past_the_witness_cap():
    lam = {(i, j, (i + j) % 6): Fraction(1)
           for i in range(6) for j in range(i + 1, 6)}
    report = check_jacobi(linear_poisson(StructConsts(d=6, lam=lam)), 1)
    assert report.total_violations > WITNESS_CAP
    assert report.to_dict() == {
        "check": "jacobi",
        "degree_checked": 1,
        "passed": False,
        "total_violations": 17,
        "witnesses": [
            {"input": "(i,j,k)=(1,2,3)", "residual": "x4"},
            {"input": "(i,j,k)=(1,2,4)", "residual": "x5"},
            {"input": "(i,j,k)=(1,2,5)", "residual": "x6"},
            {"input": "(i,j,k)=(1,2,6)", "residual": "2*x1"},
            {"input": "(i,j,k)=(1,3,4)", "residual": "x6"},
            {"input": "(i,j,k)=(1,3,5)", "residual": "2*x1"},
            {"input": "(i,j,k)=(1,3,6)", "residual": "x2"},
            {"input": "(i,j,k)=(1,4,5)", "residual": "x2"},
            {"input": "(i,j,k)=(1,4,6)", "residual": "x3"},
            {"input": "(i,j,k)=(1,5,6)", "residual": "x4"},
        ],
    }


def test_support_report_past_the_witness_cap():
    rows = {m: SkewMatrix.from_upper(2, {(0, 1): Fraction(m.degree + 1, 2)})
            for m in monomials(2, 4)}
    rows[Monomial((1, 1))] = SkewMatrix.from_upper(2, {})  # a stored zero row
    report = check_support_condition(
        ITable(d=2, domain_degree_bound=4, rows=rows))
    assert report.total_violations > WITNESS_CAP
    assert report.to_dict() == {
        "check": "support",
        "degree_checked": 4,
        "passed": False,
        "total_violations": 12,
        "witnesses": [
            {"input": "1", "residual": "1/2*x1(x)x2 - 1/2*x2(x)x1"},
            {"input": "x1^2", "residual": "3/2*x1(x)x2 - 3/2*x2(x)x1"},
            {"input": "x2^2", "residual": "3/2*x1(x)x2 - 3/2*x2(x)x1"},
            {"input": "x1^3", "residual": "2*x1(x)x2 - 2*x2(x)x1"},
            {"input": "x1^2*x2", "residual": "2*x1(x)x2 - 2*x2(x)x1"},
            {"input": "x1*x2^2", "residual": "2*x1(x)x2 - 2*x2(x)x1"},
            {"input": "x2^3", "residual": "2*x1(x)x2 - 2*x2(x)x1"},
            {"input": "x1^4", "residual": "5/2*x1(x)x2 - 5/2*x2(x)x1"},
            {"input": "x1^3*x2", "residual": "5/2*x1(x)x2 - 5/2*x2(x)x1"},
            {"input": "x1^2*x2^2",
             "residual": "5/2*x1(x)x2 - 5/2*x2(x)x1"},
        ],
    }


# Brackets with coefficients over 2 and 3: the lcm of their denominators
# is 6 and every witness below has a fractional coefficient, so the pins
# fix how a check on an int-scaled table divides its witnesses back.

def sixths_bracket(truncation):
    x1, x2, x3, x4 = (Poly.from_monomial(Monomial.variable(4, i))
                      for i in range(4))
    f = {(0, 1): Fraction(1, 2) * x3 * x3 + Fraction(1, 3) * x1 * x4,
         (1, 2): Fraction(2, 3) * x1 + Fraction(1, 2) * x2 * x4,
         (0, 2): Fraction(1, 3) * x2 * x2,
         (2, 3): Fraction(1, 2) * x1 * x2,
         (0, 3): Fraction(1, 2) * x3}
    return BracketTable(d=4, f=f, truncation_degree=truncation)


def test_jacobi_report_with_fractional_witnesses():
    assert check_jacobi(sixths_bracket(None), 3).to_dict() == {
        "check": "jacobi",
        "degree_checked": 3,
        "passed": False,
        "total_violations": 4,
        "witnesses": [
            {"input": "(i,j,k)=(1,2,3)",
             "residual": "-1/4*x2*x3 - 1/6*x1^2*x2 - 1/6*x1*x4^2 "
                         "+ 1/9*x2^2*x4 - 1/4*x3^2*x4"},
            {"input": "(i,j,k)=(1,2,4)",
             "residual": "1/3*x1 + 1/4*x2*x4 + 1/6*x3*x4 + 1/2*x1*x2*x3"},
            {"input": "(i,j,k)=(1,3,4)",
             "residual": "-1/6*x1^2*x4 - 1/4*x1*x3^2"},
            {"input": "(i,j,k)=(2,3,4)",
             "residual": "1/3*x3 + 1/6*x1*x2*x4 + 1/4*x2*x3^2"},
        ],
    }


def test_series_jacobi_report_with_fractional_witnesses():
    assert check_jacobi(sixths_bracket(2), 2).to_dict() == {
        "check": "jacobi",
        "degree_checked": 2,
        "passed": False,
        "total_violations": 3,
        "witnesses": [
            {"input": "(i,j,k)=(1,2,3)", "residual": "-1/4*x2*x3"},
            {"input": "(i,j,k)=(1,2,4)",
             "residual": "1/3*x1 + 1/4*x2*x4 + 1/6*x3*x4"},
            {"input": "(i,j,k)=(2,3,4)", "residual": "1/3*x3"},
        ],
    }


def test_poisson_hopf_report_with_fractional_witnesses():
    x1, x2 = (Poly.from_monomial(Monomial.variable(2, i)) for i in range(2))
    B = BracketTable(d=2, f={(0, 1): Fraction(1, 2) * x1 * x1
                             + Fraction(1, 3) * x2 * x2 * x1
                             + Fraction(2, 3) * x2})
    assert check_poisson_hopf_compat(B, 3).to_dict() == {
        "check": "poisson-hopf",
        "degree_checked": 3,
        "passed": False,
        "total_violations": 5,
        "witnesses": [
            {"input": "(x1, x2)",
             "residual": "x1(x)x1 + 1/3*x1(x)x2^2 + 2/3*x2(x)x1*x2 "
                         "+ 2/3*x1*x2(x)x2 + 1/3*x2^2(x)x1"},
            {"input": "(x1, x1*x2)",
             "residual": "x1(x)x1^2 + 1/3*x1(x)x1*x2^2 + 2/3*x2(x)x1^2*x2 "
                         "+ x1^2(x)x1 + 1/3*x1^2(x)x2^2 "
                         "+ 4/3*x1*x2(x)x1*x2 + 1/3*x2^2(x)x1^2 "
                         "+ 2/3*x1^2*x2(x)x2 + 1/3*x1*x2^2(x)x1"},
            {"input": "(x1, x2^2)",
             "residual": "2*x1(x)x1*x2 + 2/3*x1(x)x2^3 + 4/3*x2(x)x1*x2^2 "
                         "+ 2*x1*x2(x)x1 + 2*x1*x2(x)x2^2 "
                         "+ 2*x2^2(x)x1*x2 + 4/3*x1*x2^2(x)x2 "
                         "+ 2/3*x2^3(x)x1"},
            {"input": "(x2, x1^2)",
             "residual": "-2*x1(x)x1^2 - 2/3*x1(x)x1*x2^2 "
                         "- 4/3*x2(x)x1^2*x2 - 2*x1^2(x)x1 "
                         "- 2/3*x1^2(x)x2^2 - 8/3*x1*x2(x)x1*x2 "
                         "- 2/3*x2^2(x)x1^2 - 4/3*x1^2*x2(x)x2 "
                         "- 2/3*x1*x2^2(x)x1"},
            {"input": "(x2, x1*x2)",
             "residual": "-x1(x)x1*x2 - 1/3*x1(x)x2^3 - 2/3*x2(x)x1*x2^2 "
                         "- x1*x2(x)x1 - x1*x2(x)x2^2 - x2^2(x)x1*x2 "
                         "- 2/3*x1*x2^2(x)x2 - 1/3*x2^3(x)x1"},
        ],
    }
