"""cobracket-certify: build q(a) = I(a1) Delta(a2) from an I-table, recover
I from q on every monomial, and run every co-side check.

Predictions: skew, counit-kill and the three co-Leibniz forms pass for
every table; i_from_q returns I; co-Jacobi (both forms) passes up to the
degree where the Jacobiator of the series bracket f_ij = sum l_a^ij x^a/a!
first has a nonzero term, as sympy computes it; delta-derivation and the
support condition pass exactly when the table vanishes off degree 1; the
antipode identity q(S a) = t2 (S (x) S) q(a) passes exactly when no row of
even degree is nonzero (each term of I(a1) Delta(a2) changes sign under
the identity by (-1)^(|a1| + 1)).
"""

from __future__ import annotations

from harness import Op, expect, expect_failures_witnessed, report_verdicts
from inputs import (bianchi_consts, dense_table, nambu_bracket, nilpotent_consts,
                    nonlie_consts, sparse_table)
from predict import TableChecks
from reference import consts_table, table_of_series, table_tensor


def tables(rng):
    """(label, d, bound, table): the operation list of one pass.

    Three large tables, whose q(a) carry up to hundreds of terms, set the
    far tail.  Twenty dense linear d=4 tables come next, so that the 90th
    percentile falls in the middle of one kind of operation.  Eleven rounds
    of small tables of every kind (passing and failing co-Jacobi, with and
    without unit and even-degree rows) set the median."""
    out = [
        ("d3-b3-sparse", 3, 3, sparse_table(rng, 3, 3, {1: 1, 2: 2, 3: 1})),
        ("d2-b5-sparse", 2, 5, sparse_table(rng, 2, 5, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1})),
        ("nambu-b2", 3, 2, table_of_series(nambu_bracket(rng, 2))),
    ]
    for t in range(20):
        out.append((f"d4-b1-dense-{t}", 4, 1, dense_table(rng, 4, 1, {1})))
    for t in range(11):
        out.append((f"d2-b2-dense-{t}", 2, 2, dense_table(rng, 2, 2, {0, 1, 2})))
        out.append((f"d2-b3-odd-{t}", 2, 3, dense_table(rng, 2, 3, {1, 3})))
        out.append((f"d3-b1-dense-{t}", 3, 1, dense_table(rng, 3, 1, {0, 1})))
        out.append((f"d3-b2-sparse-{t}", 3, 2, sparse_table(rng, 3, 2, {1: 1, 2: 1})))
        out.append((f"bianchi-b2-{t}", 3, 2, consts_table(3, bianchi_consts(rng))))
        out.append((f"nilpotent4-b2-{t}", 4, 2, consts_table(4, nilpotent_consts(rng, 4))))
        out.append((f"nilpotent5-b1-{t}", 5, 1, consts_table(5, nilpotent_consts(rng, 5))))
        out.append((f"nonlie3-b1-{t}", 3, 1, consts_table(3, nonlie_consts(rng, 3))))
    return out


def make_op(cp, label, d, bound, table):
    I = cp.structures.ITable(
        d=d, domain_degree_bound=bound,
        rows={cp.algebra.Monomial(m): cp.structures.SkewMatrix.from_upper(d, row)
              for m, row in table.items()})
    checks = TableChecks(d, bound, table, "copoisson")

    def run():
        q = cp.structures.make_copoisson(I)
        recovered = [(m, cp.hopf.i_from_q(q, m)) for m in cp.algebra.monomials(d, bound)]
        ck = cp.checks
        reports = [ck.check_skew(q, bound), ck.check_counit_kill(q, bound)]
        reports += [ck.check_coleibniz(q, bound, form)
                    for form in ("definition", "form1", "form2")]
        reports.append(ck.check_cojacobi(q, ck.cojacobi_affordable_degree(q)))
        reports.append(ck.check_cojacobi_coeffs(I, bound - 1))
        reports.append(ck.check_delta_derivation(q, bound))
        reports.append(ck.check_antipode_coanti(q, bound))
        reports.append(ck.check_support_condition(I))
        return recovered, reports

    def check(result, answers):
        recovered, reports = result
        for m, t in recovered:
            expect(t.terms == table_tensor(table.get(tuple(m), {}), d),
                   f"i_from_q differs from I at {tuple(m)}")
        checks.take(answers)
        want = checks.predict(checks.names(), None)
        want["coleibniz[form1]"] = want["coleibniz[form2]"] = (True, bound)
        got = {r.check_name: (r.passed, r.degree_checked) for r in reports}
        expect(got == want, f"verdicts {got} != predicted {want}")
        expect_failures_witnessed(reports)
        return report_verdicts(reports)

    return Op(label, run, check, checks.requests)


def build(cp, rng, workdir):
    return [make_op(cp, *spec) for spec in tables(rng)]
