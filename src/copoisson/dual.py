"""Degree-truncated dual of k[x1..xd] as power series, and its bracket.

The dual coalgebra basis is carried in the ordinary power-series basis
X^b with the factorial weight pushed into the evaluation pairing
<X^b, x^a> = a! delta_{ab}.  With this convention series multiplication is
ordinary polynomial multiplication and the factorial rescaling of the
polynomial/series correspondence is literal in code.  A series modulo
degree > N is a Poly with no terms beyond degree N, and the convolution
product of two such series is (f * g).truncate(N).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    factorial,
    format_poly,
    monomials,
)
from .checks import (
    WITNESS_CAP,
    CheckReport,
    check_cojacobi,
    check_coleibniz,
    check_jacobi,
    check_skew,
    cojacobi_affordable_degree,
)
from .structures import copoisson_from_series, make_copoisson


def pairing(f, a):
    """<f, a> with <X^b, x^a> = a! delta_{ab}, extended bilinearly."""
    total = Fraction(0)
    for m, c in f.terms.items():
        ca = a.coeff(m)
        if ca:
            total += c * ca * factorial(m)
    return total


def dual_bracket(q, f, g, N):
    """{f, g} modulo degree > N: the series whose c-coefficient is
    (f (x) g) q(c) / c!.

    f and g are series given as Polys; their terms beyond degree N are
    dropped first, as q(c) with |c| = N can have factors of degree N + 1.
    Each pair of nonzero terms f_u X^u, g_v X^v is weighted once, by
    f_u u! g_v v!, and looked up in every q(c) at the key (u, v)."""
    if q.domain_degree_bound < N:
        raise DegreeBoundError(
            f"dual_bracket needs q up to degree {N}, table bound is "
            f"{q.domain_degree_bound}")
    fw = [(u, c * factorial(u)) for u, c in f.truncate(N).terms.items()]
    gw = [(v, c * factorial(v)) for v, c in g.truncate(N).terms.items()]
    weights = [((u, v), fu * gv) for u, fu in fw for v, gv in gw]
    out = {}
    for c in monomials(q.d, N):
        qc = q(c).terms
        total = Fraction(0)
        for uv, fg in weights:
            w = qc.get(uv)
            if w:
                total += w * fg
        if total:
            out[c] = total / factorial(c)
    return Poly._trusted(out)


def verify_main5_roundtrip(B, N):
    """End-to-end check of the series-bracket / cobracket correspondence.

    (a) the I-table built from B yields a q passing skew, co-Leibniz and
    co-Jacobi (the latter at the largest affordable degree); (b) the dual
    bracket of the coordinate series recovers every f_ij up to degree N.
    """
    if not B.series_mode or B.truncation_degree != N:
        raise ValueError("bracket table must be in series mode truncated at N")
    jac = check_jacobi(B, N)
    if not jac.passed:
        return CheckReport(
            check_name="main5-roundtrip", passed=False, degree_checked=N,
            witnesses=jac.witnesses, total_violations=jac.total_violations,
            note="precondition failed: bracket does not satisfy Jacobi "
                 f"modulo degree > {N}")
    I = copoisson_from_series(B)
    q = make_copoisson(I)
    witnesses = []
    total = 0
    sub = [check_skew(q, N), check_coleibniz(q, N)]
    cj_degree = cojacobi_affordable_degree(q)
    if cj_degree >= 0:
        sub.append(check_cojacobi(q, cj_degree))
    for rep in sub:
        if not rep.passed:
            total += rep.total_violations
            for w in rep.witnesses:
                witnesses.append((f"{rep.check_name}: {w[0]}", w[1]))
    d = B.d
    for i, j in combinations(range(d), 2):
        xi = Poly.from_monomial(Monomial.variable(d, i))
        xj = Poly.from_monomial(Monomial.variable(d, j))
        res = dual_bracket(q, xi, xj, N) - B.entry(i, j)
        if res:
            total += 1
            witnesses.append(
                (f"dual_bracket(X{i + 1}, X{j + 1})", format_poly(res)))
    return CheckReport(
        check_name="main5-roundtrip",
        passed=total == 0,
        degree_checked=N,
        witnesses=witnesses[:WITNESS_CAP],
        total_violations=total,
        note=f"co-Jacobi verified up to degree {cj_degree}",
    )
