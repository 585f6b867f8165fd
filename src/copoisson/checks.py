"""Degree-bounded verdicts, with failure witnesses, for every axiom.

A pass is a certificate "verified up to degree N", never a claim about
all of A.  Witness enumeration is graded-lex so reports are reproducible;
witness lists are capped with a total-violation count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    axpy,
    bump,
    cyclic_sum,
    format_monomial,
    format_poly,
    format_tensor2,
    format_tensor3,
    format_coeff,
    grlex_key,
    monomials,
    poly_tensor_poly,
    splittings,
    t2_swap,
    t3_cycle,
    tensor2_mul,
)
from .hopf import (
    antipode,
    antipode_tensor2,
    comult,
    comult_poly,
    counit,
    delta_left,
    delta_right,
    q_left,
    q_outer_left_degree,
    q_right,
)
from .structures import bracket_monomials, poisson_bracket

WITNESS_CAP = 10


@dataclass
class CheckReport:
    check_name: str
    passed: bool
    degree_checked: int
    witnesses: list = field(default_factory=list)
    total_violations: int = 0
    skipped: bool = False
    note: str = ""

    def to_dict(self):
        d = {
            "check": self.check_name,
            "passed": self.passed,
            "degree_checked": self.degree_checked,
            "total_violations": self.total_violations,
            "witnesses": [{"input": w[0], "residual": w[1]}
                          for w in self.witnesses],
        }
        if self.skipped:
            d["skipped"] = True
        if self.note:
            d["note"] = self.note
        return d


class _Collector:
    def __init__(self, name, degree):
        self.name = name
        self.degree = degree
        self.witnesses = []
        self.count = 0

    def violation(self, description, residual):
        self.count += 1
        if len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append((description, residual))

    def report(self, note=""):
        return CheckReport(
            check_name=self.name,
            passed=self.count == 0,
            degree_checked=self.degree,
            witnesses=self.witnesses,
            total_violations=self.count,
            note=note,
        )


def _require_bound(value, bound, what):
    if value > bound:
        raise DegreeBoundError(
            f"{what} requires table bound >= {value}, have {bound}",
            required=value)


def check_skew(q, N):
    """(1 + t2) q(a) = 0 for all monomials |a| <= N."""
    _require_bound(N, q.domain_degree_bound, "check_skew")
    col = _Collector("skew", N)
    for m in monomials(q.d, N):
        v = q(m)
        res = v + t2_swap(v)
        if res:
            col.violation(format_monomial(m), format_tensor2(res))
    return col.report()


def cojacobi_required_bound(q, N):
    """Largest q-argument degree needed by (q (x) 1) q on monomials <= N."""
    need = N
    for m in monomials(q.d, N):
        v = q(m)
        if v:
            need = max(need, q_outer_left_degree(v))
    return need


def cojacobi_affordable_degree(q):
    """Largest N <= bound at which the co-Jacobi check can run on this table."""
    best = -1
    for N in range(q.domain_degree_bound + 1):
        if cojacobi_required_bound(q, N) <= q.domain_degree_bound:
            best = N
        else:
            break
    return best


def check_cojacobi(q, N):
    """(1 + t3 + t3^2)(q (x) 1) q(a) = 0 for all |a| <= N."""
    need = cojacobi_required_bound(q, N)
    _require_bound(need, q.domain_degree_bound, "check_cojacobi")
    col = _Collector("cojacobi", N)
    for m in monomials(q.d, N):
        res = cyclic_sum(q_left(q(m), q))
        if res:
            col.violation(format_monomial(m), format_tensor3(res))
    return col.report()


COLEIBNIZ_FORMS = ("definition", "form1", "form2")


def check_coleibniz(q, N, form="definition"):
    """The co-Leibniz rule in one of its three equivalent shapes.

    definition: (Delta (x) 1) q = (1 (x) q) Delta - t3^2 (q (x) 1) Delta
    form1:      (1 (x) Delta) q = (q (x) 1) Delta - t3   (1 (x) q) Delta
    form2:      (Delta (x) 1) q = (1 - t3) (1 (x) q) Delta
    (form2 uses cocommutativity, which always holds on A.)
    """
    if form not in COLEIBNIZ_FORMS:
        raise ValueError(f"unknown co-Leibniz form {form!r}")
    _require_bound(N, q.domain_degree_bound, "check_coleibniz")
    col = _Collector(f"coleibniz[{form}]", N)
    for m in monomials(q.d, N):
        dm = comult(m)
        if form == "definition":
            lhs = delta_left(q(m))
            rhs = q_right(dm, q) - t3_cycle(t3_cycle(q_left(dm, q)))
        elif form == "form1":
            lhs = delta_right(q(m))
            rhs = q_left(dm, q) - t3_cycle(q_right(dm, q))
        else:
            lhs = delta_left(q(m))
            t = q_right(dm, q)
            rhs = t - t3_cycle(t)
        res = lhs - rhs
        if res:
            col.violation(format_monomial(m), format_tensor3(res))
    return col.report()


def check_counit_kill(q, N):
    """(eps (x) 1) q = (1 (x) eps) q = 0 on all |a| <= N."""
    _require_bound(N, q.domain_degree_bound, "check_counit_kill")
    col = _Collector("counit-kill", N)
    for m in monomials(q.d, N):
        left = {}
        right = {}
        for (u, v), c in q(m).terms.items():
            if u.degree == 0:
                bump(left, v, c)
            if v.degree == 0:
                bump(right, u, c)
        if left or right:
            col.violation(
                format_monomial(m),
                f"(eps(x)1)q = {format_poly(Poly._trusted(left))}; "
                f"(1(x)eps)q = {format_poly(Poly._trusted(right))}")
    return col.report()


def check_delta_derivation(q, N):
    """q(ab) = q(a) Delta(b) + Delta(a) q(b) for all pairs |a|+|b| <= N."""
    _require_bound(N, q.domain_degree_bound, "check_delta_derivation")
    col = _Collector("delta-derivation", N)
    for a in monomials(q.d, N):
        for b in monomials(q.d, N - a.degree):
            if grlex_key(b) < grlex_key(a):
                continue  # symmetric identity on commutative A
            lhs = q(a * b)
            rhs = tensor2_mul(q(a), comult(b)) + tensor2_mul(comult(a), q(b))
            res = lhs - rhs
            if res:
                col.violation(
                    f"({format_monomial(a)}, {format_monomial(b)})",
                    format_tensor2(res))
    return col.report()


def check_cojacobi_coeffs(I, N):
    """The coefficient form of the co-Jacobi identity for an I-table.

    For all |a| <= N and i<j<k, the splitting-summed expression
    sum_s ( l_{a1}^{sk} l_{x_s a2}^{ij} + l_{a1}^{si} l_{x_s a2}^{jk}
            + l_{a1}^{sj} l_{x_s a2}^{ki} ) must vanish.
    """
    _require_bound(N + 1, I.domain_degree_bound, "check_cojacobi_coeffs")
    col = _Collector("cojacobi-coeffs", N)
    d = I.d
    for a in monomials(d, N):
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    total = Fraction(0)
                    for coeff, (a1, a2) in splittings(a, 2):
                        m1 = I.matrix(a1)
                        if m1.is_zero():
                            continue
                        for s in range(d):
                            m2 = I.matrix(Monomial.variable(d, s) * a2)
                            if m2.is_zero():
                                continue
                            total += coeff * (
                                m1[s, k] * m2[i, j]
                                + m1[s, i] * m2[j, k]
                                + m1[s, j] * m2[k, i])
                    if total:
                        col.violation(
                            f"a={format_monomial(a)}, "
                            f"(i,j,k)=({i + 1},{j + 1},{k + 1})",
                            format_coeff(total))
    return col.report()


def check_jacobi(B, N):
    """sum_l ( f_lk d(f_ij)/dx_l + f_li d(f_jk)/dx_l + f_lj d(f_ki)/dx_l ) = 0.

    Exact in polynomial mode; modulo degree > N in series mode.
    """
    col = _Collector("jacobi", N)
    d = B.d
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = {}
                for l in range(d):
                    axpy(acc, (B.entry(l, k) * B.entry(i, j).partial(l)).terms)
                    axpy(acc, (B.entry(l, i) * B.entry(j, k).partial(l)).terms)
                    axpy(acc, (B.entry(l, j) * B.entry(k, i).partial(l)).terms)
                res = B._reduce(Poly._trusted(acc))
                if res:
                    col.violation(
                        f"(i,j,k)=({i + 1},{j + 1},{k + 1})",
                        format_poly(res))
    return col.report()


def check_poisson_hopf_compat(B, N):
    """Delta({a,b}) = sum {a1,b1}(x)a2b2 + a1b1(x){a2,b2} for |a|+|b| <= N."""
    if B.series_mode:
        raise ValueError(
            "Hopf compatibility is defined in polynomial mode only")
    col = _Collector("poisson-hopf", N)
    for a in monomials(B.d, N):
        for b in monomials(B.d, N - a.degree):
            if grlex_key(b) < grlex_key(a):
                continue
            res = dict(comult_poly(bracket_monomials(B, a, b)).terms)
            for ca, (a1, a2) in splittings(a, 2):
                for cb, (b1, b2) in splittings(b, 2):
                    w = -ca * cb
                    br1 = bracket_monomials(B, a1, b1)
                    if br1:
                        axpy(res, poly_tensor_poly(
                            br1, Poly.from_monomial(a2 * b2)).terms, w)
                    br2 = bracket_monomials(B, a2, b2)
                    if br2:
                        axpy(res, poly_tensor_poly(
                            Poly.from_monomial(a1 * b1), br2).terms, w)
            if res:
                col.violation(
                    f"({format_monomial(a)}, {format_monomial(b)})",
                    format_tensor2(Tensor2._trusted(res)))
    return col.report()


def check_linear_relations(c):
    """Quadratic relations on structure constants equivalent to Jacobi."""
    col = _Collector("linear-relations", 1)
    d = c.d
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                for s in range(d):
                    total = Fraction(0)
                    for l in range(d):
                        total += (c.get(i, j, l) * c.get(l, k, s)
                                  + c.get(j, k, l) * c.get(l, i, s)
                                  + c.get(k, i, l) * c.get(l, j, s))
                    if total:
                        col.violation(
                            f"(i,j,k,s)=({i + 1},{j + 1},{k + 1},{s + 1})",
                            format_coeff(total))
    return col.report()


def check_support_condition(I):
    """Hopf-compatible I-tables vanish off the degree-1 monomials."""
    col = _Collector("support", I.domain_degree_bound)
    for m in sorted(I.rows, key=grlex_key):
        if m.degree != 1 and not I.rows[m].is_zero():
            col.violation(format_monomial(m),
                          format_tensor2(I.rows[m].to_tensor2()))
    return col.report()


def check_eps_s_morphisms(B, N, compat=None):
    """eps({a,b}) = 0 and S({a,b}) = {S(b), S(a)} for all pairs in bound.

    The antipode is an anti-morphism of brackets; by skewness this is the
    same as S({a,b}) = -{S(a), S(b)}.

    Only meaningful on Hopf-compatible brackets; when compatibility fails
    the check is reported as skipped.  `compat` is the
    check_poisson_hopf_compat report at degree N, computed when omitted.
    """
    if compat is None:
        compat = check_poisson_hopf_compat(B, N)
    if not compat.passed:
        return CheckReport(
            check_name="eps-s-morphisms", passed=True, degree_checked=N,
            skipped=True,
            note="not applicable: Hopf compatibility fails at this degree")
    col = _Collector("eps-s-morphisms", N)
    for a in monomials(B.d, N):
        for b in monomials(B.d, N - a.degree):
            if grlex_key(b) < grlex_key(a):
                continue
            br = bracket_monomials(B, a, b)
            eps = counit(br)
            sa = antipode(Poly.from_monomial(a))
            sb = antipode(Poly.from_monomial(b))
            s_res = antipode(br) - poisson_bracket(B, sb, sa)
            if eps or s_res:
                col.violation(
                    f"({format_monomial(a)}, {format_monomial(b)})",
                    f"eps residual = {format_coeff(eps)}; "
                    f"S residual = {format_poly(s_res)}")
    return col.report()


def check_antipode_coanti(q, N):
    """q(S(a)) = t2 (S (x) S) q(a) for all |a| <= N."""
    _require_bound(N, q.domain_degree_bound, "check_antipode_coanti")
    col = _Collector("antipode-coanti", N)
    for m in monomials(q.d, N):
        sign = -1 if m.degree % 2 else 1
        lhs = q(m).scale(sign)  # q(S(a)) with S(a) = (-1)^|a| a
        rhs = t2_swap(antipode_tensor2(q(m)))
        res = lhs - rhs
        if res:
            col.violation(format_monomial(m), format_tensor2(res))
    return col.report()


def in_skew_generator_space(X):
    """Membership test for the span of x_i (x) x_j - x_j (x) x_i (i < j).

    X belongs iff it is skew and (Delta (x) 1)(X) = (1 - t3)(1 (x) X).
    """
    if X + t2_swap(X):
        return False
    if not X.terms:
        return True
    d = len(next(iter(X.terms))[0])
    one = Monomial.unit(d)
    one_x = Tensor3({(one, u, v): c for (u, v), c in X.terms.items()})
    return not (delta_left(X) - (one_x - t3_cycle(one_x)))


def check_dual_of_abcd(H, qvals):
    """(q (x) Delta') Delta = (Delta' (x) q) Delta on a finite Hopf carrier.

    Also checks the corollary identity built from Delta^(3).  `qvals` maps
    each basis index to an H(x)H tensor (dict (j,k) -> Fraction).
    """
    from .finite import (
        cocommutator_vec, comult_indexed, comult3_indexed, tensor_concat)
    col = _Collector("dual-of-abcd", 0)
    n = H.dim
    for c in range(n):
        lhs = {}
        rhs = {}
        for (c1, c2), w in comult_indexed(H, c).items():
            tensor_concat(lhs, qvals[c1], cocommutator_vec(H, c2), w)
            tensor_concat(rhs, cocommutator_vec(H, c1), qvals[c2], w)
        axpy(lhs, rhs, -1)
        if lhs:
            col.violation(f"basis element {H.basis_names[c]}",
                          _format_fin_tensor(H, lhs))
        # Corollary: a1(x)a2(x)a3(x)q(a4) - a2(x)a1(x)a3(x)q(a4)
        #          = q(a1)(x)a2(x)a3(x)a4 - q(a1)(x)a2(x)a4(x)a3.
        lhs5 = {}
        rhs5 = {}
        for (a1, a2, a3, a4), w in comult3_indexed(H, c).items():
            for (u, v), qw in qvals[a4].items():
                bump(lhs5, (a1, a2, a3, u, v), w * qw)
                bump(lhs5, (a2, a1, a3, u, v), -w * qw)
            for (u, v), qw in qvals[a1].items():
                bump(rhs5, (u, v, a2, a3, a4), w * qw)
                bump(rhs5, (u, v, a2, a4, a3), -w * qw)
        axpy(lhs5, rhs5, -1)
        if lhs5:
            col.violation(
                f"basis element {H.basis_names[c]} (corollary identity)",
                _format_fin_tensor(H, lhs5))
    return col.report()


def _format_fin_tensor(H, t):
    parts = []
    for key in sorted(t):
        names = "(x)".join(H.basis_names[i] for i in key)
        parts.append(f"{format_coeff(t[key])}*{names}")
    return " + ".join(parts) if parts else "0"
