"""Degree-bounded verdicts, with failure witnesses, for every axiom.

A pass is a certificate "verified up to degree N", never a claim about
all of A.  Witness enumeration is graded-lex so reports are reproducible;
witness lists are capped with a total-violation count.

Every check reports through one witness loop, `_check`.  The co-side and
the bracket side (Jacobi, Hopf compatibility, eps/S) run, through
`_scaled_check`, on the int-valued copy from `scaled()`: D q for a QMap q
or an I-table (an `ITable` is a `QMap`, so both are read through one
lookup), D B for a bracket table.
A witness is written from its integer residual, each coefficient c as
c/D^p in lowest terms (p = 2 for Jacobi and co-Jacobi, else 1).  A table
makes its scaled() pair once and keeps it (a `QMap` is frozen), so the
checks of one table share one copy; D is any common denominator, not
necessarily the least, as make_copoisson hands q the D of its I-table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .algebra import (
    DegreeBoundError,
    Monomial,
    Poly,
    Tensor2,
    Tensor3,
    axpy,
    bump,
    format_monomial,
    format_poly,
    format_tensor,
    format_coeff,
    generators,
    grlex_key,
    monomials,
    splittings,
    t2_swap,
)
from .finite import (
    cocommutator_vec,
    comult3_indexed,
    format_fin_tensor,
    tensor_concat,
)
from .hopf import (
    antipode,
    antipode_tensor2,
    comult,
    comult_poly,
    counit,
    mul_comult,
    q_outer_left_degree,
)
from .structures import bracket_monomials

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


@lru_cache(maxsize=64)
def _pairs(d, N):
    """The monomial pairs |a| + |b| <= N in graded-lex order, each unordered
    pair once (the identities checked on pairs are symmetric in a, b).

    Memoized per (d, N) as a tuple.  The monomials of degree <= k are the
    first comb(d + k, d) of the grlex list, so b runs over the slice of it
    from a up to that prefix for k = N - |a|."""
    monos = monomials(d, N)
    return tuple((a, b) for i, a in enumerate(monos)
                 for b in monos[i:comb(d + N - a.degree, d)])


def _format_pair(ab):
    return f"({format_monomial(ab[0])}, {format_monomial(ab[1])})"


def _one_based(indices):
    return "(" + ",".join(str(i + 1) for i in indices) + ")"


def _check(name, N, keys, residual, describe, render):
    """The one witness loop: residual(key) at each key in order, a nonzero
    one being a violation.  All are counted; only the first WITNESS_CAP
    are formatted, as (describe(key), render(residual))."""
    witnesses = []
    count = 0
    for key in keys:
        res = residual(key)
        if res:
            count += 1
            if count <= WITNESS_CAP:
                witnesses.append((describe(key), render(res)))
    return CheckReport(check_name=name, passed=count == 0, degree_checked=N,
                       witnesses=witnesses, total_violations=count)


def _scaled_check(name, table, N, residual, power=1, need=None,
                  domain=monomials, describe=format_monomial,
                  render=format_tensor):
    """One identity, run through _check on the int-scaled table.

    residual(t, key) is the identity's residual on t = D * table at each
    key of domain(d, N); it is homogeneous of degree `power` in t, so a
    witness is the residual divided by D**power, which
    render(res, den=D**power) writes from the integer residual.  On the
    co-side `need` (default N) is the table bound the check reads, and a
    DegreeBoundError names check_<name>; a BracketTable has no such bound.
    """
    need = N if need is None else need
    if need > getattr(table, "domain_degree_bound", need):
        what = "check_" + name.partition("[")[0].replace("-", "_")
        raise DegreeBoundError(f"{what} requires table bound >= {need}, "
                               f"have {table.domain_degree_bound}")
    t, D = table.scaled()
    return _check(name, N, domain(t.d, N), lambda key: residual(t, key),
                  describe, lambda res: render(res, den=D ** power))


def check_skew(q, N):
    """(1 + t2) q(a) = 0 for all monomials |a| <= N."""
    def residual(t, m):
        v = t(m)
        return v + t2_swap(v)
    return _scaled_check("skew", q, N, residual)


def cojacobi_required_bound(q, N):
    """Largest q-argument degree needed by (q (x) 1) q on monomials <= N."""
    need = N
    for m in monomials(q.d, N):
        need = max(need, q_outer_left_degree(q(m)))
    return need


def cojacobi_affordable_degree(q):
    """Largest N <= bound at which the co-Jacobi check can run on this table.

    The required bound grows with N, so N stops one below the least degree
    of a monomial whose q-value needs more than the table bound.
    """
    bound = q.domain_degree_bound
    for m in monomials(q.d, bound):
        if q_outer_left_degree(q(m)) > bound:
            return m.degree - 1
    return bound


def _cojacobi_residual(t, m):
    """(1 + t3 + t3^2)(t (x) 1) t(m), each term bumped under 3 cyclic keys."""
    out = {}
    for (u, v), c in t(m).terms.items():
        for (w1, w2), cq in t(u).terms.items():
            x = c * cq
            bump(out, (w1, w2, v), x)
            bump(out, (v, w1, w2), x)
            bump(out, (w2, v, w1), x)
    return Tensor3._trusted(out)


def check_cojacobi(q, N):
    """(1 + t3 + t3^2)(q (x) 1) q(a) = 0 for all |a| <= N."""
    return _scaled_check("cojacobi", q, N, _cojacobi_residual, power=2,
                         need=cojacobi_required_bound(q, N))


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
    return _scaled_check(f"coleibniz[{form}]", q, N,
                         lambda t, m: _coleibniz_residual(form, t, m))


def _coleibniz_residual(form, t, m):
    """lhs - rhs of one co-Leibniz form, summed into one dict: each term of
    (Delta (x) 1) t(m) (form1: (1 (x) Delta) t(m)), of (1 (x) t) Delta(m)
    and of (t (x) 1) Delta(m) is bumped under its own, t3 or t3^2 key."""
    out, form1 = {}, form == "form1"
    for (u, v), c in t(m).terms.items():
        for (w1, w2), cd in comult(v if form1 else u).terms.items():
            bump(out, (u, w1, w2) if form1 else (w1, w2, v), c * cd)
    for (a, b), cd in comult(m).terms.items():
        for (w1, w2), cq in t(b).terms.items():  # (1 (x) t) Delta(m)
            if not form1:
                bump(out, (a, w1, w2), -cd * cq)
            if form != "definition":
                bump(out, (w2, a, w1), cd * cq)  # its t3 image
        if form != "form2":
            for (w1, w2), cq in t(a).terms.items():  # (t (x) 1) Delta(m)
                if form1:
                    bump(out, (w1, w2, b), -cd * cq)
                else:
                    bump(out, (w2, b, w1), cd * cq)  # its t3^2 image
    return Tensor3._trusted(out)


def _format_counit_kill(res, den=1):
    left = {v: c for (u, v), c in res.terms.items() if u.degree == 0}
    right = {u: c for (u, v), c in res.terms.items() if v.degree == 0}
    return (f"(eps(x)1)q = {format_poly(Poly._trusted(left), den=den)}; "
            f"(1(x)eps)q = {format_poly(Poly._trusted(right), den=den)}")


def check_counit_kill(q, N):
    """(eps (x) 1) q = (1 (x) eps) q = 0 on all |a| <= N."""
    def residual(t, m):
        # the terms of q(a) that either counit sees
        return Tensor2._trusted({(u, v): c for (u, v), c in t(m).terms.items()
                                 if u.degree == 0 or v.degree == 0})
    return _scaled_check("counit-kill", q, N, residual,
                         render=_format_counit_kill)


def _delta_derivation_residual(t, ab):
    """t(ab) - t(a) Delta(b) - Delta(a) t(b), summed into one copy of t(ab)."""
    a, b = ab
    res = dict(t(a * b).terms)
    mul_comult(res, t(a), b, -1)
    mul_comult(res, t(b), a, -1)
    return Tensor2._trusted(res)


def check_delta_derivation(q, N):
    """q(ab) = q(a) Delta(b) + Delta(a) q(b) for all pairs |a|+|b| <= N."""
    return _scaled_check("delta-derivation", q, N, _delta_derivation_residual,
                         domain=_pairs, describe=_format_pair)


def check_cojacobi_coeffs(I, N):
    """The coefficient form of the co-Jacobi identity for an I-table.

    For all |a| <= N and i<j<k, the splitting-summed expression
    sum_s ( l_{a1}^{sk} l_{x_s a2}^{ij} + l_{a1}^{si} l_{x_s a2}^{jk}
            + l_{a1}^{sj} l_{x_s a2}^{ki} ) must vanish.
    """
    def residual(t, key):
        a, (i, j, k) = key
        g = generators(t.d)
        ij, jk, ki = (g[i], g[j]), (g[j], g[k]), (g[k], g[i])
        total = 0
        for coeff, (a1, a2) in splittings(a, 2):
            l1 = t(a1).terms  # l_{a1}^{uv}: the coefficient of (x_u, x_v)
            if not l1:
                continue
            for xs in g:
                l2 = t(xs * a2).terms
                if l2:
                    total += coeff * (l1.get((xs, g[k]), 0) * l2.get(ij, 0)
                                      + l1.get((xs, g[i]), 0) * l2.get(jk, 0)
                                      + l1.get((xs, g[j]), 0) * l2.get(ki, 0))
        return total
    return _scaled_check(
        "cojacobi-coeffs", I, N, residual, power=2, need=N + 1,
        domain=lambda d, N: product(monomials(d, N),
                                    combinations(range(d), 3)),
        describe=lambda key: f"a={format_monomial(key[0])}, "
                             f"(i,j,k)={_one_based(key[1])}",
        render=format_coeff)


def check_jacobi(B, N):
    """sum_l ( f_lk d(f_ij)/dx_l + f_li d(f_jk)/dx_l + f_lj d(f_ki)/dx_l ) = 0.

    Exact in polynomial mode; modulo degree > N in series mode.
    """
    def residual(t, ijk):
        i, j, k = ijk
        acc = {}
        for l in range(t.d):
            axpy(acc, (t.entry(l, k) * t.entry(i, j).partial(l)).terms)
            axpy(acc, (t.entry(l, i) * t.entry(j, k).partial(l)).terms)
            axpy(acc, (t.entry(l, j) * t.entry(k, i).partial(l)).terms)
        return t._reduce(Poly._trusted(acc))
    return _scaled_check("jacobi", B, N, residual, power=2,
                         domain=lambda d, N: combinations(range(d), 3),
                         describe=lambda ijk: f"(i,j,k)={_one_based(ijk)}",
                         render=format_poly)


def check_poisson_hopf_compat(B, N):
    """Delta({a,b}) = sum {a1,b1}(x)a2b2 + a1b1(x){a2,b2} for |a|+|b| <= N."""
    if B.series_mode:
        raise ValueError(
            "Hopf compatibility is defined in polynomial mode only")

    def residual(t, ab):
        a, b = ab
        res = dict(comult_poly(bracket_monomials(t, a, b)).terms)
        for ca, (a1, a2) in splittings(a, 2):
            for cb, (b1, b2) in splittings(b, 2):
                w = -ca * cb
                a2b2 = a2 * b2
                for m, c in bracket_monomials(t, a1, b1).terms.items():
                    bump(res, (m, a2b2), w * c)
                a1b1 = a1 * b1
                for m, c in bracket_monomials(t, a2, b2).terms.items():
                    bump(res, (a1b1, m), w * c)
        return Tensor2._trusted(res)
    return _scaled_check("poisson-hopf", B, N, residual, domain=_pairs,
                         describe=_format_pair, render=format_tensor)


def linear_relations(d, base=0):
    """The relations on structure constants equivalent to Jacobi: for i<j<k
    and each s, ((i, j, k, s), terms), the relation being sum over
    ((u, v, l), (l, w, s)) in terms of lam[u,v]_l lam[l,w]_s = 0.  Indices
    run from `base`: 0 to evaluate, 1 to print."""
    indices = range(base, d + base)
    for i, j, k in combinations(indices, 3):
        for s in indices:
            yield (i, j, k, s), [((u, v, l), (l, w, s)) for l in indices
                                 for u, v, w in ((i, j, k), (j, k, i),
                                                 (k, i, j))]


def check_linear_relations(c):
    """Quadratic relations on structure constants equivalent to Jacobi."""
    return _check(
        "linear-relations", 1, linear_relations(c.d),
        lambda rel: sum(c.get(*x) * c.get(*y) for x, y in rel[1]),
        lambda rel: f"(i,j,k,s)={_one_based(rel[0])}", format_coeff)


def check_support_condition(I):
    """Hopf-compatible I-tables vanish off the degree-1 monomials."""
    return _check(
        "support", I.domain_degree_bound,
        sorted((m for m in I.rows if m.degree != 1), key=grlex_key), I,
        format_monomial, format_tensor)


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

    def residual(t, ab):
        a, b = ab
        br = bracket_monomials(t, a, b)
        eps = counit(br)
        # {S(b), S(a)} = (-1)^(|a|+|b|) {b, a} on monomials
        ba, s = bracket_monomials(t, b, a), antipode(br)
        s_res = s + ba if (a.degree + b.degree) % 2 else s - ba
        return (eps, s_res) if eps or s_res else None
    return _scaled_check(
        "eps-s-morphisms", B, N, residual, domain=_pairs,
        describe=_format_pair,
        render=lambda r, den: f"eps residual = {format_coeff(r[0], den)}; "
                              f"S residual = {format_poly(r[1], den=den)}")


def check_antipode_coanti(q, N):
    """q(S(a)) = t2 (S (x) S) q(a) for all |a| <= N."""
    def residual(t, m):
        v = t(m)
        lhs = -v if m.degree % 2 else v  # q(S(a)) with S(a) = (-1)^|a| a
        return lhs - t2_swap(antipode_tensor2(v))
    return _scaled_check("antipode-coanti", q, N, residual)


def in_skew_generator_space(X):
    """Membership test for the span of x_i (x) x_j - x_j (x) x_i (i < j).

    X belongs iff it is skew and (Delta (x) 1)(X) = (1 - t3)(1 (x) X): the
    form2 co-Leibniz rule at a = 1 for a map taking 1 to X.
    """
    if X + t2_swap(X):
        return False
    if not X.terms:
        return True
    one = Monomial.unit(len(next(iter(X.terms))[0]))
    return not _coleibniz_residual("form2", lambda m: X, one)


def check_dual_of_abcd(H, qvals):
    """(q (x) Delta') Delta = (Delta' (x) q) Delta on a finite Hopf carrier.

    Also checks the corollary identity built from Delta^(3).  `qvals` maps
    each basis index to an H(x)H tensor (dict (j,k) -> Fraction).
    """
    def residual(key):
        c, corollary = key
        res = {}  # left side minus right side
        if not corollary:
            for (c1, c2), w in H.comult_nz[c].items():
                tensor_concat(res, qvals[c1], cocommutator_vec(H, c2), w)
                tensor_concat(res, cocommutator_vec(H, c1), qvals[c2], -w)
        else:
            # a1(x)a2(x)a3(x)q(a4) - a2(x)a1(x)a3(x)q(a4)
            #   = q(a1)(x)a2(x)a3(x)a4 - q(a1)(x)a2(x)a4(x)a3
            for (a1, a2, a3, a4), w in comult3_indexed(H, c).items():
                for (u, v), qw in qvals[a4].items():
                    bump(res, (a1, a2, a3, u, v), w * qw)
                    bump(res, (a2, a1, a3, u, v), -w * qw)
                for (u, v), qw in qvals[a1].items():
                    bump(res, (u, v, a2, a3, a4), -w * qw)
                    bump(res, (u, v, a2, a4, a3), w * qw)
        return res

    # each basis element's main identity, then its corollary
    return _check("dual-of-abcd", 0, product(range(H.dim), (False, True)),
                  residual,
                  lambda key: f"basis element {H.basis_names[key[0]]}"
                              + (" (corollary identity)" if key[1] else ""),
                  lambda t: format_fin_tensor(H, t, bare_one=False))
