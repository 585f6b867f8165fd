"""bracket-correspondence: the Poisson side of the correspondence.

Each operation takes one polynomial bracket and runs check_jacobi,
check_poisson_hopf_compat and check_eps_s_morphisms on it, the series
round trip verify_main5_roundtrip on its truncation, and j_from_p then
p_from_j on every pair of monomials within a bound.

Predictions: the Jacobi verdict is sympy's evaluation of the Jacobiator;
Hopf compatibility passes exactly when every f_ij is homogeneous linear;
the eps/S check passes, and is skipped exactly when compatibility fails;
the round trip passes exactly when the truncated bracket satisfies Jacobi
modulo degree > N; p_from_j of j_from_p gives back p = {a, b}, which the
benchmark computes itself.
"""

from __future__ import annotations

from harness import Op, expect, expect_failures_witnessed, report_verdicts
from inputs import (bianchi_consts, counterexample_bracket, nambu_bracket,
                    nilpotent_consts, nonlie_consts, random_bracket)
from oracle import encode_bracket
from reference import consts_bracket, is_homogeneous_linear, pmap_values, truncate


def brackets(rng):
    """(label, d, N, pair bound, f): the operation list of one pass.

    so(3)-type brackets at degree 3 and Nambu brackets set the tail;
    sixteen rounds of small brackets of every kind set the median."""
    out = []
    for t in range(2):
        out.append((f"so3-type-N3-{t}", 3, 3, 1, consts_bracket(3, bianchi_consts(rng))))
    for t in range(3):
        out.append((f"nambu-{t}", 3, 2, 1, nambu_bracket(rng, 2)))
    for t in range(16):
        out.append((f"so3-type-{t}", 3, 2, 2, consts_bracket(3, bianchi_consts(rng))))
        out.append((f"nilpotent4-{t}", 4, 2, 1, consts_bracket(4, nilpotent_consts(rng, 4))))
        out.append((f"nonlie3-{t}", 3, 2, 2, consts_bracket(3, nonlie_consts(rng, 3))))
        out.append((f"counterexample5-{t}", 5, 2, 1, counterexample_bracket(rng)))
        out.append((f"quadratic3-{t}", 3, 2, 1, random_bracket(rng, 3, {2})))
        out.append((f"quadratic2-{t}", 2, 2, 1, random_bracket(rng, 2, {1, 2})))
    return out


def poly(cp, p):
    return cp.algebra.Poly({cp.algebra.Monomial(m): c for m, c in p.items()})


def make_op(cp, label, d, N, pair_bound, f):
    table = cp.structures.BracketTable
    B = table(d=d, f={ij: poly(cp, p) for ij, p in f.items()})
    series = table(d=d, f={ij: poly(cp, p) for ij, p in f.items()}, truncation_degree=N)
    p_vals = pmap_values(d, pair_bound, f)
    p = cp.hopf.PMap(d=d, domain_degree_bound=pair_bound,
                     assignments={(cp.algebra.Monomial(a), cp.algebra.Monomial(b)): poly(cp, v)
                                  for (a, b), v in p_vals.items()})
    pairs = [(a, b) for a in cp.algebra.monomials(d, pair_bound)
             for b in cp.algebra.monomials(d, pair_bound)]
    linear = is_homogeneous_linear(f)

    def run():
        ck, hopf = cp.checks, cp.hopf
        reports = [ck.check_jacobi(B, N), ck.check_poisson_hopf_compat(B, N),
                   ck.check_eps_s_morphisms(B, N),
                   cp.dual.verify_main5_roundtrip(series, N)]
        J = hopf.PMap(d=d, domain_degree_bound=pair_bound, assignments={})
        for a, b in pairs:
            v = hopf.j_from_p(p, a, b)
            if v:
                J.assignments[(a, b)] = v
        back = {(a, b): hopf.p_from_j(J, a, b) for a, b in pairs}
        return reports, back

    def requests():
        return [{"op": "jacobi_low", "d": d, "f": encode_bracket(f)},
                {"op": "jacobi_low", "d": d,
                 "f": encode_bracket({ij: truncate(q, N) for ij, q in f.items()})}]

    def check(result, answers):
        reports, back = result
        low, low_truncated = answers
        jac, compat, eps, trip = reports
        expect(jac.passed == (low is None), f"jacobi {jac.passed}, sympy low degree {low}")
        expect(compat.passed == linear, f"poisson-hopf {compat.passed}, linear {linear}")
        expect(eps.passed and eps.skipped == (not linear),
               f"eps-s passed {eps.passed} skipped {eps.skipped}, linear {linear}")
        want_trip = low_truncated is None or low_truncated > N
        expect(trip.passed == want_trip, f"round trip {trip.passed}, expected {want_trip}")
        for (a, b), v in back.items():
            expect(v.terms == p_vals.get((tuple(a), tuple(b)), {}),
                   f"p_from_j(j_from_p(p)) differs at {(tuple(a), tuple(b))}")
        expect_failures_witnessed(reports)
        return report_verdicts(reports)

    return Op(label, run, check, requests)


def build(cp, rng, workdir):
    return [make_op(cp, *spec) for spec in brackets(rng)]
