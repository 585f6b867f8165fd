"""finite-classify: solve the linear (co-)Poisson structure equations on a
finite Hopf carrier, then extract the quadratic Jacobi or co-Jacobi
residual over the solved family.

The carriers are Sweedler's H4 and k[S3], each in seeded bases
f_i = c_i e_perm(i) built with FinHopf.create at set-up.  A change of basis
moves every structure constant but no family dimension.

Predictions: every basis vector of a family satisfies the linear axioms
as the benchmark evaluates them from the structure constants; the family
dimension equals the number of unknowns minus the rank, found by sympy, of
the constraint matrix the benchmark probes from its own axiom evaluation;
H4 gives dimensions 2 / 0 / 2 / 0 (Poisson, Poisson Hopf, co-Poisson,
co-Poisson Hopf); the quadratic residual predicts the residual the
benchmark evaluates at a seeded parameter vector.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Op, expect
from inputs import h4_presentation, s3_presentation
from oracle import encode_carrier
from reference import (H4_DIMENSIONS, copoisson_residual, cojacobi_residual, jacobi_residual,
                       poisson_residual)



def carriers(rng):
    """(label, carrier data, [(structure, hopf)]): the operation list.

    Forty bases of H4 carry the cheap Poisson solves, ten of them the
    co-Poisson solve and four the co-Poisson Hopf solve, whose systems
    are larger; one basis of k[S3] adds the largest system (90 unknowns).
    The ten co-Poisson solves hold the 90th percentile."""
    out = []
    for t in range(40):
        variants = [("poisson", False), ("poisson", True)]
        if t < 10:
            variants.append(("copoisson", False))
        if t < 4:
            variants.append(("copoisson", True))
        out.append((f"h4-{t}", h4_presentation(rng), variants))
    out.append(("s3", s3_presentation(rng), [("poisson", False)]))
    return out


def create(cp, H):
    n = len(H["unit"])
    return cp.finite.FinHopf.create(
        dim=n, basis_names=H["names"], mult=H["mult"], unit=H["unit"],
        comult=H["comult"], counit=H["counit"], antipode=H["antipode"])


def is_normalized_basis(basis):
    """Each vector has a column where it is 1 and every other vector is 0,
    so the vectors are linearly independent."""
    for t, v in enumerate(basis):
        if not any(v[c] == 1 and all(w[c] == 0 for s, w in enumerate(basis) if s != t)
                   for c in range(len(v))):
            return False
    return True


def make_op(cp, rng, label, data, fin, structure, hopf, probed=None):
    """`probed` is the operation on another basis of the same carrier whose
    probed rank this one shares: the rank does not depend on the basis."""
    n = len(data["unit"])
    if structure == "poisson":
        unknowns = n * (n * (n - 1) // 2)
        axioms = lambda v: poisson_residual(data, v, hopf)
        quadratic = lambda v: jacobi_residual(data, v)
        solver, kind = "solve_poisson_family", "jacobi"
    else:
        unknowns = n ** 3
        axioms = lambda v: copoisson_residual(data, v, hopf)
        quadratic = lambda v: cojacobi_residual(data, v)
        solver, kind = "solve_copoisson_family", "cojacobi"
    params_seed = rng.random()

    def run():
        # looked up at call time, so that a traced run sees the call
        fam = getattr(cp.finite, solver)(fin, hopf_compat=hopf)
        return fam, cp.finite.quadratic_residual_family(fam, kind, fin)

    def requests():
        if probed:
            return []
        return [{"op": "axiom_rank", "structure": structure, "hopf": hopf,
                 "carrier": encode_carrier(data)}]

    def check(result, answers):
        fam, res = result
        rank = (probed or op).answers[0]
        expect(fam.ambient_dim == unknowns, f"{fam.ambient_dim} unknowns, expected {unknowns}")
        expect(fam.dimension == unknowns - rank,
               f"dimension {fam.dimension}, sympy finds {unknowns - rank}")
        if label.startswith("h4"):
            expect(fam.dimension == H4_DIMENSIONS[(structure, hopf)],
                   f"H4 {structure} hopf={hopf} dimension {fam.dimension}")
        expect(is_normalized_basis(fam.basis), "family basis is not independent")
        for v in fam.basis:
            expect(not any(axioms(v)), "a basis vector violates a linear axiom")
        r = random.Random(params_seed)
        params = [Fraction(r.randint(-5, 5), r.randint(1, 3)) for _ in range(fam.dimension)]
        point = [sum((t * b[k] for t, b in zip(params, fam.basis)), Fraction(0))
                 for k in range(unknowns)]
        expect(res.dim == fam.dimension and
               list(res.predict(params)) == list(quadratic(point)),
               "quadratic residual does not predict the residual")
        return fam.dimension, fam.basis, sorted(res.coeffs.items())

    op = Op(f"{label}-{structure}{'-hopf' if hopf else ''}", run, check, requests)
    return op


def build(cp, rng, workdir):
    ops = []
    first = {}
    for label, data, variants in carriers(rng):
        fin = create(cp, data)
        for s, h in variants:
            key = (label.split("-")[0], s, h)
            op = make_op(cp, rng, label, data, fin, s, h, first.get(key))
            first.setdefault(key, op)
            ops.append(op)
    return ops
