"""Predictions computed with sympy, in a child process of the benchmark.

The child keeps sympy, and the constraint matrices it probes, out of the
workload process, whose peak resident set is an end-to-end metric.  Requests and answers travel as JSON
on stdin and stdout; rationals travel as "p/q" strings.

    python3 perfbench/oracle.py < requests.json > answers.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def jacobi_low_degree(d, f):
    """Lowest total degree of a nonzero term of any Jacobiator
    sum_l f_lk d_l f_ij + f_li d_l f_jk + f_lj d_l f_ki (i < j < k); None
    when every Jacobiator vanishes."""
    import sympy

    xs = sympy.symbols(f"x1:{d + 1}")
    zero = sympy.Poly(0, *xs, domain=sympy.QQ)
    ent = {}
    for key, terms in f.items():
        i, j = (int(t) for t in key.split(","))
        p = sympy.Poly.from_dict(
            {tuple(m): sympy.Rational(c) for m, c in terms} or {(0,) * d: 0},
            *xs, domain=sympy.QQ)
        ent[(i, j)] = p
        ent[(j, i)] = -p

    def e(i, j):
        return ent.get((i, j), zero)

    low = None
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                jac = zero
                for l in range(d):
                    jac += (e(l, k) * e(i, j).diff(xs[l])
                            + e(l, i) * e(j, k).diff(xs[l])
                            + e(l, j) * e(k, i).diff(xs[l]))
                for m, c in jac.terms():
                    if c and (low is None or sum(m) < low):
                        low = sum(m)
    return low


def rank(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0
    sdm = {}
    for r, row in enumerate(rows):
        ent = {c: QQ(Fraction(v).numerator, Fraction(v).denominator)
               for c, v in enumerate(row) if Fraction(v)}
        if ent:
            sdm[r] = ent
    return DomainMatrix(sdm, (len(rows), len(rows[0])), QQ).rank()


def axiom_rank(req):
    """Rank of the linear (co-)Poisson axioms on a finite carrier, probed at
    every unit vector by the benchmark's own axiom evaluation."""
    import reference

    H = {k: v if k == "names" else _fractions(v) for k, v in req["carrier"].items()}
    n = len(H["unit"])
    if req["structure"] == "poisson":
        residual = lambda v: reference.poisson_residual(H, v, req["hopf"])
        unknowns = n * (n * (n - 1) // 2)
    else:
        residual = lambda v: reference.copoisson_residual(H, v, req["hopf"])
        unknowns = n ** 3
    return rank(reference.probe_matrix(residual, unknowns))


def _fractions(v):
    return [_fractions(x) for x in v] if isinstance(v, list) else Fraction(v)


def _strings(v):
    return [_strings(x) for x in v] if isinstance(v, list) else str(v)


def encode_carrier(H):
    """A carrier of reference.py (nested lists of Fractions) as a request field."""
    return {k: v if k == "names" else _strings(v) for k, v in H.items()}


def answer(req):
    if req["op"] == "jacobi_low":
        return jacobi_low_degree(req["d"], req["f"])
    if req["op"] == "axiom_rank":
        return axiom_rank(req)
    raise ValueError(f"unknown request {req['op']!r}")


def encode_bracket(f):
    """A {(i, j): {monomial: Fraction}} bracket as a request field."""
    return {f"{i},{j}": [[list(m), str(c)] for m, c in p.items()]
            for (i, j), p in f.items()}


def ask(requests, timeout=170):
    """Answer a list of requests in a child process; waits for it to end."""
    if not requests:
        return []
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps(requests), capture_output=True, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main():
    requests = json.load(sys.stdin)
    json.dump([answer(r) for r in requests], sys.stdout)


if __name__ == "__main__":
    main()
