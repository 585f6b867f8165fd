"""Reference computations made apart from copoisson.

Monomials are plain exponent tuples and coefficients are Fractions in
plain dicts.  Nothing here imports copoisson: the benchmark uses these
functions to generate inputs, to write spec files in the documented
canonical format, and to predict what the program must output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb, factorial


# --- monomials -------------------------------------------------------------

def all_monomials(d, max_degree):
    """Every exponent tuple in d variables of total degree <= max_degree."""
    return [m for m in product(range(max_degree + 1), repeat=d)
            if sum(m) <= max_degree]


def grlex(m):
    return (sum(m), tuple(-e for e in m))


def unit_vec(d, i):
    return tuple(1 if k == i else 0 for k in range(d))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_factorial(m):
    r = 1
    for e in m:
        r *= factorial(e)
    return r


def two_splittings(m):
    """[(binomial weight, a1, a2)] over all a1 * a2 = m."""
    out = []
    for a1 in product(*(range(e + 1) for e in m)):
        w = 1
        for e, k in zip(m, a1):
            w *= comb(e, k)
        out.append((w, a1, tuple(e - k for e, k in zip(m, a1))))
    return out


def bump(acc, key, val):
    s = acc.get(key, 0) + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


# --- canonical text, as README.md documents the file format ---------------

def fmt_rational(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def fmt_monomial(m, names):
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def fmt_poly(p, names):
    """Terms in graded-lex order: "3*x1^2 - x2 + 1/2"."""
    if not p:
        return "0"
    out = []
    for m in sorted(p, key=grlex):
        c = p[m]
        mono = fmt_monomial(m, names)
        mag = abs(c)
        if mono == "1":
            body = fmt_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{fmt_rational(mag)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def canonical_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(doc):
    """The sha256 of a document's canonical JSON text."""
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def names_for(d):
    return [f"x{i + 1}" for i in range(d)]


# --- I-tables and cobrackets ------------------------------------------------
# A table is {monomial: {(i, j): Fraction}} with 0-based i < j.

def table_doc(d, bound, table):
    names = names_for(d)
    rows = []
    for m in sorted(table, key=grlex):
        lam = [[i + 1, j + 1, fmt_rational(v)]
               for (i, j), v in sorted(table[m].items()) if v]
        if lam:
            rows.append({"monomial": fmt_monomial(m, names), "lambda": lam})
    return {"kind": "copoisson", "variables": names, "max_degree": bound,
            "payload": {"rows": rows}}


def table_tensor(row, d):
    """I(m) as {(u, v): c}: sum over i<j of l^ij (x_i (x) x_j - x_j (x) x_i)."""
    out = {}
    for (i, j), v in row.items():
        if v:
            out[(unit_vec(d, i), unit_vec(d, j))] = v
            out[(unit_vec(d, j), unit_vec(d, i))] = -v
    return out


def q_of_table(d, bound, table):
    """q(a) = sum binom(a; a1) I(a1) Delta(a2) on every monomial |a| <= bound."""
    q = {}
    for a in all_monomials(d, bound):
        acc = {}
        for w, a1, a2 in two_splittings(a):
            row = table.get(a1)
            if not row:
                continue
            for (u, v), c in table_tensor(row, d).items():
                for w2, b1, b2 in two_splittings(a2):
                    bump(acc, (mono_mul(u, b1), mono_mul(v, b2)), w * w2 * c)
        if acc:
            q[a] = acc
    return q


def qmap_doc(d, bound, q):
    names = names_for(d)
    rows = []
    for m in sorted(q, key=grlex):
        tensor = [[fmt_monomial(u, names), fmt_monomial(v, names), fmt_rational(c)]
                  for (u, v), c in sorted(q[m].items(),
                                          key=lambda kv: (grlex(kv[0][0]), grlex(kv[0][1])))]
        rows.append({"monomial": fmt_monomial(m, names), "tensor": tensor})
    return {"kind": "qmap", "variables": names, "max_degree": bound,
            "payload": {"rows": rows}}


def series_of_table(table):
    """The series bracket f_ij = sum_a l_a^ij / a! x^a of an I-table."""
    f = {}
    for m, row in table.items():
        for ij, v in row.items():
            if v:
                f.setdefault(ij, {})[m] = Fraction(v) / mono_factorial(m)
    return f


def table_of_series(f):
    """Inverse of series_of_table: l_a^ij = a! * coefficient of x^a in f_ij."""
    table = {}
    for ij, p in f.items():
        for m, c in p.items():
            table.setdefault(m, {})[ij] = c * mono_factorial(m)
    return table


def table_degrees(table):
    return {sum(m) for m, row in table.items() if any(row.values())}


# --- brackets --------------------------------------------------------------
# A bracket is {(i, j): {monomial: Fraction}} with 0-based i < j.

def bracket_doc(d, max_degree, f, series=False):
    names = names_for(d)
    brackets = {f"{i + 1},{j + 1}": fmt_poly(p, names)
                for (i, j), p in sorted(f.items()) if p}
    return {"kind": "poisson", "variables": names, "max_degree": max_degree,
            "payload": {"brackets": brackets,
                        "mode": "series" if series else "polynomial"}}


def truncate(p, n):
    return {m: c for m, c in p.items() if sum(m) <= n}


def bracket_monomials(f, a, b):
    """{x^a, x^b} = sum_{i<j} (a_i b_j - a_j b_i) x^(a+b-e_i-e_j) f_ij."""
    out = {}
    for (i, j), p in f.items():
        w = a[i] * b[j] - a[j] * b[i]
        if not w:
            continue
        base = [x + y for x, y in zip(a, b)]
        base[i] -= 1
        base[j] -= 1
        for m, c in p.items():
            bump(out, mono_mul(tuple(base), m), w * c)
    return out


def is_homogeneous_linear(f):
    return all(sum(m) == 1 for p in f.values() for m in p)


def pmap_values(d, max_degree, f):
    """p(a (x) b) = {a, b} on every pair of monomials within the bound."""
    monos = sorted(all_monomials(d, max_degree), key=grlex)
    out = {}
    for a in monos:
        for b in monos:
            v = bracket_monomials(f, a, b)
            if v:
                out[(a, b)] = v
    return out


def pmap_doc(d, max_degree, values):
    names = names_for(d)
    rows = [{"pair": [fmt_monomial(a, names), fmt_monomial(b, names)],
             "value": fmt_poly(v, names)}
            for (a, b), v in sorted(values.items(),
                                    key=lambda kv: (grlex(kv[0][0]), grlex(kv[0][1])))]
    return {"kind": "pmap", "variables": names, "max_degree": max_degree,
            "payload": {"rows": rows}}


# --- structure constants ----------------------------------------------------
# Constants are {(i, j, l): Fraction} with 0-based i < j.

def consts_doc(d, lam, max_degree):
    names = names_for(d)
    entries = [[i + 1, j + 1, l + 1, fmt_rational(v)]
               for (i, j, l), v in sorted(lam.items()) if v]
    return {"kind": "struct_consts", "variables": names,
            "max_degree": max_degree, "payload": {"lambda": entries}}


def consts_bracket(d, lam):
    f = {}
    for (i, j, l), v in lam.items():
        if v:
            bump(f.setdefault((i, j), {}), unit_vec(d, l), v)
    return {ij: p for ij, p in f.items() if p}


def consts_table(d, lam):
    """I(x_l) = sum_{i<j} lam^ij_l x_i (x) x_j, the induced I-table."""
    table = {}
    for (i, j, l), v in lam.items():
        if v:
            table.setdefault(unit_vec(d, l), {})[(i, j)] = v
    return table


# --- finite Hopf algebras ----------------------------------------------------
# A carrier is a dict of Fraction tensors: mult[i][j][k], unit[k],
# comult[i][j][k], counit[i], antipode[i][j], plus "names".

def rescale_carrier(H, scale):
    """The same Hopf algebra in the basis f_i = scale[i] * e_i."""
    c = [Fraction(s) for s in scale]
    R = range(len(c))
    return {
        "names": [H["names"][i] if c[i] == 1 else f"{c[i]}*{H['names'][i]}" for i in R],
        "mult": [[[c[i] * c[j] * H["mult"][i][j][k] / c[k] for k in R] for j in R]
                 for i in R],
        "unit": [H["unit"][k] / c[k] for k in R],
        "comult": [[[c[i] * H["comult"][i][j][k] / (c[j] * c[k]) for k in R] for j in R]
                   for i in R],
        "counit": [c[i] * H["counit"][i] for i in R],
        "antipode": [[c[i] * H["antipode"][i][j] / c[j] for j in R] for i in R],
    }


# Dimensions of the Poisson, Poisson Hopf, co-Poisson and co-Poisson Hopf
# families on Sweedler's H4.
H4_DIMENSIONS = {("poisson", False): 2, ("poisson", True): 0,
                 ("copoisson", False): 2, ("copoisson", True): 0}


def sweedler_carrier():
    """Sweedler's H4 on {1, g, x, gx}: g^2 = 1, x^2 = 0, xg = -gx,
    Delta(g) = g (x) g, Delta(x) = x (x) 1 + g (x) x."""
    n = 4
    ONE, G, X, GX = range(n)
    z3 = lambda: [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    mult, comult = z3(), z3()
    for i in range(n):
        mult[ONE][i][i] = mult[i][ONE][i] = Fraction(1)
    mult[G][G][ONE] = 1
    mult[G][X][GX] = 1
    mult[G][GX][X] = 1
    mult[X][G][GX] = -1
    mult[GX][G][X] = -1
    comult[ONE][ONE][ONE] = 1
    comult[G][G][G] = 1
    comult[X][X][ONE] = 1
    comult[X][G][X] = 1
    comult[GX][GX][G] = 1
    comult[GX][ONE][GX] = 1
    antipode = [[Fraction(0)] * n for _ in range(n)]
    antipode[ONE][ONE] = antipode[G][G] = 1
    antipode[X][GX] = -1
    antipode[GX][X] = 1
    return {"names": ["1", "g", "x", "gx"], "mult": mult,
            "unit": [Fraction(v) for v in (1, 0, 0, 0)], "comult": comult,
            "counit": [Fraction(v) for v in (1, 1, 0, 0)], "antipode": antipode}


def s3_carrier():
    """The group algebra k[S3] with group-like basis elements."""
    perms = sorted(product(range(3), repeat=3))
    perms = [p for p in perms if len(set(p)) == 3]
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mult = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    comult = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    antipode = [[Fraction(0)] * n for _ in range(n)]
    for p in perms:
        for q in perms:
            mult[idx[p]][idx[q]][idx[tuple(p[q[k]] for k in range(3))]] = Fraction(1)
        comult[idx[p]][idx[p]][idx[p]] = Fraction(1)
        inv = tuple(sorted(range(3), key=lambda k: p[k]))
        antipode[idx[p]][idx[inv]] = Fraction(1)
    return {"names": ["".join(map(str, p)) for p in perms], "mult": mult,
            "unit": [Fraction(int(i == 0)) for i in range(n)], "comult": comult,
            "counit": [Fraction(1)] * n, "antipode": antipode}


def _mul(H, u, v):
    n = len(u)
    out = [Fraction(0)] * n
    for i in range(n):
        if u[i]:
            for j in range(n):
                if v[j]:
                    for k in range(n):
                        if H["mult"][i][j][k]:
                            out[k] += u[i] * v[j] * H["mult"][i][j][k]
    return out


def _comult(H, i):
    n = len(H["unit"])
    return {(j, k): H["comult"][i][j][k] for j in range(n) for k in range(n)
            if H["comult"][i][j][k]}


def _basis(n, i):
    return [Fraction(int(k == i)) for k in range(n)]


def _bracket_of(vec, n):
    """The bilinear skew bracket whose {e_i, e_j} (i < j) sits at
    positions pair * n + k of vec, pairs in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {}
    for t, (i, j) in enumerate(pairs):
        val = {k: vec[t * n + k] for k in range(n) if vec[t * n + k]}
        if val:
            table[(i, j)] = val
            table[(j, i)] = {k: -c for k, c in val.items()}

    def br(u, v):
        out = [Fraction(0)] * n
        for (i, j), val in table.items():
            if u[i] and v[j]:
                c = u[i] * v[j]
                for k, w in val.items():
                    out[k] += c * w
        return out

    return br


def poisson_residual(H, vec, hopf):
    """Every linear Poisson axiom at a bracket vector, as one flat list.

    The vector holds {e_i, e_j} for i < j at positions pair * n + k.
    The axioms: {1, -} = 0, Leibniz {ab, c} = a{b, c} + {a, c}b, and with
    hopf Delta{a, b} = {a1, b1} (x) a2 b2 + a1 b1 (x) {a2, b2}.
    """
    n = len(H["unit"])
    br = _bracket_of(vec, n)
    e = lambda i: _basis(n, i)
    prod = {(a, b): _mul(H, e(a), e(b)) for a in range(n) for b in range(n)}
    res = []
    for j in range(n):
        res.extend(br(H["unit"], e(j)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = br(prod[(a, b)], e(c))
                r1 = _mul(H, e(a), br(e(b), e(c)))
                r2 = _mul(H, br(e(a), e(c)), e(b))
                res.extend(x - y - z for x, y, z in zip(lhs, r1, r2))
    if hopf:
        for a in range(n):
            for b in range(n):
                acc = {}
                v = br(e(a), e(b))
                for k in range(n):
                    if v[k]:
                        for jk, w in _comult(H, k).items():
                            bump(acc, jk, v[k] * w)
                for (a1, a2), wa in _comult(H, a).items():
                    for (b1, b2), wb in _comult(H, b).items():
                        left, right = br(e(a1), e(b1)), _mul(H, e(a2), e(b2))
                        for m1 in range(n):
                            for m2 in range(n):
                                if left[m1] and right[m2]:
                                    bump(acc, (m1, m2), -wa * wb * left[m1] * right[m2])
                        left, right = _mul(H, e(a1), e(b1)), br(e(a2), e(b2))
                        for m1 in range(n):
                            for m2 in range(n):
                                if left[m1] and right[m2]:
                                    bump(acc, (m1, m2), -wa * wb * left[m1] * right[m2])
                res.extend(acc.get((m1, m2), Fraction(0))
                           for m1 in range(n) for m2 in range(n))
    return res


def copoisson_residual(H, vec, hopf):
    """Every linear co-Poisson axiom at a cobracket vector, as one flat list.

    The vector holds q(e_i) at positions (i * n + j) * n + k for e_j (x) e_k.
    The axioms: skew, (eps (x) 1) q = (1 (x) eps) q = 0, co-Leibniz
    (Delta (x) 1) q(c) = (1 (x) q) Delta(c) - t3^2 (q (x) 1) Delta(c), and
    with hopf q(ab) = q(a) Delta(b) + Delta(a) q(b).
    """
    n = len(H["unit"])
    q = lambda i, j, k: vec[(i * n + j) * n + k]
    R = range(n)
    res = [q(i, j, k) + q(i, k, j) for i in R for j in R for k in R]
    for i in R:
        for m in R:
            res.append(sum((H["counit"][j] * q(i, j, m) for j in R), Fraction(0)))
            res.append(sum((H["counit"][j] * q(i, m, j) for j in R), Fraction(0)))
    for c in R:
        acc = {}
        for j in R:
            for k in R:
                if q(c, j, k):
                    for (m1, m2), w in _comult(H, j).items():
                        bump(acc, (m1, m2, k), w * q(c, j, k))
        for (a, b), w in _comult(H, c).items():
            for m2 in R:
                for m3 in R:
                    if q(b, m2, m3):
                        bump(acc, (a, m2, m3), -w * q(b, m2, m3))
            for p1 in R:
                for p2 in R:
                    # (q (x) 1) Delta(c) has p1 (x) p2 (x) b; t3^2 moves it to
                    # p2 (x) b (x) p1
                    if q(a, p1, p2):
                        bump(acc, (p2, b, p1), w * q(a, p1, p2))
        res.extend(acc.get((m1, m2, m3), Fraction(0)) for m1 in R for m2 in R for m3 in R)
    if hopf:
        for a in R:
            for b in R:
                acc = {}
                for k in R:
                    w = H["mult"][a][b][k]
                    if w:
                        for j in R:
                            for l in R:
                                if q(k, j, l):
                                    bump(acc, (j, l), w * q(k, j, l))
                for x, y, d2 in ((a, b, True), (b, a, False)):
                    # q(a) Delta(b) when d2, Delta(a) q(b) otherwise
                    for (y1, y2), wy in _comult(H, y).items():
                        for j in R:
                            for l in R:
                                qv = q(x, j, l)
                                if not qv:
                                    continue
                                left = _mul(H, _basis(n, j), _basis(n, y1)) if d2 else \
                                    _mul(H, _basis(n, y1), _basis(n, j))
                                right = _mul(H, _basis(n, l), _basis(n, y2)) if d2 else \
                                    _mul(H, _basis(n, y2), _basis(n, l))
                                for m1 in R:
                                    for m2 in R:
                                        if left[m1] and right[m2]:
                                            bump(acc, (m1, m2), -wy * qv * left[m1] * right[m2])
                res.extend(acc.get((m1, m2), Fraction(0)) for m1 in R for m2 in R)
    return res


def probe_matrix(residual, unknowns):
    """Columns of a linear map, probed at the unit vectors; returned as rows."""
    cols = []
    for u in range(unknowns):
        v = [Fraction(0)] * unknowns
        v[u] = Fraction(1)
        cols.append(residual(v))
    return [list(r) for r in zip(*cols)]


def jacobi_residual(H, vec):
    """Cyclic Jacobi sums {{e_i, e_j}, e_k} + cyclic for i < j < k."""
    n = len(H["unit"])
    br = _bracket_of(vec, n)
    e = lambda i: _basis(n, i)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = [Fraction(0)] * n
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    r = [s + t for s, t in zip(r, br(br(e(x), e(y)), e(z)))]
                out.extend(r)
    return out


def cojacobi_residual(H, vec):
    """(1 + t3 + t3^2)(q (x) 1) q(e_c) for every basis element."""
    n = len(H["unit"])
    q = lambda i, j, k: vec[(i * n + j) * n + k]
    R = range(n)
    out = []
    for c in R:
        t = {}
        for a in R:
            for b in R:
                if q(c, a, b):
                    for j in R:
                        for k in R:
                            if q(a, j, k):
                                bump(t, (j, k, b), q(c, a, b) * q(a, j, k))
        out.extend(t.get((x, y, z), 0) + t.get((z, x, y), 0) + t.get((y, z, x), 0)
                   for x in R for y in R for z in R)
    return out
