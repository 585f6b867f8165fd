"""Finite-dimensional Hopf algebras via structure constants, and the exact
linear/quadratic classifier for their (co)Poisson structures.

The classifier is a two-stage pipeline: an exact rational nullspace solve
of the linear constraints (skew, Leibniz or co-Leibniz, optional Hopf
compatibility), followed by probing the quadratic Jacobi/co-Jacobi
residual on the solved family.  Quadratic constraints never enter the
linear solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import bump


# --- exact rational linear algebra ---------------------------------------

def rref(rows, ncols):
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns (reduced nonzero rows, pivot column list)."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v / piv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows, ncols):
    """Basis of the solution space of (rows) t = 0, in normalized form.

    Each basis vector has a 1 in one free column and 0 in the others, so
    the basis is unique given the column order."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fcol]
        basis.append(tuple(v))
    return basis


# --- finite Hopf algebra carrier -----------------------------------------

class HopfAxiomError(ValueError):
    """A structure-constant tensor violates a Hopf axiom."""


@dataclass
class FinHopf:
    """A finite-dimensional Hopf algebra given by structure-constant tensors.

    mult[i][j][k]: coefficient of e_k in e_i e_j
    comult[i][j][k]: coefficient of e_j (x) e_k in Delta(e_i)
    antipode[i][j]: coefficient of e_j in S(e_i)
    All five Hopf axioms are validated exactly at construction.
    """

    dim: int
    basis_names: list
    mult: tuple
    unit: tuple
    comult: tuple
    counit: tuple
    antipode: tuple

    @classmethod
    def create(cls, dim, basis_names, mult, unit, comult, counit, antipode):
        frac3 = lambda t: tuple(
            tuple(tuple(Fraction(v) for v in row) for row in plane)
            for plane in t)
        H = cls(
            dim=dim,
            basis_names=list(basis_names),
            mult=frac3(mult),
            unit=tuple(Fraction(v) for v in unit),
            comult=frac3(comult),
            counit=tuple(Fraction(v) for v in counit),
            antipode=tuple(tuple(Fraction(v) for v in row) for row in antipode),
        )
        H.validate()
        return H

    # vector helpers; elements of H are length-dim tuples of Fraction
    def basis_vec(self, i):
        return tuple(Fraction(1) if j == i else Fraction(0)
                     for j in range(self.dim))

    def mul_vec(self, u, v):
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not u[i]:
                continue
            for j in range(n):
                if not v[j]:
                    continue
                c = u[i] * v[j]
                for k in range(n):
                    if self.mult[i][j][k]:
                        out[k] += c * self.mult[i][j][k]
        return tuple(out)

    def comult_vec(self, u):
        out = {}
        for i in range(self.dim):
            if not u[i]:
                continue
            for (j, k), w in comult_indexed(self, i).items():
                bump(out, (j, k), u[i] * w)
        return out

    def counit_vec(self, u):
        return sum((u[i] * self.counit[i] for i in range(self.dim)),
                   Fraction(0))

    def antipode_vec(self, u):
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if u[i]:
                for j in range(n):
                    out[j] += u[i] * self.antipode[i][j]
        return tuple(out)

    def validate(self):
        n = self.dim
        e = self.basis_vec
        one = self.unit
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.mul_vec(self.mul_vec(e(i), e(j)), e(k))
                    rhs = self.mul_vec(e(i), self.mul_vec(e(j), e(k)))
                    if lhs != rhs:
                        raise HopfAxiomError(
                            f"associativity fails on basis ({i},{j},{k})")
        for i in range(n):
            if self.mul_vec(one, e(i)) != e(i) or self.mul_vec(e(i), one) != e(i):
                raise HopfAxiomError(f"unit axiom fails on basis {i}")
        for i in range(n):
            lhs = {}
            rhs = {}
            for (a, b), w in comult_indexed(self, i).items():
                for (a1, a2), w2 in comult_indexed(self, a).items():
                    bump(lhs, (a1, a2, b), w * w2)
                for (b1, b2), w2 in comult_indexed(self, b).items():
                    bump(rhs, (a, b1, b2), w * w2)
            if lhs != rhs:
                raise HopfAxiomError(f"coassociativity fails on basis {i}")
        for i in range(n):
            left = [Fraction(0)] * n
            right = [Fraction(0)] * n
            for (a, b), w in comult_indexed(self, i).items():
                for k in range(n):
                    left[k] += w * self.counit[a] * e(b)[k]
                    right[k] += w * self.counit[b] * e(a)[k]
            if tuple(left) != e(i) or tuple(right) != e(i):
                raise HopfAxiomError(f"counit axiom fails on basis {i}")
        for i in range(n):
            left = [Fraction(0)] * n
            right = [Fraction(0)] * n
            for (a, b), w in comult_indexed(self, i).items():
                sa = self.antipode_vec(e(a))
                sb = self.antipode_vec(e(b))
                va = self.mul_vec(sa, e(b))
                vb = self.mul_vec(e(a), sb)
                for k in range(n):
                    left[k] += w * va[k]
                    right[k] += w * vb[k]
            want = tuple(self.counit[i] * one[k] for k in range(n))
            if tuple(left) != want or tuple(right) != want:
                raise HopfAxiomError(f"antipode axiom fails on basis {i}")


def comult_indexed(H, i):
    """Nonzero entries of Delta(e_i) as {(j, k): coeff}."""
    out = {}
    for j in range(H.dim):
        for k in range(H.dim):
            w = H.comult[i][j][k]
            if w:
                out[(j, k)] = w
    return out


def comult2_indexed(H, i):
    """Delta^(2)(e_i) as {(a, b, c): coeff}."""
    out = {}
    for (a, b), w in comult_indexed(H, i).items():
        for (a1, a2), w2 in comult_indexed(H, a).items():
            bump(out, (a1, a2, b), w * w2)
    return out


def comult3_indexed(H, i):
    """Delta^(3)(e_i) as {(a, b, c, d): coeff}."""
    out = {}
    for (a, b, c), w in comult2_indexed(H, i).items():
        for (a1, a2), w2 in comult_indexed(H, a).items():
            bump(out, (a1, a2, b, c), w * w2)
    return out


def cocommutator_vec(H, i):
    """Delta'(e_i) = Delta(e_i) - t2 Delta(e_i) as {(j, k): coeff}."""
    out = {}
    for (j, k), w in comult_indexed(H, i).items():
        bump(out, (j, k), w)
        bump(out, (k, j), -w)
    return out


def tensor_concat(acc, t1, t2, w):
    """acc += w * (t1 (x) t2) for indexed tensors (key tuples concatenate)."""
    for k1, v1 in t1.items():
        for k2, v2 in t2.items():
            bump(acc, k1 + k2, w * v1 * v2)


# --- stock examples -------------------------------------------------------

def sweedler_h4():
    """The 4-dimensional Hopf algebra on basis {1, g, x, gx} with
    x^2 = 0, g^2 = 1, xg = -gx, Delta(g) = g(x)g, Delta(x) = x(x)1 + g(x)x."""
    n = 4
    ONE, G, X, GX = range(4)
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]

    def setm(i, j, k, v=1):
        mult[i][j][k] = v

    for i in range(n):
        setm(ONE, i, i)
        if i != ONE:
            setm(i, ONE, i)
    setm(G, G, ONE)
    setm(G, X, GX)
    setm(G, GX, X)
    setm(X, G, GX, -1)
    # x*x = 0, x*gx = 0
    setm(GX, G, X, -1)
    # gx*x = 0, gx*gx = 0
    comult = [[[0] * n for _ in range(n)] for _ in range(n)]
    comult[ONE][ONE][ONE] = 1
    comult[G][G][G] = 1
    comult[X][X][ONE] = 1
    comult[X][G][X] = 1
    comult[GX][GX][G] = 1
    comult[GX][ONE][GX] = 1
    antipode = [[0] * n for _ in range(n)]
    antipode[ONE][ONE] = 1
    antipode[G][G] = 1
    antipode[X][GX] = -1
    antipode[GX][X] = 1
    return FinHopf.create(
        dim=n, basis_names=["1", "g", "x", "gx"],
        mult=mult, unit=(1, 0, 0, 0),
        comult=comult, counit=(1, 1, 0, 0),
        antipode=antipode)


def group_algebra_z2():
    """k[Z/2]: basis {1, g} with g^2 = 1 and g group-like."""
    n = 2
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    antipode = [[1, 0], [0, 1]]
    return FinHopf.create(
        dim=n, basis_names=["1", "g"],
        mult=mult, unit=(1, 0),
        comult=comult, counit=(1, 1),
        antipode=antipode)


# --- linear families ------------------------------------------------------

@dataclass
class LinearFamily:
    """Affine solution space: offset + span(basis) inside k^ambient_dim."""

    ambient_dim: int
    basis: list = field(default_factory=list)
    offset: tuple = ()

    def __post_init__(self):
        if not self.offset:
            self.offset = tuple(Fraction(0) for _ in range(self.ambient_dim))

    @property
    def dimension(self):
        return len(self.basis)

    def member(self, params):
        if len(params) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} parameters, got {len(params)}")
        v = list(self.offset)
        for t, b in zip(params, self.basis):
            t = Fraction(t)
            if t:
                for i, bv in enumerate(b):
                    v[i] += t * bv
        return tuple(v)


# --- Poisson structure solver --------------------------------------------

def _pair_index(H):
    pairs = [(i, j) for i in range(H.dim) for j in range(i + 1, H.dim)]
    return pairs, {p: idx for idx, p in enumerate(pairs)}


def poisson_unknown_count(H):
    return H.dim * (H.dim * (H.dim - 1) // 2)


def _bracket_lin(H, pair_pos, i, j):
    """{e_i, e_j} as a linear-valued H element: list of sparse rows."""
    n = H.dim
    rows = [dict() for _ in range(n)]
    if i == j:
        return rows
    sign = 1
    if i > j:
        i, j = j, i
        sign = -1
    base = pair_pos[(i, j)] * n
    for k in range(n):
        rows[k][base + k] = Fraction(sign)
    return rows


def _lin_add(dst, src, factor=1):
    factor = Fraction(factor)
    for k, rows_k in enumerate(src):
        for u, v in rows_k.items():
            s = dst[k].get(u, 0) + factor * v
            if s:
                dst[k][u] = s
            else:
                dst[k].pop(u, None)


def _lin_lmul(H, a_vec, lin):
    """a . w for a constant vector a and linear-valued w."""
    n = H.dim
    out = [dict() for _ in range(n)]
    for i in range(n):
        if not a_vec[i]:
            continue
        for k in range(n):
            if not lin[k]:
                continue
            for m in range(n):
                coef = a_vec[i] * H.mult[i][k][m]
                if coef:
                    for u, v in lin[k].items():
                        s = out[m].get(u, 0) + coef * v
                        if s:
                            out[m][u] = s
                        else:
                            out[m].pop(u, None)
    return out


def _lin_rmul(H, lin, b_vec):
    """w . b for linear-valued w and constant vector b."""
    n = H.dim
    out = [dict() for _ in range(n)]
    for k in range(n):
        if not lin[k]:
            continue
        for j in range(n):
            if not b_vec[j]:
                continue
            for m in range(n):
                coef = b_vec[j] * H.mult[k][j][m]
                if coef:
                    for u, v in lin[k].items():
                        s = out[m].get(u, 0) + coef * v
                        if s:
                            out[m][u] = s
                        else:
                            out[m].pop(u, None)
    return out


def solve_poisson_family(H, hopf_compat=False):
    """Solve the linear part of the Poisson (Hopf) structure equations.

    Unknowns are the bracket values {e_i, e_j} for i < j.  Constraints:
    {1, -} = 0, the Leibniz rule on all basis triples, and optionally the
    Hopf compatibility of the coproduct.  Jacobi is quadratic and handled
    separately by quadratic_residual_family.
    """
    n = H.dim
    pairs, pair_pos = _pair_index(H)
    U = poisson_unknown_count(H)
    rows = []

    def emit(lin):
        for comp in lin:
            if comp:
                rows.append(comp)

    # {1, e_j} = 0
    for j in range(n):
        acc = [dict() for _ in range(n)]
        for i in range(n):
            if H.unit[i]:
                _lin_add(acc, _bracket_lin(H, pair_pos, i, j), H.unit[i])
        emit(acc)
    # Leibniz {ab, c} = a{b, c} + {a, c}b
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = [dict() for _ in range(n)]
                for k in range(n):
                    w = H.mult[a][b][k]
                    if w:
                        _lin_add(acc, _bracket_lin(H, pair_pos, k, c), w)
                _lin_add(acc, _lin_lmul(H, H.basis_vec(a),
                                        _bracket_lin(H, pair_pos, b, c)), -1)
                _lin_add(acc, _lin_rmul(H, _bracket_lin(H, pair_pos, a, c),
                                        H.basis_vec(b)), -1)
                emit(acc)
    if hopf_compat:
        for a in range(n):
            for b in range(n):
                acc = {}  # (m1, m2) -> sparse row

                def t2_add(key, row, factor):
                    cell = acc.setdefault(key, {})
                    for u, v in row.items():
                        s = cell.get(u, 0) + factor * v
                        if s:
                            cell[u] = s
                        else:
                            cell.pop(u, None)

                # Delta({a,b})
                br = _bracket_lin(H, pair_pos, a, b)
                for k in range(n):
                    if br[k]:
                        for (m1, m2), w in comult_indexed(H, k).items():
                            t2_add((m1, m2), br[k], w)
                # -sum {a1,b1}(x)a2b2 - a1b1(x){a2,b2}
                for (a1, a2), wa in comult_indexed(H, a).items():
                    for (b1, b2), wb in comult_indexed(H, b).items():
                        w = wa * wb
                        prod2 = H.mul_vec(H.basis_vec(a2), H.basis_vec(b2))
                        br1 = _bracket_lin(H, pair_pos, a1, b1)
                        for m1 in range(n):
                            if br1[m1]:
                                for m2 in range(n):
                                    if prod2[m2]:
                                        t2_add((m1, m2), br1[m1],
                                               -w * prod2[m2])
                        prod1 = H.mul_vec(H.basis_vec(a1), H.basis_vec(b1))
                        br2 = _bracket_lin(H, pair_pos, a2, b2)
                        for m2 in range(n):
                            if br2[m2]:
                                for m1 in range(n):
                                    if prod1[m1]:
                                        t2_add((m1, m2), br2[m2],
                                               -w * prod1[m1])
                for cell in acc.values():
                    if cell:
                        rows.append(cell)

    dense = [[r.get(u, Fraction(0)) for u in range(U)] for r in rows]
    return LinearFamily(ambient_dim=U, basis=nullspace(dense, U))


def brackets_from_vector(H, vec):
    """Decode a solution vector into {(i, j): H-vector} for i < j."""
    n = H.dim
    pairs, _ = _pair_index(H)
    out = {}
    for idx, (i, j) in enumerate(pairs):
        out[(i, j)] = tuple(vec[idx * n + k] for k in range(n))
    return out


def bracket_eval(H, brackets, u, v):
    """Bilinear, skew evaluation of the bracket table on two H-vectors."""
    n = H.dim
    out = [Fraction(0)] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j] or i == j:
                continue
            if i < j:
                val = brackets[(i, j)]
                sign = 1
            else:
                val = brackets[(j, i)]
                sign = -1
            c = sign * u[i] * v[j]
            for k in range(n):
                out[k] += c * val[k]
    return tuple(out)


def jacobi_residual(H, brackets):
    """Flattened cyclic Jacobi residuals over all basis triples i<j<k."""
    n = H.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = H.basis_vec
                r = [Fraction(0)] * n
                for (u, v, w) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_eval(H, brackets, e(u), e(v))
                    outer = bracket_eval(H, brackets, inner, e(w))
                    for m in range(n):
                        r[m] += outer[m]
                out.extend(r)
    return tuple(out)


# --- co-Poisson structure solver -----------------------------------------

def copoisson_unknown_count(H):
    return H.dim ** 3


def _q_u(H, i, j, k):
    n = H.dim
    return (i * n + j) * n + k


def solve_copoisson_family(H, hopf_compat=False):
    """Solve the linear part of the co-Poisson (Hopf) structure equations.

    Unknowns are the cobracket values q(e_i) in H(x)H.  Constraints:
    skew-symmetry, the vanishing counit contractions, the co-Leibniz rule
    in its definitional form (the carrier need not be cocommutative), and
    optionally the Delta-derivation property.  Co-Jacobi is quadratic and
    handled separately.
    """
    n = H.dim
    U = copoisson_unknown_count(H)
    rows = []

    def add_cell(cell, u, v):
        s = cell.get(u, 0) + v
        if s:
            cell[u] = s
        else:
            cell.pop(u, None)

    # skew: q(e_i)_{jk} + q(e_i)_{kj} = 0
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                cell = {}
                add_cell(cell, _q_u(H, i, j, k), Fraction(1))
                add_cell(cell, _q_u(H, i, k, j), Fraction(1))
                if cell:
                    rows.append(cell)
    # counit contractions vanish
    for i in range(n):
        for m in range(n):
            cell = {}
            for j in range(n):
                if H.counit[j]:
                    add_cell(cell, _q_u(H, i, j, m), H.counit[j])
            if cell:
                rows.append(cell)
            cell = {}
            for j in range(n):
                if H.counit[j]:
                    add_cell(cell, _q_u(H, i, m, j), H.counit[j])
            if cell:
                rows.append(cell)
    # co-Leibniz: (Delta(x)1)q(c) - (1(x)q)Delta(c) + t3^2 (q(x)1)Delta(c) = 0
    for c in range(n):
        acc = {}  # (m1, m2, m3) -> sparse row
        for j in range(n):
            for k in range(n):
                u = _q_u(H, c, j, k)
                for (m1, m2), w in comult_indexed(H, j).items():
                    cell = acc.setdefault((m1, m2, k), {})
                    add_cell(cell, u, w)
        for (a, b), w in comult_indexed(H, c).items():
            for m2 in range(n):
                for m3 in range(n):
                    cell = acc.setdefault((a, m2, m3), {})
                    add_cell(cell, _q_u(H, b, m2, m3), -w)
            # t3^2 X at (m1,m2,m3) = X at (m3,m1,m2); X = (q(x)1)Delta(c)
            # has X(p1, p2, b) = sum_a Delta(c)_{a,b} q(a)_{p1,p2}
            for p1 in range(n):
                for p2 in range(n):
                    # X(p1, p2, b) -> t3^2 position (p2, b, p1)
                    cell = acc.setdefault((p2, b, p1), {})
                    add_cell(cell, _q_u(H, a, p1, p2), w)
        for cell in acc.values():
            if cell:
                rows.append(cell)
    if hopf_compat:
        # q(ab) = q(a)Delta(b) + Delta(a)q(b)
        for a in range(n):
            for b in range(n):
                acc = {}
                for k in range(n):
                    w = H.mult[a][b][k]
                    if w:
                        for j in range(n):
                            for l in range(n):
                                cell = acc.setdefault((j, l), {})
                                add_cell(cell, _q_u(H, k, j, l), w)
                for (b1, b2), wb in comult_indexed(H, b).items():
                    for j in range(n):
                        for l in range(n):
                            for m1 in range(n):
                                c1 = H.mult[j][b1][m1]
                                if not c1:
                                    continue
                                for m2 in range(n):
                                    c2 = H.mult[l][b2][m2]
                                    if c2:
                                        cell = acc.setdefault((m1, m2), {})
                                        add_cell(cell, _q_u(H, a, j, l),
                                                 -wb * c1 * c2)
                for (a1, a2), wa in comult_indexed(H, a).items():
                    for j in range(n):
                        for l in range(n):
                            for m1 in range(n):
                                c1 = H.mult[a1][j][m1]
                                if not c1:
                                    continue
                                for m2 in range(n):
                                    c2 = H.mult[a2][l][m2]
                                    if c2:
                                        cell = acc.setdefault((m1, m2), {})
                                        add_cell(cell, _q_u(H, b, j, l),
                                                 -wa * c1 * c2)
                for cell in acc.values():
                    if cell:
                        rows.append(cell)

    dense = [[r.get(u, Fraction(0)) for u in range(U)] for r in rows]
    return LinearFamily(ambient_dim=U, basis=nullspace(dense, U))


def qvals_from_vector(H, vec):
    """Decode a solution vector into {basis index: {(j, k): coeff}}."""
    n = H.dim
    out = {}
    for i in range(n):
        t = {}
        for j in range(n):
            for k in range(n):
                v = vec[_q_u(H, i, j, k)]
                if v:
                    t[(j, k)] = v
        out[i] = t
    return out


def cojacobi_residual(H, qvals):
    """Flattened cyclic co-Jacobi residuals (1+t3+t3^2)(q(x)1)q(e_c)."""
    n = H.dim
    out = []
    for c in range(n):
        t = {}
        for (a, b), w in qvals[c].items():
            for (j, k), w2 in qvals[a].items():
                bump(t, (j, k, b), w * w2)
        cyc = {}
        for (v1, v2, v3), w in t.items():
            bump(cyc, (v1, v2, v3), w)
            bump(cyc, (v3, v1, v2), w)
            bump(cyc, (v2, v3, v1), w)
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out.append(cyc.get((j, k, l), Fraction(0)))
    return tuple(out)


# --- quadratic residual extraction ---------------------------------------

@dataclass
class QuadraticResidual:
    """Coefficient tensor of a homogeneous quadratic residual map.

    coeffs[(i, j)] for i <= j is the residual vector attached to t_i t_j;
    residual(t) = sum_{i<=j} t_i t_j coeffs[(i, j)].
    """

    dim: int
    length: int
    coeffs: dict = field(default_factory=dict)

    def is_zero(self):
        return all(all(not v for v in vec) for vec in self.coeffs.values())

    def predict(self, params):
        out = [Fraction(0)] * self.length
        for (i, j), vec in self.coeffs.items():
            c = Fraction(params[i]) * Fraction(params[j])
            if c:
                for m, v in enumerate(vec):
                    out[m] += c * v
        return tuple(out)


def quadratic_residual_family(fam, which, H):
    """Extract the exact quadratic residual form over a linear family.

    `which` is "jacobi" or "cojacobi".  The residual is recovered by
    probing at 0, the unit parameter vectors, and their pairwise sums,
    which determines a homogeneous quadratic exactly.
    """
    if which == "jacobi":
        def residual(vec):
            return jacobi_residual(H, brackets_from_vector(H, vec))
    elif which == "cojacobi":
        def residual(vec):
            return cojacobi_residual(H, qvals_from_vector(H, vec))
    else:
        raise ValueError(f"unknown residual kind {which!r}")

    def probe(params):
        return residual(fam.member(params))

    dim = fam.dimension
    zero = [Fraction(0)] * dim
    r0 = probe(zero)
    if any(r0):
        raise ValueError("family offset has nonzero residual; "
                         "quadratic extraction assumes a homogeneous family")
    length = len(r0)
    coeffs = {}
    diag = {}
    for i in range(dim):
        p = list(zero)
        p[i] = Fraction(1)
        diag[i] = probe(p)
        coeffs[(i, i)] = diag[i]
    for i in range(dim):
        for j in range(i + 1, dim):
            p = list(zero)
            p[i] = Fraction(1)
            p[j] = Fraction(1)
            rij = probe(p)
            coeffs[(i, j)] = tuple(
                rij[m] - diag[i][m] - diag[j][m] for m in range(length))
    return QuadraticResidual(dim=dim, length=length, coeffs=coeffs)
