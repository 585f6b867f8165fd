"""Finite-dimensional Hopf algebras via structure constants, and the exact
linear/quadratic classifier for their (co)Poisson structures.

The classifier is a two-stage pipeline: an exact rational nullspace solve
of the linear constraints (skew, Leibniz or co-Leibniz, optional Hopf
compatibility), then the quadratic Jacobi/co-Jacobi residual over the
solved family by polarization.  Quadratic constraints never enter the
linear solver.  Both stages visit only the nonzero structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from .algebra import axpy, bump, format_coeff


# --- exact rational linear algebra ---------------------------------------

def rref(rows, ncols):
    """Reduced row echelon form of sparse rows {column: coeff}.

    Rows are eliminated one at a time against the pivot rows found so far,
    which are kept fully reduced: 1 at their own pivot column and 0 at every
    other pivot column.  What is left of a row makes its smallest column a
    new pivot, which is then cleared from the earlier pivot rows.  Input
    rows may hold any exact numbers (the solvers' are int); a kept row is
    divided by its pivot, so reduced rows hold Fractions.  No zero entry is
    ever stored, and the input rows are not modified.  The reduced row
    echelon form is unique, so the result does not depend on the row order.

    Returns (reduced rows as sparse dicts in pivot-column order, pivot
    column list)."""
    reduced = {}  # pivot column -> its fully reduced row
    for row in rows:
        if len(reduced) == ncols:
            break
        r = {c: v for c, v in row.items() if v}
        for p in [c for c in r if c in reduced]:
            f = r.pop(p)
            for c, v in reduced[p].items():
                if c != p:
                    bump(r, c, -f * v)
        if not r:
            continue
        p = min(r)
        inv = 1 / Fraction(r.pop(p))
        r = {c: v * inv for c, v in r.items()}
        for prow in reduced.values():
            f = prow.pop(p, 0)
            if f:
                for c, v in r.items():
                    bump(prow, c, -f * v)
        r[p] = Fraction(1)
        reduced[p] = r
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


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
            v[pc] = -red[ri].get(fcol, Fraction(0))
        basis.append(tuple(v))
    return basis


# --- finite Hopf algebra carrier -----------------------------------------

class HopfAxiomError(ValueError):
    """A structure-constant tensor violates a Hopf axiom."""


@dataclass(frozen=True)
class FinHopf:
    """A finite-dimensional Hopf algebra given by structure-constant tensors.

    mult[i][j][k]: coefficient of e_k in e_i e_j
    comult[i][j][k]: coefficient of e_j (x) e_k in Delta(e_i)
    antipode[i][j]: coefficient of e_j in S(e_i)
    All five Hopf axioms are validated exactly at construction.

    mult_nz[(i, j)] = ((k, coeff), ...) and comult_nz[i] = {(j, k): coeff}
    hold the nonzero entries of mult and comult; the class is frozen so
    that these views, derived once, cannot go stale.
    """

    dim: int
    basis_names: list
    mult: tuple
    unit: tuple
    comult: tuple
    counit: tuple
    antipode: tuple
    mult_nz: dict = field(init=False, compare=False, repr=False)
    comult_nz: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        r = range(self.dim)
        object.__setattr__(self, "mult_nz", {
            (i, j): tuple((k, w) for k, w in enumerate(self.mult[i][j]) if w)
            for i in r for j in r})
        object.__setattr__(self, "comult_nz", tuple(
            {(j, k): w for j in r for k, w in enumerate(self.comult[i][j]) if w}
            for i in r))

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

    def validate(self):
        r = range(self.dim)
        M, D = self.mult_nz, self.comult_nz

        def mul(u, v):
            """Product of sparse vectors {basis index: coeff}."""
            out = {}
            for i, a in u.items():
                for j, b in v.items():
                    for k, w in M[(i, j)]:
                        bump(out, k, a * b * w)
            return out

        def e(i):
            return {i: 1}

        one = {i: w for i, w in enumerate(self.unit) if w}
        for i in r:
            for j in r:
                for k in r:
                    if mul(mul(e(i), e(j)), e(k)) != mul(e(i), mul(e(j), e(k))):
                        raise HopfAxiomError(
                            f"associativity fails on basis ({i},{j},{k})")
        for i in r:
            if mul(one, e(i)) != e(i) or mul(e(i), one) != e(i):
                raise HopfAxiomError(f"unit axiom fails on basis {i}")
        for i in r:
            rhs = {}
            for (a, b), w in D[i].items():
                for (b1, b2), w2 in D[b].items():
                    bump(rhs, (a, b1, b2), w * w2)
            if comult2_indexed(self, i) != rhs:
                raise HopfAxiomError(f"coassociativity fails on basis {i}")
        for i in r:
            left = {}
            right = {}
            for (a, b), w in D[i].items():
                bump(left, b, w * self.counit[a])
                bump(right, a, w * self.counit[b])
            if left != e(i) or right != e(i):
                raise HopfAxiomError(f"counit axiom fails on basis {i}")
        S = [{j: s for j, s in enumerate(row) if s} for row in self.antipode]
        for i in r:
            left = {}
            right = {}
            for (a, b), w in D[i].items():
                axpy(left, mul(S[a], e(b)), w)
                axpy(right, mul(e(a), S[b]), w)
            want = {k: c for k, u in one.items() if (c := self.counit[i] * u)}
            if left != want or right != want:
                raise HopfAxiomError(f"antipode axiom fails on basis {i}")


def comult2_indexed(H, i):
    """Delta^(2)(e_i) as {(a, b, c): coeff}."""
    out = {}
    for (a, b), w in H.comult_nz[i].items():
        for (a1, a2), w2 in H.comult_nz[a].items():
            bump(out, (a1, a2, b), w * w2)
    return out


def comult3_indexed(H, i):
    """Delta^(3)(e_i) as {(a, b, c, d): coeff}."""
    out = {}
    for (a, b, c), w in comult2_indexed(H, i).items():
        for (a1, a2), w2 in H.comult_nz[a].items():
            bump(out, (a1, a2, b, c), w * w2)
    return out


def cocommutator_vec(H, i):
    """Delta'(e_i) = Delta(e_i) - t2 Delta(e_i) as {(j, k): coeff}."""
    out = {}
    for (j, k), w in H.comult_nz[i].items():
        bump(out, (j, k), w)
        bump(out, (k, j), -w)
    return out


def tensor_concat(acc, t1, t2, w):
    """acc += w * (t1 (x) t2) for indexed tensors (key tuples concatenate)."""
    for k1, v1 in t1.items():
        for k2, v2 in t2.items():
            bump(acc, k1 + k2, w * v1 * v2)


def format_fin_tensor(H, t, *, bare_one):
    """{index tuple: coeff} on the basis of H, H(x)H, ... as text, each
    term c*e_i(x)e_j...; with bare_one a coefficient of 1 is left out."""
    parts = []
    for key in sorted(t):
        c = format_coeff(t[key])
        body = "(x)".join(H.basis_names[i] for i in key)
        parts.append(body if bare_one and c == "1" else f"{c}*{body}")
    return " + ".join(parts) if parts else "0"


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
    """Solution space: the span of basis inside k^ambient_dim."""

    ambient_dim: int
    basis: list = field(default_factory=list)

    @property
    def dimension(self):
        return len(self.basis)

    def member(self, params):
        if len(params) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} parameters, got {len(params)}")
        v = [Fraction(0)] * self.ambient_dim
        for t, b in zip(params, self.basis):
            t = Fraction(t)
            if t:
                for i, bv in enumerate(b):
                    v[i] += t * bv
        return tuple(v)


# --- constraint rows ------------------------------------------------------
#
# Each solver fills accumulators {output coordinate: {unknown: coeff}} with
# `bump`; every nonzero cell is one sparse constraint row, and the rows go
# to rref as they are.  Their order does not matter: the reduced row
# echelon form, and with it the family basis, is unique.  Rows are
# homogeneous, so they are built on the int copies of _int_tensors; a Hopf
# row mixes degrees in mult and comult and scales its lower one by Dm * Dc.

def _int_tensors(H):
    """(mult_nz, comult_nz, Dm, Dc): int copies of H's mult and comult,
    each times the lcm of its denominators (Dm, Dc)."""
    lcm_of = lambda ws: lcm(*(w.denominator for w in ws))
    Dm = lcm_of(w for p in H.mult_nz.values() for _, w in p)
    Dc = lcm_of(w for t in H.comult_nz for w in t.values())
    return ({ij: tuple((k, int(w * Dm)) for k, w in p)
             for ij, p in H.mult_nz.items()},
            tuple({jk: int(w * Dc) for jk, w in t.items()}
                  for t in H.comult_nz), Dm, Dc)


def _emit(rows, acc):
    """Append the nonzero cells of acc to rows."""
    rows.extend(cell for cell in acc.values() if cell)


def _solve(rows, U):
    """The family of vectors in k^U that every sparse row annihilates."""
    return LinearFamily(ambient_dim=U, basis=nullspace(rows, U))


# --- Poisson structure solver --------------------------------------------

def _pair_index(H):
    pairs = list(combinations(range(H.dim), 2))
    return pairs, {p: idx for idx, p in enumerate(pairs)}


def poisson_unknown_count(H):
    return H.dim * (H.dim * (H.dim - 1) // 2)


def solve_poisson_family(H, hopf_compat=False):
    """Solve the linear part of the Poisson (Hopf) structure equations.

    Unknowns are the bracket values {e_i, e_j} for i < j.  Constraints:
    the Leibniz rule on all basis triples, and optionally the Hopf
    compatibility of the coproduct.  Jacobi is quadratic and handled
    separately by quadratic_residual_family.
    {1, -} = 0 is implied: Leibniz at a = b = 1 gives {1, c} = 2{1, c}.
    """
    n = H.dim
    _, pair_pos = _pair_index(H)
    mult, comult, Dm, Dc = _int_tensors(H)
    rows = []

    def bracket(acc, key, i, j, k, w):
        """acc[key] += w * (the e_k component of {e_i, e_j})."""
        if i == j:
            return
        if i < j:
            u = pair_pos[(i, j)] * n + k
        else:
            u, w = pair_pos[(j, i)] * n + k, -w
        bump(acc.setdefault(key, {}), u, w)

    # Leibniz {ab, c} = a{b, c} + {a, c}b
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = {k: {} for k in range(n)}
                for k, w in mult[(a, b)]:
                    for m in range(n):
                        bracket(acc, m, k, c, m, w)
                for k in range(n):
                    for m, w in mult[(a, k)]:
                        bracket(acc, m, b, c, k, -w)
                    for m, w in mult[(k, b)]:
                        bracket(acc, m, a, c, k, -w)
                _emit(rows, acc)
    if hopf_compat:
        for a in range(n):
            for b in range(n):
                acc = {}
                # Delta({a,b}), times Dm * Dc like the degree-3 terms below
                for k in range(n):
                    for (m1, m2), w in comult[k].items():
                        bracket(acc, (m1, m2), a, b, k, w * Dm * Dc)
                # -sum {a1,b1}(x)a2b2 - a1b1(x){a2,b2}
                for (a1, a2), wa in comult[a].items():
                    for (b1, b2), wb in comult[b].items():
                        w = wa * wb
                        for m2, c in mult[(a2, b2)]:
                            for m1 in range(n):
                                bracket(acc, (m1, m2), a1, b1, m1, -w * c)
                        for m1, c in mult[(a1, b1)]:
                            for m2 in range(n):
                                bracket(acc, (m1, m2), a2, b2, m2, -w * c)
                _emit(rows, acc)
    return _solve(rows, poisson_unknown_count(H))


def brackets_from_vector(H, vec):
    """Decode a solution vector into its nonzero brackets as
    {(i, j): {k: coeff}} for i < j; an absent pair has bracket 0."""
    n = H.dim
    pairs, _ = _pair_index(H)
    out = {}
    for idx, ij in enumerate(pairs):
        val = {k: v for k in range(n) if (v := vec[idx * n + k])}
        if val:
            out[ij] = val
    return out


# --- co-Poisson structure solver -----------------------------------------

def copoisson_unknown_count(H):
    return H.dim ** 3


def _q_u(H, i, j, k):
    n = H.dim
    return (i * n + j) * n + k


def solve_copoisson_family(H, hopf_compat=False):
    """Solve the linear part of the co-Poisson (Hopf) structure equations.

    Unknowns are the cobracket values q(e_i) in H(x)H.  Constraints:
    skew-symmetry, the co-Leibniz rule in its definitional form (the
    carrier need not be cocommutative), and optionally the
    Delta-derivation property.  Co-Jacobi is quadratic and handled
    separately.  The counit contractions are implied: eps(x)1(x)1, then
    eps(x)1, on co-Leibniz gives (1(x)eps)q = 0, and skew (eps(x)1)q = 0.
    """
    n = H.dim
    mult, comult, Dm, Dc = _int_tensors(H)
    rows = []

    def add(acc, key, u, w):
        bump(acc.setdefault(key, {}), u, w)

    # skew: q(e_i)_{jk} + q(e_i)_{kj} = 0
    acc = {}
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                add(acc, (i, j, k), _q_u(H, i, j, k), 1)
                add(acc, (i, j, k), _q_u(H, i, k, j), 1)
    _emit(rows, acc)
    # co-Leibniz: (Delta(x)1)q(c) - (1(x)q)Delta(c) + t3^2 (q(x)1)Delta(c) = 0
    for c in range(n):
        acc = {}  # (m1, m2, m3) -> sparse row
        for j in range(n):
            for k in range(n):
                u = _q_u(H, c, j, k)
                for (m1, m2), w in comult[j].items():
                    add(acc, (m1, m2, k), u, w)
        for (a, b), w in comult[c].items():
            for m2 in range(n):
                for m3 in range(n):
                    add(acc, (a, m2, m3), _q_u(H, b, m2, m3), -w)
            # t3^2 X at (m1,m2,m3) = X at (m3,m1,m2); X = (q(x)1)Delta(c)
            # has X(p1, p2, b) = sum_a Delta(c)_{a,b} q(a)_{p1,p2}
            for p1 in range(n):
                for p2 in range(n):
                    # X(p1, p2, b) -> t3^2 position (p2, b, p1)
                    add(acc, (p2, b, p1), _q_u(H, a, p1, p2), w)
        _emit(rows, acc)
    if hopf_compat:
        # q(ab) = q(a)Delta(b) + Delta(a)q(b), q(ab) times Dm * Dc
        for a in range(n):
            for b in range(n):
                acc = {}
                for k, w in mult[(a, b)]:
                    for j in range(n):
                        for l in range(n):
                            add(acc, (j, l), _q_u(H, k, j, l), w * Dm * Dc)
                for (b1, b2), wb in comult[b].items():
                    for j in range(n):
                        for m1, c1 in mult[(j, b1)]:
                            for l in range(n):
                                for m2, c2 in mult[(l, b2)]:
                                    add(acc, (m1, m2), _q_u(H, a, j, l),
                                        -wb * c1 * c2)
                for (a1, a2), wa in comult[a].items():
                    for j in range(n):
                        for m1, c1 in mult[(a1, j)]:
                            for l in range(n):
                                for m2, c2 in mult[(a2, l)]:
                                    add(acc, (m1, m2), _q_u(H, b, j, l),
                                        -wa * c1 * c2)
                _emit(rows, acc)
    return _solve(rows, copoisson_unknown_count(H))


def qvals_from_vector(H, vec):
    """Decode a solution vector into {basis index: {(j, k): coeff}}."""
    n = H.dim
    out = {}
    for i in range(n):
        t = {}
        for j, k in product(range(n), repeat=2):
            v = vec[_q_u(H, i, j, k)]
            if v:
                t[(j, k)] = v
        out[i] = t
    return out


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


def _bracket_table(H, vec):
    """brackets_from_vector, with the pairs i > j added negated."""
    br = brackets_from_vector(H, vec)
    for (i, j), val in list(br.items()):
        br[(j, i)] = {k: -v for k, v in val.items()}
    return br


def _jacobi_bilinear(H, x, y, acc):
    """acc += the Jacobi residual with outer bracket x and inner bracket y,
    both as _bracket_table: the cyclic sum of {{e_u, e_v}, e_w} over each
    triple t = (i, j, k), i < j < k, in combinations order, with its e_m
    component at t*n + m."""
    n = H.dim
    for t, (i, j, k) in enumerate(combinations(range(n), 3)):
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for p, c in y.get((u, v), {}).items():
                for m, d in x.get((p, w), {}).items():
                    bump(acc, t * n + m, c * d)


def _cojacobi_bilinear(H, x, y, acc):
    """acc += the co-Jacobi residual with outer cobracket x and inner
    cobracket y, both as qvals_from_vector: (1 + t3 + t3^2)(y (x) 1) x(e_c),
    with its e_l1 (x) e_l2 (x) e_l3 component at
    ((c*n + l1)*n + l2)*n + l3."""
    n = H.dim
    for c, qc in x.items():
        for (a, b), w in qc.items():
            for (j, k), w2 in y.get(a, {}).items():
                ww = w * w2
                for l1, l2, l3 in ((j, k, b), (b, j, k), (k, b, j)):
                    bump(acc, ((c * n + l1) * n + l2) * n + l3, ww)


def quadratic_residual_family(fam, which, H):
    """Extract the exact quadratic residual form over a linear family.

    `which` is "jacobi" or "cojacobi".  The residual is R(x) = Bil(x, x)
    for a bilinear Bil, so over the family basis b, by polarization,
    coeffs[(i, i)] = Bil(b_i, b_i) and
    coeffs[(i, j)] = Bil(b_i, b_j) + Bil(b_j, b_i).
    Bil is evaluated on the nonzero entries only.
    """
    n = H.dim
    kinds = {"jacobi": (_bracket_table, _jacobi_bilinear, n * comb(n, 3)),
             "cojacobi": (qvals_from_vector, _cojacobi_bilinear, n ** 4)}
    if which not in kinds:
        raise ValueError(f"unknown residual kind {which!r}")
    table, bilinear, length = kinds[which]

    def form(*pairs):
        acc = {}
        for x, y in pairs:
            bilinear(H, x, y, acc)
        out = [Fraction(0)] * length
        for m, v in acc.items():
            out[m] = v
        return tuple(out)

    basis = [table(H, b) for b in fam.basis]
    coeffs = {(i, i): form((x, x)) for i, x in enumerate(basis)}
    for i, j in combinations(range(fam.dimension), 2):
        coeffs[(i, j)] = form((basis[i], basis[j]), (basis[j], basis[i]))
    return QuadraticResidual(dim=fam.dimension, length=length, coeffs=coeffs)
