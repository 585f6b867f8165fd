import hashlib
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from copoisson.checks import check_dual_of_abcd
from copoisson.finite import (
    FinHopf,
    HopfAxiomError,
    LinearFamily,
    brackets_from_vector,
    cocommutator_vec,
    comult3_indexed,
    group_algebra_z2,
    nullspace,
    quadratic_residual_family,
    qvals_from_vector,
    rref,
    solve_copoisson_family,
    solve_poisson_family,
    sweedler_h4,
)

from conftest import carrier_data, reference


def dense_rref(rows, ncols):
    """Naive dense Gauss-Jordan with first-nonzero pivoting: the reference
    for the sparse rref."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
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


def dense_nullspace(rows, ncols):
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fcol in range(ncols):
        if fcol in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fcol]
        basis.append(tuple(v))
    return basis


def to_dense(row, ncols):
    return [row.get(c, Fraction(0)) for c in range(ncols)]


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): a few sparse rational rows, some of them dependent."""
    ncols = draw(st.integers(1, 7))
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.integers(1, 3))
    row = st.dictionaries(st.integers(0, ncols - 1), coeff, max_size=4)
    rows = draw(st.lists(row, max_size=9))
    # append combinations of earlier rows, so rank deficiency is common
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(coeff), draw(coeff)
        comb = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0)
                for c in rows[i].keys() | rows[j].keys()}
        rows.append({c: v for c, v in comb.items() if v})
    return rows, ncols


def test_rref_and_nullspace():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    red, pivots = rref(rows, 3)
    assert pivots == [0, 1]
    assert red == [{0: Fraction(1), 2: Fraction(1)},
                   {1: Fraction(1), 2: Fraction(1)}]
    ns = nullspace(rows, 3)
    assert ns == [(Fraction(-1), Fraction(-1), Fraction(1))]
    # every nullspace vector annihilates the rows
    for v in ns:
        for r in rows:
            assert sum(Fraction(a) * v[c] for c, a in r.items()) == 0


def test_nullspace_deterministic_normalization():
    rows = [{0: 1, 1: 1}]
    ns = nullspace(rows, 4)
    assert len(ns) == 3
    # one leading free coordinate per basis vector, in column order
    assert ns[0][1] == 1 and ns[1][2] == 1 and ns[2][3] == 1


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_reference(case):
    rows, ncols = case
    snapshot = [dict(r) for r in rows]
    red, pivots = rref(rows, ncols)
    want_red, want_pivots = dense_rref(
        [to_dense(r, ncols) for r in rows], ncols)
    assert rows == snapshot  # the input rows are not modified
    assert pivots == want_pivots
    assert [to_dense(r, ncols) for r in red] == want_red
    assert all(all(v and type(v) is Fraction for v in r.values())
               for r in red)
    assert nullspace(rows, ncols) == dense_nullspace(
        [to_dense(r, ncols) for r in rows], ncols)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_rref_ignores_row_order(case, rnd):
    rows, ncols = case
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert rref(shuffled, ncols) == rref(rows, ncols)


def test_sweedler_tables():
    H = sweedler_h4()
    ONE, G, X, GX = range(4)
    assert H.mult[X][X] == (0, 0, 0, 0)
    assert H.mult[G][G] == (1, 0, 0, 0)
    assert H.mult[X][G] == (0, 0, 0, -1)
    assert H.comult_nz[X] == {(X, ONE): 1, (G, X): 1}
    assert H.antipode[X] == (0, 0, 0, -1)
    assert H.counit[G] == 1
    assert H.counit[X] == 0
    assert carrier_data(H) == reference.sweedler_carrier()


def test_axiom_validation_rejects_bad_tables():
    H = sweedler_h4()
    mult = [[list(row) for row in plane] for plane in H.mult]
    mult[1][1][0] = Fraction(2)  # g*g = 2, breaks the unit/antipode axioms
    with pytest.raises(HopfAxiomError):
        FinHopf.create(dim=4, basis_names=H.basis_names, mult=mult,
                       unit=H.unit, comult=H.comult, counit=H.counit,
                       antipode=H.antipode)


def tweaked3(t, i, j, k, v):
    t = [[list(row) for row in plane] for plane in t]
    t[i][j][k] = Fraction(v)
    return t


@pytest.mark.parametrize("field, change, message", [
    ("mult", lambda H: tweaked3(H.mult, 2, 2, 0, 1),
     "associativity fails on basis (1,2,2)"),
    ("unit", lambda H: (1, 1, 0, 0), "unit axiom fails on basis 0"),
    ("comult", lambda H: tweaked3(H.comult, 2, 3, 3, 1),
     "coassociativity fails on basis 2"),
    ("counit", lambda H: (1, -1, 0, 0), "counit axiom fails on basis 1"),
    ("antipode", lambda H: [[-v if i == j == 1 else v for j, v in enumerate(r)]
                            for i, r in enumerate(H.antipode)],
     "antipode axiom fails on basis 1"),
])
def test_validation_names_the_failing_axiom(field, change, message):
    H = sweedler_h4()
    tables = {f: getattr(H, f) for f in
              ("mult", "unit", "comult", "counit", "antipode")}
    tables[field] = change(H)
    with pytest.raises(HopfAxiomError, match=re.escape(message)):
        FinHopf.create(dim=4, basis_names=H.basis_names, **tables)


@pytest.mark.parametrize("make", [
    sweedler_h4, group_algebra_z2, lambda: group_algebra_s3()])
def test_sparse_views_hold_the_nonzero_entries(make):
    H = make()
    r = range(H.dim)
    assert set(H.mult_nz) == set(product(r, r))
    assert {(i, j, k): w for (i, j), prod in H.mult_nz.items()
            for k, w in prod} == {
        (i, j, k): H.mult[i][j][k] for i, j, k in product(r, r, r)
        if H.mult[i][j][k]}
    for i in r:
        dense = {(j, k): H.comult[i][j][k] for j, k in product(r, r)
                 if H.comult[i][j][k]}
        assert H.comult_nz[i] == dense
    with pytest.raises(FrozenInstanceError):
        H.mult = H.mult


def test_comult3_matches_iterated_comult():
    H = sweedler_h4()
    for i in range(H.dim):
        direct = comult3_indexed(H, i)
        # expand the rightmost factor instead; coassociativity says the
        # result is the same
        alt = {}
        for (a, b), w in H.comult_nz[i].items():
            for (b1, b2), w2 in H.comult_nz[b].items():
                for (b11, b12), w3 in H.comult_nz[b1].items():
                    k = (a, b11, b12, b2)
                    alt[k] = alt.get(k, 0) + w * w2 * w3
        alt = {k: v for k, v in alt.items() if v}
        assert direct == alt


def test_cocommutator_nonzero_on_h4():
    H = sweedler_h4()
    assert cocommutator_vec(H, 0) == {}
    assert cocommutator_vec(H, 1) == {}
    assert cocommutator_vec(H, 2) != {}


def test_poisson_family_h4():
    H = sweedler_h4()
    fam = solve_poisson_family(H)
    assert fam.dimension == 2
    # both generators have {1,-} = 0 and satisfy Leibniz; spot-check a
    # random member against the benchmark's own axiom evaluation
    member = fam.member([Fraction(3), Fraction(-1, 2)])
    assert not any(reference.poisson_residual(carrier_data(H), member, False))
    assert solve_poisson_family(H, hopf_compat=True).dimension == 0


def test_poisson_family_shape_h4():
    # the family is spanned by {g,x} = x and {g,x} = gx (up to the induced
    # values on the other pairs)
    H = sweedler_h4()
    ONE, G, X, GX = range(4)
    fam = solve_poisson_family(H)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for vec in fam.basis:
        br = brackets_from_vector(H, vec)
        # the decode holds exactly the nonzero values: an absent pair is 0
        assert all(v for val in br.values() for v in val.values())
        assert [tuple(br.get(ij, {}).get(k, 0) for k in range(4))
                for ij in pairs] == [vec[4 * t:4 * t + 4]
                                     for t in range(len(pairs))]
        assert not br.keys() & {(ONE, G), (ONE, X), (ONE, GX)}
        # {g,x} lands in span(x, gx)
        assert br.get((G, X), {}).keys() <= {X, GX}
    # one e_m component for each m and each triple i < j < k
    assert reference.jacobi_residual(carrier_data(H), fam.member([1, 1])) \
        == [0] * 16


def test_copoisson_family_h4():
    H = sweedler_h4()
    ONE, G, X, GX = range(4)
    fam = solve_copoisson_family(H)
    assert fam.dimension == 2
    target = {(ONE, X): Fraction(1), (X, ONE): Fraction(-1),
              (X, G): Fraction(1), (G, X): Fraction(-1)}
    seen_x = False
    for vec in fam.basis:
        qv = qvals_from_vector(H, vec)
        assert qv[ONE] == {} and qv[G] == {}
        if qv[X]:
            # q(x) proportional to 1(x)x - x(x)1 + x(x)g - g(x)x
            assert set(qv[X]) == set(target)
            lam = qv[X][(ONE, X)]
            assert qv[X] == {k: lam * v for k, v in target.items()}
            seen_x = True
    assert seen_x
    assert solve_copoisson_family(H, hopf_compat=True).dimension == 0


def test_group_algebra_trivial_families():
    Z = group_algebra_z2()
    assert solve_poisson_family(Z, hopf_compat=True).dimension == 0
    assert solve_copoisson_family(Z).dimension == 0


def test_quadratic_residuals_h4():
    H = sweedler_h4()
    pf = solve_poisson_family(H)
    rj = quadratic_residual_family(pf, "jacobi", H)
    assert rj.is_zero()
    cf = solve_copoisson_family(H)
    rc = quadratic_residual_family(cf, "cojacobi", H)
    assert rc.is_zero()


def test_quadratic_probe_predicts_residual(rng):
    H = sweedler_h4()
    # corrupt the co-Poisson family so co-Jacobi genuinely fails, then the
    # extracted quadratic must predict the residual at random parameters
    fam = solve_copoisson_family(H)
    corrupted = LinearFamily(
        ambient_dim=fam.ambient_dim,
        basis=[fam.basis[0],
               tuple(v + w for v, w in zip(fam.basis[1], fam.basis[0]))])
    quad = quadratic_residual_family(corrupted, "cojacobi", H)
    for _ in range(20):
        params = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(2)]
        direct = reference.cojacobi_residual(carrier_data(H),
                                             corrupted.member(params))
        assert direct == list(quad.predict(params))


def test_quadratic_detects_violation():
    H = sweedler_h4()
    # a deliberately wrong family: q(g) = g(x)x - x(x)g is skew but breaks
    # the quadratic pipeline's zero-residual guarantee only if co-Jacobi
    # fails; instead corrupt with a vector mixing q(x) into q(g)
    n = H.dim
    vec = [Fraction(0)] * (n ** 3)

    def setq(i, j, k, v):
        vec[(i * n + j) * n + k] = Fraction(v)

    ONE, G, X, GX = range(4)
    setq(G, ONE, X, 1)
    setq(G, X, ONE, -1)
    setq(X, X, GX, 1)
    setq(X, GX, X, -1)
    fam = LinearFamily(ambient_dim=n ** 3, basis=[tuple(vec)])
    quad = quadratic_residual_family(fam, "cojacobi", H)
    assert not quad.is_zero()


def test_dual_of_abcd_on_family_members():
    H = sweedler_h4()
    fam = solve_copoisson_family(H)
    member = fam.member([Fraction(5), Fraction(7, 3)])
    assert check_dual_of_abcd(H, qvals_from_vector(H, member)).passed


def test_family_member_parameter_count():
    fam = LinearFamily(ambient_dim=2, basis=[(Fraction(1), Fraction(0))])
    with pytest.raises(ValueError):
        fam.member([1, 2])


def group_algebra_s3():
    """k[S3] from permutation products: group-like basis, unit at the
    identity, S(g) = g^-1."""
    elems = sorted(permutations(range(3)))  # the identity (0, 1, 2) first
    n = len(elems)
    index = {g: i for i, g in enumerate(elems)}
    compose = lambda g, h: tuple(g[h[t]] for t in range(3))
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    comult = [[[0] * n for _ in range(n)] for _ in range(n)]
    antipode = [[0] * n for _ in range(n)]
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            mult[i][j][index[compose(g, h)]] = 1
        comult[i][i][i] = 1
        antipode[i][next(j for j, h in enumerate(elems)
                         if compose(g, h) == elems[0])] = 1
    return FinHopf.create(
        dim=n, basis_names=["".join(map(str, g)) for g in elems],
        mult=mult, unit=[1] + [0] * (n - 1),
        comult=comult, counit=[1] * n, antipode=antipode)


def test_s3_family_dimensions():
    H = group_algebra_s3()
    assert solve_poisson_family(H).dimension == 1
    assert solve_poisson_family(H, hopf_compat=True).dimension == 0
    assert solve_copoisson_family(H).dimension == 0
    assert solve_copoisson_family(H, hopf_compat=True).dimension == 0


def test_s3_poisson_basis_satisfies_leibniz():
    H = group_algebra_s3()
    (vec,) = solve_poisson_family(H).basis
    assert brackets_from_vector(H, vec)  # holds only nonzero brackets
    assert not any(reference.poisson_residual(carrier_data(H), vec, False))


def rebased(H, P):
    """H on the basis f_a = sum_i P[a][i] e_i: every structure constant
    moves."""
    n = H.dim
    r = range(n)
    red, _ = dense_rref([list(row) + [int(a == b) for b in r]
                         for a, row in enumerate(P)], 2 * n)
    Q = [row[n:] for row in red]  # e_k = sum_c Q[k][c] f_c
    M, D, S = H.mult, H.comult, H.antipode
    return FinHopf.create(
        dim=n, basis_names=[f"f{i}" for i in r],
        mult=[[[sum(P[a][i] * P[b][j] * M[i][j][k] * Q[k][c]
                    for i, j, k in product(r, r, r)) for c in r]
               for b in r] for a in r],
        unit=[sum(H.unit[k] * Q[k][c] for k in r) for c in r],
        comult=[[[sum(P[a][i] * D[i][j][k] * Q[j][b] * Q[k][c]
                      for i, j, k in product(r, r, r)) for c in r]
                 for b in r] for a in r],
        counit=[sum(P[a][i] * H.counit[i] for i in r) for a in r],
        antipode=[[sum(P[a][i] * S[i][j] * Q[j][b] for i, j in product(r, r))
                   for b in r] for a in r])


def rescaled(H, c):
    """H on the basis f_i = c_i e_i."""
    return rebased(H, [[c[i] if i == j else 0 for j in range(H.dim)]
                       for i in range(H.dim)])


def mixed_h4():
    """H4 on f = (1 + g, 2 - g + x, x + gx, gx): neither the unit nor the
    counit is a multiple of a basis vector or covector."""
    return rebased(sweedler_h4(), [[1, 1, 0, 0], [2, -1, 1, 0], [0, 0, 1, 1],
                                   [0, 0, 0, 1]])


def pinned_carriers():
    """H4, k[Z2], k[S3] and six seeded rescaled bases of H4."""
    rnd = random.Random(8)
    H = sweedler_h4()
    return [H, group_algebra_z2(), group_algebra_s3()] + [
        rescaled(H, [Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]),
                              rnd.randint(1, 4)) for _ in range(H.dim)])
        for _ in range(6)]


def test_classifier_output_is_pinned():
    """sha256 over the family dimension, basis values and types, and the
    residual coefficients of all four solver variants on the pinned
    carriers."""
    digest = hashlib.sha256()
    dims = []
    for C in pinned_carriers():
        for solve, kind in ((solve_poisson_family, "jacobi"),
                            (solve_copoisson_family, "cojacobi")):
            for hopf in (False, True):
                fam = solve(C, hopf_compat=hopf)
                res = quadratic_residual_family(fam, kind, C)
                dims.append(fam.dimension)
                digest.update(repr((
                    fam.dimension, fam.basis,
                    [type(v).__name__ for b in fam.basis for v in b],
                    res.dim, res.length, list(res.coeffs),
                    sorted(res.coeffs.items()))).encode())
    assert dims == [2, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0] + [2, 0, 2, 0] * 6
    assert digest.hexdigest() == (
        "a14bd74336a9a7e7576f601a30fdcc6ab7f20a8c165b8b2fae6bcb06a85ab871")


@pytest.mark.parametrize("structure", ["poisson", "copoisson"])
@pytest.mark.parametrize("hopf", [False, True], ids=["plain", "hopf"])
def test_families_satisfy_the_reference_axioms(structure, hopf):
    """On every pinned carrier and on mixed_h4, each family basis vector
    satisfies the linear axioms as reference.py evaluates them from the
    structure constants, {1, -} = 0 and the counit contractions included,
    every basis of H4 has the family dimension reference.py states, and
    the quadratic residual predicts reference.py's Jacobi or co-Jacobi
    residual at a seeded member."""
    solve, kind, linear, quadratic = {
        "poisson": (solve_poisson_family, "jacobi",
                    reference.poisson_residual, reference.jacobi_residual),
        "copoisson": (solve_copoisson_family, "cojacobi",
                      reference.copoisson_residual,
                      reference.cojacobi_residual)}[structure]
    rnd = random.Random(5)
    for C in pinned_carriers() + [mixed_h4()]:
        data = carrier_data(C)
        fam = solve(C, hopf_compat=hopf)
        for vec in fam.basis:
            assert not any(linear(data, vec, hopf))
        if C.dim == 4:
            assert fam.dimension == reference.H4_DIMENSIONS[(structure, hopf)]
        params = [Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
                  for _ in range(fam.dimension)]
        predicted = quadratic_residual_family(fam, kind, C).predict(params)
        assert list(predicted) == quadratic(data, fam.member(params))


def probing_residual_family(fam, which, H):
    """The quadratic residual recovered by probing the dense residual at 0,
    at each unit parameter vector and at each pairwise sum of them: the
    reference for the polarized quadratic_residual_family."""
    residual = {"jacobi": reference.jacobi_residual,
                "cojacobi": reference.cojacobi_residual}[which]
    data = carrier_data(H)
    dim = fam.dimension

    def probe(*ones):
        return tuple(residual(
            data, fam.member([int(s in ones) for s in range(dim)])))

    r0 = probe()
    assert not any(r0)
    coeffs = {(i, i): probe(i) for i in range(dim)}
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs[(i, j)] = tuple(
                a - b - c for a, b, c in zip(probe(i, j), coeffs[(i, i)],
                                             coeffs[(j, j)]))
    return dim, len(r0), coeffs


def random_family(rnd, unknowns, dim):
    """dim sparse random vectors: a family with no structure at all."""
    basis = []
    for _ in range(dim):
        v = [Fraction(0)] * unknowns
        for u in rnd.sample(range(unknowns), min(unknowns, 6)):
            v[u] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        basis.append(tuple(v))
    return LinearFamily(ambient_dim=unknowns, basis=basis)


def test_polarized_residual_matches_probing():
    rnd = random.Random(11)
    H = sweedler_h4()
    S3 = group_algebra_s3()
    pu, cu = 24, 64  # unknowns of the H4 Poisson and co-Poisson systems
    cases = [
        (solve_poisson_family(H), "jacobi", H, True),
        (solve_copoisson_family(H), "cojacobi", H, True),
        (random_family(rnd, pu, 3), "jacobi", H, False),
        (random_family(rnd, cu, 3), "cojacobi", H, False),
        (random_family(rnd, 6 * 15, 2), "jacobi", S3, False),
        (random_family(rnd, 6 ** 3, 2), "cojacobi", S3, False),
    ]
    for fam, which, C, zero in cases:
        got = quadratic_residual_family(fam, which, C)
        want = probing_residual_family(fam, which, C)
        assert got.is_zero() == zero
        assert (got.dim, got.length, got.coeffs) == want
        assert list(got.coeffs) == list(want[2])
        assert all(type(v) is Fraction
                   for vec in got.coeffs.values() for v in vec)


def dense_hopf_rows(H, structure):
    """The Hopf-compatibility rows of either solver, built from the dense
    tensors by scanning every index: the reference for the solvers' sparse
    Hopf branches."""
    n = H.dim
    r = range(n)
    M, D = H.mult, H.comult
    rows = []
    if structure == "poisson":
        pairs = [(i, j) for i in r for j in r if i < j]

        def add(row, i, j, k, w):  # row += w * (e_k component of {e_i, e_j})
            if i != j and w:
                u = pairs.index((min(i, j), max(i, j))) * n + k
                row[u] = row.get(u, 0) + (w if i < j else -w)

        for a, b, m1, m2 in product(r, r, r, r):
            row = {}
            for k in r:
                add(row, a, b, k, D[k][m1][m2])
            for a1, a2, b1, b2 in product(r, r, r, r):
                w = D[a][a1][a2] * D[b][b1][b2]
                add(row, a1, b1, m1, -w * M[a2][b2][m2])
                add(row, a2, b2, m2, -w * M[a1][b1][m1])
            rows.append(row)
    else:
        def q(i, j, k):
            return (i * n + j) * n + k

        for a, b, m1, m2 in product(r, r, r, r):
            row = {}
            for k in r:
                row[q(k, m1, m2)] = M[a][b][k]
            for j, l, c1, c2 in product(r, r, r, r):
                row[q(a, j, l)] = row.get(q(a, j, l), 0) - (
                    D[b][c1][c2] * M[j][c1][m1] * M[l][c2][m2])
                row[q(b, j, l)] = row.get(q(b, j, l), 0) - (
                    D[a][c1][c2] * M[c1][j][m1] * M[c2][l][m2])
            rows.append(row)
    return rows


@pytest.mark.parametrize("structure", ["poisson", "copoisson"])
def test_sparse_hopf_rows_match_the_dense_scan(monkeypatch, structure):
    import copoisson.finite as finite
    solve = {"poisson": solve_poisson_family,
             "copoisson": solve_copoisson_family}[structure]
    captured = []
    monkeypatch.setattr(finite, "_solve",
                        lambda rows, U: captured.append((list(rows), U)))
    H = rescaled(sweedler_h4(), [Fraction(2), Fraction(-1, 3), Fraction(3),
                                 Fraction(1, 2)])
    solve(H)
    solve(H, hopf_compat=True)
    (base, U), (full, _) = captured
    assert full[:len(base)] == base
    # the Hopf rows alone leave a nontrivial solution space, so a wrong
    # index in them shows up as a different nullspace
    sparse = nullspace(full[len(base):], U)
    assert sparse and sparse == nullspace(dense_hopf_rows(H, structure), U)


def test_constraint_rows_are_int(monkeypatch):
    import copoisson.finite as finite
    captured = []
    monkeypatch.setattr(finite, "_solve",
                        lambda rows, U: captured.append(list(rows)))
    H = sweedler_h4()
    # every tensor of this basis has a fractional entry, and Dm != Dc
    skewed = rescaled(H, [Fraction(2), Fraction(1, 2), Fraction(1, 3),
                          Fraction(1)])
    assert finite._int_tensors(skewed)[2:] == (24, 2)
    assert Fraction(1, 2) in skewed.unit and Fraction(1, 2) in skewed.counit
    for C in (H, group_algebra_s3(), skewed):
        for solve in (solve_poisson_family, solve_copoisson_family):
            for hopf in (False, True):
                solve(C, hopf_compat=hopf)
                rows = captured.pop()
                assert rows and all(type(v) is int
                                    for row in rows for v in row.values())
