"""End-to-end acceptance suite.

Each test prints a single pass/fail line so the suite doubles as a
human-readable scorecard when run with -s.
"""

import io
import json
import random
from fractions import Fraction
from itertools import combinations

from copoisson.algebra import Monomial, Poly, monomials
from copoisson.checks import (
    check_cojacobi,
    check_cojacobi_coeffs,
    check_coleibniz,
    check_counit_kill,
    check_dual_of_abcd,
    check_eps_s_morphisms,
    check_jacobi,
    check_linear_relations,
    check_poisson_hopf_compat,
    check_skew,
    cojacobi_affordable_degree,
)
from copoisson.cli import main
from copoisson.dual import verify_main5_roundtrip
from copoisson.finite import (
    FinHopf,
    quadratic_residual_family,
    qvals_from_vector,
    rref,
    solve_copoisson_family,
    solve_poisson_family,
    sweedler_h4,
)
from copoisson.hopf import PMap, i_from_q, j_from_p, p_from_j
from copoisson.structures import (
    BracketTable,
    ITable,
    StructConsts,
    bracket_monomials,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
)

from conftest import (
    FIXTURES,
    nambu_bracket,
    random_bracket,
    random_itable,
    so3_consts,
)
from test_finite import group_algebra_s3, mixed_h4


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_1_reciprocity_roundtrips():
    """100 randomized tables over d in {2,3,4}, degrees <= 6: both
    reciprocity round trips are exact identities."""
    rng = random.Random(101)
    ok = True
    for trial in range(50):
        d = rng.choice([2, 3, 4])
        M = rng.choice([3, 4, 5, 6]) if d == 2 else rng.choice([3, 4])
        I = random_itable(rng, d, M)
        q = make_copoisson(I)
        for m in monomials(d, M):
            if i_from_q(q, m) != I(m):
                ok = False
    for trial in range(50):
        d = rng.choice([2, 3])
        M = rng.choice([2, 3])
        B = random_bracket(rng, d, 2)
        pvals = {}
        for a in monomials(d, M):
            for b in monomials(d, M):
                v = bracket_monomials(B, a, b)
                if v:
                    pvals[(a, b)] = v
        p = PMap(d=d, domain_degree_bound=M, assignments=pvals)
        jvals = {}
        for a in monomials(d, M):
            for b in monomials(d, M):
                v = j_from_p(p, a, b)
                if v:
                    jvals[(a, b)] = v
        J = PMap(d=d, domain_degree_bound=M, assignments=jvals)
        for a in monomials(d, M):
            for b in monomials(d, M):
                if p_from_j(J, a, b) != p(a, b):
                    ok = False
    report("1 reciprocity round trips", ok)


def test_acceptance_2_cojacobi_equivalence():
    """50 randomized ITables (d=3, M=5): skew and co-Leibniz always pass;
    co-Jacobi verdict coincides with the coefficient-form verdict."""
    rng = random.Random(202)
    ok = True
    for trial in range(50):
        I = random_itable(rng, 3, 5, density=0.2)
        q = make_copoisson(I)
        if not (check_skew(q, 5).passed and check_coleibniz(q, 5).passed):
            ok = False
        N = min(3, cojacobi_affordable_degree(q))
        if N < 0:
            ok = False
            continue
        tensor_verdict = check_cojacobi(q, N).passed
        coeff_verdict = check_cojacobi_coeffs(I, N).passed
        if tensor_verdict != coeff_verdict:
            ok = False
    report("2 co-Jacobi tensor/coefficient equivalence", ok)


def test_acceptance_3_two_variable_case():
    """50 randomized d=2 tables with M=6: every co-Poisson axiom passes
    (co-Jacobi automatically in two variables)."""
    rng = random.Random(303)
    ok = True
    for trial in range(50):
        I = random_itable(rng, 2, 6, density=0.5)
        q = make_copoisson(I)
        if not check_skew(q, 6).passed:
            ok = False
        if not check_coleibniz(q, 6).passed:
            ok = False
        if not check_counit_kill(q, 6).passed:
            ok = False
        N = cojacobi_affordable_degree(q)
        if N < 0 or not check_cojacobi(q, N).passed:
            ok = False
    report("3 two-variable co-Jacobi automatic", ok)


def test_acceptance_4_so3_linear_classification():
    """so(3) passes the linear-relation, Jacobi and Hopf-compat checks up
    to degree 6; a one-entry perturbation fails with a witness."""
    c = so3_consts()
    B = linear_poisson(c)
    ok = (check_linear_relations(c).passed
          and check_jacobi(B, 6).passed
          and check_poisson_hopf_compat(B, 6).passed)
    lam = dict(c.lam)
    lam[(1, 2, 2)] = Fraction(1)
    bad = StructConsts(d=3, lam=lam)
    rel = check_linear_relations(bad)
    jac = check_jacobi(linear_poisson(bad), 3)
    ok = ok and not rel.passed and rel.witnesses and not jac.passed
    report("4 so(3) classification and perturbation witness", bool(ok))


def test_acceptance_5_counterexample_family():
    """n=5 family {x_i, x_{i+1}} = x1 (i >= 2), {x1,-} = 0: Jacobi and
    Hopf compatibility hold for all monomial pairs up to degree 4."""
    d = 5
    x1 = Poly.from_monomial(Monomial.variable(d, 0))
    f = {(1, 2): x1, (2, 3): x1, (3, 4): x1}
    B = BracketTable(d=d, f=f)
    ok = check_jacobi(B, 4).passed and check_poisson_hopf_compat(B, 4).passed
    report("5 counterexample family compatibility", ok)


def test_acceptance_6_main5_roundtrips():
    """so(3) plus 20 randomized Jacobi-satisfying quadratic brackets at
    truncation N=4 pass the full series/cobracket round trip."""
    rng = random.Random(606)
    N = 4
    ok = True
    B = BracketTable(d=3, f=dict(linear_poisson(so3_consts()).f),
                     truncation_degree=N)
    if not verify_main5_roundtrip(B, N).passed:
        ok = False
    trials = 0
    while trials < 20:
        if trials % 2 == 0:
            # d=2: Jacobi is vacuous
            B = random_bracket(rng, 2, 2, truncation=N, density=0.6)
        else:
            # d=3 brackets built from a potential, Jacobi holds identically
            B = nambu_bracket(rng, truncation=N)
        if not check_jacobi(B, N).passed:
            ok = False
        if not verify_main5_roundtrip(B, N).passed:
            ok = False
        trials += 1
    report("6 series bracket / cobracket correspondence", ok)


def test_acceptance_7_h4_classification():
    """Sweedler H4: family dimensions 2 / 0 / 2 / 0, the stated q(x) shape,
    and identically zero quadratic residuals on both 2-parameter families."""
    H = sweedler_h4()
    ONE, G, X, GX = range(4)
    pf = solve_poisson_family(H)
    cf = solve_copoisson_family(H)
    ok = (pf.dimension == 2
          and solve_poisson_family(H, hopf_compat=True).dimension == 0
          and cf.dimension == 2
          and solve_copoisson_family(H, hopf_compat=True).dimension == 0)
    target = {(ONE, X): Fraction(1), (X, ONE): Fraction(-1),
              (X, G): Fraction(1), (G, X): Fraction(-1)}
    seen_x = False
    for vec in cf.basis:
        qv = qvals_from_vector(H, vec)
        if qv[ONE] or qv[G]:
            ok = False
        if qv[X]:
            lam = qv[X].get((ONE, X), Fraction(0))
            if not lam or qv[X] != {k: lam * v for k, v in target.items()}:
                ok = False
            seen_x = True
    ok = ok and seen_x
    ok = (ok and quadratic_residual_family(pf, "jacobi", H).is_zero()
          and quadratic_residual_family(cf, "cojacobi", H).is_zero())
    report("7 Sweedler H4 classification", bool(ok))


def test_acceptance_8_structural_lemma_suites():
    """Property suites on >= 30 randomized valid structures: counit
    contractions vanish; eps/antipode (anti)morphism identities; the
    cocommutator exchange identity; the four-part splitting identity."""
    rng = random.Random(808)
    ok = True
    # counit contractions and the co-side antipode anti-morphism
    from copoisson.checks import check_antipode_coanti
    for trial in range(15):
        d = rng.choice([2, 3])
        I = random_itable(rng, d, 3)
        q = make_copoisson(I)
        if not check_counit_kill(q, 3).passed:
            ok = False
    for trial in range(15):
        lam = {}
        for i in range(3):
            for j in range(i + 1, 3):
                for l in range(3):
                    if rng.random() < 0.5:
                        lam[(i, j, l)] = Fraction(rng.randint(-3, 3))
        c = StructConsts(d=3, lam=lam)
        Iw = ITable(d=3, domain_degree_bound=3,
                    rows=dict(itable_from_consts(c).rows))
        if not check_antipode_coanti(make_copoisson(Iw), 3).passed:
            ok = False
    # eps/S morphism identities on Hopf-compatible brackets
    lie_tables = [so3_consts()]
    for trial in range(9):
        lam = {}
        for l in range(3):
            if rng.random() < 0.7:
                lam[(0, 1, l)] = Fraction(rng.randint(-2, 2))
        lie_tables.append(StructConsts(d=3, lam=lam))  # 2-step nilpotent
    for c in lie_tables:
        rep = check_eps_s_morphisms(linear_poisson(c), 4)
        if rep.skipped or not rep.passed:
            ok = False
    # cocommutator exchange identity on the H4 families and trivially on A
    H = sweedler_h4()
    cf = solve_copoisson_family(H)
    for trial in range(10):
        params = [Fraction(rng.randint(-5, 5)) for _ in range(cf.dimension)]
        qv = qvals_from_vector(H, cf.member(params))
        if not check_dual_of_abcd(H, qv).passed:
            ok = False
    from copoisson.hopf import cocommutator
    if any(cocommutator(m) for m in monomials(2, 6)):
        ok = False
    # four-part splitting identity for all monomials of degree <= 6
    from copoisson.algebra import Tensor3, splittings
    for m in monomials(2, 6):
        lhs = Tensor3()
        for cc, (a1, a2, a3, a4) in splittings(m, 4):
            sign = -1 if (a1.degree + a2.degree) % 2 else 1
            lhs = lhs + Tensor3.from_triple(a1 * a3, a2, a4, sign * cc)
        rhs = Tensor3()
        one = Monomial.unit(2)
        for cc, (a1, a2) in splittings(m, 2):
            sign = -1 if a1.degree % 2 else 1
            rhs = rhs + Tensor3.from_triple(one, a1, a2, sign * cc)
        if lhs != rhs:
            ok = False
    report("8 structural lemma property suites", ok)


def test_acceptance_9_cli_end_to_end():
    """Fixture files produce byte-deterministic JSON reports with the
    documented exit codes."""
    so3 = str(FIXTURES / "so3.json")
    counterex = str(FIXTURES / "counterex_n5.json")
    cop_d2 = str(FIXTURES / "copoisson_d2.json")
    h4 = str(FIXTURES / "h4.json")

    def run(args):
        out = io.StringIO()
        code = main(list(args), out=out)
        return code, out.getvalue()

    ok = True
    runs = [
        (["check", so3, "--format", "json"], 0),
        (["check", counterex, "--max-degree", "4", "--format", "json"], 0),
        (["check", cop_d2, "--format", "json",
          "--checks", "skew,coleibniz,cojacobi,counit-kill"], 0),
        (["check", cop_d2, "--format", "json",
          "--checks", "copoisson-hopf"], 1),
        (["check", h4, "--format", "json"], 0),
        (["classify-h4", "--structure", "poisson", "--format", "json"], 0),
        (["transform", so3, "--to", "copoisson", "--format", "json"], 0),
    ]
    for args, expected in runs:
        code1, text1 = run(args)
        code2, text2 = run(args)
        if code1 != expected or code1 != code2 or text1 != text2:
            ok = False
        if not text1.strip() or json.loads(text1) is None:
            ok = False
    report("9 CLI determinism and exit codes", ok)


def dual(H):
    """H* on the dual basis e^i: its product is Delta transposed, its Delta
    the product transposed, unit and counit swap, and S is transposed."""
    r = range(H.dim)
    return FinHopf.create(
        dim=H.dim, basis_names=[f"{name}*" for name in H.basis_names],
        mult=[[[H.comult[k][i][j] for k in r] for j in r] for i in r],
        unit=H.counit,
        comult=[[[H.mult[i][j][k] for j in r] for i in r] for k in r],
        counit=H.unit,
        antipode=[[H.antipode[j][i] for j in r] for i in r])


def tables(H):
    return H.mult, H.unit, H.comult, H.counit, H.antipode


def cobracket_of_bracket(n, vec):
    """The co-Poisson vector of X* that the Poisson vector vec of X gives,
    q(e^k) = sum {e_i, e_j}_k e^i (x) e^j: q(e^k)_{ij} = {e_i, e_j}_k and
    q(e^k)_{ji} = -{e_i, e_j}_k, at the solver's index (k n + i) n + j."""
    q = {}
    for idx, (i, j) in enumerate(combinations(range(n), 2)):
        for k in range(n):
            if vec[idx * n + k]:
                q[(k * n + i) * n + j] = vec[idx * n + k]
                q[(k * n + j) * n + i] = -vec[idx * n + k]
    return q


def test_acceptance_10_finite_dual_is_the_full_dual():
    """The main theorem where H is finite-dimensional, hence noetherian,
    so that H° = H*: the Poisson family of X, each member transposed into
    a cobracket of X* by delta(xi)(a (x) b) = xi({a, b}), spans the
    co-Poisson family of X*, with and without the Hopf conditions, for
    (X, X*) = (H, H*) and (H*, H).  The two families come from two row
    builders, so neither side reuses the other's code path.  Dimensions
    in the order P(H), C(H*), P(H*), C(H); k[S3] is the sharp case, as its
    dual k^S3 is commutative and the two sides differ."""
    ok = True
    carriers = [(sweedler_h4(), (2, 2, 2, 2)),
                (group_algebra_s3(), (1, 1, 0, 0)),
                (mixed_h4(), (2, 2, 2, 2))]
    for H, dims in carriers:
        ok = ok and tables(dual(dual(H))) == tables(H)
        for hopf in (False, True):
            seen = []
            for X in (H, dual(H)):
                n = X.dim
                mapped = [cobracket_of_bracket(n, v) for v in
                          solve_poisson_family(X, hopf_compat=hopf).basis]
                family = [{c: v for c, v in enumerate(vec) if v} for vec in
                          solve_copoisson_family(dual(X),
                                                 hopf_compat=hopf).basis]
                rank = lambda rows: len(rref(rows, n ** 3)[1])
                ok = ok and (rank(mapped) == len(mapped)
                             == rank(family) == rank(mapped + family))
                seen += [len(mapped), len(family)]
            ok = ok and tuple(seen) == (dims if not hopf else (0,) * 4)
    report("10 finite carriers: H° = H*", ok)
