"""Command-line interface: check, transform, classify-h4, relations.

Exit codes: 0 all selected checks pass, 1 a check fails, 2 usage or
degree-bound error, 3 file or expression parse error, 4 internal error
(a bug: the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import lru_cache
from itertools import combinations

from .algebra import (
    DegreeBoundError,
    Monomial,
    format_monomial,
    format_poly,
    grlex_key,
    monomials,
)
from .checks import (
    check_antipode_coanti,
    check_cojacobi,
    check_cojacobi_coeffs,
    check_coleibniz,
    check_counit_kill,
    check_delta_derivation,
    check_eps_s_morphisms,
    check_jacobi,
    check_linear_relations,
    check_poisson_hopf_compat,
    check_skew,
    check_support_condition,
    in_skew_generator_space,
    linear_relations,
    CheckReport,
)
from .fileformat import (
    ReportDocument,
    SpecFormatError,
    StructureSpec,
    load_spec,
    spec_digest,
    spec_to_dict,
)
from .finite import (
    brackets_from_vector,
    format_fin_tensor,
    qvals_from_vector,
    quadratic_residual_family,
    solve_copoisson_family,
    solve_poisson_family,
    sweedler_h4,
)
from .hopf import i_from_q, j_from_p
from .parser import ParseError
from .structures import (
    BracketTable,
    ITable,
    SkewMatrix,
    copoisson_from_series,
    itable_from_consts,
    linear_poisson,
    make_copoisson,
    pmap_from_bracket,
    series_from_copoisson,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(report.to_json())
        return
    for c in report.checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        out.write(f"{c.check_name}: {status} (degree {c.degree_checked})\n")
        if c.note:
            out.write(f"  note: {c.note}\n")
        for w in c.witnesses:
            out.write(f"  witness {w[0]}: {w[1]}\n")
        if c.total_violations > len(c.witnesses):
            out.write(f"  ({c.total_violations} violations total)\n")
    for fam in report.families:
        out.write(f"family: {fam['structure']}"
                  f"{' (hopf)' if fam['hopf'] else ''}, "
                  f"dimension {fam['dimension']}\n")
        for member in fam["basis"]:
            for line in member:
                out.write(f"  {line}\n")
            out.write("  --\n")
        out.write("  quadratic residual zero: "
                  f"{fam['quadratic_residual_zero']}\n")
    for t in report.transforms:
        out.write(f"transform --to {t['to']}: emitted {t['output']['kind']} "
                  "document (use --format json for the payload)\n")
    for rel in report.extra.get("relations", []):
        out.write(rel["text"] + "\n")


# --- check command --------------------------------------------------------

def _copoisson_checks(q, I=None):
    """The checks of a cobracket-like structure, each a runner of N."""
    reg = {
        "skew": lambda N: check_skew(q, N),
        "counit-kill": lambda N: check_counit_kill(q, N),
        "coleibniz": lambda N: check_coleibniz(q, N),
        "cojacobi": lambda N: check_cojacobi(q, N),
        "delta-derivation": lambda N: check_delta_derivation(q, N),
        "antipode-coanti": lambda N: check_antipode_coanti(q, N),
    }
    if I is not None:
        reg["cojacobi-coeffs"] = lambda N: check_cojacobi_coeffs(I, N)
        reg["support"] = lambda N: check_support_condition(I)
    return reg


def _bracket_checks(B):
    reg = {"jacobi": lambda N: check_jacobi(B, N)}
    if not B.series_mode:
        # eps-s needs the compatibility verdict; compute it once per N
        compat = lru_cache(maxsize=None)(
            lambda N: check_poisson_hopf_compat(B, N))
        reg["poisson-hopf"] = compat
        reg["eps-s"] = lambda N: check_eps_s_morphisms(B, N, compat(N))
    return reg


def _hopf_axioms(N):
    # the Hopf axioms of a finhopf file were validated exactly while loading
    return CheckReport(check_name="hopf-axioms", passed=True,
                       degree_checked=0, note="validated at load time")


# kind: the checks of a structure of that kind, as {name: runner}
CHECKS = {
    "poisson": _bracket_checks,
    "copoisson": lambda I: _copoisson_checks(make_copoisson(I), I),
    "struct_consts": lambda c: {
        "linear-relations": lambda N: check_linear_relations(c),
        **_bracket_checks(linear_poisson(c))},
    "finhopf": lambda H: {"hopf-axioms": _hopf_axioms},
    "qmap": _copoisson_checks,
}


def _at_largest_degree(name, runner, top):
    """runner(N) at the largest N <= top that the check's own bound accepts
    (each check raises DegreeBoundError before doing any work).  A check
    that accepts not even degree 0 is skipped, with the degree-0 error:
    only an explicitly requested degree is a usage error."""
    for N in range(top, -1, -1):
        try:
            return runner(N)
        except DegreeBoundError as e:
            error = e
    return CheckReport(check_name=name, passed=True, degree_checked=0,
                       skipped=True,
                       note=f"not affordable at any degree: {error}")


SELECTOR_ALIASES = {
    "copoisson-hopf": ("support", "delta-derivation"),
}


def cmd_check(args, out):
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be a non-negative integer")
    spec = load_spec(args.spec)
    if spec.kind not in CHECKS:
        raise UsageError(f"no checks defined for kind {spec.kind!r}")
    registry = CHECKS[spec.kind](spec.structure)
    if args.checks:
        names = []
        for raw in args.checks.split(","):
            raw = raw.strip()
            for name in SELECTOR_ALIASES.get(raw, (raw,)):
                if name not in registry:
                    raise UsageError(
                        f"unknown check {name!r} for kind {spec.kind!r}; "
                        f"available: {', '.join(sorted(registry))}")
                names.append(name)
    else:
        names = sorted(registry)
    report = ReportDocument(command="check",
                            input_digest=spec_digest(spec_to_dict(spec)))
    for name in names:
        runner = registry[name]
        report.checks.append(
            _at_largest_degree(name, runner, spec.max_degree)
            if args.max_degree is None else runner(args.max_degree))
    _emit(report, args.format, out)
    return EXIT_PASS if report.all_passed() else EXIT_CHECK_FAILED


# --- transform command ----------------------------------------------------

def _qmap_to_itable(q, names):
    rows = {}
    for m in monomials(q.d, q.domain_degree_bound):
        val = i_from_q(q, m)
        if not val:
            continue
        if not in_skew_generator_space(val):
            raise UsageError(
                "cobracket is not induced by an I-table: the recovered "
                f"I({format_monomial(m, names)}) is not a skew combination of "
                "generator pairs")
        upper = {}
        for (u, v), c in val.terms.items():
            i, j = u.index(1), v.index(1)
            if i < j:
                upper[(i, j)] = c
        rows[m] = SkewMatrix.from_upper(q.d, upper)
    return ITable(d=q.d, domain_degree_bound=q.domain_degree_bound, rows=rows)


def _pmap_to_bracket(p, names):
    """The bracket {x_i, x_j} = J(x_i (x) x_j), accepted only if its p-map
    is p: a biderivation is fixed by its values on generator pairs."""
    d, N = p.d, p.domain_degree_bound
    f = {}
    for i, j in combinations(range(d if N >= 1 else 0), 2):
        val = j_from_p(p, Monomial.variable(d, i), Monomial.variable(d, j))
        if val:
            f[(i, j)] = val
    B = BracketTable(d=d, f=f)
    rebuilt = pmap_from_bracket(B, N).assignments
    given = p.assignments
    differ = [k for k in rebuilt.keys() | given.keys()
              if rebuilt.get(k) != given.get(k)]
    if differ:
        key = min(differ, key=lambda k: (grlex_key(k[0]), grlex_key(k[1])))
        have, want = (format_poly(m[key], names) if key in m else "0"
                      for m in (given, rebuilt))
        a, b = (format_monomial(m, names) for m in key)
        raise UsageError(
            "bracket is not induced by a generator-pair J: "
            f"p({a}, {b}) = {have}, but the bracket with "
            f"{{x_i, x_j}} = J(x_i, x_j) has {{{a}, {b}}} = {want}")
    return B


def _series_to_copoisson(B, N, names):
    if not B.series_mode:
        raise UsageError(
            "poisson --to copoisson needs a series-mode bracket "
            "(the correspondence rescales coefficients degree by degree); "
            "set \"mode\": \"series\"")
    return "copoisson", N, copoisson_from_series(B)


def _bracket_to_pmap(B, N, names):
    if B.series_mode:
        raise UsageError("poisson --to p is defined in polynomial mode")
    return "pmap", N, pmap_from_bracket(B, N)


# (kind, --to target): (structure, max_degree, variables) -> the output's
# (kind, max_degree, structure); argparse lists the targets in this order
TRANSFORMS = {
    ("copoisson", "q"): lambda I, N, names: ("qmap", N, make_copoisson(I)),
    ("qmap", "i"): lambda q, N, names: (
        "copoisson", N, _qmap_to_itable(q, names)),
    ("pmap", "j"): lambda p, N, names: (
        "poisson", N, _pmap_to_bracket(p, names)),
    ("poisson", "p"): _bracket_to_pmap,
    ("struct_consts", "copoisson"): lambda c, N, names: (
        "copoisson", 1, itable_from_consts(c)),
    ("poisson", "copoisson"): _series_to_copoisson,
    ("copoisson", "series"): lambda I, N, names: (
        "poisson", N, series_from_copoisson(I)),
}


def cmd_transform(args, out):
    spec = load_spec(args.spec)
    transform = TRANSFORMS.get((spec.kind, args.to))
    if transform is None:
        raise UsageError(f"transform --to {args.to} is not applicable to "
                         f"kind {spec.kind!r}")
    kind, max_degree, structure = transform(spec.structure, spec.max_degree,
                                            spec.variables)
    result = StructureSpec(kind, spec.variables, max_degree, structure)
    report = ReportDocument(command="transform",
                            input_digest=spec_digest(spec_to_dict(spec)))
    report.transforms.append({"to": args.to, "output": spec_to_dict(result)})
    _emit(report, args.format, out)
    return EXIT_PASS


# --- classify-h4 command --------------------------------------------------

def cmd_classify_h4(args, out):
    H = sweedler_h4()
    if args.structure == "poisson":
        fam = solve_poisson_family(H, hopf_compat=args.hopf)
        residual = quadratic_residual_family(fam, "jacobi", H)
        members = []
        for vec in fam.basis:
            br = brackets_from_vector(H, vec)
            members.append([
                f"{{{H.basis_names[i]},{H.basis_names[j]}}} = "
                + format_fin_tensor(H, {(k,): v for k, v in val.items()},
                                    bare_one=True)
                for (i, j), val in sorted(br.items())])
    else:
        fam = solve_copoisson_family(H, hopf_compat=args.hopf)
        residual = quadratic_residual_family(fam, "cojacobi", H)
        members = []
        for vec in fam.basis:
            qv = qvals_from_vector(H, vec)
            members.append([f"q({H.basis_names[i]}) = "
                            + format_fin_tensor(H, t, bare_one=True)
                            for i, t in qv.items() if t])
    report = ReportDocument(command="classify-h4")
    report.families.append({
        "structure": args.structure,
        "hopf": bool(args.hopf),
        "dimension": fam.dimension,
        "basis": members,
        "quadratic_residual_zero": residual.is_zero(),
    })
    _emit(report, args.format, out)
    return EXIT_PASS


# --- relations command ----------------------------------------------------

def cmd_relations(args, out):
    d = args.dim
    if d < 2:
        raise UsageError("relations needs --dim >= 2")
    relations = []
    for (i, j, k, s), terms in linear_relations(d, base=1):
        text = " + ".join(f"lam[{a},{b}]_{c}*lam[{e},{f}]_{g}"
                          for (a, b, c), (e, f, g) in terms) + " = 0"
        relations.append({"i": i, "j": j, "k": k, "s": s,
                          "terms": terms, "text": text})
    report = ReportDocument(command="relations")
    report.extra["relations"] = relations
    report.extra["count"] = len(relations)
    _emit(report, args.format, out)
    return EXIT_PASS


# --- entry point ----------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    ap = argparse.ArgumentParser(
        prog="copoisson",
        description="Check, transform and classify (co)Poisson structures "
                    "on polynomial Hopf algebras.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom checks on a structure file")
    p.add_argument("spec", help="structure definition JSON file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--checks", default="",
                   help="comma-separated check names (default: all)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="convert between representations")
    p.add_argument("spec")
    p.add_argument("--to", required=True,
                   choices=tuple(dict.fromkeys(to for _, to in TRANSFORMS)))
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("classify-h4",
                       help="solve the structure equations on the "
                            "4-dimensional Hopf algebra")
    p.add_argument("--structure", choices=("poisson", "copoisson"),
                   required=True)
    p.add_argument("--hopf", action="store_true",
                   help="also impose the Hopf compatibility constraints")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_classify_h4)

    p = sub.add_parser("relations",
                       help="emit the quadratic structure-constant relations")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_relations)
    return ap


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (SpecFormatError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, DegreeBoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
