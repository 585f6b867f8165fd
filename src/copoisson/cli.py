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
    cojacobi_affordable_degree,
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
    """Registry for cobracket-like structures; each entry is
    (default-degree-fn, runner)."""
    reg = {
        "skew": (lambda N: N, lambda N: check_skew(q, N)),
        "counit-kill": (lambda N: N, lambda N: check_counit_kill(q, N)),
        "coleibniz": (lambda N: N, lambda N: check_coleibniz(q, N)),
        "cojacobi": (lambda N: min(N, cojacobi_affordable_degree(q)),
                     lambda N: check_cojacobi(q, N)),
        "delta-derivation": (lambda N: N,
                             lambda N: check_delta_derivation(q, N)),
        "antipode-coanti": (lambda N: N,
                            lambda N: check_antipode_coanti(q, N)),
    }
    if I is not None:
        reg["cojacobi-coeffs"] = (
            lambda N: min(N, I.domain_degree_bound - 1),
            lambda N: check_cojacobi_coeffs(I, N))
        reg["support"] = (lambda N: N,
                          lambda N: check_support_condition(I))
    return reg


def _check_registry(spec):
    kind = spec.kind
    if kind == "copoisson":
        I = spec.structure
        return _copoisson_checks(make_copoisson(I), I)
    if kind == "qmap":
        return _copoisson_checks(spec.structure)
    if kind in ("poisson", "struct_consts"):
        if kind == "poisson":
            B = spec.structure
            reg = {}
        else:
            c = spec.structure
            B = linear_poisson(c)
            reg = {"linear-relations": (lambda N: 1,
                                        lambda N: check_linear_relations(c))}
        reg["jacobi"] = (lambda N: N, lambda N: check_jacobi(B, N))
        if not B.series_mode:
            # eps-s needs the compatibility verdict; compute it once per N
            compat = lru_cache(maxsize=None)(
                lambda N: check_poisson_hopf_compat(B, N))
            reg["poisson-hopf"] = (lambda N: N, compat)
            reg["eps-s"] = (lambda N: N, lambda N: check_eps_s_morphisms(
                B, N, compat(N)))
        return reg
    if kind == "finhopf":
        # the Hopf axioms were validated exactly while loading
        def passed(N):
            return CheckReport(check_name="hopf-axioms", passed=True,
                               degree_checked=0,
                               note="validated at load time")
        return {"hopf-axioms": (lambda N: 0, passed)}
    raise UsageError(f"no checks defined for kind {spec.kind!r}")


SELECTOR_ALIASES = {
    "copoisson-hopf": ("support", "delta-derivation"),
}


def cmd_check(args, out):
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be a non-negative integer")
    spec = load_spec(args.spec)
    registry = _check_registry(spec)
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
    explicit = args.max_degree is not None
    base = args.max_degree if explicit else spec.max_degree
    report = ReportDocument(command="check",
                            input_digest=spec_digest(spec_to_dict(spec)))
    for name in names:
        default_deg, runner = registry[name]
        if explicit:
            report.checks.append(runner(base))
            continue
        try:
            report.checks.append(runner(max(0, default_deg(base))))
        except DegreeBoundError as e:
            # the table cannot afford even degree 0; only an explicitly
            # requested degree is a usage error
            report.checks.append(CheckReport(
                check_name=name, passed=True, degree_checked=0, skipped=True,
                note=f"not affordable at any degree: {e}"))
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


def cmd_transform(args, out):
    spec = load_spec(args.spec)
    to = args.to
    kind, s = spec.kind, spec.structure
    if kind == "struct_consts" and to == "copoisson":
        I = itable_from_consts(s)
        result = StructureSpec("copoisson", spec.variables, 1, I)
    elif kind == "copoisson" and to == "series":
        B = series_from_copoisson(s)
        result = StructureSpec("poisson", spec.variables,
                               s.domain_degree_bound, B)
    elif kind == "copoisson" and to == "q":
        q = make_copoisson(s)
        result = StructureSpec("qmap", spec.variables,
                               s.domain_degree_bound, q)
    elif kind == "qmap" and to == "i":
        I = _qmap_to_itable(s, spec.variables)
        result = StructureSpec("copoisson", spec.variables,
                               s.domain_degree_bound, I)
    elif kind == "poisson" and to == "copoisson":
        if not s.series_mode:
            raise UsageError(
                "poisson --to copoisson needs a series-mode bracket "
                "(the correspondence rescales coefficients degree by degree); "
                "set \"mode\": \"series\"")
        I = copoisson_from_series(s)
        result = StructureSpec("copoisson", spec.variables,
                               s.truncation_degree, I)
    elif kind == "poisson" and to == "p":
        if s.series_mode:
            raise UsageError("poisson --to p is defined in polynomial mode")
        p = pmap_from_bracket(s, spec.max_degree)
        result = StructureSpec("pmap", spec.variables, spec.max_degree, p)
    elif kind == "pmap" and to == "j":
        B = _pmap_to_bracket(s, spec.variables)
        result = StructureSpec("poisson", spec.variables, spec.max_degree, B)
    else:
        raise UsageError(
            f"transform --to {to} is not applicable to kind {kind!r}")
    report = ReportDocument(command="transform",
                            input_digest=spec_digest(spec_to_dict(spec)))
    report.transforms.append({"to": to, "output": spec_to_dict(result)})
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
                   choices=("q", "i", "j", "p", "copoisson", "series"))
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
