"""cli-files: `copoisson.cli.main` on spec files that set-up writes.

The files are the four fixtures of the test suite, written from the data
below, and seeded files of every kind: I-tables, qmap and pmap tables,
polynomial and series brackets, structure constants, and one malformed
file.  The commands are `check` (text and json, with --checks and
--max-degree), every supported `transform` pair, the four `classify-h4`
variants in both formats and `relations` for dimensions 3 to 8.

Predictions, all made from the inputs: each check's verdict and degree
(as in cobracket-certify and bracket-correspondence) and from them the
exit code documented in README.md (0 pass, 1 a check failed, 2 degree the
input cannot support, 3 malformed input); `input_digest` is the sha256 of
the input's canonical JSON; each transform output equals the document the
benchmark computes itself, so `--to q` then `--to i` gives back the
table; `relations` emits d * C(d, 3) relations; H4 family dimensions are
2 / 0 / 2 / 0.  Every output must also repeat byte for byte in the next
pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from math import comb

from harness import Op, expect
from inputs import (bianchi_consts, dense_table, nambu_bracket, nilpotent_consts,
                    nonlie_consts, random_bracket, sparse_table, value)
from predict import BracketChecks, DegreeTooHigh, FinhopfChecks, TableChecks
from reference import (H4_DIMENSIONS, bracket_doc, canonical_json, consts_bracket,
                       consts_doc, consts_table, digest, fmt_rational, pmap_doc, pmap_values,
                       q_of_table, qmap_doc, series_of_table, sweedler_carrier, table_doc,
                       table_of_series, truncate)

SO3 = {(0, 1, 2): Fraction(1), (0, 2, 1): Fraction(-1), (1, 2, 0): Fraction(1)}
D2_TABLE = {(1, 0): {(0, 1): Fraction(1)}, (1, 1): {(0, 1): Fraction(1, 2)},
            (0, 2): {(0, 1): Fraction(-2)}}
N5_BRACKET = {(1, 2): {(1, 0, 0, 0, 0): Fraction(1)}, (2, 3): {(1, 0, 0, 0, 0): Fraction(1)},
              (3, 4): {(1, 0, 0, 0, 0): Fraction(1)}}


def finhopf_doc(H):
    r = fmt_rational
    return {"kind": "finhopf", "variables": [], "max_degree": 0, "payload": {
        "dim": len(H["unit"]), "basis": H["names"],
        "mult": [[[r(v) for v in row] for row in plane] for plane in H["mult"]],
        "unit": [r(v) for v in H["unit"]],
        "comult": [[[r(v) for v in row] for row in plane] for plane in H["comult"]],
        "counit": [r(v) for v in H["counit"]],
        "antipode": [[r(v) for v in row] for row in H["antipode"]]}}


# --- reading the program's output ------------------------------------------

def parsed_verdicts(text, fmt):
    """{report name: (passed, degree)} from a check report."""
    if fmt == "json":
        return {c["check"]: (c["passed"], c["degree_checked"])
                for c in json.loads(text)["checks"]}
    out = {}
    for line in text.splitlines():
        if line.startswith(" "):
            continue
        name, rest = line.split(": ", 1)
        status, degree = rest.split(" (degree ")
        out[name] = (status in ("PASS", "SKIP"), int(degree.rstrip(")")))
    return out


def run_cli(cp, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cp.cli.main(argv, out)
    return rc, out.getvalue()


def fingerprint(result):
    """Exit code and sha256 of the output bytes, compared between passes."""
    rc, text = result
    return rc, hashlib.sha256(text.encode()).hexdigest()


# --- operations --------------------------------------------------------------

def check_op(cp, label, spec, args):
    """`check` on a spec file; predicted verdicts decide the exit code."""
    path, doc, checks = spec
    fmt = "json" if "--format" in args and args[args.index("--format") + 1] == "json" else "text"
    M = int(args[args.index("--max-degree") + 1]) if "--max-degree" in args else None
    selected = args[args.index("--checks") + 1].split(",") if "--checks" in args \
        else None
    argv = ["check", str(path)] + args

    def check(result, answers):
        rc, text = result
        checks.take(answers)
        try:
            want = checks.predict(selected or checks.names(), M)
        except DegreeTooHigh:
            expect(rc == 2 and text == "", f"exit {rc}, expected 2 (degree too high)")
            return fingerprint(result)
        expect(parsed_verdicts(text, fmt) == want,
               f"verdicts {parsed_verdicts(text, fmt)} != predicted {want}")
        want_rc = 0 if all(p for p, _ in want.values()) else 1
        expect(rc == want_rc, f"exit {rc}, expected {want_rc}")
        if fmt == "json":
            expect(json.loads(text)["input_digest"] == digest(doc), "input_digest differs")
        return fingerprint(result)

    return Op(label, lambda: run_cli(cp, argv), check, checks.requests)


def transform_op(cp, label, spec, to, expected):
    """`transform --to`; the output document must equal `expected()`."""
    path, doc, _ = spec
    argv = ["transform", str(path), "--to", to]
    cache = []

    def check(result, answers):
        rc, text = result
        expect(rc == 0, f"exit {rc}")
        if not cache:
            cache.append(expected())
        report = json.loads(text)
        expect(report["input_digest"] == digest(doc), "input_digest differs")
        expect(report["transforms"] == [{"to": to, "output": cache[0]}],
               "transform output differs from the benchmark's own")
        return fingerprint(result)

    return Op(label, lambda: run_cli(cp, argv), check)


def classify_op(cp, structure, hopf, fmt):
    argv = ["classify-h4", "--structure", structure, "--format", fmt] + \
        (["--hopf"] if hopf else [])
    dim = H4_DIMENSIONS[(structure, hopf)]

    def check(result, answers):
        rc, text = result
        expect(rc == 0, f"exit {rc}")
        if fmt == "json":
            fam = json.loads(text)["families"]
            expect(len(fam) == 1 and fam[0]["dimension"] == dim and len(fam[0]["basis"]) == dim
                   and fam[0]["hopf"] == hopf and fam[0]["structure"] == structure
                   and fam[0]["quadratic_residual_zero"] is True,
                   f"classify-h4 family {fam}")
        else:
            head = f"family: {structure}{' (hopf)' if hopf else ''}, dimension {dim}"
            expect(text.startswith(head + "\n")
                   and text.endswith("quadratic residual zero: True\n"),
                   f"classify-h4 report {text[:200]!r}")
        return fingerprint(result)

    label = f"classify-h4-{structure}{'-hopf' if hopf else ''}-{fmt}"
    return Op(label, lambda: run_cli(cp, argv), check)


def relations_op(cp, d, fmt):
    argv = ["relations", "--dim", str(d), "--format", fmt]
    count = d * comb(d, 3)

    def check(result, answers):
        rc, text = result
        expect(rc == 0, f"exit {rc}")
        if fmt == "json":
            doc = json.loads(text)
            want = [(i, j, k, s, [t for l in range(1, d + 1)
                                  for t in ([[i, j, l], [l, k, s]], [[j, k, l], [l, i, s]],
                                            [[k, i, l], [l, j, s]])])
                    for i in range(1, d + 1) for j in range(i + 1, d + 1)
                    for k in range(j + 1, d + 1) for s in range(1, d + 1)]
            got = [(r["i"], r["j"], r["k"], r["s"], r["terms"]) for r in doc["relations"]]
            expect(doc["count"] == count and got == want, f"relations --dim {d}")
        else:
            lines = text.splitlines()
            expect(len(lines) == count and all(x.endswith(" = 0") for x in lines),
                   f"relations --dim {d}: {len(lines)} lines, expected {count}")
        return fingerprint(result)

    return Op(f"relations-{d}-{fmt}", lambda: run_cli(cp, argv), check)


def exit3_op(cp, spec):
    path = spec[0]

    def check(result, answers):
        expect(result == (3, ""), f"malformed input gave exit {result[0]}")
        return fingerprint(result)

    return Op("check-malformed", lambda: run_cli(cp, ["check", str(path)]), check)


def generated(cp, rng, tag, files):
    """Seeded spec files of every kind and the commands run on them."""
    t1_table = sparse_table(rng, 3, 3, {1: 1, 2: 2, 3: 1})
    t1 = files.table(f"table_d3{tag}.json", 3, 3, t1_table)
    t2_table = dense_table(rng, 2, 3, {0, 1, 2, 3})
    t2 = files.table(f"table_d2{tag}.json", 2, 3, t2_table)
    t3_table = consts_table(4, nilpotent_consts(rng, 4))
    t3 = files.table(f"table_lie4{tag}.json", 4, 2, t3_table)
    q1_table = dense_table(rng, 2, 3, {1, 2, 3})
    q1 = files.qmap(f"qmap_d2{tag}.json", 2, 3, q1_table)
    q2_table = consts_table(3, bianchi_consts(rng))
    q2 = files.qmap(f"qmap_lie3{tag}.json", 3, 2, q2_table)
    p1_f = consts_bracket(3, bianchi_consts(rng))
    p1 = files.write(f"pmap_lie3{tag}.json", pmap_doc(3, 2, pmap_values(3, 2, p1_f)))
    p2_f = nambu_bracket(rng, 2)
    p2 = files.write(f"pmap_nambu{tag}.json", pmap_doc(3, 2, pmap_values(3, 2, p2_f)))
    s1_f = nambu_bracket(rng, 3)
    s1 = files.bracket(f"series_nambu{tag}.json", 3, 3, s1_f, series=True)
    s2_f = random_bracket(rng, 3, {1, 2})
    s2 = files.bracket(f"series_random{tag}.json", 3, 3, s2_f, series=True)
    b1_f = random_bracket(rng, 3, {2})
    b1 = files.bracket(f"bracket_random{tag}.json", 3, 2, b1_f)
    b2 = files.bracket(f"bracket_nambu{tag}.json", 3, 2, nambu_bracket(rng, 2))
    c1_lam = nilpotent_consts(rng, 4)
    c1 = files.consts(f"consts_nilpotent{tag}.json", 4, c1_lam, 2)
    c2_lam = nonlie_consts(rng, 3)
    c2 = files.consts(f"consts_nonlie{tag}.json", 3, c2_lam, 2)
    bad_doc = table_doc(2, 2, {(1, 0): {(0, 1): value(rng)}})
    bad_doc["payload"]["rows"][0]["lambda"][0][2] = "1/0"
    bad = files.write(f"malformed{tag}.json", bad_doc)
    J = ["--format", "json"]
    ops = [
        check_op(cp, "check-table-d3", t1, []),
        check_op(cp, "check-table-d3-json-subset", t1,
                 J + ["--checks", "skew,counit-kill,cojacobi-coeffs"]),
        check_op(cp, "check-table-d3-too-deep", t1, ["--max-degree", "4"]),
        check_op(cp, "check-table-d2-json", t2, J),
        check_op(cp, "check-table-lie4-json", t3, J),
        check_op(cp, "check-qmap-d2-json", q1, J),
        check_op(cp, "check-qmap-lie3-json", q2, J + ["--max-degree", "1"]),
        check_op(cp, "check-series-nambu-json", s1, J),
        check_op(cp, "check-series-random", s2, []),
        check_op(cp, "check-bracket-random-json", b1, J),
        check_op(cp, "check-bracket-nambu", b2, []),
        check_op(cp, "check-consts-nilpotent-json", c1, J),
        check_op(cp, "check-consts-nonlie-json", c2, J),
        exit3_op(cp, bad),
        transform_op(cp, "table-d3-to-q", t1, "q",
                     lambda: qmap_doc(3, 3, q_of_table(3, 3, t1_table))),
        transform_op(cp, "table-d3-to-series", t1, "series",
                     lambda: bracket_doc(3, 3, series_of_table(t1_table), series=True)),
        transform_op(cp, "table-d2-to-q", t2, "q",
                     lambda: qmap_doc(2, 3, q_of_table(2, 3, t2_table))),
        transform_op(cp, "table-lie4-to-series", t3, "series",
                     lambda: bracket_doc(4, 2, series_of_table(t3_table), series=True)),
        transform_op(cp, "qmap-d2-to-i", q1, "i", lambda: table_doc(2, 3, q1_table)),
        transform_op(cp, "qmap-lie3-to-i", q2, "i", lambda: table_doc(3, 2, q2_table)),
        transform_op(cp, "pmap-lie3-to-j", p1, "j", lambda: bracket_doc(3, 2, p1_f)),
        transform_op(cp, "pmap-nambu-to-j", p2, "j", lambda: bracket_doc(3, 2, p2_f)),
        transform_op(cp, "series-nambu-to-copoisson", s1, "copoisson",
                     lambda: table_doc(3, 3, table_of_series(
                         {ij: truncate(p, 3) for ij, p in s1_f.items()}))),
        transform_op(cp, "series-random-to-copoisson", s2, "copoisson",
                     lambda: table_doc(3, 3, table_of_series(
                         {ij: truncate(p, 3) for ij, p in s2_f.items()}))),
        transform_op(cp, "bracket-random-to-p", b1, "p",
                     lambda: pmap_doc(3, 2, pmap_values(3, 2, b1_f))),
        transform_op(cp, "consts-nilpotent-to-copoisson", c1, "copoisson",
                     lambda: table_doc(4, 1, consts_table(4, c1_lam))),
        transform_op(cp, "consts-nonlie-to-copoisson", c2, "copoisson",
                     lambda: table_doc(3, 1, consts_table(3, c2_lam))),
    ]
    for op in ops:
        op.name += tag
    return ops


class SpecFiles:
    """Writes spec files in canonical JSON; each spec is (path, document,
    predicted checks)."""

    def __init__(self, workdir):
        self.workdir = workdir

    def write(self, name, doc, checks=None):
        path = self.workdir / name
        path.write_text(canonical_json(doc))
        return path, doc, checks

    def table(self, name, d, bound, table):
        return self.write(name, table_doc(d, bound, table),
                          TableChecks(d, bound, table, "copoisson"))

    def qmap(self, name, d, bound, table):
        return self.write(name, qmap_doc(d, bound, q_of_table(d, bound, table)),
                          TableChecks(d, bound, table, "qmap"))

    def bracket(self, name, d, max_degree, f, series=False):
        return self.write(name, bracket_doc(d, max_degree, f, series),
                          BracketChecks(d, max_degree, f, series))

    def consts(self, name, d, lam, max_degree):
        return self.write(name, consts_doc(d, lam, max_degree),
                          BracketChecks(d, max_degree, consts_bracket(d, lam), consts=True))


def build(cp, rng, workdir):
    files = SpecFiles(workdir)
    so3 = files.consts("so3.json", 3, SO3, 6)
    d2 = files.table("copoisson_d2.json", 2, 6, D2_TABLE)
    n5 = files.bracket("counterex_n5.json", 5, 4, N5_BRACKET)
    # the same family at degree 3: its p table is 0.35 MB; at degree 4 it is
    # 2 MB and takes a quarter of a pass, more than a run's timing can average
    n5_deg3 = files.bracket("counterex_n5_deg3.json", 5, 3, N5_BRACKET)
    h4 = files.write("h4.json", finhopf_doc(sweedler_carrier()), FinhopfChecks())
    J = ["--format", "json"]
    ops = [
        check_op(cp, "check-so3-deg5", so3, ["--max-degree", "5"]),
        check_op(cp, "check-so3-json-deg3", so3, J + ["--max-degree", "3"]),
        check_op(cp, "check-so3-json-relations", so3, J + ["--checks", "linear-relations,jacobi"]),
        check_op(cp, "check-d2-deg4", d2, ["--max-degree", "4"]),
        check_op(cp, "check-d2-json-subset", d2,
                 J + ["--checks", "skew,coleibniz,cojacobi", "--max-degree", "4"]),
        check_op(cp, "check-n5-json-deg3", n5, J + ["--max-degree", "3"]),
        check_op(cp, "check-h4-json", h4, J),
        transform_op(cp, "so3-to-copoisson", so3, "copoisson",
                     lambda: table_doc(3, 1, consts_table(3, SO3))),
        transform_op(cp, "d2-to-q", d2, "q", lambda: qmap_doc(2, 6, q_of_table(2, 6, D2_TABLE))),
        transform_op(cp, "d2-to-series", d2, "series",
                     lambda: bracket_doc(2, 6, series_of_table(D2_TABLE), series=True)),
        transform_op(cp, "n5-deg3-to-p", n5_deg3, "p",
                     lambda: pmap_doc(5, 3, pmap_values(5, 3, N5_BRACKET))),
    ]
    for t in range(3):
        ops += generated(cp, rng, f"-{t}", files)
    ops += [classify_op(cp, s, h, fmt) for s in ("poisson", "copoisson")
            for h in (False, True) for fmt in ("text", "json")]
    ops += [relations_op(cp, d, fmt) for d in range(3, 9) for fmt in ("text", "json")]
    return ops
