"""JSON interchange format for structure definitions and check reports.

All rationals travel as strings "p/q" in lowest terms (or "p" when the
denominator is 1); monomials travel as strings like "x1^2*x3"; every list
is emitted in a canonical order so that serialization is deterministic
and load -> dump -> load is the identity.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Monomial,
    Tensor2,
    format_coeff,
    format_monomial,
    format_poly,
    grlex_key,
)
from .finite import FinHopf
from .hopf import PMap, QMap
from .parser import ParseError, parse_poly
from .structures import BracketTable, ITable, SkewMatrix, StructConsts

TOOL_VERSION = "0.1.0"

KINDS = ("poisson", "copoisson", "struct_consts", "finhopf", "qmap", "pmap")


class SpecFormatError(ValueError):
    """A structure file violates the interchange schema."""


# an optional sign, digits, and an optional "/digits": what format_coeff
# writes; Fraction() would also read "1e1000000", "1.5", "1_000" and " 1/2"
_RATIONAL_RE = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s, where=""):
    if not isinstance(s, str):
        raise SpecFormatError(
            f"rational values must be strings like \"p/q\"{where}, got {s!r}")
    m = _RATIONAL_RE.fullmatch(s)
    try:
        if m:
            return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or /0
        pass
    raise SpecFormatError(f"malformed rational {s!r}{where}")


# a factor as format_monomial writes it: name or name^k; a longer exponent
# than int() always converts (640 digits at least) is left to parse_poly
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]{1,600}))?")


def parse_monomial(s, variables, where=""):
    """Factors joined by "*", as format_monomial writes them, are read
    directly; parse_poly accepts or rejects any other text as before."""
    return _monomial_reader(variables)(s, where)


def _monomial_reader(variables):
    """parse_monomial on one variable list, its name index built once."""
    index = {name: i for i, name in enumerate(variables)}

    def read(s, where=""):
        if isinstance(s, str):
            exps = [0] * len(variables)
            for f in map(_FACTOR_RE.fullmatch, s.split("*")):
                if f is None or f[1] not in index:
                    break
                exps[index[f[1]]] += int(f[2] or 1)
            else:
                return Monomial(exps)
        try:
            p = parse_poly(s, variables)
        except ParseError as e:
            raise SpecFormatError(f"bad monomial {s!r}{where}: {e}") from None
        items = list(p.terms.items())
        if len(items) != 1 or items[0][1] != 1:
            raise SpecFormatError(f"expected a single monomial with "
                                  f"coefficient 1{where}, got {s!r}")
        return items[0][0]
    return read


@dataclass
class StructureSpec:
    """A validated structure definition plus its decoded structure object."""

    kind: str
    variables: list
    max_degree: int
    structure: object


def _require(cond, msg):
    if not cond:
        raise SpecFormatError(msg)


def _is_int(v):
    """A JSON integer; true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


# a bracket key, "i,j" in ASCII digits; int() alone would also read " 1",
# "+1", "1_0" and other scripts' digits.  An index too long for int() to
# convert is out of range anyway.
_BRACKET_KEY_RE = re.compile(r"([0-9]{1,600}),([0-9]{1,600})")


def _decode_poisson(variables, max_degree, payload):
    _require(isinstance(payload.get("brackets"), dict),
             "poisson payload needs a \"brackets\" object")
    mode = payload.get("mode", "polynomial")
    _require(mode in ("polynomial", "series"),
             f"poisson mode must be polynomial or series, got {mode!r}")
    d = len(variables)
    f = {}
    seen = set()
    for key, src in sorted(payload["brackets"].items()):
        m = _BRACKET_KEY_RE.fullmatch(key)
        _require(m, f"bracket key {key!r} must be \"i,j\"")
        i, j = int(m[1]), int(m[2])
        _require(1 <= i < j <= d, f"bracket key {key!r}: need 1 <= i < j <= {d}")
        _require((i, j) not in seen, f"duplicate bracket ({i},{j}) at {key!r}")
        seen.add((i, j))
        try:
            p = parse_poly(src, variables)
        except ParseError as e:
            raise SpecFormatError(f"bracket {key!r}: {e}") from None
        if p:
            f[(i - 1, j - 1)] = p
    trunc = max_degree if mode == "series" else None
    return BracketTable(d=d, f=f, truncation_degree=trunc)


def _decode_copoisson(variables, max_degree, payload):
    _require(isinstance(payload.get("rows"), list),
             "copoisson payload needs a \"rows\" list")
    d = len(variables)
    monomial = _monomial_reader(variables)
    rows = {}
    seen = set()
    for idx, row in enumerate(payload["rows"]):
        where = f" (row {idx + 1})"
        _require(isinstance(row, dict) and "monomial" in row
                 and isinstance(row.get("lambda"), list),
                 f"each row needs \"monomial\" and a \"lambda\" list{where}")
        m = monomial(row["monomial"], where)
        _require(m.degree <= max_degree,
                 f"row monomial {row['monomial']!r} exceeds max_degree{where}")
        _require(m not in seen, f"duplicate row for {row['monomial']!r}{where}")
        seen.add(m)
        upper = {}
        for ent in row["lambda"]:
            _require(isinstance(ent, list) and len(ent) == 3,
                     f"lambda entries must be [i, j, rational]{where}")
            i, j, val = ent
            _require(_is_int(i) and _is_int(j) and i < j,
                     f"entries must have i<j{where}")
            _require(1 <= i and j <= d,
                     f"lambda indices out of range 1..{d}{where}")
            _require((i - 1, j - 1) not in upper,
                     f"duplicate lambda entry ({i},{j}){where}")
            upper[(i - 1, j - 1)] = parse_rational(val, where)
        mat = SkewMatrix.from_upper(d, upper)
        if not mat.is_zero():
            rows[m] = mat
    return ITable(d=d, domain_degree_bound=max_degree, rows=rows)


def _decode_struct_consts(variables, max_degree, payload):
    _require(isinstance(payload.get("lambda"), list),
             "struct_consts payload needs a \"lambda\" list")
    d = len(variables)
    lam = {}
    for idx, ent in enumerate(payload["lambda"]):
        where = f" (entry {idx + 1})"
        _require(isinstance(ent, list) and len(ent) == 4,
                 f"lambda entries must be [i, j, l, rational]{where}")
        i, j, l, val = ent
        _require(all(_is_int(v) for v in (i, j, l)),
                 f"lambda indices must be integers{where}")
        _require(i < j, f"entries must have i<j{where}")
        _require(1 <= i and j <= d and 1 <= l <= d,
                 f"lambda indices out of range 1..{d}{where}")
        key = (i - 1, j - 1, l - 1)
        _require(key not in lam, f"duplicate lambda entry ({i},{j},{l}){where}")
        lam[key] = parse_rational(val, where)
    return StructConsts(d=d, lam=lam)


def _decode_finhopf(payload):
    for key in ("dim", "basis", "mult", "unit", "comult", "counit", "antipode"):
        _require(key in payload, f"finhopf payload needs \"{key}\"")
    n = payload["dim"]
    _require(_is_int(n) and n >= 1, "finhopf dim must be a positive integer")
    basis = payload["basis"]
    _require(isinstance(basis, list) and len(basis) == n
             and all(isinstance(b, str) for b in basis) and len(set(basis)) == n,
             "finhopf basis must list dim distinct names")

    def vec(data, what):
        _require(isinstance(data, list) and len(data) == n,
                 f"finhopf {what} must be a length-{n} array")
        return tuple(parse_rational(v, f" ({what})") for v in data)

    def mat(data, what):
        _require(isinstance(data, list) and len(data) == n,
                 f"finhopf {what} must be {n} rows")
        return tuple(vec(row, what) for row in data)

    def tens(data, what):
        _require(isinstance(data, list) and len(data) == n,
                 f"finhopf {what} must be {n} planes")
        return tuple(mat(plane, what) for plane in data)

    try:
        return FinHopf.create(
            dim=n, basis_names=basis,
            mult=tens(payload["mult"], "mult"),
            unit=vec(payload["unit"], "unit"),
            comult=tens(payload["comult"], "comult"),
            counit=vec(payload["counit"], "counit"),
            antipode=mat(payload["antipode"], "antipode"))
    except ValueError as e:
        raise SpecFormatError(f"finhopf data rejected: {e}") from None


def _decode_qmap(variables, max_degree, payload):
    _require(isinstance(payload.get("rows"), list),
             "qmap payload needs a \"rows\" list")
    d = len(variables)
    monomial = _monomial_reader(variables)
    assignments = {}
    seen = set()
    for idx, row in enumerate(payload["rows"]):
        where = f" (row {idx + 1})"
        _require(isinstance(row, dict) and "monomial" in row
                 and isinstance(row.get("tensor"), list),
                 f"each row needs \"monomial\" and a \"tensor\" list{where}")
        m = monomial(row["monomial"], where)
        _require(m.degree <= max_degree,
                 f"row monomial exceeds max_degree{where}")
        _require(m not in seen, f"duplicate row{where}")
        seen.add(m)
        terms = {}
        for ent in row["tensor"]:
            _require(isinstance(ent, list) and len(ent) == 3,
                     f"tensor entries must be [mono, mono, rational]{where}")
            u, v = monomial(ent[0], where), monomial(ent[1], where)
            _require((u, v) not in terms, f"duplicate tensor entry{where}")
            terms[(u, v)] = parse_rational(ent[2], where)
        t = Tensor2(terms)
        if t:
            assignments[m] = t
    return QMap(d=d, domain_degree_bound=max_degree, assignments=assignments)


def _decode_pmap(variables, max_degree, payload):
    _require(isinstance(payload.get("rows"), list),
             "pmap payload needs a \"rows\" list")
    d = len(variables)
    monomial = _monomial_reader(variables)
    assignments = {}
    seen = set()
    for idx, row in enumerate(payload["rows"]):
        where = f" (row {idx + 1})"
        _require(isinstance(row, dict) and "pair" in row and "value" in row,
                 f"each row needs \"pair\" and \"value\"{where}")
        pair = row["pair"]
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"\"pair\" must list two monomials{where}")
        a, b = monomial(pair[0], where), monomial(pair[1], where)
        _require(max(a.degree, b.degree) <= max_degree,
                 f"pair monomials exceed max_degree{where}")
        _require((a, b) not in seen, f"duplicate pair{where}")
        seen.add((a, b))
        try:
            p = parse_poly(row["value"], variables)
        except ParseError as e:
            raise SpecFormatError(f"pmap value{where}: {e}") from None
        if p:
            assignments[(a, b)] = p
    return PMap(d=d, domain_degree_bound=max_degree, assignments=assignments)


def spec_from_dict(doc):
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown kind {kind!r}; expected one of {KINDS}")
    variables = doc.get("variables", [])
    _require(isinstance(variables, list)
             and all(isinstance(v, str) for v in variables),
             "\"variables\" must be a list of names")
    _require(len(set(variables)) == len(variables),
             "variable names must be unique")
    max_degree = doc.get("max_degree", 0)
    _require(_is_int(max_degree) and max_degree >= 0,
             "\"max_degree\" must be a non-negative integer")
    payload = doc.get("payload")
    _require(isinstance(payload, dict), "\"payload\" must be an object")
    if kind == "finhopf":
        structure, variables = _decode_finhopf(payload), []
    else:
        decode = {"poisson": _decode_poisson, "copoisson": _decode_copoisson,
                  "struct_consts": _decode_struct_consts,
                  "qmap": _decode_qmap, "pmap": _decode_pmap}[kind]
        structure = decode(variables, max_degree, payload)
    return StructureSpec(kind=kind, variables=list(variables),
                         max_degree=max_degree, structure=structure)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key written twice, of which
    json.load would keep the last value only."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecFormatError(f"repeated key {key!r} in one JSON object")
        obj[key] = value
    return obj


def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except SpecFormatError as e:
        raise SpecFormatError(f"{path}: {e}") from None
    except OSError as e:
        raise SpecFormatError(
            f"{path}: cannot read: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise SpecFormatError(f"{path}: not UTF-8 text: {e}") from None
    except ValueError as e:  # bad syntax, or an integer past int()'s limit
        raise SpecFormatError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise SpecFormatError(f"{path}: JSON nested too deeply") from None
    return spec_from_dict(doc)


# --- canonical serialization ---------------------------------------------

def poisson_payload(B, names):
    brackets = {}
    for (i, j) in sorted(B.f):
        p = B.f[(i, j)]
        if p:
            brackets[f"{i + 1},{j + 1}"] = format_poly(p, names)
    return {"brackets": brackets,
            "mode": "series" if B.series_mode else "polynomial"}


def copoisson_payload(I, names):
    rows = []
    for m in sorted(I.rows, key=grlex_key):
        mat = I.rows[m]
        if mat.is_zero():
            continue
        lam = [[i + 1, j + 1, format_coeff(v)] for i, j, v in mat.upper()]
        rows.append({"monomial": format_monomial(m, names), "lambda": lam})
    return {"rows": rows}


def struct_consts_payload(c, names):
    lam = []
    for (i, j, l) in sorted(c.lam):
        lam.append([i + 1, j + 1, l + 1, format_coeff(c.lam[(i, j, l)])])
    return {"lambda": lam}


def qmap_payload(q, names):
    rows = []
    for m in sorted(q.assignments, key=grlex_key):
        t = q.assignments[m]
        if not t:
            continue
        tensor = [[format_monomial(u, names), format_monomial(v, names),
                   format_coeff(c)]
                  for (u, v), c in t.items_sorted()]
        rows.append({"monomial": format_monomial(m, names), "tensor": tensor})
    return {"rows": rows}


def pmap_payload(p, names):
    rows = []
    for (a, b) in sorted(p.assignments,
                         key=lambda k: (grlex_key(k[0]), grlex_key(k[1]))):
        val = p.assignments[(a, b)]
        if not val:
            continue
        rows.append({"pair": [format_monomial(a, names),
                              format_monomial(b, names)],
                     "value": format_poly(val, names)})
    return {"rows": rows}


def finhopf_payload(H):
    r = format_coeff
    return {
        "dim": H.dim,
        "basis": list(H.basis_names),
        "mult": [[[r(v) for v in row] for row in plane] for plane in H.mult],
        "unit": [r(v) for v in H.unit],
        "comult": [[[r(v) for v in row] for row in plane] for plane in H.comult],
        "counit": [r(v) for v in H.counit],
        "antipode": [[r(v) for v in row] for row in H.antipode],
    }


def spec_to_dict(spec):
    if spec.kind == "finhopf":
        payload = finhopf_payload(spec.structure)
    else:
        encode = {"poisson": poisson_payload, "copoisson": copoisson_payload,
                  "struct_consts": struct_consts_payload,
                  "qmap": qmap_payload, "pmap": pmap_payload}[spec.kind]
        payload = encode(spec.structure, spec.variables or None)
    return {
        "kind": spec.kind,
        "variables": list(spec.variables),
        "max_degree": spec.max_degree,
        "payload": payload,
    }


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(obj, indent):
    """`obj` as JSON at the given indent; each list or dict is one join over
    its children's text.  Keys must be strings, as in every document here."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return ("[\n" + inner
                + (",\n" + inner).join([_json_text(v, inner) for v in obj])
                + "\n" + indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return ("{\n" + inner + (",\n" + inner).join([
            _quote(k) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())])
            + "\n" + indent + "}")
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)  # a float, or the TypeError json raises


def dump_json(obj):
    """Canonical JSON text: the bytes of json.dumps(obj, indent=2,
    sort_keys=True) plus a trailing newline (2-space indent, sorted keys,
    non-ASCII as \\uXXXX), written without json's pure-Python encoder."""
    return _json_text(obj, "") + "\n"


def spec_digest(doc):
    blob = dump_json(doc).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


# --- report documents -----------------------------------------------------

@dataclass
class ReportDocument:
    """The JSON report emitted by every CLI command."""

    command: str
    input_digest: str = ""
    checks: list = field(default_factory=list)
    families: list = field(default_factory=list)
    transforms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        doc = {
            "tool": "copoisson",
            "tool_version": TOOL_VERSION,
            "command": self.command,
        }
        if self.input_digest:
            doc["input_digest"] = self.input_digest
        if self.checks:
            doc["checks"] = [c.to_dict() for c in self.checks]
        if self.families:
            doc["families"] = self.families
        if self.transforms:
            doc["transforms"] = self.transforms
        doc.update(self.extra)
        return doc

    def to_json(self):
        return dump_json(self.to_dict())

    def all_passed(self):
        return all(c.passed for c in self.checks)
