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
import sys
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
from .parser import ParseError, parse_poly, quoted
from .structures import BracketTable, ITable, SkewMatrix, StructConsts

TOOL_VERSION = "0.1.0"


class SpecFormatError(ValueError):
    """A structure file violates the interchange schema."""


# an optional sign, digits, and an optional "/digits": what format_coeff
# writes; Fraction() would also read "1e1000000", "1.5", "1_000" and " 1/2"
_RATIONAL_RE = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(s, where=""):
    if not isinstance(s, str):
        raise SpecFormatError(f"rational values must be strings like "
                              f"\"p/q\"{where}, got {quoted(s)}")
    m = _RATIONAL_RE.fullmatch(s)
    try:
        if m:
            return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or /0
        pass
    raise SpecFormatError(f"malformed rational {quoted(s)}{where}")


def _poly(src, variables, what, where=""):
    """parse_poly, its ParseError a SpecFormatError naming what was read."""
    try:
        return parse_poly(src, variables)
    except ParseError as e:
        raise SpecFormatError(f"{what}{where}: {e}") from None


# a factor as format_monomial writes it: name or name^k; a longer exponent
# than int() always converts (640 digits at least) is left to parse_poly
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]{1,600}))?")


def parse_monomial(s, variables, where=""):
    """Factors joined by "*", as format_monomial writes them, are read
    directly; parse_poly accepts or rejects any other text as before."""
    return _monomial_reader(variables)(s, where)


def _monomial_reader(variables):
    """parse_monomial with its name index built once and a degree bound."""
    index = {name: i for i, name in enumerate(variables)}

    def read(s, where="", bound=None):
        m = None
        if isinstance(s, str):
            exps = [0] * len(variables)
            for f in map(_FACTOR_RE.fullmatch, s.split("*")):
                if f is None or f[1] not in index:
                    break
                exps[index[f[1]]] += int(f[2] or 1)
            else:
                m = Monomial(exps)
        if m is None:
            items = list(_poly(s, variables, f"bad monomial {quoted(s)}",
                               where).terms.items())
            _require(len(items) == 1 and items[0][1] == 1,
                     f"expected a single monomial with coefficient 1{where}, "
                     f"got {quoted(s)}")
            m = items[0][0]
        if bound is not None and m.degree > bound:
            raise SpecFormatError(
                f"row monomial {quoted(s)} exceeds max_degree {bound}{where}")
        return m
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
             f"poisson mode must be polynomial or series, got {quoted(mode)}")
    d = len(variables)
    f = {}
    for key, src in sorted(payload["brackets"].items()):
        m = _BRACKET_KEY_RE.fullmatch(key)
        _require(m, f"bracket key {quoted(key)} must be \"i,j\"")
        i, j = int(m[1]), int(m[2])
        _require(1 <= i < j <= d,
                 f"bracket key {quoted(key)}: need 1 <= i < j <= {d}")
        _require((i - 1, j - 1) not in f,
                 f"duplicate bracket ({i},{j}) at {quoted(key)}")
        f[(i - 1, j - 1)] = _poly(src, variables, f"bracket {quoted(key)}")
    trunc = max_degree if mode == "series" else None
    return BracketTable(d=d, f={ij: p for ij, p in f.items() if p},
                        truncation_degree=trunc)


def _read_rows(kind, payload, max_degree, key_field, read_key, value_field,
               read_value):
    """{key: value} of the payload's "rows", zero values left out: each row
    has a key_field, read and bounded by read_key(text, where, max_degree)
    and repeated by no other row, and a value_field, read by read_value."""
    rows = payload.get("rows")
    _require(isinstance(rows, list), f"{kind} payload needs a \"rows\" list")
    out = {}
    for n, row in enumerate(rows):
        where = f" (row {n + 1})"
        if not (isinstance(row, dict) and key_field in row
                and value_field in row):
            raise SpecFormatError(
                f"each row needs \"{key_field}\" and \"{value_field}\"{where}")
        key = read_key(row[key_field], where, max_degree)
        if key in out:
            raise SpecFormatError(
                f"duplicate {key_field} {quoted(row[key_field])}{where}")
        out[key] = read_value(row[value_field], where)
    return {key: value for key, value in out.items() if value}


def _read_lambda(items, d, width, what, where=""):
    """{(i - 1, j - 1, ...): rational} from a "lambda" list of [i, j, ...,
    rational] items: `width` JSON integer indices in 1..d, i < j, once."""
    _require(isinstance(items, list), f"{what} needs a \"lambda\" list{where}")
    lam = {}
    for n, ent in enumerate(items):  # each message is built on refusal
        at = f"{where} (entry {n + 1})"
        if not (isinstance(ent, list) and len(ent) == width + 1):
            raise SpecFormatError("lambda entries must be [i, j, "
                                  + "l, " * (width - 2) + f"rational]{at}")
        idx = ent[:width]
        if not all(map(_is_int, idx)):
            raise SpecFormatError(f"lambda indices must be integers{at}")
        if not idx[0] < idx[1]:
            raise SpecFormatError(f"entries must have i<j{at}")
        if not 1 <= min(idx) <= max(idx) <= d:
            raise SpecFormatError(f"lambda indices out of range 1..{d}{at}")
        key = tuple(i - 1 for i in idx)
        if key in lam:
            raise SpecFormatError(
                f"duplicate lambda entry ({','.join(map(str, idx))}){at}")
        lam[key] = parse_rational(ent[width], at)
    return lam


def _decode_copoisson(variables, max_degree, payload):
    d = len(variables)
    rows = _read_rows("copoisson", payload, max_degree, "monomial",
                      _monomial_reader(variables), "lambda",
                      lambda lam, where: SkewMatrix.from_upper(
                          d, _read_lambda(lam, d, 2, "each row", where)))
    return ITable(d=d, domain_degree_bound=max_degree, rows=rows)


def _decode_struct_consts(variables, max_degree, payload):
    d = len(variables)
    return StructConsts(d=d, lam=_read_lambda(payload.get("lambda"), d, 3,
                                              "struct_consts payload"))


# each table of a finite Hopf algebra with its number of indices
_FINHOPF_TABLES = (("mult", 3), ("unit", 1), ("comult", 3), ("counit", 1),
                   ("antipode", 2))


def _decode_finhopf(variables, max_degree, payload):
    n = payload.get("dim")
    _require(_is_int(n) and n >= 1, "finhopf dim must be a positive integer")
    basis = payload.get("basis")
    _require(isinstance(basis, list) and len(basis) == n
             and all(isinstance(b, str) for b in basis) and len(set(basis)) == n,
             "finhopf basis must list dim distinct names")

    def table(data, what, depth):
        """An n x ... x n array of rationals, depth deep, as tuples."""
        _require(isinstance(data, list) and len(data) == n,
                 f"finhopf {what} must be an array of shape "
                 f"{' x '.join([str(n)] * depth)}")
        return tuple(table(v, what, depth - 1) if depth > 1
                     else parse_rational(v, f" ({what})") for v in data)

    try:
        return FinHopf.create(
            dim=n, basis_names=basis,
            **{what: table(payload.get(what), what, depth)
               for what, depth in _FINHOPF_TABLES})
    except ValueError as e:
        raise SpecFormatError(f"finhopf data rejected: {e}") from None


def _decode_qmap(variables, max_degree, payload):
    monomial = _monomial_reader(variables)

    def tensor(entries, where):
        _require(isinstance(entries, list),
                 f"\"tensor\" must be a list{where}")
        terms = {}
        for ent in entries:
            _require(isinstance(ent, list) and len(ent) == 3,
                     f"tensor entries must be [mono, mono, rational]{where}")
            key = monomial(ent[0], where), monomial(ent[1], where)
            _require(key not in terms, f"duplicate tensor entry{where}")
            terms[key] = parse_rational(ent[2], where)
        return Tensor2(terms)

    rows = _read_rows("qmap", payload, max_degree, "monomial", monomial,
                      "tensor", tensor)
    return QMap(d=len(variables), domain_degree_bound=max_degree,
                assignments=rows)


def _decode_pmap(variables, max_degree, payload):
    monomial = _monomial_reader(variables)

    def pair(ab, where, bound):
        _require(isinstance(ab, list) and len(ab) == 2,
                 f"\"pair\" must list two monomials{where}")
        return monomial(ab[0], where, bound), monomial(ab[1], where, bound)

    rows = _read_rows("pmap", payload, max_degree, "pair", pair, "value",
                      lambda src, where: _poly(src, variables, "pmap value",
                                               where))
    return PMap(d=len(variables), domain_degree_bound=max_degree,
                assignments=rows)


def spec_from_dict(doc):
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    kind = doc.get("kind")
    _require(isinstance(kind, str) and kind in CODECS,
             f"unknown kind {quoted(kind)}; expected one of {KINDS}")
    variables = doc.get("variables", [])
    # a name the parser reads: a polynomial, and so a document the tool
    # writes, could not name any other
    _require(isinstance(variables, list) and all(
        isinstance(v, str) and v.isascii() and v.isidentifier()
        for v in variables) and len(set(variables)) == len(variables),
        "\"variables\" must list distinct names such as \"x1\"")
    max_degree = doc.get("max_degree", 0)
    _require(_is_int(max_degree) and max_degree >= 0,
             "\"max_degree\" must be a non-negative integer")
    payload = doc.get("payload")
    _require(isinstance(payload, dict), "\"payload\" must be an object")
    structure = CODECS[kind][0](variables, max_degree, payload)
    return StructureSpec(kind=kind, variables=list(variables),
                         max_degree=max_degree, structure=structure)


def _unique_keys(pairs):
    """A JSON object as a dict, refusing a key written twice, of which
    json.load would keep the last value only."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecFormatError(
                f"repeated key {quoted(key)} in one JSON object")
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

def _writable(coeffs, what, key):
    """Refuse, before anything is written, a coefficient whose numerator or
    denominator has more digits than the reader's int() reads."""
    digits = sys.get_int_max_str_digits()  # 0 when there is none
    for c in coeffs:  # a part below 2^(3 digits) < 10^digits fits
        if digits and (c.numerator.bit_length() > 3 * digits
                       or c.denominator.bit_length() > 3 * digits) \
                and max(abs(c.numerator), c.denominator) >= 10 ** digits:
            raise SpecFormatError(f"cannot write {what} {quoted(key)}: a "
                                  f"coefficient past the {digits}-digit limit")


def poisson_payload(B, names):
    brackets = {}
    for (i, j) in sorted(B.f):
        p = B.f[(i, j)]
        if p:
            key = f"{i + 1},{j + 1}"
            _writable(p.terms.values(), "poisson bracket", key)
            brackets[key] = format_poly(p, names)
    return {"brackets": brackets,
            "mode": "series" if B.series_mode else "polynomial"}


def _rows_payload(what, assignments, order, key_field, write_key, value_field,
                  write_value):
    """A payload of "rows": {key_field: write_key(key), value_field:
    write_value(value)} for each nonzero value, keys sorted by `order`."""
    rows = []
    for key in sorted(assignments, key=order):
        value = assignments[key]
        if value:
            text = write_key(key)
            _writable(value.terms.values(), what, text)
            rows.append({key_field: text, value_field: write_value(value)})
    return {"rows": rows}


def copoisson_payload(I, names):
    return _rows_payload(
        "copoisson row", I.rows, grlex_key,
        "monomial", lambda m: format_monomial(m, names),
        "lambda", lambda mat: [[i + 1, j + 1, format_coeff(v)]
                               for i, j, v in mat.upper()])


def struct_consts_payload(c, names):
    return {"lambda": [[i + 1, j + 1, l + 1, format_coeff(v)]
                       for (i, j, l), v in sorted(c.lam.items())]}


def qmap_payload(q, names):
    return _rows_payload(
        "qmap row", q.assignments, grlex_key,
        "monomial", lambda m: format_monomial(m, names),
        "tensor", lambda t: [[format_monomial(u, names),
                              format_monomial(v, names), format_coeff(c)]
                             for (u, v), c in t.items_sorted()])


def pmap_payload(p, names):
    return _rows_payload(
        "pmap row", p.assignments,
        lambda ab: (grlex_key(ab[0]), grlex_key(ab[1])),
        "pair", lambda ab: [format_monomial(m, names) for m in ab],
        "value", lambda val: format_poly(val, names))


def finhopf_payload(H, names):
    """The tables of H; a finite carrier names its basis, not `names`."""
    def write(t, what):
        if isinstance(t[0], (tuple, list)):
            return [write(v, what) for v in t]
        _writable(t, "finhopf table", what)
        return [format_coeff(v) for v in t]
    return {"dim": H.dim, "basis": list(H.basis_names),
            **{what: write(getattr(H, what), what)
               for what, _ in _FINHOPF_TABLES}}


# each kind's (decoder, payload encoder): the one list of kinds
CODECS = {
    "poisson": (_decode_poisson, poisson_payload),
    "copoisson": (_decode_copoisson, copoisson_payload),
    "struct_consts": (_decode_struct_consts, struct_consts_payload),
    "finhopf": (_decode_finhopf, finhopf_payload),
    "qmap": (_decode_qmap, qmap_payload),
    "pmap": (_decode_pmap, pmap_payload),
}
KINDS = tuple(CODECS)


def spec_to_dict(spec):
    return {
        "kind": spec.kind,
        "variables": list(spec.variables),
        "max_degree": spec.max_degree,
        "payload": CODECS[spec.kind][1](spec.structure,
                                        spec.variables or None),
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
