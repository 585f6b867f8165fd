"""The exit-code contract of `copoisson check` on hostile input files.

Every fixture has each value below its root replaced, one at a time, by a
value of a wrong JSON type, and a key of each of its objects written
twice; deeply nested JSON is read as well, and small generated documents
of all six kinds, valid or with one hostile edit each, through `check`
and every `transform` that applies to their kind.  On each, `main` must
return (nothing escapes it), the code must be one that README.md
documents other than 4, "internal error", and 1, "a check failed", must
come only with a report that holds a failed check.  Every document that
`transform` writes loads back.
"""

import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import copoisson.cli as cli
from copoisson.cli import main
from copoisson.algebra import Monomial, Poly, format_coeff
from copoisson.fileformat import (KINDS, SpecFormatError, StructureSpec,
                                  load_spec, spec_from_dict, spec_to_dict)
from copoisson.finite import group_algebra_z2, sweedler_h4
from copoisson.parser import parse_poly
from copoisson.structures import BracketTable, copoisson_from_series

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"
WRONG_TYPES = (5, 2.5, None, True, [], {}, "x", [["x"]])


def documented_codes():
    """The codes in backticks in README.md's "Exit codes:" paragraph."""
    text = README.read_text()
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    return {int(code) for code in re.findall(r"`(\d)`", paragraph)}


def test_readme_documents_the_five_codes():
    assert documented_codes() == {0, 1, 2, 3, 4}


def documented_kinds():
    """The kinds in backticks in README.md's "Input files carry a `kind`
    field" sentence."""
    text = README.read_text()
    start = text.index("Input files carry a `kind` field:")
    sentence = text[start:text.index(". ", start)]
    return set(re.findall(r"`(\w+)`", sentence)) - {"kind"}


def test_readme_documents_every_kind():
    assert documented_kinds() == set(KINDS)


def value_paths(doc, path=()):
    """The path of every value below the root, containers included."""
    if path:
        yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from value_paths(value, path + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return doc


DOCS = {p.name: json.loads(p.read_text())
        for p in sorted(FIXTURES.glob("*.json"))}
TARGETS = [(name, path) for name, doc in DOCS.items()
           for path in value_paths(doc)]


def assert_contract(path):
    out = io.StringIO()
    code = main(["check", str(path), "--format", "json"], out=out)
    assert code in documented_codes() - {4}
    if code == 1:
        report = json.loads(out.getvalue())
        assert not all(c["passed"] for c in report["checks"])
    return code


# the `transform --to` targets that apply to each kind; a poisson bracket
# has one per mode, and the other exits 2
TRANSFORMS = {"poisson": ("copoisson", "p"), "copoisson": ("q", "series"),
              "struct_consts": ("copoisson",), "finhopf": (), "qmap": ("i",),
              "pmap": ("j",)}


def assert_transform_contract(path, to):
    """`transform --to` exits with a documented code other than 1 and 4,
    and what it writes at exit 0 loads back as the same document."""
    out = io.StringIO()
    code = main(["transform", str(path), "--to", to], out=out)
    assert code in documented_codes() - {1, 4}
    if code == 0:
        doc = json.loads(out.getvalue())["transforms"][0]["output"]
        assert spec_to_dict(spec_from_dict(doc)) == doc
    return code


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "spec.json"


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(TARGETS), st.sampled_from(WRONG_TYPES))
def test_a_wrong_json_type_exits_with_a_documented_code(scratch, target,
                                                        value):
    name, path = target
    scratch.write_text(json.dumps(replaced(DOCS[name], path, value)))
    assert_contract(scratch)


def test_a_list_where_one_is_required_is_checked_for_its_type(scratch):
    # "lambda" and "tensor" rows used to iterate whatever they held: a
    # number escaped main, and {} read as an empty list
    for name, key in (("copoisson_d2.json", "lambda"),
                      ("qmap_fractional.json", "tensor")):
        for value in (5, {}):
            doc = replaced(DOCS[name], ("payload", "rows", 0, key), value)
            scratch.write_text(json.dumps(doc))
            assert assert_contract(scratch) == 3


def test_deeply_nested_json_exits_3(scratch, capsys):
    scratch.write_text("[" * 200_000 + "]" * 200_000)
    assert assert_contract(scratch) == 3
    text = json.dumps(DOCS["counterex_n5.json"])[:-1]
    scratch.write_text(text + ', "extra": ' + "[" * 100_000 + "]" * 100_000
                       + "}")
    assert assert_contract(scratch) == 3
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("basis", [[5, None, [], {"a": 1}],
                                   ["g", "g", "x", "gx"]],
                         ids=["not-strings", "repeated"])
def test_finhopf_basis_must_be_distinct_names(scratch, capsys, basis):
    scratch.write_text(json.dumps(replaced(DOCS["h4.json"],
                                           ("payload", "basis"), basis)))
    assert assert_contract(scratch) == 3
    assert "distinct names" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e1000000", "1.5", "1_000", " 1/2"])
def test_a_rational_in_another_form_exits_3_at_once(scratch, capsys, value):
    # Fraction() reads these; "1e1000000" took 19 s to check
    scratch.write_text(json.dumps(replaced(
        DOCS["so3.json"], ("payload", "lambda", 0, 3), value)))
    start = time.perf_counter()
    assert assert_contract(scratch) == 3
    assert time.perf_counter() - start < 1
    assert "malformed rational" in capsys.readouterr().err


def test_signed_and_unreduced_rationals_still_load(scratch):
    doc = replaced(DOCS["so3.json"], ("payload", "lambda", 0, 3), "-3/4")
    doc = replaced(doc, ("payload", "lambda", 2, 3), "6/8")
    scratch.write_text(json.dumps(doc))
    lam = load_spec(scratch).structure.lam
    assert lam[(0, 1, 2)] == Fraction(-3, 4) and lam[(1, 2, 0)] == Fraction(3, 4)


def test_an_unexpected_exception_exits_4_with_its_traceback(monkeypatch,
                                                            capsys):
    def broken(path):
        raise RuntimeError("deliberate failure")

    monkeypatch.setattr(cli, "load_spec", broken)
    assert main(["check", str(FIXTURES / "so3.json")], out=io.StringIO()) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:\nTraceback (most recent call last)")
    assert "RuntimeError: deliberate failure" in err


# a zero row and a nonzero one with the same key
REPEATED_ROWS = {
    "copoisson": [{"monomial": "x1", "lambda": [[1, 2, v]]}
                  for v in ("0", "3")],
    "qmap": [{"monomial": "x1", "tensor": [["x1", "x2", v]]}
             for v in ("0", "3")],
    "pmap": [{"pair": ["x1", "x2"], "value": v} for v in ("0", "x1")],
}


@pytest.mark.parametrize("zero_first", [True, False],
                         ids=["zero-first", "zero-last"])
@pytest.mark.parametrize("kind", sorted(REPEATED_ROWS))
def test_a_repeated_row_exits_3_in_either_order(scratch, capsys, kind,
                                                zero_first):
    # a zero row is never stored, so it used to escape the duplicate check
    rows = REPEATED_ROWS[kind][::1 if zero_first else -1]
    scratch.write_text(json.dumps({
        "kind": kind, "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"rows": rows}}))
    command = ["transform", str(scratch), "--to", "j"] if kind == "pmap" \
        else ["check", str(scratch), "--checks", "skew"]
    assert main(command, out=io.StringIO()) == 3
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("key", [" 1,2", "1, 2", "+1,2", "1_0,2", "1,2,3",
                                 "\u0661,2", "1" * 5000 + ",2"],
                         ids=["space", "inner-space", "sign", "underscore",
                              "three", "arabic-digit", "5000-digits"])
def test_a_bracket_key_other_than_digits_exits_3(scratch, capsys, key):
    doc = json.loads(json.dumps(DOCS["quadratic_d3.json"]))
    brackets = doc["payload"]["brackets"]
    brackets[key] = brackets.pop("1,2")
    scratch.write_text(json.dumps(doc))
    assert assert_contract(scratch) == 3
    assert "must be \"i,j\"" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01,2", "1,02", "001,0002"])
def test_two_keys_for_one_bracket_exit_3(scratch, capsys, key):
    # int() reads each of these as (1, 2), and one value used to be dropped
    doc = json.loads(json.dumps(DOCS["quadratic_d3.json"]))
    doc["payload"]["brackets"][key] = "x1"
    scratch.write_text(json.dumps(doc))
    assert assert_contract(scratch) == 3
    assert "duplicate bracket (1,2)" in capsys.readouterr().err
    del doc["payload"]["brackets"]["1,2"]  # alone, the key reads as (1, 2)
    scratch.write_text(json.dumps(doc))
    assert load_spec(scratch).structure.f[(0, 1)] == parse_poly(
        "x1", doc["variables"])


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_repeated_key(doc, path):
    """The JSON text of doc with the first key of the object at `path`
    written twice, with the same value: json.dumps cannot write that."""
    obj = value_at(doc, path)
    first, value = next(iter(obj.items()))
    text = ("{" + json.dumps(first) + ": " + json.dumps(value) + ", "
            + json.dumps(obj)[1:])
    if not path:
        return text
    marker = "repeated-key marker"
    return json.dumps(replaced(doc, path, marker)).replace(
        json.dumps(marker), text)


# every nonempty JSON object of every fixture: the root, the payload, the
# brackets and each row
OBJECTS = [(name, path) for name, doc in DOCS.items()
           for path in [(), *value_paths(doc)]
           if isinstance(value_at(doc, path), dict) and value_at(doc, path)]


def test_a_repeated_key_in_any_object_exits_3(scratch, capsys):
    # json.load keeps the last value of a repeated key, so one value of a
    # bracket written twice used to be dropped without a word
    assert {path[:2] for _, path in OBJECTS} >= {
        (), ("payload",), ("payload", "brackets"), ("payload", "rows")}
    for name, path in OBJECTS:
        doc = DOCS[name]
        scratch.write_text(with_repeated_key(doc, path))
        assert assert_contract(scratch) == 3, (name, path)
        key = next(iter(value_at(doc, path)))
        assert f"repeated key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bracket", [
    "*".join(["2^2000"] * 2000), "*".join(["(2^2000*x1 + 2^2000)"] * 127)],
    ids=["numbers", "parenthesized"])
def test_a_product_past_the_digit_limit_exits_3_at_once(scratch, capsys,
                                                       bracket):
    # the product of numbers kept check --checks jacobi busy for 23.7 s
    doc = json.loads(json.dumps(DOCS["quadratic_d3.json"]))
    doc["payload"]["brackets"]["1,2"] = bracket
    scratch.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(scratch), "--checks", "jacobi"],
                out=io.StringIO()) == 3
    assert time.perf_counter() - start < 1
    assert "product past the 4300-digit limit" in capsys.readouterr().err


# --- generated documents of every kind, valid or with one hostile edit -------

# no large integer: a max_degree of 5 is valid, and slow to check
WRONG = (2.5, None, True, -1, [], {}, "x", [["x"]])
FINHOPF = [spec_to_dict(StructureSpec("finhopf", [], 0, H))
           for H in (group_algebra_z2(), sweedler_h4())]


@st.composite
def monomial_texts(draw, d, top):
    """A monomial of degree <= top in x1..xd, as text."""
    exps, left = [], top
    for _ in range(d):
        exps.append(draw(st.integers(0, left)))
        left -= exps[-1]
    return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exps) if e) or "1"


rationals = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                      st.integers(-9, 9), st.integers(1, 4))


def poly_texts(d):
    return st.lists(st.tuples(rationals, monomial_texts(d, 2)),
                    min_size=1, max_size=3).map(
        lambda terms: " + ".join(f"{c}*{m}" for c, m in terms))


@st.composite
def spec_docs(draw, kind):
    """A small spec document of `kind`, with max_degree <= 2."""
    if kind == "finhopf":
        return draw(st.sampled_from(FINHOPF))
    d, top = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    rows = st.lists(monomial_texts(d, top), min_size=1, max_size=3,
                    unique=True)
    if kind == "poisson":
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        payload = {"brackets": {f"{i},{j}": draw(poly_texts(d))
                                for i, j in chosen},
                   "mode": draw(st.sampled_from(["polynomial", "series"]))}
    elif kind == "copoisson":
        payload = {"rows": [
            {"monomial": m, "lambda": [
                [i, j, draw(rationals)] for i, j in draw(st.lists(
                    st.sampled_from(pairs), min_size=1, unique=True))]}
            for m in draw(rows)]}
    elif kind == "struct_consts":
        triples = draw(st.lists(st.tuples(st.sampled_from(pairs),
                                          st.integers(1, d)), unique=True))
        payload = {"lambda": [[i, j, l, draw(rationals)]
                              for (i, j), l in triples]}
    elif kind == "qmap":
        payload = {"rows": [
            {"monomial": m, "tensor": [
                [u, v, draw(rationals)] for u, v in draw(st.lists(
                    st.tuples(monomial_texts(d, 2), monomial_texts(d, 2)),
                    max_size=3, unique=True))]}
            for m in draw(rows)]}
    else:
        payload = {"rows": [
            {"pair": [u, v], "value": draw(poly_texts(d))}
            for u, v in draw(st.lists(st.tuples(monomial_texts(d, top),
                                                monomial_texts(d, top)),
                                      max_size=3, unique=True))]}
    return {"kind": kind, "variables": [f"x{i}" for i in range(1, d + 1)],
            "max_degree": top, "payload": payload}


HOSTILE_TEXT = {
    "literal": st.builds(lambda n, tail: "9" * n + tail,
                         st.sampled_from([4299, 4300, 4301]),
                         st.sampled_from(["", "*x1", "/7"])),
    "product": st.sampled_from(
        ["*".join(["2^2000"] * k) for k in (2, 3, 400)]
        + ["*".join(["(2^2000*x1 + 2^2000)"] * k) for k in (2, 3, 127)]
        + ["7" * 3000 + "*(" + "3" * 3000 + "*x1 + 1)",
           "7" * 1300 + "*(x1 - x2)"]),
    "nesting": st.builds(lambda n, deep: deep(n),
                         st.sampled_from([99, 100, 101, 5000]),
                         st.sampled_from([lambda n: "(" * n + "x1" + ")" * n,
                                          lambda n: "-" * n + "x1"])),
}


def out_of_range(draw, doc):
    """doc with one index past its range: a lambda index, a bracket key, a
    finhopf dim, or a variable past x_d in a row's monomial."""
    kind, payload = doc["kind"], doc["payload"]
    d = len(doc["variables"])
    bad = draw(st.sampled_from([0, d + 1, 10 ** 6]))
    if kind == "finhopf":
        return replaced(doc, ("payload", "dim"), payload["dim"] + 1)
    if kind == "poisson":
        return replaced(doc, ("payload", "brackets"),
                        {**payload["brackets"], f"1,{bad}": "x1"})
    if kind == "struct_consts":
        entry = [1, 2, 1, "1"]
        entry[draw(st.integers(0, 2))] = bad
        return replaced(doc, ("payload", "lambda"), [entry, *payload["lambda"]])
    if kind == "copoisson":
        return replaced(doc, ("payload", "rows", 0, "lambda", 0,
                              draw(st.integers(0, 1))), bad)
    past = f"x{d + 1}"
    row = ({"monomial": past, "tensor": [["x1", "x2", "1"]]} if kind == "qmap"
           else {"pair": ["x1", past], "value": "x1"})
    return replaced(doc, ("payload", "rows"), [*payload["rows"], row])


def hostile(draw, doc, edit):
    """The bytes of doc as a file, with one hostile edit."""
    leaves = [p for p in value_paths(doc)
              if isinstance(value_at(doc, p), str)]
    if edit in HOSTILE_TEXT:
        doc = replaced(doc, draw(st.sampled_from(leaves)),
                       draw(HOSTILE_TEXT[edit]))
    elif edit == "wrong-type":
        doc = replaced(doc, draw(st.sampled_from(list(value_paths(doc)))),
                       draw(st.sampled_from(WRONG)))
    elif edit == "index":
        doc = out_of_range(draw, doc)
    elif edit == "repeated-key":
        objects = [p for p in [(), *value_paths(doc)]
                   if isinstance(value_at(doc, p), dict) and value_at(doc, p)]
        return with_repeated_key(doc, draw(st.sampled_from(objects))).encode()
    elif edit == "not-utf8":
        marker = "not-utf8 marker"
        text = json.dumps(replaced(doc, draw(st.sampled_from(leaves)),
                                   marker)).encode()
        return text.replace(marker.encode(),
                            draw(st.sampled_from([b"\xff", b"x\xc3(", b"\x80"])))
    return json.dumps(doc).encode()


EDITS = ("none", *HOSTILE_TEXT, "wrong-type", "index", "repeated-key",
         "not-utf8")


def test_every_target_applies_to_some_kind():
    choices = {"q", "i", "j", "p", "copoisson", "series"}
    assert set().union(*TRANSFORMS.values()) == choices
    assert set(TRANSFORMS) == set(KINDS)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(KINDS), st.sampled_from(EDITS), st.data())
def test_generated_documents_keep_the_exit_contract(scratch, kind, edit,
                                                    data):
    # valid documents of every kind, and each with one hostile edit: the
    # code is documented and never 4, 1 comes only with a failed check,
    # and every transform output loads back
    doc = data.draw(spec_docs(kind))
    scratch.write_bytes(hostile(data.draw, doc, edit))
    codes = [assert_contract(scratch)] + [
        assert_transform_contract(scratch, to) for to in TRANSFORMS[kind]]
    if edit in ("index", "repeated-key", "not-utf8"):
        assert set(codes) == {3}


# --- what the tool writes, its reader reads ----------------------------------

NINES = "9" * 4300
SUM = {"kind": "poisson", "variables": ["x1", "x2", "x3"], "max_degree": 2,
       "payload": {"brackets": {"1,2": f"{NINES}*x3 + {NINES}*x3"},
                   "mode": "polynomial"}}
SERIES = {"kind": "poisson", "variables": ["x1", "x2", "x3"],
          "max_degree": 60, "payload": {
              "brackets": {"1,2": "7" * 4250 + "*x3^60"}, "mode": "series"}}


@pytest.mark.parametrize("doc, command, named", [
    (SUM, ["transform", "--to", "p"], "poisson bracket '1,2'"),
    (SUM, ["check"], "poisson bracket '1,2'"),
    (SERIES, ["transform", "--to", "copoisson"], "copoisson row 'x3^60'"),
], ids=["sum-to-p", "sum-check", "series-to-copoisson"])
def test_a_coefficient_the_reader_refuses_is_not_written(scratch, capsys, doc,
                                                         command, named):
    # each literal loads, but a sum or the series rescaling by 60! has a
    # coefficient past the 4300-digit limit: `check` writes the input's
    # canonical form for its digest, and `transform` its output
    scratch.write_text(json.dumps(doc))
    out = io.StringIO()
    assert main([command[0], str(scratch), *command[1:]], out=out) == 3
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert named in err and "past the 4300-digit limit" in err


@pytest.mark.parametrize("c", [
    Fraction(-(10 ** 4300 - 1)), Fraction(1, 10 ** 4300 - 1),
    Fraction(-(10 ** 4300)), Fraction(1, 10 ** 4300)],
    ids=["4300-digit-numerator", "4300-digit-denominator",
         "4301-digit-numerator", "4301-digit-denominator"])
def test_the_writer_refuses_what_the_reader_refuses(c):
    B = BracketTable(d=3, f={(0, 1): Poly({Monomial((0, 0, 1)): c})})
    spec = StructureSpec("poisson", ["x1", "x2", "x3"], 2, B)
    if max(abs(c.numerator), c.denominator) < 10 ** 4300:
        assert spec_from_dict(spec_to_dict(spec)) == spec
    else:
        with pytest.raises(SpecFormatError, match="4300-digit limit"):
            spec_to_dict(spec)


def test_a_refused_rational_is_quoted_in_a_short_line(scratch, capsys):
    # the copoisson table the series case used to write: its --to series
    # refusal printed the whole 4332-character rational
    B = spec_from_dict(SERIES).structure
    (m, mat), = copoisson_from_series(B).rows.items()
    doc = {"kind": "copoisson", "variables": SERIES["variables"],
           "max_degree": 60, "payload": {"rows": [
               {"monomial": "x3^60", "lambda": [[1, 2, format_coeff(v)]
                                                for _, _, v in mat.upper()]}]}}
    scratch.write_text(json.dumps(doc))
    assert main(["transform", str(scratch), "--to", "series"],
                out=io.StringIO()) == 3
    err = capsys.readouterr().err
    assert "malformed rational" in err and len(err.encode()) < 200


LONG = 5000
# (fixture, path of the value, the long value); no path: a bracket key
QUOTED = {
    "kind": ("so3.json", ("kind",), "k" * LONG),
    "rational": ("so3.json", ("payload", "lambda", 0, 3), "1" * LONG),
    "rational-type": ("so3.json", ("payload", "lambda", 0, 3), [1] * LONG),
    "bracket-key": ("quadratic_d3.json", None, "1" * LONG + ",2"),
    "unknown-identifier": ("quadratic_d3.json",
                           ("payload", "brackets", "1,2"), "y" * LONG),
    "unexpected-token": ("quadratic_d3.json", ("payload", "brackets", "1,2"),
                         "x1 " + "z" * LONG),
    "row-monomial": ("copoisson_d2.json", ("payload", "rows", 0, "monomial"),
                     "y" * LONG),
    "row-monomial-degree": ("copoisson_d2.json",
                            ("payload", "rows", 0, "monomial"),
                            "x1^" + "9" * 599),
}


@pytest.mark.parametrize("name", sorted(QUOTED))
def test_refused_input_is_quoted_by_its_prefix(scratch, capsys, name):
    fixture, path, value = QUOTED[name]
    if path is None:
        doc = json.loads(json.dumps(DOCS[fixture]))
        brackets = doc["payload"]["brackets"]
        brackets[value] = brackets.pop("1,2")
    else:
        doc = replaced(DOCS[fixture], path, value)
    scratch.write_text(json.dumps(doc))
    assert assert_contract(scratch) == 3
    err = capsys.readouterr().err
    assert "characters)" in err and len(err.encode()) < 200


@pytest.mark.parametrize("name", ["2", "x 1", "x1*x2", "2^2000*2^2000", "é"])
def test_a_variable_the_parser_cannot_name_exits_3(scratch, capsys, name):
    # such a name used to load and be written into monomials that the
    # reader refused: struct_consts --to copoisson wrote "2^2000*2^2000"
    scratch.write_text(json.dumps(replaced(DOCS["so3.json"],
                                           ("variables", 1), name)))
    assert assert_contract(scratch) == 3
    assert "distinct names" in capsys.readouterr().err
