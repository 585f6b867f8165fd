import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from copoisson import (
    BracketTable,
    ITable,
    PMap,
    Poly,
    QMap,
    SkewMatrix,
    StructConsts,
    Tensor2,
    monomials,
)
from copoisson.cli import main
from copoisson.fileformat import (
    SpecFormatError,
    StructureSpec,
    dump_json,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)

from conftest import FIXTURES, unlimited_int_str


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


SO3 = str(FIXTURES / "so3.json")
COUNTEREX = str(FIXTURES / "counterex_n5.json")
COP_D2 = str(FIXTURES / "copoisson_d2.json")
H4 = str(FIXTURES / "h4.json")


def test_load_spec_fixture_kinds():
    assert load_spec(SO3).kind == "struct_consts"
    assert load_spec(COUNTEREX).kind == "poisson"
    assert load_spec(COP_D2).kind == "copoisson"
    assert load_spec(H4).kind == "finhopf"


def test_load_spec_rejects_wrong_index_order(tmp_path):
    doc = {
        "kind": "copoisson", "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"rows": [{"monomial": "x1", "lambda": [[2, 1, "1"]]}]},
    }
    with pytest.raises(SpecFormatError, match="entries must have i<j"):
        spec_from_dict(doc)


# stored with its bracket terms in a hand-written order, not canonically
HAND_ORDERED = {"quadratic_d3.json"}


def test_load_dump_roundtrip():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) >= 8
    for path in paths:
        doc = spec_to_dict(load_spec(path))
        assert spec_to_dict(spec_from_dict(doc)) == doc
        if path.name in HAND_ORDERED:
            # load -> dump -> load is the identity
            assert spec_to_dict(spec_from_dict(json.loads(dump_json(doc)))) \
                == doc
        else:
            assert path.read_text() == dump_json(doc)


NAMES = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True),
                 min_size=2, max_size=3, unique=True)
COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                   st.integers(1, 3))
SPEC_KINDS = ("poisson", "series", "copoisson", "struct_consts", "qmap",
              "pmap")


@st.composite
def specs(draw):
    """A random canonical spec of every kind but finhopf: no zero entries,
    and series brackets within the truncation degree."""
    kind = draw(st.sampled_from(SPEC_KINDS))
    names = draw(NAMES)
    d = len(names)
    N = draw(st.integers(0, 3))
    monos = st.sampled_from(monomials(d, 3 if kind == "poisson" else N))
    polys = st.dictionaries(monos, COEFFS, min_size=1, max_size=3).map(Poly)
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if kind in ("poisson", "series"):
        f = draw(st.dictionaries(st.sampled_from(upper), polys, max_size=3))
        structure = BracketTable(d=d, f=f, truncation_degree=(
            N if kind == "series" else None))
        kind = "poisson"
    elif kind == "copoisson":
        uppers = draw(st.dictionaries(monos, st.dictionaries(
            st.sampled_from(upper), COEFFS, min_size=1), max_size=3))
        structure = ITable(d=d, domain_degree_bound=N, rows={
            m: SkewMatrix.from_upper(d, r) for m, r in uppers.items()})
    elif kind == "struct_consts":
        keys = st.tuples(st.sampled_from(upper), st.integers(0, d - 1)).map(
            lambda k: (*k[0], k[1]))
        structure = StructConsts(d=d, lam=draw(
            st.dictionaries(keys, COEFFS, max_size=4)))
    elif kind == "qmap":
        tensors = st.dictionaries(st.tuples(monos, monos), COEFFS,
                                  min_size=1, max_size=3).map(Tensor2)
        structure = QMap(d=d, domain_degree_bound=N, assignments=draw(
            st.dictionaries(monos, tensors, max_size=3)))
    else:
        structure = PMap(d=d, domain_degree_bound=N, assignments=draw(
            st.dictionaries(st.tuples(monos, monos), polys, max_size=3)))
    return StructureSpec(kind=kind, variables=names, max_degree=N,
                         structure=structure)


@settings(deadline=None, max_examples=150)
@given(specs())
def test_spec_dict_roundtrip_is_identity(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_check_exit_codes():
    assert run(["check", SO3])[0] == 0
    assert run(["check", COUNTEREX, "--max-degree", "4"])[0] == 0
    assert run(["check", COP_D2,
                "--checks", "skew,coleibniz,cojacobi,counit-kill"])[0] == 0
    # the d=2 table has rows beyond degree 1, so the Hopf-compat checks fail
    assert run(["check", COP_D2, "--checks", "copoisson-hopf"])[0] == 1
    assert run(["check", H4])[0] == 0


def test_check_reports_are_byte_deterministic():
    for args in (["check", SO3, "--format", "json"],
                 ["check", COP_D2, "--format", "json"],
                 ["check", H4, "--format", "json"],
                 ["classify-h4", "--structure", "copoisson",
                  "--format", "json"]):
        a = run(list(args))
        b = run(list(args))
        assert a == b


def test_check_json_shape():
    code, text = run(["check", SO3, "--format", "json"])
    doc = json.loads(text)
    assert code == 0
    assert doc["tool"] == "copoisson"
    assert doc["input_digest"].startswith("sha256:")
    names = {c["check"] for c in doc["checks"]}
    assert "jacobi" in names and "linear-relations" in names
    assert all(c["passed"] for c in doc["checks"])


def test_perturbed_so3_fails_with_witness(tmp_path):
    doc = json.loads(open(SO3).read())
    doc["payload"]["lambda"].append([2, 3, 3, "1"])
    p = tmp_path / "bad.json"
    p.write_text(dump_json(doc))
    code, text = run(["check", str(p), "--checks", "linear-relations",
                      "--format", "json"])
    assert code == 1
    rep = json.loads(text)["checks"][0]
    assert not rep["passed"]
    assert rep["witnesses"][0]["input"].startswith("(i,j,k,s)=")


def test_unknown_check_and_missing_file():
    assert run(["check", SO3, "--checks", "nope"])[0] == 2
    assert run(["check", str(FIXTURES / "missing.json")])[0] == 3


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["check", str(p)])[0] == 3
    q = tmp_path / "badpoly.json"
    q.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"brackets": {"1,2": "x1 + y"}, "mode": "polynomial"}}))
    assert run(["check", str(q)])[0] == 3


def run_stderr(args, capsys):
    code, text = run(args)
    return code, text, capsys.readouterr().err


def test_unreadable_spec_exits_3(tmp_path, capsys):
    bom = tmp_path / "utf16.json"
    bom.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (tmp_path, bom):
        code, text, err = run_stderr(["check", str(path)], capsys)
        assert (code, text) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def test_deeply_nested_expression_exits_3(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"brackets": {"1,2": "(" * 5000 + "x1" + ")" * 5000},
                    "mode": "polynomial"}}))
    code, text, err = run_stderr(["check", str(p)], capsys)
    assert (code, text) == (3, "")
    assert "nested deeper" in err and err.count("\n") == 1


@pytest.mark.parametrize("power", ["(x1 + 1)^4000", "(x1 + x2 + 1)^32"])
def test_power_past_the_term_limit_exits_3(tmp_path, capsys, power):
    p = tmp_path / "power.json"
    p.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"brackets": {"1,2": power}, "mode": "polynomial"}}))
    code, text, err = run_stderr(["check", str(p)], capsys)
    assert (code, text) == (3, "")
    assert "power of a sum" in err and err.count("\n") == 1


@pytest.mark.parametrize("bracket, message", [
    ("3^10000000*x1", "power of a number past the 4300-digit limit"),
    ("(x1 + " + "7" * 300 + ")^127", "power of a sum past the 4300-digit limit"),
    ("*".join(["(1 + x1 + x2 + x1^2 + x2^2 + x1*x2)"] * 12),
     "product may have more than 128 terms"),
])
def test_number_power_and_product_past_the_limits_exit_3(tmp_path, capsys,
                                                         bracket, message):
    p = tmp_path / "bounded.json"
    p.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2"], "max_degree": 2,
        "payload": {"brackets": {"1,2": bracket}, "mode": "polynomial"}}))
    code, text, err = run_stderr(["check", str(p)], capsys)
    assert (code, text) == (3, "")
    assert message in err and err.count("\n") == 1


def test_coefficient_times_parenthesized_product_exits_3(tmp_path, capsys):
    # the product of a term's number part and its parenthesized product
    # was unbounded: check passed and transform --to p wrote a pmap that
    # transform --to j then refused ("integer literal too long")
    p = tmp_path / "product.json"
    p.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2", "x3"], "max_degree": 2,
        "payload": {"brackets": {"1,2": "7" * 3000 + "*(" + "3" * 3000
                                        + "*x3 + 1)"},
                    "mode": "polynomial"}}))
    for args in (["check", str(p)], ["transform", str(p), "--to", "p"]):
        code, text, err = run_stderr(args, capsys)
        assert (code, text) == (3, "")
        assert "product past the 4300-digit limit at column 3001" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    (dump_json({"kind": "poisson", "variables": ["x1", "x2"], "max_degree": 2,
                "payload": {"brackets": {"1,2": "x1^" + "9" * 5000},
                            "mode": "polynomial"}}),
     "integer literal too long"),
    (dump_json({"kind": "copoisson", "variables": ["x1", "x2"],
                "max_degree": 2,
                "payload": {"rows": [{"monomial": "x2^" + "1" * 5000,
                                      "lambda": [[1, 2, "1"]]}]}}),
     "integer literal too long"),
    ('{"kind": "poisson", "variables": ["x1"], "max_degree": ' + "9" * 5000
     + ', "payload": {"brackets": {}}}', "invalid JSON"),
])
def test_integer_past_the_digit_limit_exits_3(tmp_path, capsys, text,
                                              message):
    # int() refuses strings of more than 4300 digits with a ValueError
    p = tmp_path / "long.json"
    p.write_text(text)
    code, out, err = run_stderr(["check", str(p)], capsys)
    assert (code, out) == (3, "")
    assert message in err and err.count("\n") == 1


def test_jacobi_witness_past_the_digit_limit_is_rendered(tmp_path):
    # every literal is accepted, but the Jacobi witness holds c^2, which
    # has more digits than int() converts to a string by default
    c = 10 ** 2499 + 7 ** 5000 % 10 ** 2499
    p = tmp_path / "large.json"
    p.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2", "x3"], "max_degree": 2,
        "payload": {"brackets": {"1,3": f"{c}*x2", "2,3": f"{c}*x3"},
                    "mode": "polynomial"}}))
    code, text = run(["check", str(p), "--checks", "jacobi",
                      "--format", "json"])
    assert code == 1
    (report,) = json.loads(text)["checks"]
    with unlimited_int_str():
        want = f"-{c * c}*x2"
    assert report["witnesses"] == [{"input": "(i,j,k)=(1,2,3)",
                                    "residual": want}]


def test_bound_error_exit_code():
    # explicit degree beyond what the cobracket table can support
    assert run(["check", COP_D2, "--checks", "cojacobi",
                "--max-degree", "7"])[0] == 2


def test_negative_max_degree_is_a_usage_error():
    code, text = run(["check", COP_D2, "--checks", "skew",
                      "--max-degree", "-1"])
    assert code == 2
    assert "PASS" not in text


UNAFFORDABLE = [
    # cojacobi-coeffs needs table bound N + 1 even at N = 0
    ({"kind": "copoisson", "variables": ["x1", "x2"], "max_degree": 0,
      "payload": {"rows": []}},
     "cojacobi-coeffs", "requires table bound >= 1, have 0"),
    # (q (x) 1) q(1) needs q on the degree-1 left factors of q(1)
    ({"kind": "qmap", "variables": ["x1", "x2"], "max_degree": 0,
      "payload": {"rows": [{"monomial": "1", "tensor": [
          ["x1", "x2", "1"], ["x2", "x1", "-1"]]}]}},
     "cojacobi", "requires table bound >= 1, have 0"),
]


@pytest.mark.parametrize("doc, name, need", UNAFFORDABLE,
                         ids=["copoisson", "qmap"])
def test_default_degree_skips_an_unaffordable_check(tmp_path, doc, name,
                                                     need):
    p = tmp_path / "spec.json"
    p.write_text(dump_json(doc))
    code, text = run(["check", str(p), "--format", "json"])
    checks = {c["check"]: c for c in json.loads(text)["checks"]}
    assert checks[name]["skipped"] is True and need in checks[name]["note"]
    others = [c for n, c in checks.items() if n != name]
    assert others and not any(c.get("skipped") for c in others)
    assert code == (0 if all(c["passed"] for c in others) else 1)
    code2, text2 = run(["check", str(p), "--format", "text"])
    assert code2 == code
    assert f"{name}: SKIP (degree 0)\n  note: " in text2 and need in text2
    # an explicitly requested degree the table cannot support stays exit 2
    assert run(["check", str(p), "--checks", name,
                "--max-degree", "0"]) == (2, "")


INSIDE_THE_RANGE = [
    # cojacobi-coeffs reads the table at N + 1, so it runs at 2 of 3
    ({"kind": "copoisson", "variables": ["x1", "x2", "x3"], "max_degree": 3,
      "payload": {"rows": [
          {"monomial": "x1", "lambda": [[1, 2, "1"], [2, 3, "2"]]},
          {"monomial": "x2*x3", "lambda": [[1, 3, "-1/2"]]},
          {"monomial": "x1^2*x3", "lambda": [[1, 2, "3"]]}]}},
     "cojacobi-coeffs", 2),
    # (q (x) 1) q(x1^2) needs q at degree 3, past the bound 2
    ({"kind": "qmap", "variables": ["x1", "x2"], "max_degree": 2,
      "payload": {"rows": [
          {"monomial": "x1", "tensor": [["x1", "x2", "1"],
                                        ["x2", "x1", "-1"]]},
          {"monomial": "x2", "tensor": [["x1", "x2", "1"]]},
          {"monomial": "x1^2", "tensor": [["x1^3", "x2", "1"],
                                          ["x2", "x1^3", "-1"]]}]}},
     "cojacobi", 1),
]


@pytest.mark.parametrize("doc, name, degree", INSIDE_THE_RANGE,
                         ids=["copoisson", "qmap"])
def test_default_degree_steps_down_to_the_largest_affordable(tmp_path, doc,
                                                             name, degree):
    # a default degree strictly between 0 and max_degree: the check's
    # default report is its report at that degree, asked for explicitly
    assert 0 < degree < doc["max_degree"]
    p = tmp_path / "spec.json"
    p.write_text(dump_json(doc))
    default = run(["check", str(p), "--format", "json"])[1]
    (report,) = [c for c in json.loads(default)["checks"]
                 if c["check"] == name]
    code, explicit = run(["check", str(p), "--checks", name, "--format",
                          "json", "--max-degree", str(degree)])
    assert report == json.loads(explicit)["checks"][0]
    assert report["degree_checked"] == degree and "skipped" not in report
    assert code == (0 if report["passed"] else 1)
    assert run(["check", str(p), "--checks", name, "--max-degree",
                str(degree + 1)]) == (2, "")


@pytest.mark.parametrize("doc", [
    {"kind": "copoisson", "variables": ["x1", "x2"], "max_degree": True,
     "payload": {"rows": []}},
    {"kind": "copoisson", "variables": ["x1", "x2"], "max_degree": 1,
     "payload": {"rows": [{"monomial": "x1", "lambda": [[True, 2, "1"]]}]}},
    {"kind": "struct_consts", "variables": ["x1", "x2"], "max_degree": 1,
     "payload": {"lambda": [[1, 2, True, "1"]]}},
])
def test_bool_is_not_an_integer(tmp_path, doc):
    with pytest.raises(SpecFormatError):
        spec_from_dict(doc)
    p = tmp_path / "spec.json"
    p.write_text(dump_json(doc))
    code, text = run(["check", str(p)])
    assert code == 3
    assert "PASS" not in text


def test_finhopf_dim_rejects_bool():
    with open(H4) as fh:
        doc = json.load(fh)
    doc["payload"]["dim"] = True
    with pytest.raises(SpecFormatError,
                       match="dim must be a positive integer"):
        spec_from_dict(doc)


def test_eps_s_reuses_the_compat_report(tmp_path, monkeypatch):
    # eps-s sorts first, reads the poisson-hopf verdict and is skipped
    # exactly when that verdict is a failure; compat runs once per check
    import copoisson.checks
    import copoisson.cli

    calls = []
    compat = copoisson.checks.check_poisson_hopf_compat

    def counted(B, N):
        calls.append(N)
        return compat(B, N)

    for mod in (copoisson.checks, copoisson.cli):
        monkeypatch.setattr(mod, "check_poisson_hopf_compat", counted)
    quad = tmp_path / "quad.json"
    quad.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2"], "max_degree": 3,
        "payload": {"brackets": {"1,2": "x1^2"}, "mode": "polynomial"}}))
    seen = set()
    for path in (SO3, str(quad)):
        code, text = run(["check", path, "--format", "json",
                          "--max-degree", "3"])
        checks = [c["check"] for c in json.loads(text)["checks"]]
        assert checks.index("eps-s-morphisms") < checks.index("poisson-hopf")
        by_name = {c["check"]: c for c in json.loads(text)["checks"]}
        passed = by_name["poisson-hopf"]["passed"]
        assert by_name["eps-s-morphisms"].get("skipped", False) == (not passed)
        seen.add(passed)
    assert seen == {True, False}
    assert calls == [3, 3]


def test_transform_struct_consts_to_copoisson():
    code, text = run(["transform", SO3, "--to", "copoisson"])
    assert code == 0
    out = json.loads(text)["transforms"][0]["output"]
    assert out["kind"] == "copoisson"
    monos = [r["monomial"] for r in out["payload"]["rows"]]
    assert monos == ["x1", "x2", "x3"]


def test_transform_copoisson_series_roundtrip():
    code, text = run(["transform", COP_D2, "--to", "series"])
    assert code == 0
    series_doc = json.loads(text)["transforms"][0]["output"]
    assert series_doc["kind"] == "poisson"
    assert series_doc["payload"]["mode"] == "series"
    # back again: the round trip is the identity on canonical documents
    spec = spec_from_dict(series_doc)
    from copoisson.structures import copoisson_from_series
    from copoisson.fileformat import copoisson_payload
    back = copoisson_payload(copoisson_from_series(spec.structure),
                             series_doc["variables"])
    with open(COP_D2) as fh:
        assert back == json.load(fh)["payload"]


def test_transform_q_i_roundtrip(tmp_path):
    code, text = run(["transform", COP_D2, "--to", "q"])
    assert code == 0
    qdoc = json.loads(text)["transforms"][0]["output"]
    assert qdoc["kind"] == "qmap"
    p = tmp_path / "q.json"
    p.write_text(dump_json(qdoc))
    code2, text2 = run(["transform", str(p), "--to", "i"])
    assert code2 == 0
    idoc = json.loads(text2)["transforms"][0]["output"]
    with open(COP_D2) as fh:
        orig = json.load(fh)
    assert idoc["payload"] == orig["payload"]


def test_transform_p_j_roundtrip(tmp_path):
    code, text = run(["transform", COUNTEREX, "--to", "p"])
    assert code == 0
    pdoc = json.loads(text)["transforms"][0]["output"]
    assert pdoc["kind"] == "pmap"
    f = tmp_path / "p.json"
    f.write_text(dump_json(pdoc))
    code2, text2 = run(["transform", str(f), "--to", "j"])
    assert code2 == 0
    jdoc = json.loads(text2)["transforms"][0]["output"]
    with open(COUNTEREX) as fh:
        orig = json.load(fh)
    assert jdoc["payload"]["brackets"] == orig["payload"]["brackets"]
    assert hashlib.sha256(text2.encode("utf-8")).hexdigest() == (
        "43fcce21a15fdc1f1c6cc3de8f901309755411647ffb60b9c7621cfb6be08be9")


def pmap_of(tmp_path, brackets, max_degree, edit=None):
    """Write the `--to p` output of a three-variable bracket, edited."""
    src = tmp_path / "bracket.json"
    src.write_text(dump_json({
        "kind": "poisson", "variables": ["x1", "x2", "x3"],
        "max_degree": max_degree,
        "payload": {"brackets": brackets, "mode": "polynomial"}}))
    code, text = run(["transform", str(src), "--to", "p"])
    assert code == 0
    doc = json.loads(text)["transforms"][0]["output"]
    if edit:
        edit(doc["payload"]["rows"])
    path = tmp_path / "p.json"
    path.write_text(dump_json(doc))
    return str(path)


def drop(pair):
    def edit(rows):
        rows[:] = [r for r in rows if r["pair"] != pair]
    return edit


@pytest.mark.parametrize("edit, max_degree, pair", [
    (drop(["x1^2", "x2^2"]), 2, "p(x1^2, x2^2)"),
    # {(x1, x2): 1} alone: not skew
    (drop(["x2", "x1"]), 1, "p(x2, x1)"),
    (drop(["x2", "x1"]), 2, "p(x2, x1)"),
    (lambda rows: rows.append({"pair": ["x1", "x1"], "value": "x2"}),
     1, "p(x1, x1)"),
])
def test_pmap_of_no_bracket_is_rejected(tmp_path, capsys, edit, max_degree,
                                        pair):
    path = pmap_of(tmp_path, {"1,2": "1"}, max_degree, edit)
    code, text, err = run_stderr(["transform", path, "--to", "j"], capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert pair in err


def test_pmap_to_j_reads_only_generator_pairs(tmp_path, monkeypatch):
    import copoisson.cli

    calls = []
    j_from_p = copoisson.cli.j_from_p

    def counted(p, a, b):
        calls.append((a, b))
        return j_from_p(p, a, b)

    monkeypatch.setattr(copoisson.cli, "j_from_p", counted)
    path = pmap_of(tmp_path, {"1,2": "x3", "2,3": "x1", "1,3": "-x2"}, 2)
    assert run(["transform", path, "--to", "j"])[0] == 0
    assert len(calls) <= 3  # C(3, 2)


def test_qmap_of_no_itable_is_rejected(tmp_path, capsys):
    p = tmp_path / "q.json"
    p.write_text(dump_json({
        "kind": "qmap", "variables": ["x1", "x2"], "max_degree": 1,
        "payload": {"rows": [{"monomial": "x1",
                              "tensor": [["x1", "x2", "1"]]}]}}))
    code, text, err = run_stderr(["transform", str(p), "--to", "i"], capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "I(x1)" in err


def test_qmap_rejection_uses_the_file_variables(tmp_path, capsys):
    p = tmp_path / "q.json"
    p.write_text(dump_json({
        "kind": "qmap", "variables": ["a", "b"], "max_degree": 1,
        "payload": {"rows": [{"monomial": "a",
                              "tensor": [["a", "b", "1"]]}]}}))
    code, text, err = run_stderr(["transform", str(p), "--to", "i"], capsys)
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "I(a)" in err and "x1" not in err


def test_transform_inapplicable():
    assert run(["transform", COUNTEREX, "--to", "copoisson"])[0] == 2
    assert run(["transform", SO3, "--to", "series"])[0] == 2


def test_classify_h4_dimensions():
    for structure, hopf, dim in (("poisson", False, 2),
                                 ("poisson", True, 0),
                                 ("copoisson", False, 2),
                                 ("copoisson", True, 0)):
        args = ["classify-h4", "--structure", structure, "--format", "json"]
        if hopf:
            args.append("--hopf")
        code, text = run(args)
        assert code == 0
        fam = json.loads(text)["families"][0]
        assert fam["dimension"] == dim
        assert fam["quadratic_residual_zero"] is True


def test_relations_counts():
    code, text = run(["relations", "--dim", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 16  # C(4,3) * 4
    code2, text2 = run(["relations", "--dim", "2", "--format", "json"])
    assert json.loads(text2)["count"] == 0
    assert run(["relations", "--dim", "1"])[0] == 2


def test_usage_error_exit_code():
    assert main(["transform", SO3]) == 2  # missing --to
