"""Byte-for-byte pins of the CLI output on the fixtures.

Each case runs `cli.main` in process and compares the sha256 of stdout and
the exit code with values recorded from a known-good build.  A refactor
that keeps behaviour must keep every digest; a deliberate change of output
must update the digest it changes and say why.
"""

import hashlib
import io
import json

import pytest

from copoisson.cli import build_parser, main
from copoisson.fileformat import dump_json

from conftest import FIXTURES


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixture_args(args):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args]


GOLDEN = [
    (["check", "so3.json", "--format", "json"],
     0, "308d70845a3308df080030c2b7c7288531164d1b52f0c722ba08bf55aee311c2"),
    (["check", "counterex_n5.json", "--format", "json"],
     0, "d71613f427aaeee102d75d0e79de424867bda6f8a085d029a21b2d7b38b679b0"),
    (["check", "copoisson_d2.json", "--format", "json"],
     1, "be98b26a4b6351c5680011f713cfd5e9598ce0a369e348cebf3c2bd98ded6229"),
    (["check", "copoisson_d2.json", "--format", "text"],
     1, "e4465385e691ab1470d1cd1e23250343dc073ad3f36c90ba27bb047b04404698"),
    (["check", "h4.json", "--format", "json"],
     0, "1ba9e34ee303c2c2dc886d18187178f1cddab21d5caa7ec2e44441e614225901"),
    (["transform", "so3.json", "--to", "copoisson"],
     0, "3b8bf80690e8baffa520d814c12f17e8c006f1c9748b3b69b15c14deed0807e7"),
    (["transform", "counterex_n5.json", "--to", "p"],
     0, "10f3b3eb05d54bb900e7a7593c329f86a56e98fd177e6be3147077456642f159"),
    (["transform", "copoisson_d2.json", "--to", "q"],
     0, "2e15a0704a61717b8ac64c3c3b719623c2743609fce0e2e7a7ef0cfa1d176ebd"),
    (["transform", "copoisson_d2.json", "--to", "series"],
     0, "f5f836133d0ed35fdc9b30aaa1de04e6c9833f45fa3f3023ccc75fa1064b1b5f"),
    (["classify-h4", "--structure", "poisson", "--format", "text"],
     0, "49e60ee51b79db730b0767081fd19df279e507f2cb68fbf2a1d7a92bde883c34"),
    (["classify-h4", "--structure", "poisson", "--format", "text", "--hopf"],
     0, "ebdb457eb91f0dda6653dd47cf75fe57f77bd0fada5060592ce3b255f9179fe4"),
    (["classify-h4", "--structure", "copoisson", "--format", "text"],
     0, "4d86ab43d13d2a9869db27b66117761f4a8a91528412c52ad0dbc7cb33333ccc"),
    (["classify-h4", "--structure", "copoisson", "--format", "text",
      "--hopf"],
     0, "57028f42e4832298274a7e5ab41664f420c062be48e23a18b123e40de38cdc39"),
    (["classify-h4", "--structure", "poisson", "--format", "json"],
     0, "6d3f9e2ca35a43a337113cdc5f78807a34093c83ffad7639daa3b37166846be2"),
    (["classify-h4", "--structure", "poisson", "--format", "json", "--hopf"],
     0, "ecfacbacd590072aacecb1a75d3330c42aac2a4650b63b9d7758be69b45d1197"),
    (["classify-h4", "--structure", "copoisson", "--format", "json"],
     0, "f788b5a4775604ff57732c72ce555a4171d398ec3dc9056370e33bb2b9716d2c"),
    (["classify-h4", "--structure", "copoisson", "--format", "json",
      "--hopf"],
     0, "5220615e3e9f885046378ebd3a0faf122b2ac40526b45657c074086e6b070f7f"),
    (["check", "quadratic_d3.json", "--format", "json"],
     1, "15ece1d9448b172cda6997342fb4c4351a591857955ddc5c416d708a7f9db506"),
    (["check", "quadratic_d3.json", "--format", "text"],
     1, "50bcf81c613788bf9f5c39e052a181ceb223d3597c8b42c06ed3d609b565d068"),
    (["transform", "quadratic_d3.json", "--to", "p"],
     0, "b818116b768f53f65bb5f39686e49c5dd2fa7edb8e6f06b9dce7432dda83aa1a"),
    (["relations", "--dim", "4"],
     0, "0cadddc3899d8dfd2e1ed1e5a58dcde3c0b0a5d3142d8e634e21b507742b03a7"),
    (["relations", "--dim", "4", "--format", "json"],
     0, "da7854513aac3f36f9da7ce9b27b139dcd2b56a412cbf3a64e451e9ac5b3f413"),
    # so(3) plus lambda[2,3]_3 = 1: not a Lie algebra, so both the Jacobi
    # identity and the structure-constant relations have witnesses
    (["check", "nonlie_d3.json", "--format", "json"],
     1, "073b12278a1188247aedfba6559a322a99ccbd1be8eff847223df2c61f02f969"),
    (["check", "nonlie_d3.json", "--format", "text"],
     1, "943f6fa5857d54876ac23d3a8e58921db6db805229393e635035bdc747a596c8"),
    # fractional co-side witnesses: skew, counit-kill, co-Leibniz and
    # co-Jacobi residuals of a qmap, and co-Jacobi in both forms of an I-table
    (["check", "qmap_fractional.json", "--format", "json"],
     1, "9a1e6ef326391907e8175dd8e352d273e91e57a37ddb52916064e7b045f82745"),
    (["check", "qmap_fractional.json", "--format", "text"],
     1, "2c49a3e6a16c0c89aa152c5d769effaf3996be0a4556255a3e87b82e4da8b888"),
    (["check", "copoisson_fractional_d3.json", "--format", "json"],
     1, "cd48531eb0ec7725ab36822450bbe8f1c7d16a76981491816efadc9fed944e79"),
    (["check", "copoisson_fractional_d3.json", "--format", "text"],
     1, "84dc72aa10f8cb79dc20eb68199e57868f7b2714068f0d700833d441d0ed960c"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_cli_output_is_pinned(args, code, digest):
    got_code, text = run(fixture_args(args))
    assert (got_code, sha256(text)) == (code, digest)


# second-stage transforms: the first output document, written canonically,
# is transformed again
CHAINED = [
    ("so3.json", "copoisson", "q",
     0, "2435fcd199f0438e8168be8371e4fd038b6c2239b465940ba05ef278011b5233"),
    ("so3.json", "copoisson", "series",
     0, "ec961ba2425df736539da6d421e131cdcf6e1128cc152c5b9342e68be3146cf7"),
    ("copoisson_d2.json", "q", "i",
     0, "04aa21e74f866fee24079cfa988d1d19cdd8e95bc16031b0aa05aee718aa3216"),
    ("copoisson_d2.json", "series", "copoisson",
     0, "bb3968c96724fefb9a174697e5fa5d2c835ec598021dbe9b5f7f0ad10e2d2c29"),
]


@pytest.mark.parametrize("fixture,first,second,code,digest", CHAINED,
                         ids=[f"{f} --to {a} --to {b}"
                              for f, a, b, _, _ in CHAINED])
def test_chained_transform_is_pinned(tmp_path, fixture, first, second, code,
                                     digest):
    first_code, text = run(["transform", str(FIXTURES / fixture),
                            "--to", first])
    assert first_code == 0
    mid = tmp_path / "mid.json"
    mid.write_text(dump_json(json.loads(text)["transforms"][0]["output"]))
    got_code, text2 = run(["transform", str(mid), "--to", second])
    assert (got_code, sha256(text2)) == (code, digest)



def test_reused_argument_parser_changes_nothing(tmp_path, capsys):
    # one process, one cached parser: the golden list, then a usage error,
    # --help and a malformed file, then the golden list in reverse
    assert build_parser() is build_parser()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    between = [(["check"], 2), (["relations", "--dim", "x"], 2),
               (["--help"], 0), (["check", "--help"], 0),
               (["check", str(bad)], 3),
               (["transform", str(bad), "--to", "q"], 3)]
    for args, code, digest in GOLDEN:
        got_code, text = run(fixture_args(args))
        assert (got_code, sha256(text)) == (code, digest), args
    for args, code in between:
        assert run(args) == (code, ""), args
    capsys.readouterr()
    for args, code, digest in reversed(GOLDEN):
        got_code, text = run(fixture_args(args))
        assert (got_code, sha256(text)) == (code, digest), args
