"""dump_json against the json module text it must reproduce.

The reference is json.dumps(obj, indent=2, sort_keys=True) plus a newline:
2-space indent, sorted keys, non-ASCII written as \\uXXXX.  dump_json writes
those bytes itself; it is compared here on generated JSON trees, on every
fixture, on the report document of every golden command and on the
largest `relations` report the tests emit.
"""

import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from copoisson import cli
from copoisson.fileformat import dump_json, load_spec, spec_to_dict

from conftest import FIXTURES
from test_golden import GOLDEN, fixture_args


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


special = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
                           "é", " ", "\ud800", "😀", "ÿ", " "])
strings = st.lists(st.one_of(special, st.text(max_size=4)), max_size=5).map("".join)
scalars = st.one_of(
    st.none(), st.booleans(), strings, st.floats(),
    st.integers(), st.integers(min_value=2**64 - 2, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**64))
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(trees)
@example({"a": [], "b": {}, "c": ((), [{}]), "d": [True, False, None],
          "e": 2**64 + 1, "f": -(2**70), "g": "\"\\\x00é😀"})
def test_generated_trees_match_json_dumps(obj):
    assert dump_json(obj) == reference(obj)


def test_unserializable_value_raises_like_json():
    for obj in ({"a": object()}, [1, {2, 3}]):
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            dump_json(obj)


FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
def test_fixtures_match_json_dumps(path):
    doc = json.loads(path.read_text())
    assert dump_json(doc) == reference(doc)
    canonical = spec_to_dict(load_spec(path))
    assert dump_json(canonical) == reference(canonical)


def report_documents(monkeypatch, argv):
    """The to_dict() of every report `cli.main(argv)` emits, whatever the
    format, as the command built it (tuples included)."""
    docs = []
    emit = cli._emit

    def recording_emit(report, fmt, out):
        docs.append(report.to_dict())
        return emit(report, fmt, out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    cli.main(argv, io.StringIO())
    return docs


@pytest.mark.parametrize(
    "args", [a for a, _, _ in GOLDEN] + [["relations", "--dim", "8",
                                          "--format", "json"]],
    ids=lambda a: " ".join(a))
def test_report_documents_match_json_dumps(monkeypatch, args):
    docs = report_documents(monkeypatch, fixture_args(args))
    assert len(docs) == 1
    assert dump_json(docs[0]) == reference(docs[0])
