import io
import json
import math
import re

import pytest

from attackquant import (
    AtDocument,
    GateType,
    InvariantError,
    ParseError,
    UnknownEntityError,
    read_at,
    write_at,
)
from helpers import wocao_entry_tree


@pytest.fixture
def entry_doc(fixtures):
    return read_at(str(fixtures / "wocao-initial-access.at.json"))


@pytest.fixture
def intervals_doc(fixtures):
    return read_at(str(fixtures / "wocao-initial-access-intervals.at.json"))


def doc_from(payload: dict) -> AtDocument:
    return read_at(io.StringIO(json.dumps(payload)))


def leaf_file(**node_fields) -> dict:
    return {
        "format": "at/1",
        "root": "x",
        "nodes": [{"id": "x", "type": "BAS", **node_fields}],
    }


def test_wocao_entry_document_shape(entry_doc):
    tree = entry_doc.tree
    assert tree.root == "InA"
    assert tree.node("EVJ").type is GateType.OR
    assert tree.node("VPN").type is GateType.AND
    assert tree.node("CVE1").technique == "T1190"
    assert tree.node("GVC").technique == "T1078"
    assert entry_doc.prob["CVE1"] == (0.5, 0.5)
    assert entry_doc.attrs["mincost"]["CVE2"] == (3.0, 3.0)


def test_point_and_interval_views(entry_doc, intervals_doc):
    point = entry_doc.attribution("maxprob")
    assert point == {"CVE1": 0.5, "CVE2": 0.5, "GVC": 0.5, "CVP": 0.5}
    spans = intervals_doc.attribution("maxprob")
    assert spans["CVE1"] == (0.1, 0.3)
    assert spans["CVE2"] == 0.2


def test_security_index_is_derived_with_swapped_ends(intervals_doc):
    spans = intervals_doc.attribution("security-index")
    lo, hi = spans["CVE1"]
    assert lo == pytest.approx(-math.log(0.3), abs=1e-12)
    assert hi == pytest.approx(-math.log(0.1), abs=1e-12)
    assert lo < hi


def test_security_index_of_certain_step_is_plain_zero():
    doc = doc_from(leaf_file(prob=1.0))
    value = doc.attribution("security-index")["x"]
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_security_index_of_impossible_step_is_infinite():
    doc = doc_from(leaf_file(prob=0.0))
    assert doc.attribution("security-index")["x"] == math.inf


def test_attributions_collects_loads(entry_doc):
    maps = entry_doc.attributions()
    assert set(maps) == {"maxprob", "security-index", "mincost"}
    assert maps["mincost"]["GVC"] == 11.0


def test_unknown_load_in_attrs():
    with pytest.raises(UnknownEntityError):
        doc_from(leaf_file(attrs={"entropy": 3}))


@pytest.mark.parametrize("load", ["maxprob", "security-index"])
def test_probability_loads_in_attrs_rejected(load):
    # Both loads read prob/prob_interval only, so such an entry would be ignored.
    with pytest.raises(InvariantError, match="prob or prob_interval") as caught:
        doc_from(leaf_file(attrs={load: 0.9}))
    assert caught.value.exit_code == 3


def test_prob_and_interval_are_exclusive():
    with pytest.raises(InvariantError):
        doc_from(leaf_file(prob=0.5, prob_interval=[0.1, 0.2]))


def test_prob_on_gate_rejected():
    payload = {
        "format": "at/1",
        "root": "g",
        "nodes": [
            {"id": "g", "type": "OR", "children": ["x"], "prob": 0.5},
            {"id": "x", "type": "BAS"},
        ],
    }
    with pytest.raises(InvariantError):
        doc_from(payload)


def test_attrs_on_gate_rejected():
    payload = {
        "format": "at/1",
        "root": "g",
        "nodes": [
            {"id": "g", "type": "OR", "children": ["x"], "attrs": {"mincost": 1}},
            {"id": "x", "type": "BAS"},
        ],
    }
    with pytest.raises(InvariantError):
        doc_from(payload)


@pytest.mark.parametrize(
    "fields",
    [
        {"prob": 1.5},
        {"prob": -0.1},
        {"prob_interval": [0.5, 0.2]},
        {"attrs": {"mincost": -3}},
        {"attrs": {"maxprob": [0.2, 1.4]}},
    ],
)
def test_domain_violations(fields):
    with pytest.raises(InvariantError):
        doc_from(leaf_file(**fields))


@pytest.mark.parametrize(
    "fields",
    [
        {"prob": "0.5"},
        {"prob": True},
        {"prob_interval": [0.1]},
        {"prob_interval": [0.1, 0.2, 0.3]},
        {"attrs": 7},
        {"label": 9},
    ],
)
def test_shape_violations(fields):
    with pytest.raises(ParseError):
        doc_from(leaf_file(**fields))


DOCUMENT_ERRORS = [
    ("{broken", "attack tree file is not valid JSON: "),
    ("[]", "attack tree file: top level must be an object"),
    ('{"format": "at/2", "root": "x", "nodes": []}',
     "attack tree file: missing or unsupported format marker"),
    ('{"format": "at/1", "nodes": []}', "attack tree file: 'root' must be a node id"),
    ('{"format": "at/1", "root": "x", "nodes": {}}', "attack tree file: 'nodes' must be a list"),
    ('{"format": "at/1", "root": "x", "nodes": [{"id": "x", "type": "NOR"}]}',
     "node 'x': unknown type 'NOR'"),
    ('{"format": "at/1", "root": "x", "nodes": [{"type": "BAS"}]}',
     "attack tree file: node without a string id"),
    ('{"format": "at/1", "root": "x", "nodes": [4]}',
     "attack tree file: each node must be an object"),
    ('{"format": "at/1", "root": "x", "nodes": [{"id": "x", "type": "OR", "children": "y"}]}',
     "node 'x': 'children' must be a list of ids"),
]


@pytest.mark.parametrize(
    ("payload", "message"), DOCUMENT_ERRORS, ids=[payload for payload, _ in DOCUMENT_ERRORS]
)
def test_document_level_parse_errors(payload, message):
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        read_at(io.StringIO(payload))


def test_unknown_fields_survive_round_trip(tmp_path):
    payload = {
        "format": "at/1",
        "root": "x",
        "author": "red team",
        "nodes": [{"id": "x", "type": "BAS", "prob": 0.5, "note": "keep me"}],
    }
    doc = doc_from(payload)
    assert doc.top_extras["author"] == "red team"
    assert doc.node_extras["x"]["note"] == "keep me"
    out = tmp_path / "rt.json"
    write_at(doc, str(out))
    data = json.loads(out.read_text())
    assert data["author"] == "red team"
    assert data["nodes"][0]["note"] == "keep me"


def test_degenerate_interval_written_as_scalar(tmp_path):
    doc = doc_from(leaf_file(prob_interval=[0.4, 0.4]))
    out = tmp_path / "rt.json"
    write_at(doc, str(out))
    assert json.loads(out.read_text())["nodes"][0]["prob"] == 0.4


def test_fixture_files_are_canonical(fixtures, tmp_path):
    for name in (
        "wocao-initial-access.at.json",
        "wocao-initial-access-intervals.at.json",
        "wocao-custom.at.json",
        "dreamjob-custom.at.json",
    ):
        path = fixtures / name
        out = tmp_path / name
        write_at(read_at(str(path)), str(out))
        assert out.read_bytes() == path.read_bytes(), name


def test_document_construction_from_scratch(tmp_path):
    tree = wocao_entry_tree()
    doc = AtDocument(tree, {b: (0.5, 0.5) for b in tree.bas_ids})
    out = tmp_path / "made.json"
    write_at(doc, str(out))
    again = read_at(str(out))
    assert again.tree.root == "InA"
    assert again.attribution("maxprob")["GVC"] == 0.5
