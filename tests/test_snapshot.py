import copy
import io
import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attackquant
from attackquant import (
    Campaign,
    InvariantError,
    KnowledgeSnapshot,
    ParseError,
    Tactic,
    Technique,
    UnknownEntityError,
    likelihoods,
    load_snapshot,
    normalize_usage,
    save_snapshot,
    write_likelihood_csv,
)
from attackquant.snapshot import used_pairs
from helpers import snapshot_from_usage, snapshot_to_dict


@pytest.fixture
def toy(fixtures):
    return load_snapshot(str(fixtures / "toy-two-campaigns.snapshot.json"))


@pytest.fixture
def miniature(fixtures):
    return load_snapshot(str(fixtures / "miniature.snapshot.json"))


def test_toy_likelihoods_are_exact(toy):
    probs = likelihoods(toy)
    assert probs.prob("E1", "A1") == Fraction(2, 3)
    assert probs.prob("E2", "A1") == Fraction(1, 3)
    assert probs.prob("E3", "A1") == Fraction(0)
    assert probs.prob("E2", "A2") == Fraction(1, 2)
    assert probs.prob("E3", "A2") == Fraction(1, 2)


def test_miniature_likelihoods(miniature):
    probs = likelihoods(miniature)
    assert probs.prob("E1", "A1") == Fraction(1, 2)
    assert probs.prob("E2.2", "A1") == Fraction(1, 4)
    assert probs.prob("E2.3", "A1") == Fraction(1, 8)
    assert probs.prob("E3", "A1") == Fraction(1, 8)


def test_prob_matrix_errors(toy):
    probs = likelihoods(toy)
    with pytest.raises(UnknownEntityError):
        probs.prob("E1", "A9")
    with pytest.raises(UnknownEntityError):
        probs.prob("E9", "A1")


def test_tactic_without_usage_has_no_likelihoods():
    snap = snapshot_from_usage(
        {"A1": ["P"], "A2": ["P"]},
        {},
        {"C1": [("A1", "P")]},
    )
    probs = likelihoods(snap)
    assert probs.prob("P", "A1") == 1
    with pytest.raises(UnknownEntityError):
        probs.prob("P", "A2")
    assert {tactic for _, tactic, _ in probs.entries()} == {"A1"}


def test_normalization_cases():
    snap = snapshot_from_usage(
        {"A": ["P", "Q"]},
        {"P": ["P.1", "P.2"]},
        {
            "F": [("A", "P.1")],
            "C": [("A", "P")],
            "M": [("A", "P"), ("A", "P.2")],
            "L": [("A", "Q")],
        },
    )
    assert normalize_usage(snap, "F", "A") == {"P.1"}
    assert normalize_usage(snap, "C", "A") == {"P.1", "P.2"}
    assert normalize_usage(snap, "M", "A") == {"P.2"}
    assert normalize_usage(snap, "L", "A") == {"Q"}


def test_normalization_is_per_tactic():
    snap = snapshot_from_usage(
        {"A1": ["P"], "A2": ["P"]},
        {"P": ["P.1", "P.2"]},
        {"C": [("A1", "P.1"), ("A2", "P")]},
    )
    assert normalize_usage(snap, "C", "A1") == {"P.1"}
    assert normalize_usage(snap, "C", "A2") == {"P.1", "P.2"}


def test_normalize_usage_unknown_ids(toy):
    with pytest.raises(UnknownEntityError):
        normalize_usage(toy, "nope", "A1")
    with pytest.raises(UnknownEntityError):
        normalize_usage(toy, "C1", "nope")


def test_entries_sorted_and_nonzero(toy):
    rows = likelihoods(toy).entries()
    assert rows == [
        ("E1", "A1", Fraction(2, 3)),
        ("E2", "A1", Fraction(1, 3)),
        ("E2", "A2", Fraction(1, 2)),
        ("E3", "A2", Fraction(1, 2)),
    ]


def test_likelihood_csv(toy):
    buf = io.StringIO()
    write_likelihood_csv(likelihoods(toy), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "technique,tactic,probability"
    assert lines[1] == "E1,A1,0.666666666667"
    assert lines[2] == "E2,A1,0.333333333333"
    assert lines[3] == "E2,A2,0.5"
    assert len(lines) == 5


def test_campaign_matrix(toy):
    used = used_pairs(toy, "C1")
    assert ("E1", "A1") in used
    assert ("E2", "A2") in used
    assert ("E2", "A1") not in used


def test_subtechnique_helpers(miniature):
    assert miniature.subtechniques_of("E2") == ("E2.1", "E2.2", "E2.3")
    assert miniature.subtechniques_of("E1") == ()


def test_accessor_errors(toy):
    with pytest.raises(UnknownEntityError):
        toy.technique("E9")
    with pytest.raises(UnknownEntityError):
        toy.tactic("A9")
    with pytest.raises(UnknownEntityError):
        toy.campaign("C9")


def test_save_load_round_trip_is_byte_stable(toy, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    save_snapshot(toy, str(first))
    save_snapshot(load_snapshot(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_fixture_files_are_canonical(fixtures, tmp_path):
    for name in ("toy-two-campaigns.snapshot.json", "miniature.snapshot.json"):
        path = fixtures / name
        out = tmp_path / name
        save_snapshot(load_snapshot(str(path)), str(out))
        assert out.read_bytes() == path.read_bytes()


# Every string field draws from all of Unicode, weighted towards what JSON escapes.
TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\x80\xe9\u2028\uffff\U0001f600\U0010ffff')
    | st.characters(),
    max_size=5,
)


@st.composite
def snapshots(draw):
    ids = st.lists(TEXT, unique=True, max_size=4)
    tactic_ids = draw(ids)
    techniques: list[Technique] = []
    for tech_id in draw(ids):
        parents = [t.id for t in techniques if t.parent is None]
        parent = draw(st.none() | st.sampled_from(parents)) if parents else None
        tags = draw(st.lists(st.sampled_from(tactic_ids), unique=True)) if tactic_ids else []
        techniques.append(Technique(tech_id, draw(TEXT), parent, tuple(tags)))
    pairs = [(tactic, t.id) for t in techniques for tactic in t.tactics]
    uses = st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([])
    campaigns = [Campaign(cid, draw(TEXT), frozenset(draw(uses))) for cid in draw(ids)]
    return KnowledgeSnapshot(
        draw(TEXT), [Tactic(t, draw(TEXT)) for t in tactic_ids], techniques, campaigns
    )


@settings(max_examples=80, deadline=None)
@given(snapshots())
@example(KnowledgeSnapshot("", [], [], []))
@example(KnowledgeSnapshot("v", [Tactic("A", "")], [Technique("T", "T", None, ())],
                           [Campaign("C", "C", frozenset())]))
def test_writer_equals_the_generic_encoder(snap):
    buf = io.StringIO()
    save_snapshot(snap, buf)
    assert buf.getvalue() == json.dumps(snapshot_to_dict(snap), indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        '{"format": "snapshot/2"}',
        '{"format": "snapshot/1", "version": 3, "tactics": [], "techniques": [], "campaigns": []}',
        '{"format": "snapshot/1", "version": "v", "tactics": [{"id": "A"}], "techniques": [], "campaigns": []}',
        '{"format": "snapshot/1", "version": "v"}',
        "[1, 2]",
    ],
)
def test_load_snapshot_parse_errors(payload):
    with pytest.raises(ParseError):
        load_snapshot(io.StringIO(payload))


def test_construction_invariants():
    with pytest.raises(InvariantError):
        KnowledgeSnapshot(
            "v", [Tactic("A", "A"), Tactic("A", "A")], [], [Campaign("C", "C", frozenset())]
        )
    with pytest.raises(InvariantError):
        KnowledgeSnapshot(
            "v",
            [Tactic("A", "A")],
            [Technique("T", "T", "missing", ("A",))],
            [],
        )
    # three-level nesting is rejected
    with pytest.raises(InvariantError):
        KnowledgeSnapshot(
            "v",
            [Tactic("A", "A")],
            [
                Technique("T", "T", None, ("A",)),
                Technique("T.1", "T.1", "T", ("A",)),
                Technique("T.1.1", "T.1.1", "T.1", ("A",)),
            ],
            [],
        )
    # usage must match the technique's tactic tags
    with pytest.raises(InvariantError):
        KnowledgeSnapshot(
            "v",
            [Tactic("A", "A"), Tactic("B", "B")],
            [Technique("T", "T", None, ("A",))],
            [Campaign("C", "C", frozenset({("B", "T")}))],
        )


@pytest.mark.parametrize(
    "tactics, techniques, campaigns, message",
    [
        pytest.param([], [Technique("T", "T", None, ()), Technique("T", "T", None, ())], [],
                     "duplicate technique id 'T'", id="duplicate technique"),
        pytest.param([], [], [Campaign("C", "C", frozenset()), Campaign("C", "C", frozenset())],
                     "duplicate campaign id 'C'", id="duplicate campaign"),
        pytest.param([Tactic("A", "A")], [Technique("T", "T", None, ("B",))], [],
                     "technique 'T': undeclared tactic 'B'", id="undeclared tactic tag"),
        pytest.param([Tactic("A", "A")], [Technique("T", "T", None, ("A",))],
                     [Campaign("C", "C", frozenset({("Z", "T")}))],
                     "campaign 'C': uses undeclared tactic 'Z'", id="usage of undeclared tactic"),
        pytest.param([Tactic("A", "A")], [Technique("T", "T", None, ("A",))],
                     [Campaign("C", "C", frozenset({("A", "X")}))],
                     "campaign 'C': uses undeclared technique 'X'",
                     id="usage of undeclared technique"),
    ],
)
def test_construction_invariant_messages(tactics, techniques, campaigns, message):
    with pytest.raises(InvariantError) as caught:
        KnowledgeSnapshot("v", tactics, techniques, campaigns)
    assert str(caught.value) == message


def test_invariant_message_does_not_follow_the_hash_seed():
    # Several bad usage pairs: every process names the first in sorted order.
    code = (
        "from attackquant import Campaign, KnowledgeSnapshot, Tactic, Technique\n"
        "uses = frozenset([('A', f'X{i}') for i in range(8)] + [('B', 'T')])\n"
        "try:\n"
        "    KnowledgeSnapshot('v', [Tactic('A', 'A'), Tactic('B', 'B')],\n"
        "                      [Technique('T', 'T', None, ('A',))], [Campaign('C', 'C', uses)])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = pathlib.Path(attackquant.__file__).parents[1]
    runs = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                         env={"PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)})
        for seed in range(4)
    ]
    outputs = {run.communicate(timeout=30)[0] for run in runs}
    assert outputs == {"InvariantError campaign 'C': uses undeclared technique 'X0'\n"}


def test_version_preserved(toy):
    assert toy.version
    buf = io.StringIO()
    save_snapshot(toy, buf)
    buf.seek(0)
    assert load_snapshot(buf).version == toy.version


def test_likelihoods_are_kept_on_the_snapshot(toy, miniature):
    probs = likelihoods(toy)
    assert likelihoods(toy) is probs
    assert likelihoods(miniature) is not probs
    assert toy._likelihoods is probs
    # A copy of the same data is a new snapshot with a matrix of its own.
    again = KnowledgeSnapshot(toy.version, toy.tactics, toy.techniques.values(),
                              toy.campaigns.values())
    assert likelihoods(again) is not probs
    assert likelihoods(again).entries() == probs.entries()


# -- loader error table --------------------------------------------------------

VALID = {
    "format": "snapshot/1",
    "version": "v",
    "tactics": [{"id": "A", "name": "Alpha"}],
    "techniques": [{"id": "T", "name": "Tee", "parent": None, "tactics": ["A"]}],
    "campaigns": [{"id": "C", "name": "Cee", "uses": [{"tactic": "A", "technique": "T"}]}],
}
MISSING = object()
TOP = "snapshot: top level must be an object"
MARKER = "snapshot: missing or unsupported format marker"

# (path into VALID, value put there or MISSING to delete it, expected message)
LOADER_ERRORS = [
    ((), [], TOP),
    ((), "x", TOP),
    ((), True, TOP),
    ((), None, TOP),
    (("format",), MISSING, MARKER),
    (("format",), 2, MARKER),
    (("format",), True, MARKER),
    (("format",), "snapshot/2", MARKER),
    (("version",), MISSING, "snapshot: missing field 'version'"),
    (("version",), None, "snapshot: missing field 'version'"),
    (("version",), 3, "snapshot: field 'version' must be str"),
    (("version",), True, "snapshot: field 'version' must be str"),
    (("tactics",), MISSING, "snapshot: missing field 'tactics'"),
    (("tactics",), {}, "snapshot: field 'tactics' must be list"),
    (("tactics",), True, "snapshot: field 'tactics' must be list"),
    (("tactics", 0), "x", "tactic: expected an object"),
    (("tactics", 0), True, "tactic: expected an object"),
    (("tactics", 0), [], "tactic: expected an object"),
    (("tactics", 0, "id"), MISSING, "tactic: missing field 'id'"),
    (("tactics", 0, "id"), None, "tactic: missing field 'id'"),
    (("tactics", 0, "id"), 1, "tactic: field 'id' must be str"),
    (("tactics", 0, "id"), True, "tactic: field 'id' must be str"),
    (("tactics", 0, "name"), MISSING, "tactic: missing field 'name'"),
    (("tactics", 0, "name"), True, "tactic: field 'name' must be str"),
    (("techniques",), MISSING, "snapshot: missing field 'techniques'"),
    (("techniques",), "x", "snapshot: field 'techniques' must be list"),
    (("techniques",), True, "snapshot: field 'techniques' must be list"),
    (("techniques", 0), "x", "technique: expected an object"),
    (("techniques", 0), True, "technique: expected an object"),
    (("techniques", 0), None, "technique: expected an object"),
    (("techniques", 0, "id"), MISSING, "technique: missing field 'id'"),
    (("techniques", 0, "id"), 1, "technique: field 'id' must be str"),
    (("techniques", 0, "id"), True, "technique: field 'id' must be str"),
    (("techniques", 0, "name"), MISSING, "technique: missing field 'name'"),
    (("techniques", 0, "name"), None, "technique: missing field 'name'"),
    (("techniques", 0, "name"), True, "technique: field 'name' must be str"),
    (("techniques", 0, "parent"), 1, "technique: field 'parent' must be str"),
    (("techniques", 0, "parent"), True, "technique: field 'parent' must be str"),
    (("techniques", 0, "parent"), [], "technique: field 'parent' must be str"),
    (("techniques", 0, "tactics"), MISSING, "technique: missing field 'tactics'"),
    (("techniques", 0, "tactics"), None, "technique: missing field 'tactics'"),
    (("techniques", 0, "tactics"), "A", "technique: field 'tactics' must be list"),
    (("techniques", 0, "tactics"), True, "technique: field 'tactics' must be list"),
    (("techniques", 0, "tactics"), ["A", 1], "technique: field 'tactics' must be a list of ids"),
    (("techniques", 0, "tactics"), [True], "technique: field 'tactics' must be a list of ids"),
    (("techniques", 0, "tactics"), [None], "technique: field 'tactics' must be a list of ids"),
    (("campaigns",), MISSING, "snapshot: missing field 'campaigns'"),
    (("campaigns",), None, "snapshot: missing field 'campaigns'"),
    (("campaigns",), {}, "snapshot: field 'campaigns' must be list"),
    (("campaigns",), True, "snapshot: field 'campaigns' must be list"),
    (("campaigns", 0), "x", "campaign: expected an object"),
    (("campaigns", 0), True, "campaign: expected an object"),
    (("campaigns", 0), 1, "campaign: expected an object"),
    (("campaigns", 0, "id"), MISSING, "campaign: missing field 'id'"),
    (("campaigns", 0, "id"), 1, "campaign: field 'id' must be str"),
    (("campaigns", 0, "id"), True, "campaign: field 'id' must be str"),
    (("campaigns", 0, "name"), None, "campaign: missing field 'name'"),
    (("campaigns", 0, "name"), True, "campaign: field 'name' must be str"),
    (("campaigns", 0, "uses"), MISSING, "campaign: missing field 'uses'"),
    (("campaigns", 0, "uses"), None, "campaign: missing field 'uses'"),
    (("campaigns", 0, "uses"), 1, "campaign: field 'uses' must be list"),
    (("campaigns", 0, "uses"), True, "campaign: field 'uses' must be list"),
    (("campaigns", 0, "uses", 0), "x", "usage pair: expected an object"),
    (("campaigns", 0, "uses", 0), True, "usage pair: expected an object"),
    (("campaigns", 0, "uses", 0), [], "usage pair: expected an object"),
    (("campaigns", 0, "uses", 0), None, "usage pair: expected an object"),
    (("campaigns", 0, "uses", 0, "tactic"), MISSING, "usage pair: missing field 'tactic'"),
    (("campaigns", 0, "uses", 0, "tactic"), None, "usage pair: missing field 'tactic'"),
    (("campaigns", 0, "uses", 0, "tactic"), 1, "usage pair: field 'tactic' must be str"),
    (("campaigns", 0, "uses", 0, "tactic"), True, "usage pair: field 'tactic' must be str"),
    (("campaigns", 0, "uses", 0, "tactic"), ["A"], "usage pair: field 'tactic' must be str"),
    (("campaigns", 0, "uses", 0, "technique"), MISSING, "usage pair: missing field 'technique'"),
    (("campaigns", 0, "uses", 0, "technique"), None, "usage pair: missing field 'technique'"),
    (("campaigns", 0, "uses", 0, "technique"), 1, "usage pair: field 'technique' must be str"),
    (("campaigns", 0, "uses", 0, "technique"), True, "usage pair: field 'technique' must be str"),
]


def _broken(path, value):
    doc = copy.deepcopy(VALID)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message", LOADER_ERRORS,
    ids=[f"{'.'.join(map(str, p)) or 'top'}={'missing' if v is MISSING else json.dumps(v)}"
         for p, v, _ in LOADER_ERRORS],
)
def test_load_snapshot_error_messages(path, value, message):
    with pytest.raises(ParseError) as caught:
        load_snapshot(io.StringIO(json.dumps(_broken(path, value))))
    assert str(caught.value) == message


def test_load_snapshot_reports_the_first_fault():
    doc = copy.deepcopy(VALID)
    doc["campaigns"][0]["uses"] = [
        {"tactic": "A", "technique": "T"},
        {"tactic": 1},
    ]
    del doc["campaigns"][0]["id"]
    # usage pairs before the campaign's own fields, the tactic before the technique
    with pytest.raises(ParseError, match=r"^usage pair: field 'tactic' must be str$"):
        load_snapshot(io.StringIO(json.dumps(doc)))
    assert load_snapshot(io.StringIO(json.dumps(VALID))).campaign("C").uses == {("A", "T")}
