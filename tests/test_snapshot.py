import io
import math
from fractions import Fraction

import pytest

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
from helpers import snapshot_from_usage


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
    assert probs.observed_tactics() == ("A1",)


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
    assert miniature.is_leaf_technique("E1")
    assert not miniature.is_leaf_technique("E2")
    assert miniature.is_leaf_technique("E2.1")


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


def test_version_preserved(toy):
    assert toy.version
    probs = likelihoods(toy)
    assert probs.version == toy.version
