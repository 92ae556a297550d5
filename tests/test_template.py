import csv
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from attackquant import (
    Difficulty,
    GateType,
    UndefinedIndexError,
    UnknownEntityError,
    build_template,
    campaign_index,
    compare_all,
    instantiate,
    likelihoods,
    load_snapshot,
    save_snapshot,
    security_index,
    security_range,
)
from attackquant.cli import main
from attackquant.snapshot import Campaign, KnowledgeSnapshot, Tactic, Technique
from attackquant.template import ROOT_ID, leaf_node_id, rank, used_pairs
from helpers import random_snapshot, snapshot_from_usage


@pytest.fixture
def miniature(fixtures):
    return load_snapshot(str(fixtures / "miniature.snapshot.json"))


@pytest.fixture
def layered():
    return snapshot_from_usage(
        {"A": ["P", "Q"], "B": ["Q"]},
        {"P": ["P.1", "P.2"]},
        {
            "C1": [("A", "P.1"), ("A", "Q"), ("B", "Q")],
            "C2": [("A", "P")],
        },
    )


def test_root_is_sand_at_every_difficulty(layered):
    for diff in Difficulty:
        root = build_template(layered, diff).node(ROOT_ID)
        assert root.type is GateType.SAND


@pytest.mark.parametrize(
    "diff,tactic_gate",
    [
        (Difficulty.EASY, GateType.OR),
        (Difficulty.DEFAULT, GateType.SAND),
        (Difficulty.HARD, GateType.AND),
    ],
)
def test_tactic_gate_by_difficulty(layered, diff, tactic_gate):
    tree = build_template(layered, diff)
    assert tree.node("A").type is tactic_gate
    assert tree.node("B").type is tactic_gate


def test_technique_gate_or_except_hard(layered):
    for diff in (Difficulty.EASY, Difficulty.DEFAULT):
        tree = build_template(layered, diff)
        assert tree.node("P@A").type is GateType.OR
    hard = build_template(layered, Difficulty.HARD)
    assert hard.node("P@A").type is GateType.AND


def test_template_leaves_and_ids(layered):
    tree = build_template(layered, Difficulty.DEFAULT)
    assert tree.node(leaf_node_id("P.1", "A")).type is GateType.BAS
    assert tree.node("Q@A").type is GateType.BAS
    assert tree.node("Q@B").type is GateType.BAS
    assert set(tree.node("P@A").children) == {"P.1@A", "P.2@A"}
    # tactic children are the parent techniques, each per tactic
    assert set(tree.node("A").children) == {"P@A", "Q@A"}
    assert set(tree.node("B").children) == {"Q@B"}


def test_tactics_without_techniques_are_omitted():
    snap = snapshot_from_usage(
        {"A": ["P"], "Z": []},
        {},
        {"C": [("A", "P")]},
    )
    tree = build_template(snap, Difficulty.DEFAULT)
    assert "Z" not in tree.nodes
    assert set(tree.node(ROOT_ID).children) == {"A"}


def test_parent_joins_a_tactic_through_a_subtechnique_tag():
    snap = KnowledgeSnapshot(
        "test-v1",
        [Tactic("A", "A"), Tactic("B", "B")],
        [
            Technique("P", "P", None, ("A",)),
            Technique("P.1", "P.1", "P", ("A", "B")),
            Technique("P.2", "P.2", "P", ("A",)),
        ],
        [Campaign("C", "C", frozenset({("B", "P.1")}))],
    )
    tree = build_template(snap, Difficulty.DEFAULT)
    assert tree.node("B").children == ("P@B",)
    assert tree.node("P@B").children == ("P.1@B", "P.2@B")
    assert instantiate(snap, "C")[1] == {"P.1@B": 1.0}


def test_miniature_default_index(miniature):
    value = campaign_index(miniature, "CSTAR", build_template(miniature, Difficulty.DEFAULT))
    assert value == 2.0794415416798357
    expected = -math.log(0.5) + min(-math.log(0.25), -math.log(0.125))
    assert value == pytest.approx(expected, abs=1e-12)


def test_symbolic_identity_for_random_counts():
    """Index of a one-tactic campaign: -ln p of the lone technique plus
    the cheapest of the listed subtechniques."""
    rng = random.Random(60601)
    for _ in range(3):
        n1, n22, n23, n3 = (rng.randint(0, 20) for _ in range(4))
        campaigns = {"CSTAR": [("A1", "E1"), ("A1", "E2.2"), ("A1", "E2.3")]}
        for i in range(n1):
            campaigns[f"X1_{i}"] = [("A1", "E1")]
        for i in range(n22):
            campaigns[f"X22_{i}"] = [("A1", "E2.2")]
        for i in range(n23):
            campaigns[f"X23_{i}"] = [("A1", "E2.3")]
        for i in range(n3):
            campaigns[f"X3_{i}"] = [("A1", "E3")]
        snap = snapshot_from_usage(
            {"A1": ["E1", "E2", "E3"]},
            {"E2": ["E2.1", "E2.2", "E2.3"]},
            campaigns,
        )
        probs = likelihoods(snap)
        total = 3 + n1 + n22 + n23 + n3
        assert probs.prob("E1", "A1") == Fraction(1 + n1, total)
        p1 = float(probs.prob("E1", "A1"))
        p22 = float(probs.prob("E2.2", "A1"))
        p23 = float(probs.prob("E2.3", "A1"))
        expected = -math.log(p1) + min(-math.log(p22), -math.log(p23))
        got = campaign_index(snap, "CSTAR", build_template(snap, Difficulty.DEFAULT))
        assert got == pytest.approx(expected, abs=1e-9)


def test_index_equals_pruned_template_evaluation():
    rng = random.Random(515253)
    checked = 0
    for _ in range(25):
        snap = random_snapshot(rng)
        templates = {diff: build_template(snap, diff) for diff in Difficulty}
        for cid in snap.campaigns:
            for diff in Difficulty:
                try:
                    direct = campaign_index(snap, cid, templates[diff])
                except UndefinedIndexError:
                    continue
                pruned, attr = instantiate(snap, cid, diff)
                assert security_index(pruned, attr) == direct
                checked += 1
    assert checked > 40


def test_compare_plot_cells_equal_campaign_index(tmp_path):
    rng = random.Random(31337)
    runner = CliRunner()
    for k in range(15):
        drawn = random_snapshot(rng)
        ghost = Campaign("GHOST", "Ghost", frozenset())
        snap = KnowledgeSnapshot(drawn.version, drawn.tactics, drawn.techniques.values(),
                                 [*drawn.campaigns.values(), ghost])
        path = tmp_path / f"s{k}.snapshot.json"
        save_snapshot(snap, str(path))
        result = runner.invoke(main, ["compare", str(path), "--out", str(tmp_path / f"c{k}.csv")])
        assert result.exit_code == 0, result.output
        with open(tmp_path / f"c{k}.plot.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(row["campaign"] for row in rows) == sorted(snap.campaigns)
        templates = {diff: build_template(snap, diff) for diff in Difficulty}
        for row in rows:
            for diff in Difficulty:
                try:
                    expected = f"{campaign_index(snap, row['campaign'], templates[diff]):.6f}"
                except UndefinedIndexError:
                    expected = "undefined"
                assert row[diff.value] == expected


def test_difficulty_ordering_on_random_snapshots():
    rng = random.Random(808)
    for _ in range(25):
        snap = random_snapshot(rng)
        easy_t, default_t, hard_t = (build_template(snap, diff) for diff in Difficulty)
        for cid in snap.campaigns:
            try:
                easy = campaign_index(snap, cid, easy_t)
            except UndefinedIndexError:
                continue
            default = campaign_index(snap, cid, default_t)
            hard = campaign_index(snap, cid, hard_t)
            assert easy <= default + 1e-12
            assert default <= hard + 1e-12
            assert math.isfinite(hard)


def test_rank_reversal_between_difficulty_orders():
    """One campaign with a single rare technique, another with several
    common ones: the orders at EASY and DEFAULT disagree."""
    campaigns = {"X": [("A", "e1")], "Y": [("A", "e2"), ("A", "e3"), ("A", "e4")]}
    for i in range(5):
        campaigns[f"AUX{i}"] = [("A", "e2"), ("A", "e3"), ("A", "e4")]
    snap = snapshot_from_usage(
        {"A": ["e1", "e2", "e3", "e4"]}, {}, campaigns
    )
    probs = likelihoods(snap)
    assert probs.prob("e1", "A") == Fraction(1, 19)
    assert probs.prob("e2", "A") == Fraction(6, 19)
    easy_t, default_t = (build_template(snap, d) for d in (Difficulty.EASY, Difficulty.DEFAULT))
    x_easy = campaign_index(snap, "X", easy_t)
    y_easy = campaign_index(snap, "Y", easy_t)
    x_def = campaign_index(snap, "X", default_t)
    y_def = campaign_index(snap, "Y", default_t)
    assert y_easy < x_easy
    assert x_def < y_def


def test_security_range_brackets_every_difficulty(miniature):
    lo, hi = security_range(miniature, "CSTAR")
    default = campaign_index(miniature, "CSTAR", build_template(miniature, Difficulty.DEFAULT))
    assert lo == campaign_index(miniature, "CSTAR", build_template(miniature, Difficulty.EASY))
    assert hi == campaign_index(miniature, "CSTAR", build_template(miniature, Difficulty.HARD))
    assert lo < default < hi
    assert lo == pytest.approx(math.log(2), abs=1e-12)
    assert hi == pytest.approx(
        -math.log(0.5) - math.log(0.25) - math.log(0.125), abs=1e-12
    )


def test_compare_all_sorting():
    snap = snapshot_from_usage(
        {"A": ["e1", "e2"]},
        {},
        {
            "RARE": [("A", "e1")],
            "COMMON": [("A", "e2")],
            "EMPTY": [],
            "ALSO_EMPTY": [],
        },
    )
    # make e2 common: three extra campaigns
    snap = snapshot_from_usage(
        {"A": ["e1", "e2"]},
        {},
        {
            "RARE": [("A", "e1")],
            "COMMON": [("A", "e2")],
            "EMPTY": [],
            "ALSO_EMPTY": [],
            "AUX0": [("A", "e2")],
            "AUX1": [("A", "e2")],
        },
    )
    indices = compare_all(snap)
    # every difficulty of every campaign, in snapshot order
    assert list(indices) == list(snap.campaigns)
    assert all(list(per) == list(Difficulty) for per in indices.values())
    rows = rank((cid, per[Difficulty.DEFAULT]) for cid, per in indices.items())
    ids = [cid for cid, _ in rows]
    # defined ascending by index, undefined last sorted by id
    defined = [cid for cid, v in rows if v is not None]
    undefined = [cid for cid, v in rows if v is None]
    assert defined[0] in {"COMMON", "AUX0", "AUX1"}
    assert defined[-1] == "RARE"
    assert undefined == ["ALSO_EMPTY", "EMPTY"]
    values = [v for _, v in rows if v is not None]
    assert values == sorted(values)
    # ties broken by campaign id
    assert defined[:3] == sorted(defined[:3])


def test_undefined_index_raises(miniature):
    snap = snapshot_from_usage(
        {"A": ["e1"]},
        {},
        {"C": [("A", "e1")], "GHOST": []},
    )
    with pytest.raises(UndefinedIndexError):
        campaign_index(snap, "GHOST", build_template(snap, Difficulty.DEFAULT))


def test_unknown_campaign(miniature):
    with pytest.raises(UnknownEntityError):
        campaign_index(miniature, "nope", build_template(miniature, Difficulty.DEFAULT))


def test_template_missing_a_used_leaf_is_an_unknown_node():
    small = snapshot_from_usage({"A": ["e1"]}, {}, {"C": [("A", "e1")]})
    large = snapshot_from_usage({"A": ["e1", "e2"]}, {}, {"C": [("A", "e1"), ("A", "e2")]})
    with pytest.raises(UnknownEntityError, match=r"^unknown node 'e2@A'$"):
        campaign_index(large, "C", build_template(small, Difficulty.DEFAULT))


def test_instantiate_unknown_campaign_fails_before_any_work(miniature, tmp_path, monkeypatch):
    import attackquant.template as template_mod

    calls = []
    monkeypatch.setattr(template_mod, "build_template", lambda *a: calls.append("build"))
    monkeypatch.setattr(template_mod, "likelihoods", lambda *a: calls.append("likelihoods"))
    with pytest.raises(UnknownEntityError, match=r"^unknown campaign 'nope'$"):
        instantiate(miniature, "nope")
    assert calls == []
    path = tmp_path / "snap.json"
    save_snapshot(miniature, str(path))
    result = CliRunner().invoke(
        main, ["template", "nope", "--snapshot", str(path), "--out", str(tmp_path / "t.json")]
    )
    assert result.exit_code == 4
    assert "unknown campaign 'nope'" in result.output
    assert calls == []


def test_instantiate_prunes_to_used(miniature):
    pruned, attr = instantiate(miniature, "X1", Difficulty.DEFAULT)
    assert set(attr) == {"E1@A1", "E2.2@A1"}
    assert set(pruned.bas_ids) == {"E1@A1", "E2.2@A1"}
    assert pruned.validate() == []
    assert attr["E1@A1"] == 0.5


def test_used_pairs_normalizes(miniature):
    assert used_pairs(miniature, "X2") == frozenset({("E1", "A1")})
    coarse = snapshot_from_usage(
        {"A": ["P"]},
        {"P": ["P.1", "P.2"]},
        {"C": [("A", "P")]},
    )
    assert used_pairs(coarse, "C") == frozenset({("P.1", "A"), ("P.2", "A")})


def test_template_is_deterministic(layered):
    one = build_template(layered, Difficulty.DEFAULT)
    two = build_template(layered, Difficulty.DEFAULT)
    assert list(one.nodes) == list(two.nodes)
    assert all(one.node(n).children == two.node(n).children for n in one.nodes)
