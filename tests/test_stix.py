import io
import json
import logging
from fractions import Fraction

import pytest

from attackquant import (
    InvariantError,
    ParseError,
    import_stix,
    likelihoods,
    save_snapshot,
    load_snapshot,
)


@pytest.fixture
def mini(fixtures):
    return import_stix(str(fixtures / "mini-bundle.json"))


def bundle(*objects):
    return io.StringIO(json.dumps({"type": "bundle", "objects": list(objects)}))


def tactic_obj(ext, short, name=None):
    return {
        "type": "x-mitre-tactic",
        "id": f"x-mitre-tactic--{ext}",
        "name": name or short,
        "x_mitre_shortname": short,
        "external_references": [{"source_name": "mitre-attack", "external_id": ext}],
    }


def pattern_obj(ext, phases, **extra):
    return {
        "type": "attack-pattern",
        "id": f"attack-pattern--{ext}",
        "name": ext,
        "external_references": [{"source_name": "mitre-attack", "external_id": ext}],
        "kill_chain_phases": [
            {"kill_chain_name": "mitre-attack", "phase_name": p} for p in phases
        ],
        **extra,
    }


def campaign_obj(ext, name=None):
    return {
        "type": "campaign",
        "id": f"campaign--{ext}",
        "name": name or ext,
        "external_references": [{"source_name": "mitre-attack", "external_id": ext}],
    }


def uses(src, dst, **extra):
    return {
        "type": "relationship",
        "id": f"relationship--{src}-{dst}",
        "relationship_type": "uses",
        "source_ref": src,
        "target_ref": dst,
        **extra,
    }


def test_version_extraction(mini):
    assert mini.version == "mitre-enterprise-v16.1"


def test_tactics_in_matrix_order(mini):
    assert [t.id for t in mini.tactics] == ["TA0001", "TA0002", "TA0005", "TA0006"]
    assert mini.tactic("TA0001").name == "Initial Access"


def test_subtechnique_parent_links(mini):
    assert mini.technique("T1059.001").parent == "T1059"
    assert mini.technique("T1059").parent is None
    assert mini.subtechniques_of("T1110") == ("T1110.001", "T1110.002")


def test_deprecated_objects_skipped(mini):
    assert "T9999" not in mini.techniques


def test_campaign_usage_pairs(mini):
    alpha = mini.campaign("C0100")
    assert alpha.uses == frozenset(
        {("TA0001", "T1190"), ("TA0002", "T1059.001"), ("TA0006", "T1110")}
    )
    beta = mini.campaign("C0200")
    # T1078 is tagged with two tactics: one usage pair per tactic
    assert beta.uses == frozenset(
        {
            ("TA0001", "T1078"),
            ("TA0005", "T1078"),
            ("TA0002", "T1059"),
            ("TA0006", "T1110.002"),
        }
    )


def test_multi_tactic_usage_warns(fixtures, caplog):
    with caplog.at_level(logging.WARNING, logger="attackquant.stix"):
        import_stix(str(fixtures / "mini-bundle.json"))
    assert any("several tactics" in r.message for r in caplog.records)


def test_ingested_likelihoods(mini):
    probs = likelihoods(mini)
    assert probs.prob("T1190", "TA0001") == Fraction(1, 2)
    assert probs.prob("T1078", "TA0001") == Fraction(1, 2)
    # Alpha lists the T1110 parent only: counts fan out to both subs
    assert probs.prob("T1110.001", "TA0006") == Fraction(1, 3)
    assert probs.prob("T1110.002", "TA0006") == Fraction(2, 3)


def test_ingest_then_save_round_trips(mini, tmp_path):
    out = tmp_path / "snap.json"
    save_snapshot(mini, str(out))
    again = load_snapshot(str(out))
    assert again.version == mini.version
    assert again.campaign("C0100").uses == mini.campaign("C0100").uses


def test_missing_collection_gives_unknown_version():
    snap = import_stix(
        bundle(
            tactic_obj("TA0001", "initial-access"),
            pattern_obj("T1", ["initial-access"]),
            campaign_obj("C1"),
            uses("campaign--C1", "attack-pattern--T1"),
        )
    )
    assert snap.version == "unknown"


def test_dangling_uses_target_is_an_error():
    with pytest.raises(InvariantError):
        import_stix(
            bundle(
                tactic_obj("TA0001", "initial-access"),
                campaign_obj("C1"),
                uses("campaign--C1", "attack-pattern--gone"),
            )
        )


def test_subtechnique_without_parent_is_an_error():
    with pytest.raises(InvariantError):
        import_stix(
            bundle(
                tactic_obj("TA0001", "initial-access"),
                pattern_obj("T1.001", ["initial-access"]),
                campaign_obj("C1"),
            )
        )


def test_bundle_without_campaigns_is_an_error():
    with pytest.raises(InvariantError):
        import_stix(bundle(tactic_obj("TA0001", "initial-access")))


def test_untagged_technique_usage_dropped_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="attackquant.stix"):
        snap = import_stix(
            bundle(
                tactic_obj("TA0001", "initial-access"),
                pattern_obj("T1", []),
                campaign_obj("C1"),
                uses("campaign--C1", "attack-pattern--T1"),
            )
        )
    assert snap.campaign("C1").uses == frozenset()
    assert any("no tactic tag" in r.message for r in caplog.records)


def test_skipped_and_straggling_objects(caplog):
    no_shortname = {**tactic_obj("TA0009", "collection"), "x_mitre_shortname": 7}
    no_ext_id = {**campaign_obj("C2"), "external_references": []}
    no_stix_id = {**campaign_obj("C3"), "id": 3}
    no_technique_id = {**pattern_obj("T2", ["initial-access"]), "external_references": []}
    with caplog.at_level(logging.WARNING, logger="attackquant.stix"):
        snap = import_stix(
            bundle(
                tactic_obj("TA9999", "custom-tactic"),
                tactic_obj("TA0001", "initial-access"),
                no_shortname,
                pattern_obj("T1", ["initial-access", "no-such-tactic"]),
                no_technique_id,
                campaign_obj("C1"),
                no_ext_id,
                no_stix_id,
                uses("campaign--C1", "attack-pattern--T1"),
            )
        )
    # A shortname outside the Enterprise order sorts after the matrix.
    assert [t.id for t in snap.tactics] == ["TA0001", "TA9999"]
    assert snap.technique("T1").tactics == ("TA0001",)
    assert list(snap.techniques) == ["T1"]
    assert list(snap.campaigns) == ["C1"]
    messages = [r.getMessage() for r in caplog.records]
    assert "skipping tactic without external id/shortname: x-mitre-tactic--TA0009" in messages
    assert "technique T1: unknown tactic shortname 'no-such-tactic'" in messages
    assert "skipping campaign without external id: campaign--C2" in messages
    assert "skipping campaign without string id: 3" in messages
    assert "skipping technique without external id: attack-pattern--T2" in messages


@pytest.mark.parametrize("payload", ["{broken", '{"objects": 4}', "[]"])
def test_malformed_bundles(payload):
    with pytest.raises(ParseError):
        import_stix(io.StringIO(payload))
