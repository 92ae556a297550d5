"""Best-effort import of MITRE-style STIX 2.x bundles into snapshots.

Reads tactics, techniques (parent/sub split derived from external ids of
the form T####.###), campaigns, and campaign-to-technique `uses`
relationships.  Tactic association comes from each technique's
kill_chain_phases tags; a technique tagged with several tactics yields
one usage pair per tactic, each flagged with a warning.
"""

from __future__ import annotations

import logging
from typing import IO, Mapping

from .errors import InvariantError, ParseError, read_json
from .snapshot import Campaign, KnowledgeSnapshot, Tactic, Technique

logger = logging.getLogger(__name__)

# MITRE Enterprise tactic short names in matrix order, the order in which
# tactics are imported (unknown short names last).
ENTERPRISE_TACTIC_ORDER = (
    "reconnaissance",
    "resource-development",
    "initial-access",
    "execution",
    "persistence",
    "privilege-escalation",
    "defense-evasion",
    "credential-access",
    "discovery",
    "lateral-movement",
    "collection",
    "command-and-control",
    "exfiltration",
    "impact",
)


def _listed(obj: Mapping, key: str) -> list:
    value = obj.get(key)
    return value if isinstance(value, list) else []


def _mitre_id(obj: Mapping) -> str | None:
    for ref in _listed(obj, "external_references"):
        if isinstance(ref, Mapping) and ref.get("source_name") == "mitre-attack":
            ext = ref.get("external_id")
            if isinstance(ext, str):
                return ext
    return None


def _dead(obj: Mapping) -> bool:
    return bool(obj.get("x_mitre_deprecated")) or bool(obj.get("revoked"))


def _name(obj: Mapping, ext: str) -> str:
    """The object's name; the external id when it has none or a non-string one."""
    name = obj.get("name", ext)
    if isinstance(name, str):
        return name
    logger.warning("%s %s: name is not a string; using the external id", obj.get("type"), ext)
    return ext


def _phases(obj: Mapping) -> list[str]:
    names = []
    for phase in _listed(obj, "kill_chain_phases"):
        if isinstance(phase, Mapping) and phase.get("kill_chain_name") in (
            "mitre-attack",
            "mitre-mobile-attack",
            "mitre-ics-attack",
        ):
            name = phase.get("phase_name")
            if isinstance(name, str):
                names.append(name)
    return names


def import_stix(source: str | IO[str]) -> KnowledgeSnapshot:
    """Convert one STIX bundle into a canonical snapshot."""
    data = read_json(source, "bundle")
    if not isinstance(data, dict) or not isinstance(data.get("objects"), list):
        raise ParseError("bundle: expected an object with an 'objects' list")

    # Live objects by their string type, in bundle order; one whose type is
    # not a string goes into no group.  The collection's version is read even
    # when it is deprecated or revoked, and a dead object is still a target.
    by_type: dict[str, list[Mapping]] = {}
    stix_ids: set[str] = set()
    for obj in data["objects"]:
        if isinstance(obj, Mapping):
            if isinstance(obj.get("id"), str):
                stix_ids.add(obj["id"])
            kind = obj.get("type")
            if isinstance(kind, str) and (kind == "x-mitre-collection" or not _dead(obj)):
                by_type.setdefault(kind, []).append(obj)
    collections = by_type.get("x-mitre-collection")
    raw = collections[0].get("x_mitre_version") if collections else None
    version = f"mitre-enterprise-v{raw}" if isinstance(raw, str) and raw else "unknown"

    # Tactics: canonical matrix order first, any stragglers by id.
    shortname_to_id: dict[str, str] = {}
    tactic_objs: list[tuple[str, str, str]] = []
    for obj in by_type.get("x-mitre-tactic", ()):
        ext = _mitre_id(obj)
        short = obj.get("x_mitre_shortname")
        if ext is None or not isinstance(short, str):
            logger.warning("skipping tactic without external id/shortname: %s", obj.get("id"))
            continue
        shortname_to_id[short] = ext
        tactic_objs.append((short, ext, _name(obj, ext)))
    rank = {short: i for i, short in enumerate(ENTERPRISE_TACTIC_ORDER)}
    tactic_objs.sort(key=lambda entry: (rank.get(entry[0], len(rank)), entry[1]))
    tactics = [Tactic(ext, name) for _, ext, name in tactic_objs]

    techniques: dict[str, Technique] = {}
    stix_to_tech: dict[str, str] = {}
    for obj in by_type.get("attack-pattern", ()):
        ext = _mitre_id(obj)
        if ext is None:
            logger.warning("skipping technique without external id: %s", obj.get("id"))
            continue
        parent = ext.rsplit(".", 1)[0] if "." in ext else None
        tags = []
        for short in _phases(obj):
            tactic_id = shortname_to_id.get(short)
            if tactic_id is None:
                logger.warning("technique %s: unknown tactic shortname %r", ext, short)
            elif tactic_id not in tags:
                tags.append(tactic_id)
        techniques[ext] = Technique(ext, _name(obj, ext), parent, tuple(tags))
        if isinstance(obj.get("id"), str):
            stix_to_tech[obj["id"]] = ext

    for tech in techniques.values():
        if tech.parent is not None and tech.parent not in techniques:
            raise InvariantError(
                f"technique {tech.id!r}: parent {tech.parent!r} missing from the bundle"
            )

    campaign_objs: dict[str, tuple[str, str]] = {}
    for obj in by_type.get("campaign", ()):
        ext = _mitre_id(obj)
        if ext is None or not isinstance(obj.get("id"), str):
            logger.warning("skipping campaign without %s: %s",
                           "external id" if ext is None else "string id", obj.get("id"))
            continue
        campaign_objs[obj["id"]] = (ext, _name(obj, ext))
    if not campaign_objs:
        raise InvariantError("bundle contains no campaign objects")

    uses: dict[str, set[tuple[str, str]]] = {sid: set() for sid in campaign_objs}
    for obj in by_type.get("relationship", ()):
        src, dst = obj.get("source_ref"), obj.get("target_ref")
        if (obj.get("relationship_type") != "uses"
                or not isinstance(src, str) or src not in campaign_objs):
            continue
        if not isinstance(dst, str) or dst not in stix_ids:
            raise InvariantError(
                f"relationship {obj.get('id')!r}: dangling target {dst!r}"
            )
        tech_id = stix_to_tech.get(dst)
        if tech_id is None:
            # Campaigns also use malware/tools; only direct technique
            # usage feeds the snapshot.
            continue
        tags = techniques[tech_id].tactics
        camp_ext = campaign_objs[src][0]
        if not tags:
            logger.warning(
                "campaign %s: technique %s has no tactic tag; usage dropped",
                camp_ext,
                tech_id,
            )
        for tactic_id in tags:
            if len(tags) > 1:
                logger.warning(
                    "campaign %s: technique %s is tagged with several tactics; "
                    "recording usage under %s",
                    camp_ext,
                    tech_id,
                    tactic_id,
                )
            uses[src].add((tactic_id, tech_id))

    campaigns = [
        Campaign(ext, name, frozenset(uses[sid]))
        for sid, (ext, name) in sorted(campaign_objs.items(), key=lambda kv: kv[1][0])
    ]
    return KnowledgeSnapshot(version, tactics, techniques.values(), campaigns)
