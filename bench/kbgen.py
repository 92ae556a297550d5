"""Seeded ATT&CK-shaped knowledge-base model, its files, and its oracle.

The model is a tactic list in Enterprise matrix order, parent techniques
with subtechniques (a third of them tagged with several tactics), and
campaigns that use techniques with skewed popularity.  Some campaigns
report a parent technique without any of its subtechniques, which the
snapshot semantics fan out to every subtechnique.

The model writes a STIX bundle (input to ``ingest``) or a ``snapshot/1``
file (input to ``template`` and ``compare``).  The expected outputs --
normalised leaf usage, likelihoods and security indices -- are computed
here from the model alone, without calling the package under test.
"""

from __future__ import annotations

import json
import math
import random
import uuid
from dataclasses import dataclass

# (shortname, external id, name) in Enterprise matrix order.
TACTICS = (
    ("reconnaissance", "TA0043", "Reconnaissance"),
    ("resource-development", "TA0042", "Resource Development"),
    ("initial-access", "TA0001", "Initial Access"),
    ("execution", "TA0002", "Execution"),
    ("persistence", "TA0003", "Persistence"),
    ("privilege-escalation", "TA0004", "Privilege Escalation"),
    ("defense-evasion", "TA0005", "Defense Evasion"),
    ("credential-access", "TA0006", "Credential Access"),
    ("discovery", "TA0007", "Discovery"),
    ("lateral-movement", "TA0008", "Lateral Movement"),
    ("collection", "TA0009", "Collection"),
    ("command-and-control", "TA0011", "Command and Control"),
    ("exfiltration", "TA0010", "Exfiltration"),
    ("impact", "TA0040", "Impact"),
)
TACTIC_IDS = tuple(t[1] for t in TACTICS)
DIFFICULTIES = ("easy", "default", "hard")


@dataclass(frozen=True)
class Tech:
    id: str
    name: str
    parent: str | None
    tactics: tuple[str, ...]  # tactic ids, matrix order


@dataclass(frozen=True)
class Camp:
    id: str
    name: str
    uses: frozenset[str]  # technique ids as reported


@dataclass
class KbModel:
    version: str
    techniques: dict[str, Tech]  # insertion order = file order
    campaigns: list[Camp]  # sorted by id

    def subs_of(self, parent: str) -> list[str]:
        return sorted(t.id for t in self.techniques.values() if t.parent == parent)

    def usage_pairs(self, camp: Camp) -> set[tuple[str, str]]:
        """(tactic, technique) pairs the snapshot records for a campaign."""
        return {(tac, tech) for tech in camp.uses for tac in self.techniques[tech].tactics}


def make_catalogue(rng: random.Random, parents: int = 200, subtechniques: int = 420) -> dict[str, Tech]:
    """Parent techniques and subtechniques; subtechniques inherit tactics."""
    weights = [3, 4, 6, 10, 12, 9, 16, 8, 9, 4, 6, 7, 4, 6]
    techs: dict[str, Tech] = {}
    parent_ids = [f"T{1000 + i}" for i in range(parents)]
    for i, pid in enumerate(parent_ids):
        if i < len(TACTIC_IDS):
            tags = {TACTIC_IDS[i]}  # every tactic gets a technique
        else:
            tags = {rng.choices(TACTIC_IDS, weights)[0]}
        if rng.random() < 1 / 3:
            tags.update(rng.sample(TACTIC_IDS, rng.choice((1, 1, 2))))
        ordered = tuple(t for t in TACTIC_IDS if t in tags)
        techs[pid] = Tech(pid, f"Technique {pid}", None, ordered)
    # Roughly half of the parents carry subtechniques, 2 to 8 each.
    counts = {pid: 0 for pid in parent_ids}
    holders = rng.sample(parent_ids, parents // 2)
    for _ in range(subtechniques):
        counts[rng.choice(holders)] += 1
    for pid in parent_ids:
        for k in range(1, counts[pid] + 1):
            sid = f"{pid}.{k:03d}"
            techs[sid] = Tech(sid, f"Subtechnique {sid}", pid, techs[pid].tactics)
    return techs


def make_campaigns(
    rng: random.Random,
    techs: dict[str, Tech],
    count: int,
    first_number: int = 1,
    empty: int = 0,
) -> list[Camp]:
    """Campaigns with Zipf-skewed technique popularity.

    About one parent in five is reported coarsely (parent only), the rest
    through one to three of its subtechniques, sometimes with the parent
    listed as well.  The last ``empty`` campaigns record no usage.
    """
    parents = [t.id for t in techs.values() if t.parent is None]
    order = parents[:]
    rng.shuffle(order)
    popularity = [1.0 / (rank + 1) ** 0.8 for rank in range(len(order))]
    subs: dict[str, list[str]] = {}
    for t in techs.values():
        if t.parent is not None:
            subs.setdefault(t.parent, []).append(t.id)
    camps = []
    for n in range(count):
        cid = f"C{first_number + n:04d}"
        uses: set[str] = set()
        if n < count - empty:
            # sorted: set order follows the per-process string hash seed
            for pid in sorted(set(rng.choices(order, popularity, k=rng.randint(20, 56)))):
                children = subs.get(pid)
                if not children or rng.random() < 0.2:
                    uses.add(pid)
                    continue
                uses.update(rng.sample(children, min(len(children), rng.randint(1, 3))))
                if rng.random() < 0.25:
                    uses.add(pid)
        camps.append(Camp(cid, f"Campaign {cid}", frozenset(uses)))
    return camps


def make_model(
    rng: random.Random,
    campaigns: int,
    version: str = "mitre-enterprise-v14.1",
    first_number: int = 1,
    techs: dict[str, Tech] | None = None,
) -> KbModel:
    if techs is None:
        techs = make_catalogue(rng)
    camps = make_campaigns(rng, techs, campaigns, first_number, empty=1)
    return KbModel(version, techs, camps)


# -- files -------------------------------------------------------------------


def _ref(ext: str) -> list[dict]:
    return [{"source_name": "mitre-attack", "external_id": ext, "url": f"https://attack.example/{ext}"}]


def write_bundle(model: KbModel, rng: random.Random, path: str) -> None:
    """STIX 2.1 bundle with the objects the importer reads, plus noise it skips."""
    def sid(kind: str) -> str:
        return f"{kind}--{uuid.UUID(int=rng.getrandbits(128), version=4)}"

    version = model.version.rsplit("-v", 1)[1]
    objects: list[dict] = [{"type": "x-mitre-collection", "id": sid("x-mitre-collection"),
                            "name": "Enterprise ATT&CK", "x_mitre_version": version}]
    short_of = {ext: short for short, ext, _ in TACTICS}
    tactic_objs = [
        {"type": "x-mitre-tactic", "id": sid("x-mitre-tactic"), "name": name,
         "x_mitre_shortname": short, "external_references": _ref(ext)}
        for short, ext, name in TACTICS
    ]
    rng.shuffle(tactic_objs)  # the importer restores matrix order
    objects.extend(tactic_objs)
    tech_sid: dict[str, str] = {}
    for tech in model.techniques.values():
        tech_sid[tech.id] = sid("attack-pattern")
        objects.append({
            "type": "attack-pattern", "id": tech_sid[tech.id], "name": tech.name,
            "description": f"Adversaries may use {tech.name.lower()}.",
            "kill_chain_phases": [{"kill_chain_name": "mitre-attack", "phase_name": short_of[t]}
                                  for t in tech.tactics],
            "external_references": _ref(tech.id),
            "x_mitre_is_subtechnique": tech.parent is not None,
        })
    revoked = []
    for k in range(12):
        revoked.append(sid("attack-pattern"))
        objects.append({
            "type": "attack-pattern", "id": revoked[-1], "name": f"Retired {k}",
            "revoked": k % 2 == 0, "x_mitre_deprecated": k % 2 == 1,
            "kill_chain_phases": [{"kill_chain_name": "mitre-attack", "phase_name": "execution"}],
            "external_references": _ref(f"T19{k:02d}"),
        })
    tools = [sid("malware") for _ in range(8)]
    for k, tool in enumerate(tools):
        objects.append({"type": "malware", "id": tool, "name": f"Implant {k}", "is_family": True})
    for camp in model.campaigns:
        camp_sid = sid("campaign")
        objects.append({"type": "campaign", "id": camp_sid, "name": camp.name,
                        "external_references": _ref(camp.id)})
        targets = [tech_sid[t] for t in sorted(camp.uses)]
        if camp.uses:
            targets += [rng.choice(tools), rng.choice(revoked)]
        for target in targets:
            objects.append({"type": "relationship", "id": sid("relationship"),
                            "relationship_type": "uses", "source_ref": camp_sid,
                            "target_ref": target})
    # The same bytes as json.dump of the whole bundle, but each object goes
    # through the C encoder, and no string of the whole file is built, which
    # would raise the benchmark's peak memory above that of the ingest.
    bundle_id = json.dumps(sid("bundle"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"type": "bundle", "id": {bundle_id}, "objects": [')
        for i, obj in enumerate(objects):
            fh.write(f"{', ' if i else ''}{json.dumps(obj)}")
        fh.write("]}")


def snapshot_dict(model: KbModel) -> dict:
    """The canonical snapshot/1 document for the model."""
    pos = {t: i for i, t in enumerate(TACTIC_IDS)}
    return {
        "format": "snapshot/1",
        "version": model.version,
        "tactics": [{"id": ext, "name": name} for _, ext, name in TACTICS],
        "techniques": [
            {"id": t.id, "name": t.name, "parent": t.parent, "tactics": list(t.tactics)}
            for t in model.techniques.values()
        ],
        "campaigns": [
            {"id": c.id, "name": c.name,
             "uses": [{"tactic": tac, "technique": tech}
                      for tac, tech in sorted(model.usage_pairs(c), key=lambda p: (pos[p[0]], p[1]))]}
            for c in model.campaigns
        ],
    }


def write_snapshot(model: KbModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot_dict(model), fh, indent=2)
        fh.write("\n")


# -- oracle ------------------------------------------------------------------


class KbOracle:
    """Expected snapshot semantics, computed from the model alone."""

    def __init__(self, model: KbModel):
        self.model = model
        self.subs = {p.id: model.subs_of(p.id) for p in model.techniques.values() if p.parent is None}
        self.leaves: dict[str, set[tuple[str, str]]] = {
            c.id: self._leaf_pairs(c) for c in model.campaigns
        }
        counts: dict[str, dict[str, int]] = {t: {} for t in TACTIC_IDS}
        for pairs in self.leaves.values():
            for tech, tac in pairs:
                counts[tac][tech] = counts[tac].get(tech, 0) + 1
        self.counts = counts
        self.totals = {t: sum(c.values()) for t, c in counts.items()}

    def _leaf_pairs(self, camp: Camp) -> set[tuple[str, str]]:
        """(leaf technique, tactic) pairs after parent/subtechnique normalisation."""
        out: set[tuple[str, str]] = set()
        for tac in TACTIC_IDS:
            listed = {t for t in camp.uses if tac in self.model.techniques[t].tactics}
            for tech in listed:
                parent = self.model.techniques[tech].parent
                if parent is not None:
                    out.add((tech, tac))
                elif not self.subs[tech]:
                    out.add((tech, tac))
                elif not listed.intersection(self.subs[tech]):
                    out.update((s, tac) for s in self.subs[tech])
        return out

    def prob(self, tech: str, tac: str) -> float:
        return self.counts[tac][tech] / self.totals[tac]

    def likelihood_rows(self) -> dict[tuple[str, str], float]:
        return {(tech, tac): n / self.totals[tac]
                for tac, per in self.counts.items() for tech, n in per.items()}

    def index(self, campaign: str, difficulty: str) -> float | None:
        """Security index: sums and minima of -ln p over the used leaves.

        HARD sums every used leaf; DEFAULT sums, per tactic and parent
        technique, the cheapest used leaf below it; EASY sums, per tactic,
        the cheapest used leaf in that tactic.  None when nothing is used.
        """
        pairs = self.leaves[campaign]
        if not pairs:
            return None
        cost = {pair: -math.log(self.prob(*pair)) for pair in pairs}
        if difficulty == "hard":
            return sum(cost.values())
        best: dict[tuple[str, str], float] = {}
        for (tech, tac), value in cost.items():
            parent = self.model.techniques[tech].parent or tech
            key = (tac, parent) if difficulty == "default" else (tac, "")
            best[key] = min(best.get(key, math.inf), value)
        return sum(best.values())
