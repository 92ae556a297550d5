"""Canonical knowledge snapshot: tactics, techniques, campaign usage.

The snapshot is a pinned, versioned view of a MITRE-style knowledge base.
Techniques form a two-level hierarchy (parents and subtechniques); each
campaign records a duplicate-free set of (tactic, technique) usage pairs.
"""

from __future__ import annotations

import csv
from json.encoder import encode_basestring_ascii
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Mapping

from .errors import InvariantError, ParseError, UnknownEntityError, _opened, read_json


@dataclass(frozen=True)
class Tactic:
    id: str
    name: str


@dataclass(frozen=True)
class Technique:
    id: str
    name: str
    parent: str | None
    tactics: tuple[str, ...]


@dataclass(frozen=True)
class Campaign:
    id: str
    name: str
    uses: frozenset[tuple[str, str]]  # (tactic-id, technique-id)


def _by_id(kind: str, items: Iterable) -> dict:
    """Items keyed by id, in the order given; a repeated id is an InvariantError."""
    index = {}
    for item in items:
        if item.id in index:
            raise InvariantError(f"duplicate {kind} id {item.id!r}")
        index[item.id] = item
    return index


class KnowledgeSnapshot:
    """Validated, immutable snapshot of one knowledge-base version."""

    def __init__(
        self,
        version: str,
        tactics: Iterable[Tactic],
        techniques: Iterable[Technique],
        campaigns: Iterable[Campaign],
    ):
        self.version = version
        self.tactics = tuple(tactics)
        self._tactics: dict[str, Tactic] = _by_id("tactic", self.tactics)
        self.techniques: dict[str, Technique] = _by_id("technique", techniques)
        self.campaigns: dict[str, Campaign] = _by_id("campaign", campaigns)
        # campaign id -> tactic id -> normalized leaf usage, filled on demand
        self._usage: dict[str, dict[str, frozenset[str]]] = {}
        self._likelihoods: ProbMatrix | None = None  # filled by likelihoods()
        self._check()

    def _check(self) -> None:
        subs: dict[str, list[str]] = {}
        for tech in self.techniques.values():
            if tech.parent is not None:
                parent = self.techniques.get(tech.parent)
                if parent is None:
                    raise InvariantError(
                        f"technique {tech.id!r}: parent {tech.parent!r} is not declared"
                    )
                if parent.parent is not None:
                    raise InvariantError(
                        f"technique {tech.id!r}: parent {tech.parent!r} is itself a "
                        "subtechnique (hierarchy must be two-level)"
                    )
                subs.setdefault(tech.parent, []).append(tech.id)
            for tid in tech.tactics:
                if tid not in self._tactics:
                    raise InvariantError(
                        f"technique {tech.id!r}: undeclared tactic {tid!r}"
                    )
        self._subs: dict[str, tuple[str, ...]] = {p: tuple(sorted(s)) for p, s in subs.items()}
        for camp in self.campaigns.values():
            for tactic_id, tech_id in camp.uses:
                tech = self.techniques.get(tech_id)
                # A technique's tags are declared tactics, so this catches an undeclared one too.
                if tech is None or tactic_id not in tech.tactics:
                    raise InvariantError(self._misuse(camp))

    def _misuse(self, camp: Campaign) -> str:
        """The fault of the campaign's first bad usage pair in sorted order.

        ``uses`` is a frozenset, whose order follows the hash seed; sorting
        names the same pair in every process.
        """
        for tactic_id, tech_id in sorted(camp.uses):
            tech = self.techniques.get(tech_id)
            if tactic_id not in self._tactics:
                return f"campaign {camp.id!r}: uses undeclared tactic {tactic_id!r}"
            if tech is None:
                return f"campaign {camp.id!r}: uses undeclared technique {tech_id!r}"
            if tactic_id not in tech.tactics:
                return (f"campaign {camp.id!r}: technique {tech_id!r} is not tagged "
                        f"with tactic {tactic_id!r}")

    # -- hierarchy helpers ------------------------------------------------

    def subtechniques_of(self, tech_id: str) -> tuple[str, ...]:
        return self._subs.get(tech_id, ())

    def technique(self, tech_id: str) -> Technique:
        try:
            return self.techniques[tech_id]
        except KeyError:
            raise UnknownEntityError(f"unknown technique {tech_id!r}") from None

    def tactic(self, tactic_id: str) -> Tactic:
        try:
            return self._tactics[tactic_id]
        except KeyError:
            raise UnknownEntityError(f"unknown tactic {tactic_id!r}") from None

    def campaign(self, campaign_id: str) -> Campaign:
        try:
            return self.campaigns[campaign_id]
        except KeyError:
            raise UnknownEntityError(f"unknown campaign {campaign_id!r}") from None

    def leaf_usage(self, campaign_id: str) -> Mapping[str, frozenset[str]]:
        """Normalized leaf usage of one campaign per tactic, in tactic order.

        Computed once per campaign through :func:`normalize_usage` and kept
        on the snapshot, which never changes after construction.
        """
        usage = self._usage.get(campaign_id)
        if usage is None:
            self.campaign(campaign_id)
            usage = {t.id: normalize_usage(self, campaign_id, t.id) for t in self.tactics}
            self._usage[campaign_id] = usage
        return usage


# -- usage normalization ---------------------------------------------------


def normalize_usage(
    snapshot: KnowledgeSnapshot, campaign_id: str, tactic_id: str
) -> frozenset[str]:
    """Leaf techniques the campaign used under one tactic.

    Listed subtechniques count as themselves.  A parent listed with none
    of its subtechniques fans out to every subtechnique it has (coarse
    reporting); a parent listed alongside some of its subtechniques adds
    nothing beyond the listed ones.  A parent without subtechniques is
    itself a leaf.
    """
    camp = snapshot.campaign(campaign_id)
    snapshot.tactic(tactic_id)
    listed = {tech for tac, tech in camp.uses if tac == tactic_id}
    result: set[str] = set()
    for tech_id in listed:
        tech = snapshot.technique(tech_id)
        if tech.parent is not None:
            result.add(tech_id)
            continue
        subs = snapshot.subtechniques_of(tech_id)
        if not subs:
            result.add(tech_id)
        elif not any(s in listed for s in subs):
            result.update(subs)
    return frozenset(result)


class ProbMatrix:
    """Per-tactic technique likelihoods, kept as exact fractions."""

    def __init__(self, snapshot: KnowledgeSnapshot):
        self._techniques = snapshot.techniques  # not the snapshot, which keeps this matrix
        self._counts: dict[str, Counter[str]] = {}
        self._totals: dict[str, int] = {}
        for tactic in snapshot.tactics:
            counter: Counter[str] = Counter()
            for campaign_id in snapshot.campaigns:
                counter.update(snapshot.leaf_usage(campaign_id)[tactic.id])
            self._counts[tactic.id] = counter
            self._totals[tactic.id] = sum(counter.values())

    def _count(self, tech_id: str, tactic_id: str) -> tuple[int, int]:
        """(uses of the leaf, all leaf uses) under one tactic, checked."""
        if tactic_id not in self._counts:
            raise UnknownEntityError(f"unknown tactic {tactic_id!r}")
        if tech_id not in self._techniques:
            raise UnknownEntityError(f"unknown technique {tech_id!r}")
        total = self._totals[tactic_id]
        if total == 0:
            raise UnknownEntityError(
                f"tactic {tactic_id!r} has no recorded usage in any campaign"
            )
        return self._counts[tactic_id][tech_id], total

    def prob(self, tech_id: str, tactic_id: str) -> Fraction:
        """Likelihood of one leaf technique under one tactic, exact."""
        return Fraction(*self._count(tech_id, tactic_id))

    def prob_float(self, tech_id: str, tactic_id: str) -> float:
        """``float(prob(...))``: int true division is correctly rounded too."""
        count, total = self._count(tech_id, tactic_id)
        return count / total

    def entries(self) -> list[tuple[str, str, Fraction]]:
        """Non-zero (technique, tactic, probability) rows, deterministic order."""
        return [
            (tech_id, tactic_id, self.prob(tech_id, tactic_id))
            for tactic_id, counter in self._counts.items()  # in tactic order
            if self._totals[tactic_id]
            for tech_id in sorted(counter)
        ]


def likelihoods(snapshot: KnowledgeSnapshot) -> ProbMatrix:
    """Technique likelihoods per tactic over all campaigns, built once and kept on the snapshot."""
    if snapshot._likelihoods is None:
        snapshot._likelihoods = ProbMatrix(snapshot)
    return snapshot._likelihoods


def used_pairs(snapshot: KnowledgeSnapshot, campaign_id: str) -> frozenset[tuple[str, str]]:
    """All (technique, tactic) leaf pairs a campaign used."""
    return frozenset(
        (leaf, tactic_id)
        for tactic_id, leaves in snapshot.leaf_usage(campaign_id).items()
        for leaf in leaves
    )


# -- serialization ----------------------------------------------------------


def _require(mapping: Mapping, key: str, kind: type, where: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object")
    value = mapping.get(key)
    if value is None:
        raise ParseError(f"{where}: missing field {key!r}")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def load_snapshot(source: str | IO[str]) -> KnowledgeSnapshot:
    """Read a snapshot/1 JSON document from a path or open text file."""
    data = read_json(source, "snapshot")
    if not isinstance(data, dict):
        raise ParseError("snapshot: top level must be an object")
    if data.get("format") != "snapshot/1":
        raise ParseError("snapshot: missing or unsupported format marker")
    version = _require(data, "version", str, "snapshot")
    tactics = [
        Tactic(_require(t, "id", str, "tactic"), _require(t, "name", str, "tactic"))
        for t in _require(data, "tactics", list, "snapshot")
    ]
    techniques = []
    for raw in _require(data, "techniques", list, "snapshot"):
        parent = raw.get("parent") if isinstance(raw, dict) else None
        if parent is not None and not isinstance(parent, str):
            raise ParseError("technique: field 'parent' must be str")
        tactics_field = _require(raw, "tactics", list, "technique")
        if not all(isinstance(x, str) for x in tactics_field):
            raise ParseError("technique: field 'tactics' must be a list of ids")
        techniques.append(Technique(_require(raw, "id", str, "technique"),
                                    _require(raw, "name", str, "technique"),
                                    parent, tuple(tactics_field)))
    campaigns = []
    for raw in _require(data, "campaigns", list, "snapshot"):
        uses = set()
        for pair in _require(raw, "uses", list, "campaign"):
            # Checked inline, as a snapshot holds tens of thousands of pairs;
            # _require is called only to word the error.
            if type(pair) is dict:
                tactic, tech = pair.get("tactic"), pair.get("technique")
                if type(tactic) is str and type(tech) is str:
                    uses.add((tactic, tech))
                    continue
            uses.add((_require(pair, "tactic", str, "usage pair"),
                      _require(pair, "technique", str, "usage pair")))
        campaigns.append(Campaign(_require(raw, "id", str, "campaign"),
                                  _require(raw, "name", str, "campaign"), frozenset(uses)))
    return KnowledgeSnapshot(version, tactics, techniques, campaigns)


def _array(items: list[str], indent: str) -> str:
    """``json.dumps(indent=2)``'s layout of an array of encoded items."""
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]" if items else "[]"


def save_snapshot(snapshot: KnowledgeSnapshot, target: str | IO[str]) -> None:
    """Write canonical snapshot/1 JSON: the bytes of ``json.dumps(doc, indent=2) + "\\n"``.

    Built from a fixed template per object, with every string through the C
    ASCII escaper, and written one technique or campaign at a time.
    """
    enc = encode_basestring_ascii
    tactic_pos = {t.id: i for i, t in enumerate(snapshot.tactics)}
    use = '{\n          "tactic": %s,\n          "technique": %s\n        }'
    tactics = (f'{{\n      "id": {enc(t.id)},\n      "name": {enc(t.name)}\n    }}'
               for t in snapshot.tactics)
    techniques = (
        f'{{\n      "id": {enc(t.id)},\n      "name": {enc(t.name)},\n      "parent": '
        f'{"null" if t.parent is None else enc(t.parent)},\n      "tactics": '
        f'{_array([enc(x) for x in t.tactics], "      ")}\n    }}'
        for t in snapshot.techniques.values()
    )
    campaigns = (
        f'{{\n      "id": {enc(c.id)},\n      "name": {enc(c.name)},\n      "uses": '
        + _array([use % (enc(tac), enc(tech)) for tac, tech in
                  sorted(c.uses, key=lambda p: (tactic_pos[p[0]], p[1]))], "      ")
        + "\n    }"
        for c in snapshot.campaigns.values()
    )
    with _opened(target, "w") as fh:
        fh.write(f'{{\n  "format": "snapshot/1",\n  "version": {enc(snapshot.version)}')
        for key, items in (("tactics", tactics), ("techniques", techniques),
                           ("campaigns", campaigns)):
            fh.write(f',\n  "{key}": ')
            sep = "[\n    "
            for item in items:
                fh.write(sep + item)
                sep = ",\n    "
            fh.write("[]" if sep[0] == "[" else "\n  ]")  # sep is "[..." until an item
        fh.write("\n}\n")


def write_likelihood_csv(matrix: ProbMatrix, target: str | IO[str]) -> None:
    """CSV export: header technique,tactic,probability, 12 significant digits."""
    with _opened(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["technique", "tactic", "probability"])
        for tech_id, tactic_id, p in matrix.entries():
            writer.writerow([tech_id, tactic_id, f"{float(p):.12g}"])
