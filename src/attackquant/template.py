"""Auto-templated attack trees and per-campaign security indices.

A template spans the whole knowledge snapshot: a SAND root over one gate
per tactic, technique nodes below, subtechnique leaves at the bottom.
The difficulty level decides the gate types, which makes the index an
optimistic (EASY), moderate (DEFAULT), or pessimistic (HARD) reading of
the same campaign data.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .errors import UndefinedIndexError
from .metrics import SECURITY_INDEX, neg_log
from .snapshot import KnowledgeSnapshot, likelihoods, used_pairs
from .tree import AttackTree, GateType, Node

ROOT_ID = "campaign"


class Difficulty(Enum):
    EASY = "easy"
    DEFAULT = "default"
    HARD = "hard"


# (tactic gate, technique gate) below the SAND root, per difficulty
_GATES = {
    Difficulty.EASY: (GateType.OR, GateType.OR),
    Difficulty.DEFAULT: (GateType.SAND, GateType.OR),
    Difficulty.HARD: (GateType.AND, GateType.AND),
}


def leaf_node_id(tech_id: str, tactic_id: str) -> str:
    """Deterministic template node id for a technique under a tactic."""
    return f"{tech_id}@{tactic_id}"


def _tactic_children(snapshot: KnowledgeSnapshot) -> dict[str, list[str]]:
    """Parent techniques shown under each tactic, sorted, in one sweep.

    A parent belongs to a tactic when it, or any of its subtechniques,
    carries the tag; that way every leaf usage normalization can produce
    has a home in the template.
    """
    parents: dict[str, set[str]] = {}
    for tech in snapshot.techniques.values():
        parent = tech.id if tech.parent is None else tech.parent
        for tactic_id in tech.tactics:
            parents.setdefault(tactic_id, set()).add(parent)
    return {tactic_id: sorted(ids) for tactic_id, ids in parents.items()}


def build_template(snapshot: KnowledgeSnapshot, difficulty: Difficulty) -> AttackTree:
    """Template over every tactic and technique in the snapshot.

    Gate types by difficulty: HARD is all-AND below the root, EASY is
    all-OR below the root, DEFAULT keeps the tactic level sequential and
    refines techniques with OR.  Tactics with no techniques are omitted
    (a childless gate would be invalid).
    """
    tactic_gate, technique_gate = _GATES[difficulty]
    nodes: list[Node] = []
    tactic_ids: list[str] = []
    children_of = _tactic_children(snapshot)
    for tactic in snapshot.tactics:
        children = children_of.get(tactic.id)
        if not children:
            continue
        tactic_ids.append(tactic.id)
        tech_nodes: list[str] = []
        for tech_id in children:
            nid = leaf_node_id(tech_id, tactic.id)
            tech_nodes.append(nid)
            subs = snapshot.subtechniques_of(tech_id)
            if subs:
                sub_ids = tuple(leaf_node_id(s, tactic.id) for s in subs)
                nodes.append(
                    Node(nid, technique_gate, sub_ids,
                         snapshot.technique(tech_id).name, tactic.id, tech_id)
                )
                for sub, sid in zip(subs, sub_ids):
                    nodes.append(
                        Node(sid, GateType.BAS, (),
                             snapshot.technique(sub).name, tactic.id, sub)
                    )
            else:
                nodes.append(
                    Node(nid, GateType.BAS, (),
                         snapshot.technique(tech_id).name, tactic.id, tech_id)
                )
        nodes.append(Node(tactic.id, tactic_gate, tuple(tech_nodes), tactic.name, tactic.id))
    nodes.append(Node(ROOT_ID, GateType.SAND, tuple(tactic_ids), "Campaign"))
    return AttackTree(nodes, ROOT_ID)


def campaign_index(snapshot: KnowledgeSnapshot, campaign_id: str, template: AttackTree) -> float:
    """Security index of one campaign on a :func:`build_template` of the snapshot.

    Used leaves contribute -ln p, a subtree whose leaves the campaign
    never used contributes nothing to its parent (equivalently, the
    parent's neutral element), OR takes the minimum of the present child
    values, AND/SAND their sum.  Equals pruning the template to the used
    leaves and evaluating the security index there: it is the same
    :meth:`~attackquant.tree.AttackTree.fold`, restricted to the cone
    above the used leaves, so the cost follows the campaign's usage, not
    the template's size.  The template's difficulty is the index's; a used
    leaf the template lacks is an :class:`UnknownEntityError`.
    """
    used = [leaf_node_id(tech, tactic) for tech, tactic in used_pairs(snapshot, campaign_id)]
    probs = likelihoods(snapshot)
    # Only the nodes above a used leaf are live; the rest of the template is absent.
    live = template.above(used)
    if template.root not in live:
        raise UndefinedIndexError(
            f"campaign {campaign_id!r} has no recorded usage; index undefined"
        )
    return template.fold(
        template.root,
        lambda node: neg_log(probs.prob_float(node.technique, node.tactic)),
        SECURITY_INDEX.fold_nabla, SECURITY_INDEX.fold_delta, live,
    )


def security_range(snapshot: KnowledgeSnapshot, campaign_id: str) -> tuple[float, float]:
    """(EASY, HARD) index pair bounding every difficulty in between."""
    return (
        campaign_index(snapshot, campaign_id, build_template(snapshot, Difficulty.EASY)),
        campaign_index(snapshot, campaign_id, build_template(snapshot, Difficulty.HARD)),
    )


def compare_all(snapshot: KnowledgeSnapshot) -> dict[str, dict[Difficulty, float | None]]:
    """Index per campaign and difficulty, in snapshot order; None where undefined (no usage)."""
    templates = {d: build_template(snapshot, d) for d in Difficulty}
    indices: dict[str, dict[Difficulty, float | None]] = {c: {} for c in snapshot.campaigns}
    for campaign_id, per_level in indices.items():
        for difficulty, template in templates.items():
            try:
                per_level[difficulty] = campaign_index(snapshot, campaign_id, template)
            except UndefinedIndexError:
                per_level[difficulty] = None
    return indices


def rank(indices: Iterable[tuple[str, float | None]]) -> list[tuple[str, float | None]]:
    """(campaign id, index) pairs by ascending index, then id; undefined (None) last."""
    return sorted(indices, key=lambda kv: (kv[1] is None, 0.0 if kv[1] is None else kv[1], kv[0]))


def instantiate(
    snapshot: KnowledgeSnapshot, campaign_id: str, difficulty: Difficulty = Difficulty.DEFAULT
) -> tuple[AttackTree, dict[str, float]]:
    """Pruned template for one campaign plus its leaf probabilities."""
    used = used_pairs(snapshot, campaign_id)
    probs = likelihoods(snapshot)
    template = build_template(snapshot, difficulty)
    live = {leaf_node_id(tech, tactic) for tech, tactic in used}
    pruned = template.prune(live)
    attribution = {
        leaf_node_id(tech, tactic): probs.prob_float(tech, tactic)
        for tech, tactic in used
    }
    return pruned, attribution
