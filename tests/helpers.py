"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from attackquant.catm import TruthValue
from attackquant.metrics import Load
from attackquant.snapshot import Campaign, KnowledgeSnapshot, Tactic, Technique
from attackquant.tree import AttackTree, GateType, Node

OR, AND, SAND, BAS = GateType.OR, GateType.AND, GateType.SAND, GateType.BAS

WOCAO_ENTRY_NODES = [
    Node("InA", OR, ("EVJ", "VPN"), "Initial Access"),
    Node("EVJ", OR, ("CVE1", "CVE2"), "Exploit vulnerable JBoss server"),
    Node("VPN", AND, ("GVC", "CVP"), "Enter through VPN"),
    Node("CVE1", BAS, (), "Exploit CVE-2010-0738"),
    Node("CVE2", BAS, (), "Exploit CVE-2017-12149"),
    Node("GVC", BAS, (), "Get valid VPN credentials"),
    Node("CVP", BAS, (), "Connect to VPN"),
]


def wocao_entry_tree() -> AttackTree:
    return AttackTree(WOCAO_ENTRY_NODES, "InA")


def cone_tree(tree: AttackTree, node_id: str) -> AttackTree:
    """The node's cone as a tree of its own, rooted at the node."""
    cone = tree.below([node_id])
    return AttackTree([n for nid, n in tree.nodes.items() if nid in cone], node_id)


def kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    """Strong Kleene disjunction: the oracle for ``|``, which the parser desugars."""
    return max(a, b, key=lambda v: v.value)


def random_tree(rng: random.Random, max_leaves: int = 10, dag: bool = False) -> AttackTree:
    """Random valid AT; with dag=True some subtrees get shared."""
    counter = itertools.count()
    nodes: list[Node] = []
    leaf_budget = [rng.randint(1, max_leaves)]
    gate_pool: list[str] = []

    def grow(depth: int) -> str:
        make_leaf = leaf_budget[0] <= 1 or depth >= 4 or rng.random() < 0.3
        if make_leaf:
            nid = f"b{next(counter)}"
            nodes.append(Node(nid, BAS, ()))
            leaf_budget[0] -= 1
            return nid
        gate = rng.choice((OR, AND, SAND))
        width = rng.randint(1, 3) if gate is OR else rng.randint(2, 3)
        children: list[str] = []
        for _ in range(width):
            if dag and gate_pool and rng.random() < 0.25:
                pick = rng.choice(gate_pool)
                if pick not in children:
                    children.append(pick)
                    continue
            children.append(grow(depth + 1))
        nid = f"g{next(counter)}"
        nodes.append(Node(nid, gate, tuple(dict.fromkeys(children))))
        gate_pool.append(nid)
        return nid

    root = grow(0)
    tree = AttackTree(nodes, root)
    tree.require_valid()
    return tree


def holds(tree: AttackTree, node_id: str, attack) -> bool:
    """The structure function by its definition, read off ``tree.nodes`` alone."""
    node = tree.nodes[node_id]
    if node.type is BAS:
        return node_id in attack
    children = [holds(tree, child, attack) for child in node.children]
    return any(children) if node.type is OR else all(children)


def brute_minimal_attacks(tree: AttackTree) -> frozenset[frozenset[str]]:
    """Subset filtering over the whole powerset of leaves."""
    leaves = sorted(tree.bas_ids)
    successful = [
        frozenset(combo)
        for r in range(len(leaves) + 1)
        for combo in itertools.combinations(leaves, r)
        if holds(tree, tree.root, combo)
    ]
    return frozenset(
        a for a in successful if not any(b < a for b in successful)
    )


def brute_metric_all_successful(load: Load, attr: dict[str, float], tree: AttackTree) -> float:
    """Nabla over every successful set, not just the minimal ones."""
    leaves = sorted(tree.bas_ids)
    return load.fold_nabla(
        load.fold_delta(attr[s] for s in combo)
        for r in range(len(leaves) + 1)
        for combo in itertools.combinations(leaves, r)
        if holds(tree, tree.root, combo)
    )


def random_attribution(rng: random.Random, tree: AttackTree, load: Load) -> dict[str, float]:
    lo, hi = load.domain
    hi = min(hi, 100.0)
    return {b: rng.uniform(lo, hi) for b in sorted(tree.bas_ids)}


def random_interval_attribution(
    rng: random.Random, tree: AttackTree, load: Load
) -> dict[str, tuple[float, float]]:
    lo, hi = load.domain
    hi = min(hi, 100.0)
    out = {}
    for b in sorted(tree.bas_ids):
        a, c = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        out[b] = (a, c)
    return out


def snapshot_from_usage(
    tactics: dict[str, list[str]],
    subs: dict[str, list[str]],
    campaigns: dict[str, list[tuple[str, str]]],
    version: str = "test-v1",
) -> KnowledgeSnapshot:
    """Compact snapshot builder.

    tactics: tactic id -> parent technique ids tagged with it.
    subs: parent id -> subtechnique ids (tags inherited from the parent).
    campaigns: campaign id -> list of (tactic, technique) usage pairs.
    """
    tag_map: dict[str, list[str]] = {}
    for tac, parents in tactics.items():
        for parent in parents:
            tag_map.setdefault(parent, []).append(tac)
    techniques = []
    for parent, tags in tag_map.items():
        techniques.append(Technique(parent, parent, None, tuple(tags)))
        for sub in subs.get(parent, []):
            techniques.append(Technique(sub, sub, parent, tuple(tags)))
    camp_objs = [
        Campaign(cid, cid, frozenset(pairs)) for cid, pairs in campaigns.items()
    ]
    return KnowledgeSnapshot(
        version,
        [Tactic(t, t) for t in tactics],
        techniques,
        camp_objs,
    )


def snapshot_to_dict(snapshot: KnowledgeSnapshot) -> dict:
    """The snapshot/1 document; ``save_snapshot`` writes it as ``json.dumps(indent=2)``."""
    tactic_pos = {t.id: i for i, t in enumerate(snapshot.tactics)}
    return {
        "format": "snapshot/1",
        "version": snapshot.version,
        "tactics": [{"id": t.id, "name": t.name} for t in snapshot.tactics],
        "techniques": [
            {"id": t.id, "name": t.name, "parent": t.parent, "tactics": list(t.tactics)}
            for t in snapshot.techniques.values()
        ],
        "campaigns": [
            {
                "id": c.id,
                "name": c.name,
                "uses": [
                    {"tactic": tac, "technique": tech}
                    for tac, tech in sorted(
                        c.uses, key=lambda p: (tactic_pos.get(p[0], len(tactic_pos)), p[1])
                    )
                ],
            }
            for c in snapshot.campaigns.values()
        ],
    }


def random_snapshot(rng: random.Random) -> KnowledgeSnapshot:
    """Small random snapshot with parents, subs, and 1-4 campaigns."""
    n_tactics = rng.randint(1, 3)
    tactic_ids = [f"TA{i}" for i in range(n_tactics)]
    tactics: dict[str, list[str]] = {t: [] for t in tactic_ids}
    subs: dict[str, list[str]] = {}
    leaf_pairs: list[tuple[str, str]] = []
    parent_pairs: list[tuple[str, str]] = []
    for i in range(rng.randint(1, 5)):
        parent = f"T{i}"
        home = rng.sample(tactic_ids, rng.randint(1, n_tactics))
        for t in home:
            tactics[t].append(parent)
        n_subs = rng.choice((0, 0, 2, 3))
        subs[parent] = [f"{parent}.{j}" for j in range(1, n_subs + 1)]
        for t in home:
            parent_pairs.append((t, parent))
            if n_subs:
                leaf_pairs.extend((t, s) for s in subs[parent])
            else:
                leaf_pairs.append((t, parent))
    campaigns: dict[str, list[tuple[str, str]]] = {}
    for c in range(rng.randint(1, 4)):
        k = rng.randint(1, min(4, len(leaf_pairs)))
        usage = set(rng.sample(leaf_pairs, k))
        if rng.random() < 0.4:
            usage.add(rng.choice(parent_pairs))
        campaigns[f"C{c}"] = sorted(usage)
    return snapshot_from_usage(tactics, subs, campaigns)


def fraction_probs(counts: dict[str, int]) -> dict[str, Fraction]:
    total = sum(counts.values())
    return {k: Fraction(v, total) for k, v in counts.items()}
