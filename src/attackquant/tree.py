"""Attack tree core: a rooted DAG of gates over basic attack steps.

Nodes are OR/AND/SAND gates or BAS leaves.  A node is a BAS exactly when
it has no children.  Children may be shared between gates (DAG shape);
SAND children are ordered, which the model preserves but the untimed
semantics here does not otherwise exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InvariantError, UnknownEntityError


class GateType(Enum):
    OR = "OR"
    AND = "AND"
    SAND = "SAND"
    BAS = "BAS"


@dataclass(frozen=True)
class Node:
    """One attack tree node; gates carry children, leaves carry tags.

    ``tactic`` and ``technique`` are optional knowledge-base tags used by
    template instantiation and leaf attribution; plain hand-built trees
    leave them unset.
    """

    id: str
    type: GateType
    children: tuple[str, ...] = ()
    label: str | None = None
    tactic: str | None = None
    technique: str | None = None


# An attack is a set of BAS ids.
Attack = frozenset[str]

V = TypeVar("V")


def _minimize(families: Iterable[int]) -> list[int]:
    """Keep only subset-minimal bitmasks (antichain under inclusion)."""
    ordered = sorted(set(families), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    # Only a kept mask of fewer bits can subsume a mask: one of equal count
    # would be a duplicate, and the set removed those.  kept[:fewer] are those.
    bits, fewer = -1, 0
    for mask in ordered:
        if mask.bit_count() != bits:
            bits, fewer = mask.bit_count(), len(kept)
        if not any(k & mask == k for k in kept[:fewer]):
            kept.append(mask)
    return kept


def _cross(left: list[int], right: list[int]) -> list[int]:
    """AND of two cut families (bitmasks over one BAS order): minimal unions."""
    return _minimize([a | b for a in left for b in right])


def _decode(masks: Iterable[int], order: Sequence[str]) -> frozenset[Attack]:
    """Bitmasks back to attacks, bit i naming ``order[i]``."""
    return frozenset(
        frozenset(order[i] for i in range(mask.bit_length()) if mask >> i & 1)
        for mask in masks
    )


class AttackTree:
    """Immutable rooted DAG of OR/AND/SAND gates over BAS leaves.

    Construction tolerates structurally broken input (dangling children,
    cycles, childless gates) so that :meth:`validate` can report every
    violation; the analysis operations refuse to run until the tree is
    valid.
    """

    def __init__(self, nodes: Iterable[Node], root: str):
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            if not node.id:
                raise InvariantError("empty node id")
            if node.id in self._nodes:
                raise InvariantError(f"duplicate node id {node.id!r}")
            self._nodes[node.id] = node
        self.root = root
        self._violations: list[str] | None = None
        self._parents: dict[str, tuple[str, ...]] | None = None
        self._cut_bits: dict[str, list[int]] = {}

    # -- basic accessors ------------------------------------------------

    @property
    def nodes(self) -> Mapping[str, Node]:
        return MappingProxyType(self._nodes)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownEntityError(f"unknown node {node_id!r}") from None

    @property
    def bas_ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self._nodes.values() if n.type is GateType.BAS)

    @property
    def parents(self) -> Mapping[str, tuple[str, ...]]:
        if self._parents is None:
            acc: dict[str, list[str]] = {nid: [] for nid in self._nodes}
            for node in self._nodes.values():
                for child in node.children:
                    if child in acc:
                        acc[child].append(node.id)
            self._parents = {nid: tuple(ps) for nid, ps in acc.items()}
        return self._parents

    @property
    def is_tree_structured(self) -> bool:
        return all(len(ps) <= 1 for ps in self.parents.values())

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Return every violated structural invariant; empty means valid."""
        if self._violations is not None:
            return list(self._violations)
        out: list[str] = []
        if self.root not in self._nodes:
            out.append(f"root {self.root!r} is not among the nodes")
        for node in self._nodes.values():
            if node.type is GateType.BAS and node.children:
                out.append(f"BAS {node.id!r} has children")
            if node.type is not GateType.BAS and not node.children:
                out.append(f"gate {node.id!r} has no children")
            for child in node.children:
                if child not in self._nodes:
                    out.append(f"node {node.id!r} references missing child {child!r}")
        for nid, ps in self.parents.items():
            if nid == self.root:
                if ps:
                    out.append(f"root {self.root!r} has incoming edges")
            elif not ps:
                out.append(f"multiple roots: {nid!r} has no parent")
        out.extend(self._find_cycles())
        self._violations = out
        return list(out)

    def _find_cycles(self) -> list[str]:
        # Iterative DFS with colors; reports each back edge once.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {nid: WHITE for nid in self._nodes}
        found: list[str] = []
        for start in self._nodes:
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(start, 0)]
            color[start] = GREY
            while stack:
                nid, idx = stack[-1]
                children = self._nodes[nid].children
                if idx < len(children):
                    stack[-1] = (nid, idx + 1)
                    child = children[idx]
                    if child not in self._nodes:
                        continue
                    if color[child] == GREY:
                        found.append(f"cycle through {child!r}")
                    elif color[child] == WHITE:
                        color[child] = GREY
                        stack.append((child, 0))
                else:
                    color[nid] = BLACK
                    stack.pop()
        return found

    def require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvariantError("invalid attack tree: " + "; ".join(violations))

    # -- semantics ------------------------------------------------------

    def _as_attack(self, attack: Iterable[str]) -> Attack:
        steps = frozenset(attack)
        for step in steps:
            node = self._nodes.get(step)
            if node is None:
                raise UnknownEntityError(f"unknown attack step {step!r}")
            if node.type is not GateType.BAS:
                raise InvariantError(f"attack step {step!r} is not a BAS")
        return steps

    def fold(
        self,
        target: str,
        leaf: Callable[[Node], V],
        or_: Callable[[list[V]], V],
        and_: Callable[[list[V]], V],
        live: Container[str] | None = None,
        values: dict[str, V] | None = None,
    ) -> V:
        """Bottom-up pass over the cone of ``target``: ``or_`` at OR, ``and_`` at AND/SAND.

        A leaf gives ``leaf(node)``; a gate gives ``or_`` or ``and_`` of the
        list of its children's values, in child order.  Children outside
        ``live``, when given, are absent, which is pruning without building
        a pruned tree.  Gate values are memoised in ``values``, filled in
        place, so a gate shared in a DAG is evaluated once and callers can
        share one memo across calls.  Iterative, so depth is unbounded.
        Callers check the tree is valid.
        """
        nodes, bas, or_type = self._nodes, GateType.BAS, GateType.OR
        memo: dict[str, V] = {} if values is None else values
        # The bottom frame has no gate; its one child is the target.
        frames: list[tuple[Node | None, Iterator[str], list[V]]]
        frames = [(None, iter((target,)), [])]
        while True:
            gate, children, acc = frames[-1]
            for child in children:
                node = nodes[child]
                if node.type is bas:
                    acc.append(leaf(node))
                elif child in memo:
                    acc.append(memo[child])
                else:
                    kept = (node.children if live is None
                            else [c for c in node.children if c in live])
                    frames.append((node, iter(kept), []))  # resume this gate's children later
                    break
            else:
                frames.pop()
                if gate is None:
                    return acc[0]
                value = memo[gate.id] = (or_ if gate.type is or_type else and_)(acc)
                frames[-1][2].append(value)

    def _reach(self, start: Iterable[str], step: Callable[[str], Iterable[str]]) -> set[str]:
        """Every node reachable from ``start`` through ``step``, ``start`` included."""
        seen: set[str] = set()
        stack = [self.node(nid).id for nid in start]
        while stack:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(step(nid))
        return seen

    def above(self, nodes: Iterable[str]) -> set[str]:
        """The given nodes and all their ancestors."""
        return self._reach(nodes, self.parents.__getitem__)

    def below(self, nodes: Iterable[str]) -> set[str]:
        """The given nodes and all their descendants."""
        return self._reach(nodes, lambda nid: self._nodes[nid].children)

    def structure_function(self, node_id: str, attack: Iterable[str]) -> bool:
        """Whether the given set of succeeded BASes compromises ``node_id``."""
        self.require_valid()
        self.node(node_id)
        steps = self._as_attack(attack)
        return self.fold(node_id, lambda node: node.id in steps, any, all)

    def descendants(self, node_id: str) -> frozenset[str]:
        """Strict descendants of a node (the node itself excluded)."""
        self.require_valid()
        return frozenset(self.below([node_id]) - {node_id})

    def minimal_attacks(self) -> frozenset[Attack]:
        """Subset-minimal attacks compromising the root.

        Computed bottom-up as bitmasks over the sorted BAS ids, with
        subsumption elimination at every gate, so shared subtrees in DAGs
        cannot smuggle non-minimal products into the result.  Each gate's
        family is kept on the tree for later calls, whose bit order is the
        same sorted one.
        """
        self.require_valid()
        order = sorted(self.bas_ids)
        bit = {b: 1 << i for i, b in enumerate(order)}
        masks = self.fold(
            self.root,
            lambda node: [bit[node.id]],
            lambda families: _minimize(m for family in families for m in family),
            lambda families: reduce(_cross, families, [0]),
            values=self._cut_bits,
        )
        return _decode(masks, order)

    def is_module(self, node_id: str) -> bool:
        """Whether every path between the node's cone and the rest runs through it."""
        self.require_valid()
        self.node(node_id)
        cone = self.descendants(node_id)
        parents = self.parents
        return all(p == node_id or p in cone for d in cone for p in parents[d])

    def prune(self, live: Iterable[str]) -> "AttackTree":
        """Restrict to the given live BASes, dropping gates left childless.

        Child order (SAND sequencing) is preserved.  Pruning away the
        whole tree is an error: an empty campaign has no model.
        """
        self.require_valid()
        live_set = frozenset(live)
        bas = self.bas_ids
        for step in live_set:
            if step not in self._nodes:
                raise UnknownEntityError(f"unknown leaf {step!r}")
            if step not in bas:
                raise InvariantError(f"cannot keep {step!r}: not a BAS")
        kept = self.above(live_set)
        if self.root not in kept:
            raise InvariantError("empty campaign: pruning would remove the root")
        # Every kept node stays connected: its ancestors are kept too.
        new_nodes = [
            node if node.type is GateType.BAS
            else replace(node, children=tuple(c for c in node.children if c in kept))
            for node in self._nodes.values() if node.id in kept
        ]
        return AttackTree(new_nodes, self.root)
