"""Reader and writer for the at/1 JSON attack tree interchange format.

A document carries the tree shape plus optional leaf attributions:
``prob`` (a number) or ``prob_interval`` ([lo, hi]) for probabilities,
and an optional ``attrs`` object ({load-name: value | [lo, hi]}) for the
other metric domains.  Unknown fields are ignored but carried through a
read/write round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from .errors import InvariantError, ParseError, _opened, read_json
from .metrics import BUILTIN_LOADS, Interval, get_load, neg_log
from .tree import AttackTree, GateType, Node

_NODE_FIELDS = {"id", "type", "children", "label", "tactic", "technique", "prob", "prob_interval", "attrs"}
_TOP_FIELDS = {"format", "root", "nodes"}


@dataclass
class AtDocument:
    """One parsed at/1 file: the tree plus its attributions and extras."""

    tree: AttackTree
    prob: dict[str, Interval] = field(default_factory=dict)
    attrs: dict[str, dict[str, Interval]] = field(default_factory=dict)
    top_extras: dict = field(default_factory=dict)
    node_extras: dict[str, dict] = field(default_factory=dict)

    def attribution(self, load_name: str) -> dict[str, float | Interval]:
        """Leaf values of one load: a number where both ends agree, else (lo, hi)."""
        get_load(load_name)
        if load_name == "maxprob":
            entries = self.prob
        elif load_name == "security-index":
            # Derived from probabilities; -ln is antitone, so ends swap.
            entries = {step: (neg_log(hi), neg_log(lo)) for step, (lo, hi) in self.prob.items()}
        else:
            entries = self.attrs.get(load_name, {})
        return _number_or_pair(entries)

    def attributions(self) -> dict[str, dict[str, float | Interval]]:
        """:meth:`attribution` of every load that has values, for query evaluation."""
        out: dict[str, dict[str, float | Interval]] = {}
        for name in BUILTIN_LOADS:
            entries = self.attribution(name)
            if entries:
                out[name] = entries
        return out


def _number_or_pair(entries: dict[str, Interval]) -> dict[str, float | Interval]:
    """Each value as a number where both ends agree, else as (lo, hi)."""
    return {step: lo if lo == hi else (lo, hi) for step, (lo, hi) in entries.items()}


def _interval_from(raw, where: str, load_name: str) -> Interval:
    """A JSON number ``v`` as ``(v, v)``, or ``[lo, hi]``, checked against the load's domain."""
    load = get_load(load_name)
    lo, hi = raw if type(raw) is list and len(raw) == 2 else (raw, raw)
    if type(lo) not in (int, float) or type(hi) not in (int, float):  # bool is neither
        raise ParseError(f"{where}: expected a number or [lo, hi]")
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{where}: number out of range") from None
    if lo > hi:
        raise InvariantError(f"{where}: interval bounds out of order [{lo}, {hi}]")
    return load.check_value(lo, where), load.check_value(hi, where)


def read_at(source: str | IO[str]) -> AtDocument:
    """Parse an at/1 document from a path or open text file."""
    data = read_json(source, "attack tree file")
    if not isinstance(data, dict):
        raise ParseError("attack tree file: top level must be an object")
    if data.get("format") != "at/1":
        raise ParseError("attack tree file: missing or unsupported format marker")
    root = data.get("root")
    if not isinstance(root, str):
        raise ParseError("attack tree file: 'root' must be a node id")
    raw_nodes = data.get("nodes")
    if not isinstance(raw_nodes, list):
        raise ParseError("attack tree file: 'nodes' must be a list")

    nodes: list[Node] = []
    prob: dict[str, Interval] = {}
    attrs: dict[str, dict[str, Interval]] = {}
    node_extras: dict[str, dict] = {}
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise ParseError("attack tree file: each node must be an object")
        nid = raw.get("id")
        if not isinstance(nid, str) or not nid:
            raise ParseError("attack tree file: node without a string id")
        where = f"node {nid!r}"
        type_name = raw.get("type")
        try:
            gate = GateType(type_name)
        except ValueError:
            raise ParseError(f"{where}: unknown type {type_name!r}") from None
        children = raw.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise ParseError(f"{where}: 'children' must be a list of ids")
        for key in ("label", "tactic", "technique"):
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise ParseError(f"{where}: {key!r} must be a string")
        nodes.append(
            Node(nid, gate, tuple(children), raw.get("label"), raw.get("tactic"), raw.get("technique"))
        )
        if "prob" in raw and "prob_interval" in raw:
            raise InvariantError(f"{where}: both prob and prob_interval present")
        for key in ("prob", "prob_interval"):
            if key in raw:
                if gate is not GateType.BAS:
                    raise InvariantError(f"{where}: probability on a non-BAS node")
                prob[nid] = _interval_from(raw[key], where, "maxprob")
        raw_attrs = raw.get("attrs")
        if raw_attrs is not None:
            if not isinstance(raw_attrs, dict):
                raise ParseError(f"{where}: 'attrs' must be an object")
            if gate is not GateType.BAS:
                raise InvariantError(f"{where}: attrs on a non-BAS node")
            for load_name, raw_value in raw_attrs.items():
                if load_name in ("maxprob", "security-index"):
                    raise InvariantError(
                        f"{where}: attrs[{load_name!r}] is never read; "
                        "give the probability as prob or prob_interval"
                    )
                attrs.setdefault(load_name, {})[nid] = _interval_from(
                    raw_value, f"{where} attrs[{load_name!r}]", load_name
                )
        extras = {k: v for k, v in raw.items() if k not in _NODE_FIELDS}
        if extras:
            node_extras[nid] = extras

    tree = AttackTree(nodes, root)
    top_extras = {k: v for k, v in data.items() if k not in _TOP_FIELDS}
    return AtDocument(tree, prob, attrs, top_extras, node_extras)


def write_at(doc: AtDocument, target: str | IO[str]) -> None:
    """Write at/1 JSON with stable bytes for equal documents."""
    out: dict = {"format": "at/1", "root": doc.tree.root}
    out.update(doc.top_extras)
    prob = _number_or_pair(doc.prob)
    attrs = {name: _number_or_pair(entries) for name, entries in sorted(doc.attrs.items())}
    rendered = []
    for node in doc.tree.nodes.values():
        raw: dict = {"id": node.id, "type": node.type.value}
        if node.children:
            raw["children"] = list(node.children)
        for key, value in (("label", node.label), ("tactic", node.tactic), ("technique", node.technique)):
            if value is not None:
                raw[key] = value
        if node.id in prob:
            raw["prob_interval" if isinstance(prob[node.id], tuple) else "prob"] = prob[node.id]
        per_node = {name: entries[node.id] for name, entries in attrs.items() if node.id in entries}
        if per_node:
            raw["attrs"] = per_node
        raw.update(doc.node_extras.get(node.id, {}))
        rendered.append(raw)
    out["nodes"] = rendered
    with _opened(target, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
