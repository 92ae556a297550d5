"""Seeded at/1 trees and formulas, and oracles that do not use the package.

Generators: tree-structured trees of a given node count, the shared-leaf
DAG family (k ORs of {a_i, b_i, s} under one AND), random DAGs, a deep
OR chain, and layer-1 / layer-2 formulas.

Oracles: an iterative bottom-up fold for tree-structured trees, the
closed form of the DAG family, brute force over every leaf subset (as
big-integer bitsets) for up to 16 leaves, minimal cut sets as leaf bitmasks
for other DAGs, and the trivalent layer-2 semantics.
"""

from __future__ import annotations

import math
import operator
import random

LOADS = {
    # name: (nabla, delta, nabla unit, delta unit)
    "mincost": (min, operator.add, math.inf, 0.0),
    "mintime-seq": (min, operator.add, math.inf, 0.0),
    "mintime-par": (min, max, math.inf, 0.0),
    "minskill": (min, max, math.inf, 0.0),
    "maxprob": (max, operator.mul, 0.0, 1.0),
    "security-index": (min, operator.add, math.inf, 0.0),
}
ATTR_LOADS = ("mincost", "mintime-seq", "mintime-par", "minskill")


# -- documents -------------------------------------------------------------


def _leaf(rng: random.Random, nid: str, interval: bool) -> dict:
    """A BAS carrying a probability and every attrs load."""
    node: dict = {"id": nid, "type": "BAS"}
    p = round(rng.uniform(0.5, 0.98), 4)
    if interval and rng.random() < 0.7:
        node["prob_interval"] = [round(p - rng.uniform(0.05, 0.4), 4), p]
    else:
        node["prob"] = p
    attrs = {}
    for load in ATTR_LOADS:
        v = float(rng.randint(1, 40))
        attrs[load] = [v, v + rng.randint(1, 9)] if interval and rng.random() < 0.7 else v
    node["attrs"] = attrs
    return node


def tree_doc(rng: random.Random, size: int, interval: bool) -> dict:
    """Tree-structured tree with about ``size`` nodes, grown by random splits."""
    children: dict[str, list[str]] = {"n0": []}
    kinds: dict[str, str] = {"n0": "BAS"}
    open_leaves = ["n0"]
    count = 1
    while count < size:
        victim = open_leaves.pop(rng.randrange(len(open_leaves)))
        kinds[victim] = rng.choice(("OR", "OR", "AND", "SAND"))
        for _ in range(rng.randint(2, 4)):
            nid = f"n{count}"
            count += 1
            kinds[nid] = "BAS"
            children[nid] = []
            children[victim].append(nid)
            open_leaves.append(nid)
    nodes = []
    for nid, kind in kinds.items():
        if kind == "BAS":
            nodes.append(_leaf(rng, nid, interval))
        else:
            nodes.append({"id": nid, "type": kind, "children": children[nid]})
    return {"format": "at/1", "root": "n0", "nodes": nodes}


def family_doc(rng: random.Random, k: int, interval: bool) -> dict:
    """AND over k ORs, the i-th over {a_i, b_i, s}: 2k+1 leaves, 2^k + 1 cuts."""
    nodes = [{"id": "top", "type": "AND", "children": [f"o{i}" for i in range(k)]}]
    for i in range(k):
        nodes.append({"id": f"o{i}", "type": "OR", "children": [f"a{i}", f"b{i}", "s"]})
    for i in range(k):
        nodes.append(_leaf(rng, f"a{i}", interval))
        nodes.append(_leaf(rng, f"b{i}", interval))
    shared = _leaf(rng, "s", interval)
    # keep the shared leaf from always being the optimum on its own
    shared["attrs"] = {load: 60.0 * k for load in ATTR_LOADS}
    shared.pop("prob_interval", None)
    shared["prob"] = 0.001
    nodes.append(shared)
    return {"format": "at/1", "root": "top", "nodes": nodes}


def random_dag_doc(rng: random.Random, leaves: int, interval: bool) -> dict:
    """Random DAG: gates adopt one orphan and share other nodes at random."""
    nodes = [_leaf(rng, f"b{i}", interval) for i in range(leaves)]
    pool = [n["id"] for n in nodes]
    orphans = pool[:]
    rng.shuffle(orphans)
    count = 0
    while len(orphans) > 1 or count == 0:
        first = orphans.pop()
        picked = [first]
        for _ in range(rng.randint(1, 2)):
            other = orphans.pop() if orphans and rng.random() < 0.6 else rng.choice(pool)
            if other not in picked:
                picked.append(other)
        if len(picked) == 1:
            picked.append(rng.choice([p for p in pool if p != first]))
        gid = f"g{count}"
        count += 1
        nodes.append({"id": gid, "type": rng.choice(("OR", "AND", "SAND")), "children": picked})
        pool.append(gid)
        orphans.insert(rng.randrange(len(orphans) + 1), gid)
    # only the last gate is never adopted, so it is the single root
    return {"format": "at/1", "root": orphans[0], "nodes": nodes}


def chain_doc(depth: int) -> dict:
    """OR chain ``depth`` gates deep; the optimum is the cheapest leaf."""
    nodes = []
    for i in range(depth):
        nxt = f"g{i + 1}" if i + 1 < depth else f"b{depth}"
        nodes.append({"id": f"g{i}", "type": "OR", "children": [f"b{i}", nxt]})
    for i in range(depth + 1):
        nodes.append({"id": f"b{i}", "type": "BAS", "attrs": {"mincost": float(1 + (i * 7919) % 1000)}})
    return {"format": "at/1", "root": "g0", "nodes": nodes}


# -- model -----------------------------------------------------------------


class AtModel:
    """The benchmark's own reading of an at/1 document."""

    def __init__(self, doc: dict):
        self.root = doc["root"]
        self.kind: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        self.prob: dict[str, tuple[float, float]] = {}
        self.attrs: dict[str, dict[str, tuple[float, float]]] = {}
        for n in doc["nodes"]:
            nid = n["id"]
            self.kind[nid] = n["type"]
            self.children[nid] = list(n.get("children", ()))
            if "prob" in n:
                self.prob[nid] = (float(n["prob"]), float(n["prob"]))
            elif "prob_interval" in n:
                self.prob[nid] = (float(n["prob_interval"][0]), float(n["prob_interval"][1]))
            for load, raw in n.get("attrs", {}).items():
                span = (float(raw[0]), float(raw[1])) if isinstance(raw, list) else (float(raw), float(raw))
                self.attrs.setdefault(load, {})[nid] = span
        self.leaves = sorted(n for n, k in self.kind.items() if k == "BAS")
        parents: dict[str, int] = {}
        for kids in self.children.values():
            for c in kids:
                parents[c] = parents.get(c, 0) + 1
        self.tree_structured = all(v <= 1 for v in parents.values())

    def values(self, load: str) -> dict[str, tuple[float, float]]:
        if load == "maxprob":
            return self.prob
        if load == "security-index":
            return {k: (-math.log(hi), -math.log(lo)) for k, (lo, hi) in self.prob.items()}
        return self.attrs.get(load, {})

    def has_intervals(self, load: str) -> bool:
        return any(lo != hi for lo, hi in self.values(load).values())

    def postorder(self, start: str | None = None) -> list[str]:
        order, seen = [], set()
        stack = [(start or self.root, False)]
        while stack:
            nid, done = stack.pop()
            if done:
                order.append(nid)
            elif nid not in seen:
                seen.add(nid)
                stack.append((nid, True))
                stack.extend((c, False) for c in reversed(self.children[nid]))
        return order

    def cone(self, nid: str) -> set[str]:
        return set(self.postorder(nid)) - {nid}

    def leaf_cone(self, nid: str) -> set[str]:
        return {n for n in self.postorder(nid) if self.kind[n] == "BAS"}

    def truth(self, attack: set[str], collapsed: frozenset[str] = frozenset()) -> dict[str, bool]:
        """Structure function of every node; collapsed gates act as leaves."""
        out: dict[str, bool] = {}
        stack = [(self.root, False)]
        while stack:
            nid, done = stack.pop()
            if nid in out:
                continue
            kind = self.kind[nid]
            if kind == "BAS" or nid in collapsed:
                out[nid] = nid in attack
            elif done:
                vals = [out[c] for c in self.children[nid]]
                out[nid] = any(vals) if kind == "OR" else all(vals)
            else:
                stack.append((nid, True))
                stack.extend((c, False) for c in self.children[nid] if c not in out)
        return out


# -- metric oracles --------------------------------------------------------


def fold(model: AtModel, values: dict[str, float], load: str) -> float:
    """Bottom-up semiring fold; sound on tree-structured trees only."""
    if not model.tree_structured:
        raise ValueError("the bottom-up fold is unsound on a DAG")
    nabla, delta, unit_n, unit_d = LOADS[load]
    memo: dict[str, float] = {}
    for nid in model.postorder():
        if model.kind[nid] == "BAS":
            memo[nid] = values[nid]
            continue
        gate_or = model.kind[nid] == "OR"
        acc = unit_n if gate_or else unit_d
        for c in model.children[nid]:
            acc = (nabla if gate_or else delta)(acc, memo[c])
        memo[nid] = acc
    return memo[model.root]


def family_closed_form(model: AtModel, values: dict[str, float], load: str) -> float:
    """nabla(s, delta_i nabla(a_i, b_i)) for the shared-leaf family."""
    nabla, delta, _, unit_d = LOADS[load]
    acc = unit_d
    k = len(model.children["top"])
    for i in range(k):
        acc = delta(acc, nabla(values[f"a{i}"], values[f"b{i}"]))
    return nabla(values["s"], acc)


def _subset_values(leaves: list[str], values: dict[str, float], load: str) -> list[float]:
    """delta-fold over every subset of ``leaves``, indexed by bitmask."""
    _, delta, _, unit_d = LOADS[load]
    table = [unit_d] * (1 << len(leaves))
    for s in range(1, len(table)):
        low = s & -s
        table[s] = delta(table[s ^ low], values[leaves[low.bit_length() - 1]])
    return table


def _leaf_bitsets(leaves: list[str]) -> tuple[dict[str, int], int]:
    """Per leaf, the set of subsets (as one big integer) that contain it."""
    size = 1 << len(leaves)
    out = {}
    for i, leaf in enumerate(leaves):
        half, period = 1 << i, 1 << (i + 1)
        block = ((1 << half) - 1) << half
        repeat = ((1 << size) - 1) // ((1 << period) - 1)
        out[leaf] = block * repeat
    return out, (1 << size) - 1


def _node_bitsets(model: AtModel, leaves: list[str]) -> tuple[dict[str, int], int]:
    bits, full = _leaf_bitsets(leaves)
    vec: dict[str, int] = {}
    for nid in model.postorder():
        kind = model.kind[nid]
        if kind == "BAS":
            vec[nid] = bits.get(nid, 0)
        elif kind == "OR":
            acc = 0
            for c in model.children[nid]:
                acc |= vec[c]
            vec[nid] = acc
        else:
            acc = full
            for c in model.children[nid]:
                acc &= vec[c]
            vec[nid] = acc
    return vec, full


def _best(success: int, table: list[float], load: str) -> float:
    nabla, _, unit_n, _ = LOADS[load]
    acc = unit_n
    flags = format(success, f"0{len(table)}b")[::-1]
    for s, flag in enumerate(flags):
        if flag == "1":
            acc = nabla(acc, table[s])
    return acc


def brute_force(model: AtModel, values: dict[str, float], load: str) -> float:
    """nabla over every successful leaf subset (at most 16 leaves)."""
    if len(model.leaves) > 16:
        raise ValueError("brute force is limited to 16 leaves")
    vec, _ = _node_bitsets(model, model.leaves)
    return _best(vec[model.root], _subset_values(model.leaves, values, load), load)


def cut_sets(model: AtModel) -> list[int]:
    """Minimal attacks as leaf bitmasks (bit i is model.leaves[i]), bottom-up
    with subsumption at each gate.  Integers, not frozensets of ids, keep the
    oracle's memory below that of the operations it checks."""
    def minimize(family):
        kept: list[int] = []
        for cand in sorted(set(family), key=int.bit_count):
            if not any(k & cand == k for k in kept):
                kept.append(cand)
        return kept

    bit = {leaf: 1 << i for i, leaf in enumerate(model.leaves)}
    memo: dict[str, list[int]] = {}
    for nid in model.postorder():
        kind = model.kind[nid]
        if kind == "BAS":
            memo[nid] = [bit[nid]]
        elif kind == "OR":
            memo[nid] = minimize(c for child in model.children[nid] for c in memo[child])
        else:
            acc = [0]
            for child in model.children[nid]:
                acc = minimize(a | b for a in acc for b in memo[child])
            memo[nid] = acc
    return memo[model.root]


def over_cuts(model: AtModel, cuts: list[int], values: dict[str, float], load: str) -> float:
    nabla, delta, unit_n, unit_d = LOADS[load]
    best = unit_n
    for cut in cuts:
        acc = unit_d
        for i, leaf in enumerate(model.leaves):
            if cut >> i & 1:
                acc = delta(acc, values[leaf])
        best = nabla(best, acc)
    return best


def expected_metric(model: AtModel, load: str, method: str) -> tuple[float, float]:
    """Metric at the lower and at the upper attribution ends."""
    spans = model.values(load)
    cuts = cut_sets(model) if method == "cuts" else None
    out = []
    for end in (0, 1):
        values = {k: v[end] for k, v in spans.items()}
        if method == "fold":
            out.append(fold(model, values, load))
        elif method == "family":
            out.append(family_closed_form(model, values, load))
        elif method == "brute":
            out.append(brute_force(model, values, load))
        else:
            out.append(over_cuts(model, cuts, values, load))
    return out[0], out[1]


# -- formulas --------------------------------------------------------------
# AST: ("atom", id) ("not", f) ("and"|"or"|"imp"|"iff"|"xor", f, g)
#      ("metric", load, f, bound) ("set", target, lo, hi, body)


def render(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return "!" + render(f[1])
    if tag == "metric":
        return f"metric({f[1]}, {render(f[2])}) <= {f[3]!r}"
    if tag == "set":
        return f"(set {f[1]} = [{f[2]!r}, {f[3]!r}] in {render(f[4])})"
    symbol = {"and": "&", "or": "|", "imp": "=>", "iff": "<=>", "xor": "<!>"}[tag]
    return f"({render(f[1])} {symbol} {render(f[2])})"


def formula_atoms(f) -> set[str]:
    tag = f[0]
    if tag == "atom":
        return {f[1]}
    if tag == "not":
        return formula_atoms(f[1])
    if tag == "metric":
        return formula_atoms(f[2])
    if tag == "set":
        return formula_atoms(f[4])
    return formula_atoms(f[1]) | formula_atoms(f[2])


def random_formula(rng: random.Random, atoms: list[str], negations: bool):
    """Layer-1 formula using every atom once; negation-free when asked."""
    parts = [("atom", a) for a in atoms]
    rng.shuffle(parts)
    while len(parts) > 1:
        left, right = parts.pop(), parts.pop()
        if negations:
            op = rng.choice(("and", "or", "and", "or", "imp", "iff", "xor"))
            if rng.random() < 0.3:
                left = ("not", left)
        else:
            op = rng.choice(("and", "or"))
        parts.insert(rng.randrange(len(parts) + 1), (op, left, right))
    return parts[0]


def eval_bool(f, truth: dict[str, bool]) -> bool:
    tag = f[0]
    if tag == "atom":
        return truth[f[1]]
    if tag == "not":
        return not eval_bool(f[1], truth)
    a, b = eval_bool(f[1], truth), eval_bool(f[2], truth)
    return {"and": a and b, "or": a or b, "imp": (not a) or b,
            "iff": a == b, "xor": a != b}[tag]


def eval_bits(f, vec: dict[str, int], full: int) -> int:
    tag = f[0]
    if tag == "atom":
        return vec[f[1]]
    if tag == "not":
        return full ^ eval_bits(f[1], vec, full)
    a, b = eval_bits(f[1], vec, full), eval_bits(f[2], vec, full)
    return {"and": a & b, "or": a | b, "imp": (full ^ a) | b,
            "iff": full ^ (a ^ b), "xor": a ^ b}[tag]


def support_atoms(rng: random.Random, model: AtModel, size: int) -> list[str] | None:
    """Three atoms whose leaf cones together cover exactly ``size`` leaves."""
    cones = {n: frozenset(model.leaf_cone(n)) for n in model.kind if n != model.root}
    nodes = sorted(cones)
    for _ in range(200):
        a, b = rng.sample(nodes, 2)
        union = cones[a] | cones[b]
        if len(union) >= size:
            continue
        fits = [c for c in nodes if c not in (a, b) and len(union | cones[c]) == size]
        if fits:
            return [a, b, rng.choice(fits)]
    return None


def formula_metric_value(model: AtModel, f, load: str) -> tuple[float, float] | None:
    """nabla over satisfying subsets of the formula's leaf support; None if unsatisfiable."""
    support = sorted(set().union(*(model.leaf_cone(a) for a in formula_atoms(f))))
    vec, full = _node_bitsets(model, support)
    success = eval_bits(f, vec, full)
    if not success:
        return None
    spans = model.values(load)
    return tuple(
        _best(success, _subset_values(support, {k: v[end] for k, v in spans.items()}, load), load)
        for end in (0, 1)
    )


def attack_span(model: AtModel, maps: dict, load: str, attack: set[str]) -> tuple[float, float]:
    _, delta, _, unit_d = LOADS[load]
    lo = hi = unit_d
    for step in sorted(attack):
        a, b = maps[load][step]
        lo, hi = delta(lo, a), delta(hi, b)
    return lo, hi


def layer2(model: AtModel, f, attack: set[str], maps: dict, collapsed: frozenset[str] = frozenset()) -> float:
    """Strong-Kleene verdict (1, 0.5, 0) of a layer-2 formula."""
    tag = f[0]
    if tag == "not":
        return 1.0 - layer2(model, f[1], attack, maps, collapsed)
    if tag in ("and", "or", "imp", "iff", "xor"):
        a = layer2(model, f[1], attack, maps, collapsed)
        b = layer2(model, f[2], attack, maps, collapsed)
        imp_ab, imp_ba = max(1 - a, b), max(1 - b, a)
        return {"and": min(a, b), "or": max(a, b), "imp": imp_ab,
                "iff": min(imp_ab, imp_ba), "xor": 1 - min(imp_ab, imp_ba)}[tag]
    if tag == "metric":
        _, load, inner, bound = f
        if not eval_bool(inner, model.truth(attack, collapsed)):
            return 0.0
        lo, hi = attack_span(model, maps, load, attack)
        return 1.0 if hi <= bound else 0.5 if lo <= bound else 0.0
    if tag == "set":
        _, target, lo, hi, body = f
        if model.kind[target] != "BAS" and target not in collapsed:
            succeeded = model.truth(attack, collapsed)[target]
            attack = (attack - model.cone(target)) | ({target} if succeeded else set())
            collapsed = collapsed | {target}
        maps = {name: {**entries, target: (lo, hi)} for name, entries in maps.items()}
        return layer2(model, body, attack, maps, collapsed)
    raise ValueError(f"not a layer-2 formula: {f!r}")


def attribution_maps(model: AtModel) -> dict[str, dict[str, tuple[float, float]]]:
    return {name: dict(model.values(name)) for name in LOADS if model.values(name)}
