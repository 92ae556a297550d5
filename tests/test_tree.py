import random

import pytest

from attackquant import (
    AttackTree,
    GateType,
    InvariantError,
    Node,
    UnknownEntityError,
)
from helpers import (
    AND, BAS, OR, SAND, brute_minimal_attacks, cone_tree, holds, wocao_entry_tree, random_tree,
)


def test_wocao_entry_minimal_attacks():
    tree = wocao_entry_tree()
    expected = {
        frozenset({"CVE1"}),
        frozenset({"CVE2"}),
        frozenset({"GVC", "CVP"}),
    }
    assert tree.minimal_attacks() == expected


def test_structure_function_cases():
    tree = wocao_entry_tree()
    assert tree.structure_function("InA", {"CVE1"})
    assert tree.structure_function("InA", {"GVC", "CVP"})
    assert not tree.structure_function("InA", {"GVC"})
    assert not tree.structure_function("InA", set())
    assert tree.structure_function("VPN", {"GVC", "CVP"})
    assert not tree.structure_function("VPN", {"CVE1"})
    # every BAS succeeds exactly on itself
    assert tree.structure_function("CVE1", {"CVE1"})
    assert not tree.structure_function("CVE1", {"CVE2"})


def test_structure_function_rejects_bad_steps():
    tree = wocao_entry_tree()
    with pytest.raises(UnknownEntityError):
        tree.structure_function("InA", {"nope"})
    with pytest.raises(InvariantError):
        tree.structure_function("InA", {"EVJ"})  # gate, not a BAS
    with pytest.raises(UnknownEntityError):
        tree.structure_function("nope", {"CVE1"})


def test_single_leaf_tree():
    tree = AttackTree([Node("x", BAS, ())], "x")
    assert tree.validate() == []
    assert tree.minimal_attacks() == {frozenset({"x"})}
    assert tree.structure_function("x", {"x"})
    assert not tree.structure_function("x", set())


@pytest.mark.parametrize(
    "nodes,root,needle",
    [
        ([Node("a", OR, ("b",))], "a", "missing child"),
        ([Node("a", BAS, ("b",)), Node("b", BAS, ())], "a", "children"),
        ([Node("a", OR, ())], "a", "no children"),
        ([Node("a", OR, ("a",))], "a", "cycle"),
        (
            [
                Node("a", OR, ("b",)),
                Node("b", AND, ("c", "a")),
                Node("c", BAS, ()),
            ],
            "a",
            "cycle",
        ),
        (
            [Node("a", OR, ("b", "c")), Node("b", BAS, ()), Node("c", OR, ("a",))],
            "a",
            "root",
        ),
    ],
)
def test_validate_catches(nodes, root, needle):
    problems = AttackTree(nodes, root).validate()
    assert problems
    assert any(needle in p for p in problems)


def test_validate_missing_root():
    assert AttackTree([Node("a", BAS, ())], "zzz").validate()


def test_validate_disconnected_second_root():
    # a second maximal node is unreachable from the root: flagged
    nodes = [
        Node("a", OR, ("b",)),
        Node("b", BAS, ()),
        Node("z", OR, ("b",)),
    ]
    problems = AttackTree(nodes, "a").validate()
    assert any("unreachable" in p or "root" in p for p in problems)


def test_require_valid_raises():
    with pytest.raises(InvariantError):
        AttackTree([Node("a", OR, ())], "a").require_valid()


def test_duplicate_ids_rejected():
    with pytest.raises(InvariantError):
        AttackTree([Node("a", BAS, ()), Node("a", BAS, ())], "a")


def test_empty_node_id_rejected():
    with pytest.raises(InvariantError, match="^empty node id$"):
        AttackTree([Node("", BAS, ())], "")


def test_minimal_attacks_matches_brute_force():
    rng = random.Random(20240817)
    for i in range(60):
        tree = random_tree(rng, max_leaves=8, dag=i % 2 == 1)
        assert tree.minimal_attacks() == brute_minimal_attacks(tree), tree.nodes


def test_structure_function_matches_the_definition_on_every_node():
    rng = random.Random(314)
    for _ in range(40):
        tree = random_tree(rng, max_leaves=10, dag=True)
        leaves = sorted(tree.bas_ids)
        for _ in range(8):
            attack = {b for b in leaves if rng.random() < 0.5}
            for nid in tree.nodes:
                assert tree.structure_function(nid, attack) == holds(tree, nid, attack), nid


def test_fold_evaluates_a_shared_gate_once_and_fills_the_memo():
    tree = AttackTree(
        [
            Node("root", OR, ("x", "y")),
            Node("x", AND, ("a", "s")),
            Node("y", AND, ("b", "s")),
            Node("s", OR, ("c", "d")),
        ]
        + [Node(b, BAS, ()) for b in "abcd"],
        "root",
    )
    gates = []

    def gate(combine):
        def evaluate(values):
            gates.append(combine)
            return combine(values)
        return evaluate

    def leaf(node):
        return node.id in {"b", "c"}

    memo: dict[str, bool] = {}
    assert tree.fold("root", leaf, gate(any), gate(all), values=memo)
    assert memo == {"s": True, "x": False, "y": True, "root": True}
    assert len(gates) == 4
    # a shared memo answers later calls without evaluating any gate again
    assert tree.fold("y", leaf, gate(any), gate(all), values=memo)
    assert len(gates) == 4


def test_above_and_below():
    tree = wocao_entry_tree()
    assert tree.above(["GVC"]) == {"GVC", "VPN", "InA"}
    assert tree.above(["CVE1", "GVC"]) == {"CVE1", "EVJ", "GVC", "VPN", "InA"}
    assert tree.below(["VPN"]) == {"VPN", "GVC", "CVP"}
    assert tree.below(["EVJ", "CVP"]) == {"EVJ", "CVE1", "CVE2", "CVP"}
    assert tree.above([]) == tree.below([]) == set()
    with pytest.raises(UnknownEntityError):
        tree.above(["nope"])


def test_minimal_attacks_is_antichain_and_coherent():
    rng = random.Random(99)
    for _ in range(30):
        tree = random_tree(rng, max_leaves=8, dag=True)
        attacks = tree.minimal_attacks()
        for a in attacks:
            assert tree.structure_function(tree.root, a)
            for b in attacks:
                assert not (b < a)
        # coherence: adding steps never breaks success
        for a in attacks:
            assert tree.structure_function(tree.root, a | tree.bas_ids)


def test_minimal_attacks_of_inner_node():
    tree = wocao_entry_tree()
    assert cone_tree(tree, "EVJ").minimal_attacks() == {frozenset({"CVE1"}), frozenset({"CVE2"})}
    assert cone_tree(tree, "VPN").minimal_attacks() == {frozenset({"GVC", "CVP"})}
    assert cone_tree(tree, "GVC").minimal_attacks() == {frozenset({"GVC"})}


def test_shared_subtree_dag():
    # d is a shared AND-child of both branches; minimality still holds
    nodes = [
        Node("root", OR, ("x", "y")),
        Node("x", AND, ("a", "d")),
        Node("y", AND, ("b", "d")),
        Node("a", BAS, ()),
        Node("b", BAS, ()),
        Node("d", BAS, ()),
    ]
    tree = AttackTree(nodes, "root")
    assert not tree.is_tree_structured
    assert tree.minimal_attacks() == {
        frozenset({"a", "d"}),
        frozenset({"b", "d"}),
    }


def test_is_module():
    tree = wocao_entry_tree()
    assert tree.is_module("EVJ")
    assert tree.is_module("VPN")
    assert tree.is_module("InA")
    assert tree.is_module("CVE1")

    shared = AttackTree(
        [
            Node("root", AND, ("x", "y")),
            Node("x", OR, ("a", "s")),
            Node("y", OR, ("b", "s")),
            Node("s", AND, ("c", "d")),
            Node("a", BAS, ()),
            Node("b", BAS, ()),
            Node("c", BAS, ()),
            Node("d", BAS, ()),
        ],
        "root",
    )
    assert shared.is_module("s")  # both paths enter through s itself
    assert not shared.is_module("x")  # s is reachable from y as well


def test_not_a_module_when_cone_is_entered_sideways():
    nodes = [
        Node("root", AND, ("g", "c")),
        Node("g", OR, ("c", "b")),
        Node("b", BAS, ()),
        Node("c", BAS, ()),
    ]
    tree = AttackTree(nodes, "root")
    assert not tree.is_module("g")


def test_descendants():
    tree = wocao_entry_tree()
    assert tree.descendants("VPN") == {"GVC", "CVP"}
    assert tree.descendants("InA") == {"EVJ", "VPN", "CVE1", "CVE2", "GVC", "CVP"}
    assert tree.descendants("CVE1") == frozenset()


def test_prune_drops_dead_branches():
    tree = wocao_entry_tree()
    pruned = tree.prune({"CVE1"})
    assert set(pruned.nodes) == {"InA", "EVJ", "CVE1"}
    assert pruned.root == "InA"
    assert pruned.validate() == []
    assert pruned.minimal_attacks() == {frozenset({"CVE1"})}


def test_prune_keeps_child_order():
    nodes = [
        Node("r", SAND, ("s1", "s2", "s3")),
        Node("s1", BAS, ()),
        Node("s2", BAS, ()),
        Node("s3", BAS, ()),
    ]
    tree = AttackTree(nodes, "r")
    pruned = tree.prune({"s3", "s1"})
    assert pruned.node("r").children == ("s1", "s3")


def test_prune_to_nothing_is_an_error():
    tree = wocao_entry_tree()
    with pytest.raises(InvariantError):
        tree.prune(set())
    with pytest.raises(UnknownEntityError):
        tree.prune({"nope"})
    with pytest.raises(InvariantError):
        tree.prune({"EVJ"})


def test_node_lookup_errors():
    tree = wocao_entry_tree()
    with pytest.raises(UnknownEntityError):
        tree.node("missing")
    assert tree.node("EVJ").type is GateType.OR
