import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attackquant import (
    Atom,
    AttackTree,
    InvariantError,
    MissingAttributionError,
    Node,
    attack_metric,
    formula_metric,
    get_load,
    interval_tree_metric,
    neg_log,
    parse,
    read_at,
    security_index,
    tree_metric,
)
from attackquant.metrics import (
    BUILTIN_LOADS,
    MAX_PROB,
    MIN_COST,
    MIN_SKILL,
    MIN_TIME_PAR,
    MIN_TIME_SEQ,
    SECURITY_INDEX,
    by_endpoints,
    cuts_metric,
)
from helpers import (
    AND,
    BAS,
    OR,
    brute_metric_all_successful,
    wocao_entry_tree,
    random_attribution,
    random_interval_attribution,
    random_tree,
)

TABLE_LOADS = [MIN_COST, MIN_TIME_SEQ, MIN_TIME_PAR, MIN_SKILL, MAX_PROB]

ENTRY_COSTS = {"CVE1": 8.0, "CVE2": 3.0, "GVC": 11.0, "CVP": 1.0}
ENTRY_PROBS = {b: 0.5 for b in ("CVE1", "CVE2", "GVC", "CVP")}


def test_wocao_entry_mincost():
    tree = wocao_entry_tree()
    assert tree_metric(MIN_COST, ENTRY_COSTS, tree) == 3.0
    assert attack_metric(MIN_COST, ENTRY_COSTS, {"GVC", "CVP"}) == 12.0
    assert attack_metric(MIN_COST, ENTRY_COSTS, {"CVE1"}) == 8.0


def test_wocao_entry_maxprob_and_security_index():
    tree = wocao_entry_tree()
    assert tree_metric(MAX_PROB, ENTRY_PROBS, tree) == 0.5
    assert security_index(tree, ENTRY_PROBS) == pytest.approx(math.log(2), abs=1e-12)


def test_wocao_entry_interval():
    tree = wocao_entry_tree()
    spans = {
        "CVE1": (0.1, 0.3),
        "CVE2": (0.2, 0.2),
        "GVC": (0.5, 0.9),
        "CVP": (0.5, 0.9),
    }
    assert interval_tree_metric(MAX_PROB, spans, tree) == (0.25, 0.81)
    assert by_endpoints(lambda a: attack_metric(MAX_PROB, a, {"GVC", "CVP"}), spans) == (0.25, 0.81)


@pytest.mark.parametrize(
    "values",
    [
        {"CVE1": 8.0, "CVE2": 3.0, "GVC": 11.0, "CVP": 1.0},
        {"CVE1": 8.0, "CVE2": (3.0, 5.0), "GVC": 11.0, "CVP": 1.0},
        {"CVE1": (8.0, 8.0), "CVE2": (3.0, 3.0), "GVC": (11.0, 11.0), "CVP": (1.0, 1.0)},
        {"CVE1": (2.0, 8.0), "CVE2": (3.0, 5.0), "GVC": (9.0, 11.0), "CVP": (1.0, 4.0)},
    ],
    ids=["numbers", "one-pair", "equal-ends", "pairs"],
)
@pytest.mark.parametrize("formula", [None, "EVJ | GVC", "InA & !CVE2"])
def test_number_exactly_when_no_value_is_a_pair(values, formula):
    tree = wocao_entry_tree()
    if formula is None:
        value = interval_tree_metric(MIN_COST, values, tree)
    else:
        value = formula_metric(tree, values, MIN_COST, parse(formula))
    if any(isinstance(v, tuple) for v in values.values()):
        assert isinstance(value, tuple) and len(value) == 2 and value[0] <= value[1]
    else:
        assert isinstance(value, float)


def test_get_load():
    assert get_load("mincost") is MIN_COST
    assert get_load("security-index") is SECURITY_INDEX
    from attackquant import UnknownEntityError

    with pytest.raises(UnknownEntityError):
        get_load("entropy")


def domain_values(load):
    lo, hi = load.domain
    hi = min(hi, 1e6)
    special = [lo, hi, load.unit_nabla, load.unit_delta]
    return st.one_of(
        st.floats(min_value=lo, max_value=hi, allow_nan=False),
        st.sampled_from([v for v in special if math.isfinite(v) or v == math.inf]),
    )


@pytest.mark.parametrize("load", TABLE_LOADS + [SECURITY_INDEX], ids=lambda l: l.name)
def test_load_laws(load):
    """Semiring axioms on sampled triples.

    min/max identities hold exactly; + and * associativity only up to
    rounding, hence the relative tolerance there.
    """
    rng = random.Random(zlib.crc32(load.name.encode()))
    lo, hi = load.domain
    hi = min(hi, 1e6)

    def sample():
        r = rng.random()
        if r < 0.05:
            return load.unit_nabla
        if r < 0.10:
            return load.unit_delta
        return rng.uniform(lo, hi)

    close = lambda x, y: math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12) or x == y
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert load.nabla(a, b) == load.nabla(b, a)
        assert load.nabla(load.nabla(a, b), c) == load.nabla(a, load.nabla(b, c))
        assert load.nabla(a, load.unit_nabla) == a
        assert load.delta(a, b) == load.delta(b, a)
        assert close(load.delta(load.delta(a, b), c), load.delta(a, load.delta(b, c)))
        assert load.delta(a, load.unit_delta) == a
        # delta distributes over nabla, and both respect the order
        assert load.delta(a, load.nabla(b, c)) == load.nabla(
            load.delta(a, b), load.delta(a, c)
        )
        if b <= c:
            assert load.delta(a, b) <= load.delta(a, c) or close(
                load.delta(a, b), load.delta(a, c)
            )


def test_bottom_up_equals_definitional_on_trees():
    rng = random.Random(4242)
    for _ in range(60):
        tree = random_tree(rng, max_leaves=9, dag=False)
        assert tree.is_tree_structured
        for load in TABLE_LOADS:
            attr = random_attribution(rng, tree, load)
            bu = tree_metric(load, attr, tree)
            df = cuts_metric(load, attr, tree.minimal_attacks())
            assert math.isclose(bu, df, rel_tol=1e-9, abs_tol=1e-12)


def test_bottom_up_refuses_dags():
    nodes = [
        Node("root", AND, ("x", "y")),
        Node("x", OR, ("a", "s")),
        Node("y", OR, ("b", "s")),
        Node("s", BAS, ()),
        Node("a", BAS, ()),
        Node("b", BAS, ()),
    ]
    tree = AttackTree(nodes, "root")
    attr = {"a": 10.0, "b": 10.0, "s": 1.0}
    # naive bottom-up would pay for the shared s twice (1 + 1 = 2); the
    # cheapest attack is {s} alone at cost 1, so a DAG is never folded
    leaf = lambda node: attr[node.id]
    assert tree.fold("root", leaf, MIN_COST.fold_nabla, MIN_COST.fold_delta) == 2.0
    assert tree_metric(MIN_COST, attr, tree) == 1.0
    assert cuts_metric(MIN_COST, attr, tree.minimal_attacks()) == 1.0


def test_auto_method_agrees_across_shapes():
    rng = random.Random(77)
    for i in range(30):
        tree = random_tree(rng, max_leaves=8, dag=True)
        for load in TABLE_LOADS:
            attr = random_attribution(rng, tree, load)
            auto = tree_metric(load, attr, tree)
            df = cuts_metric(load, attr, tree.minimal_attacks())
            assert math.isclose(auto, df, rel_tol=1e-9, abs_tol=1e-12)


def test_metric_over_minimal_equals_over_all_successful():
    rng = random.Random(2718)
    for _ in range(25):
        tree = random_tree(rng, max_leaves=7, dag=True)
        for load in TABLE_LOADS:
            attr = random_attribution(rng, tree, load)
            via_minimal = cuts_metric(load, attr, tree.minimal_attacks())
            via_all = brute_metric_all_successful(load, attr, tree)
            assert math.isclose(via_minimal, via_all, rel_tol=1e-9, abs_tol=1e-12)


def or_chain(depth: int) -> tuple[AttackTree, dict[str, float]]:
    """OR gates ``depth`` deep, each over one leaf and the next gate."""
    nodes = [
        Node(f"g{i}", OR, (f"b{i}", f"g{i + 1}" if i + 1 < depth else f"b{depth}"))
        for i in range(depth)
    ]
    nodes += [Node(f"b{i}", BAS, ()) for i in range(depth + 1)]
    costs = {f"b{i}": float(1 + (i * 7919) % 1000) for i in range(depth + 1)}
    return AttackTree(nodes, "g0"), costs


def test_bottom_up_evaluates_a_5000_deep_or_chain():
    tree, costs = or_chain(5000)
    assert tree_metric(MIN_COST, costs, tree) == min(costs.values())
    assert formula_metric(tree, costs, MIN_COST, parse("g0")) == min(costs.values())


def test_tree_metric_at_inner_node():
    tree = wocao_entry_tree()
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, Atom("VPN")) == 12.0
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, Atom("EVJ")) == 3.0
    assert formula_metric(tree, ENTRY_PROBS, MAX_PROB, Atom("VPN")) == 0.25


def test_unsatisfiable_node_yields_nabla_unit():
    # an AND over a leaf with no attribution cannot happen here; instead
    # check the nabla unit via a node whose only cut is impossible to
    # reach: fold over zero cuts
    assert MIN_COST.fold_nabla([]) == math.inf
    assert MAX_PROB.fold_nabla([]) == 0.0


def test_missing_attribution():
    tree = wocao_entry_tree()
    with pytest.raises(MissingAttributionError):
        tree_metric(MIN_COST, {"CVE1": 8.0}, tree)
    with pytest.raises(MissingAttributionError):
        attack_metric(MIN_COST, {}, {"CVE1"})


def test_attribution_domain_checked():
    tree = wocao_entry_tree()
    bad = dict(ENTRY_PROBS, CVE1=1.5)
    with pytest.raises(InvariantError):
        tree_metric(MAX_PROB, bad, tree)
    with pytest.raises(InvariantError):
        tree_metric(MIN_COST, {"CVE1": -1.0, "CVE2": 1.0, "GVC": 1.0, "CVP": 1.0}, tree)


@pytest.mark.parametrize(
    "bad, error",
    [(None, MissingAttributionError), (-1.0, InvariantError)],
    ids=["missing", "out-of-domain"],
)
def test_bottom_up_names_the_first_bad_leaf_in_child_order(bad, error):
    # Child order visits z, y, b, a: y comes before a there, but not by id
    # nor in the order the nodes are listed.
    tree = AttackTree(
        [
            Node("a", BAS, ()),
            Node("root", AND, ("z", "g", "a")),
            Node("g", OR, ("y", "b")),
            Node("b", BAS, ()),
            Node("y", BAS, ()),
            Node("z", BAS, ()),
        ],
        "root",
    )
    costs = {"z": 1.0, "b": 2.0}
    if bad is not None:
        costs.update(a=bad, y=bad)
    with pytest.raises(error, match="leaf 'y'"):
        tree_metric(MIN_COST, costs, tree)
    # a formula whose graft is tree-shaped takes the same fold
    with pytest.raises(error, match="leaf 'y'"):
        formula_metric(tree, costs, MIN_COST, parse("z & g & !!a"))


def test_fold_over_the_live_cone_equals_the_metric_of_the_pruned_tree():
    rng = random.Random(4711)
    for _ in range(80):
        tree = random_tree(rng, max_leaves=10)
        beta = random_attribution(rng, tree, SECURITY_INDEX)
        leaves = rng.sample(sorted(tree.bas_ids), rng.randint(1, len(tree.bas_ids)))
        folded = tree.fold(
            tree.root, lambda node: beta[node.id],
            SECURITY_INDEX.fold_nabla, SECURITY_INDEX.fold_delta, tree.above(leaves),
        )
        assert folded == tree_metric(SECURITY_INDEX, beta, tree.prune(leaves))


def test_empty_attack_folds_to_delta_unit():
    assert attack_metric(MIN_COST, {}, set()) == 0.0
    assert attack_metric(MAX_PROB, {}, set()) == 1.0


def test_interval_containment_under_sampling():
    rng = random.Random(31337)
    loads = TABLE_LOADS
    for i in range(20):
        tree = random_tree(rng, max_leaves=7, dag=i % 3 == 0)
        load = loads[i % len(loads)]
        spans = random_interval_attribution(rng, tree, load)
        lo, hi = interval_tree_metric(load, spans, tree)
        assert lo <= hi
        for _ in range(100):
            point = {b: rng.uniform(*spans[b]) for b in spans}
            v = cuts_metric(load, point, tree.minimal_attacks())
            assert lo - 1e-9 <= v <= hi + 1e-9
        at_lo = tree_metric(load, {b: spans[b][0] for b in spans}, tree)
        at_hi = tree_metric(load, {b: spans[b][1] for b in spans}, tree)
        assert math.isclose(at_lo, lo, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(at_hi, hi, rel_tol=1e-9, abs_tol=1e-12)


def test_neg_log():
    assert neg_log(0.0) == math.inf
    assert neg_log(1.0) == 0.0
    assert math.copysign(1.0, neg_log(1.0)) == 1.0  # plain zero, not -0.0
    assert neg_log(0.5) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(InvariantError):
        neg_log(-0.1)
    with pytest.raises(InvariantError):
        neg_log(1.1)


@pytest.mark.parametrize(
    "evaluate, leaf",
    [
        pytest.param(lambda tree, attr: tree_metric(MAX_PROB, attr, tree), "CVE1",
                     id="tree_metric"),
        pytest.param(lambda tree, attr: attack_metric(MAX_PROB, attr, {"GVC", "CVP"}), "CVP",
                     id="attack_metric"),
        pytest.param(lambda tree, attr: cuts_metric(MAX_PROB, attr, tree.minimal_attacks()),
                     "CVE1", id="cuts_metric"),
        pytest.param(lambda tree, attr: security_index(tree, attr), "CVE1", id="security_index"),
    ],
)
def test_interval_values_in_point_metrics_are_a_typed_error(fixtures, evaluate, leaf):
    doc = read_at(str(fixtures / "wocao-initial-access-intervals.at.json"))
    with pytest.raises(InvariantError, match=(
        rf"^leaf '{leaf}': (value|probability) \(0\.\d, 0\.\d\) is not a number; "
        r"for \(lo, hi\) values use interval_tree_metric$"
    )):
        evaluate(doc.tree, doc.attribution("maxprob"))


@given(
    st.dictionaries(
        st.sampled_from(["CVE1", "CVE2", "GVC", "CVP"]),
        st.floats(min_value=1e-12, max_value=1.0),
        min_size=4,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_security_index_is_neg_log_of_maxprob(probs):
    tree = wocao_entry_tree()
    direct = security_index(tree, probs)
    via_prob = -math.log(tree_metric(MAX_PROB, probs, tree))
    assert math.isclose(direct, via_prob, rel_tol=1e-9, abs_tol=1e-9)


def test_security_index_avoids_underflow():
    # 1200 AND-ed leaves at p=0.5: the plain product underflows to 0.0,
    # the log-domain result is exact
    leaves = [Node(f"s{i}", BAS, ()) for i in range(1200)]
    nodes = leaves + [Node("root", AND, tuple(n.id for n in leaves))]
    tree = AttackTree(nodes, "root")
    probs = {n.id: 0.5 for n in leaves}
    assert tree_metric(MAX_PROB, probs, tree) == 0.0
    assert security_index(tree, probs) == pytest.approx(1200 * math.log(2), rel=1e-12)


def test_builtin_catalogue():
    assert set(BUILTIN_LOADS) == {
        "mincost",
        "mintime-seq",
        "mintime-par",
        "minskill",
        "maxprob",
        "security-index",
    }
