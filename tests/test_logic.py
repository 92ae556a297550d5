import functools
import itertools
import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attackquant import (
    And,
    Assign,
    Atom,
    AttackTree,
    FormulaError,
    Iff,
    InvariantError,
    Implies,
    MetricLeq,
    MissingAttributionError,
    Node,
    Not,
    Or,
    TruthValue,
    Xiff,
    eval_layer1,
    eval_layer2,
    formula_metric,
    minimal_satisfying_sets,
    parse,
    read_at,
)
from attackquant.catm import kleene_and, kleene_not, layer_of
from attackquant.metrics import BUILTIN_LOADS, MAX_PROB, MIN_COST, attack_metric, tree_metric
from helpers import (
    AND, BAS, OR, cone_tree, holds, kleene_or, random_attribution, random_tree,
    wocao_entry_tree,
)

T, M, F = TruthValue.TRUE, TruthValue.MAYBE, TruthValue.FALSE

ENTRY_COSTS = {"CVE1": 8.0, "CVE2": 3.0, "GVC": 11.0, "CVP": 1.0}


# -- parsing ----------------------------------------------------------------


def test_atoms_and_connective_shapes():
    assert parse("CVE1") == Atom("CVE1")
    assert parse("EVJ ") == Atom("EVJ")  # a whitespace-only tail ends the tokens
    assert parse("!a") == Not(Atom("a"))
    assert parse("a & b") == And(Atom("a"), Atom("b"))
    assert parse("a | b") == Or(Atom("a"), Atom("b"))
    assert parse("a => b") == Implies(Atom("a"), Atom("b"))
    assert parse("a <=> b") == Iff(Atom("a"), Atom("b"))
    assert parse("a <!> b") == Xiff(Atom("a"), Atom("b"))


def test_sugar_desugars_to_not_and():
    a, b = Atom("a"), Atom("b")
    assert Or(a, b) == Not(And(Not(a), Not(b)))
    assert Implies(a, b) == Not(And(a, Not(b)))
    assert Iff(a, b) == And(Implies(a, b), Implies(b, a))
    assert Xiff(a, b) == Not(Iff(a, b))


def test_precedence():
    # ! binds tighter than &, & tighter than |, | tighter than =>
    assert parse("!a & b") == And(Not(Atom("a")), Atom("b"))
    assert parse("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))
    assert parse("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse("a => b | c") == Implies(Atom("a"), Or(Atom("b"), Atom("c")))
    assert parse("a <=> b => c") == Iff(Atom("a"), Implies(Atom("b"), Atom("c")))
    assert parse("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))


def test_implies_is_right_associative():
    assert parse("a => b => c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))


def test_atom_charset():
    assert parse("T1059.001@TA0002") == Atom("T1059.001@TA0002")
    assert parse("x-y_z.9") == Atom("x-y_z.9")


def test_metric_syntax():
    f = parse("metric(maxprob, a & b) <= 0.25")
    assert f == MetricLeq("maxprob", And(Atom("a"), Atom("b")), 0.25)


def test_assign_syntax():
    f = parse("set X = [0.1, 0.4] in metric(maxprob, X) <= 0.2")
    assert f == Assign("X", 0.1, 0.4, MetricLeq("maxprob", Atom("X"), 0.2))


def test_nested_assign_parses_greedily():
    f = parse("set X = [0, 1] in set Y = [0, 1] in metric(mincost, X & Y) <= 5")
    assert isinstance(f, Assign) and isinstance(f.body, Assign)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "a &",
        "& a",
        "(a",
        "a)",
        "a b",
        "metric(nope of x) <= 1",
        "metric(maxprob, a) <= x",
        "metric(maxprob, a)",
        "set X = [1, 2] metric(mincost, X) <= 3",
        "set X = 1 in X",
        "a ! b",
        "!",
        "metric(maxprob, a) <= nan",
        "set X = [nan, 1] in metric(mincost, X) <= 3",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(FormulaError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(FormulaError) as err:
        parse("a & & b")
    assert "position" in str(err.value)
    with pytest.raises(FormulaError, match=r"^unexpected end of formula \(at position 3\)$"):
        parse("   ")


def test_layer_classification():
    assert layer_of(parse("a & !b | c")) == 1
    assert layer_of(parse("metric(mincost, a) <= 3")) == 2
    assert layer_of(parse("set X = [0, 1] in metric(mincost, X) <= 3")) == 2
    # bare atoms cannot float around at layer 2
    with pytest.raises(FormulaError):
        layer_of(parse("a & metric(mincost, b) <= 3"))
    with pytest.raises(FormulaError, match=r"^metric\(\.\.\.\) bodies must be layer-1 formulas$"):
        layer_of(parse("metric(mincost, metric(maxprob, A) <= 1) <= 2"))
    with pytest.raises(TypeError, match=r"^not a formula: 'b'$"):
        layer_of(And(Atom("a"), "b"))


# -- layer 1 -----------------------------------------------------------------


def test_eval_layer1_matches_structure_function():
    tree = wocao_entry_tree()
    for attack in [set(), {"CVE1"}, {"GVC"}, {"GVC", "CVP"}, {"CVE2", "GVC"}]:
        assert eval_layer1(tree, attack, parse("InA")) == tree.structure_function(
            "InA", attack
        )
        assert eval_layer1(tree, attack, parse("EVJ | VPN")) == tree.structure_function(
            "InA", attack
        )


def test_eval_layer1_connectives():
    tree = wocao_entry_tree()
    assert eval_layer1(tree, {"CVE1"}, parse("EVJ & !VPN"))
    assert not eval_layer1(tree, {"GVC", "CVP"}, parse("EVJ & !VPN"))
    assert eval_layer1(tree, {"GVC", "CVP"}, parse("CVE1 => VPN"))
    assert eval_layer1(tree, set(), parse("CVE1 <=> CVE2"))
    assert eval_layer1(tree, {"CVE1"}, parse("CVE1 <!> CVE2"))


def test_eval_layer1_rejects_layer2():
    tree = wocao_entry_tree()
    with pytest.raises(FormulaError):
        eval_layer1(tree, set(), parse("metric(mincost, EVJ) <= 4"))


def test_unknown_atom_rejected():
    tree = wocao_entry_tree()
    from attackquant import UnknownEntityError

    with pytest.raises(UnknownEntityError):
        eval_layer1(tree, set(), parse("NOPE"))


# -- Kleene tables ------------------------------------------------------------


def test_kleene_value_tables():
    assert [kleene_not(v) for v in (T, M, F)] == [F, M, T]
    and_table = {
        (T, T): T, (T, M): M, (T, F): F,
        (M, T): M, (M, M): M, (M, F): F,
        (F, T): F, (F, M): F, (F, F): F,
    }
    or_table = {
        (T, T): T, (T, M): T, (T, F): T,
        (M, T): T, (M, M): M, (M, F): M,
        (F, T): T, (F, M): M, (F, F): F,
    }
    for (a, b), want in and_table.items():
        assert kleene_and(a, b) is want
    for (a, b), want in or_table.items():
        assert kleene_or(a, b) is want


@pytest.fixture
def intervals_doc(fixtures):
    return read_at(str(fixtures / "wocao-initial-access-intervals.at.json"))


BASE = {
    T: "metric(maxprob, VPN) <= 0.81",
    M: "metric(maxprob, VPN) <= 0.5",
    F: "metric(maxprob, VPN) <= 0.1",
}


def verdict(doc, text, attack=("GVC", "CVP")):
    return eval_layer2(doc.tree, set(attack), doc.attributions(), parse(text))


def test_metric_leq_three_verdicts(intervals_doc):
    # the attack {GVC, CVP} has maxprob interval [0.25, 0.81]
    assert verdict(intervals_doc, BASE[T]) is T
    assert verdict(intervals_doc, BASE[M]) is M
    assert verdict(intervals_doc, BASE[F]) is F


def test_metric_leq_boundaries(intervals_doc):
    # bound equal to the upper end: holds outright
    assert verdict(intervals_doc, "metric(maxprob, VPN) <= 0.81") is T
    # bound equal to the lower end, interval not degenerate: undecided
    assert verdict(intervals_doc, "metric(maxprob, VPN) <= 0.25") is M
    # bound just below the lower end: fails
    assert verdict(intervals_doc, "metric(maxprob, VPN) <= 0.2499") is F


def test_formula_connectives_follow_kleene(intervals_doc):
    for a, b in itertools.product((T, M, F), repeat=2):
        net_and = verdict(intervals_doc, f"({BASE[a]}) & ({BASE[b]})")
        net_or = verdict(intervals_doc, f"({BASE[a]}) | ({BASE[b]})")
        net_imp = verdict(intervals_doc, f"({BASE[a]}) => ({BASE[b]})")
        net_iff = verdict(intervals_doc, f"({BASE[a]}) <=> ({BASE[b]})")
        net_xiff = verdict(intervals_doc, f"({BASE[a]}) <!> ({BASE[b]})")
        assert net_and is kleene_and(a, b)
        assert net_or is kleene_or(a, b)
        assert net_imp is kleene_or(kleene_not(a), b)
        assert net_iff is kleene_and(
            kleene_or(kleene_not(a), b), kleene_or(kleene_not(b), a)
        )
        assert net_xiff is kleene_not(
            kleene_and(kleene_or(kleene_not(a), b), kleene_or(kleene_not(b), a))
        )
    for a in (T, M, F):
        assert verdict(intervals_doc, f"!({BASE[a]})") is kleene_not(a)


def test_maybe_implies_maybe_is_maybe(intervals_doc):
    assert verdict(intervals_doc, f"({BASE[M]}) => ({BASE[M]})") is M


def test_unsatisfied_inner_formula_is_false(intervals_doc):
    # generous bound, but the attack does not satisfy the inner formula
    assert verdict(intervals_doc, "metric(maxprob, VPN) <= 1", attack=("CVE1",)) is F


def test_metric_folds_over_the_whole_attack(intervals_doc):
    # CVE2 joins the attack: the product shrinks to [0.05, 0.162],
    # putting it below the 0.2 bound outright
    assert (
        verdict(intervals_doc, "metric(maxprob, VPN) <= 0.2", attack=("GVC", "CVP", "CVE2"))
        is T
    )


def test_false_verdict_traces(intervals_doc):
    trace: list[str] = []
    eval_layer2(
        intervals_doc.tree,
        {"GVC", "CVP"},
        intervals_doc.attributions(),
        parse(BASE[F]),
        trace,
    )
    assert trace and "exceeds the bound" in trace[0]


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_degenerate_intervals_never_maybe(bound):
    from conftest import FIXTURES

    doc = read_at(str(FIXTURES / "wocao-initial-access.at.json"))
    attack = {"GVC", "CVP"}
    maps = doc.attributions()
    v = eval_layer2(doc.tree, attack, maps, parse(f"metric(maxprob, VPN) <= {bound!r}"))
    holds = (doc.tree.structure_function("VPN", attack)
             and attack_metric(MAX_PROB, maps["maxprob"], attack) <= bound)
    assert v is (T if holds else F)


def test_missing_load_map(intervals_doc):
    with pytest.raises(MissingAttributionError):
        eval_layer2(
            intervals_doc.tree,
            {"GVC", "CVP"},
            {},
            parse("metric(maxprob, VPN) <= 0.5"),
        )


def test_layer2_entry_point_rejects_layer1(intervals_doc):
    with pytest.raises(FormulaError):
        eval_layer2(
            intervals_doc.tree, set(), intervals_doc.attributions(), parse("EVJ")
        )


# -- assignments ---------------------------------------------------------------


def test_assign_overrides_a_leaf(intervals_doc):
    got = verdict(
        intervals_doc,
        "set GVC = [0.25, 0.45] in metric(maxprob, VPN) <= 0.3",
    )
    assert got is M
    # pin it tightly and the verdict resolves
    assert (
        verdict(intervals_doc, "set GVC = [0.1, 0.1] in metric(maxprob, VPN) <= 0.3")
        is T
    )


def test_inner_assignment_shadows_outer(intervals_doc):
    got = verdict(
        intervals_doc,
        "set GVC = [0.9, 0.9] in set GVC = [0.1, 0.1] in metric(maxprob, VPN) <= 0.3",
    )
    assert got is T


def test_assign_to_module_collapses_it(intervals_doc):
    # EVJ assigned: the subtree acts as one leaf carrying the interval
    got = verdict(
        intervals_doc,
        "set EVJ = [0.6, 0.7] in metric(maxprob, EVJ) <= 0.65",
        attack=("CVE1",),
    )
    assert got is M
    got = verdict(
        intervals_doc,
        "set EVJ = [0.6, 0.7] in metric(maxprob, EVJ) <= 0.75",
        attack=("CVE1",),
    )
    assert got is T
    # the attack never reached EVJ: inner formula unsatisfied
    got = verdict(
        intervals_doc,
        "set EVJ = [0.6, 0.7] in metric(maxprob, EVJ) <= 0.75",
        attack=("GVC", "CVP"),
    )
    assert got is F


def test_assign_bounds_must_be_ordered(intervals_doc):
    with pytest.raises(FormulaError):
        verdict(intervals_doc, "set GVC = [0.9, 0.1] in metric(maxprob, VPN) <= 0.3")


def test_assign_rejects_non_module(intervals_doc):
    tree = AttackTree(
        [
            Node("root", AND, ("g", "c")),
            Node("g", OR, ("c", "b")),
            Node("b", BAS, ()),
            Node("c", BAS, ()),
        ],
        "root",
    )
    attrs = {"maxprob": {"b": (0.5, 0.5), "c": (0.5, 0.5)}}
    with pytest.raises(FormulaError, match=r"^assignment target 'g' is not a module$"):
        eval_layer2(
            tree,
            {"b", "c"},
            attrs,
            parse("set g = [0.1, 0.2] in metric(maxprob, root) <= 1"),
        )


def test_assign_rejects_formula_peeking_below_target(intervals_doc):
    # an atom below the target, then a nested assignment's target below it
    for text, below, target in [
        ("set EVJ = [0.1, 0.2] in metric(maxprob, CVE1) <= 1", "CVE1", "EVJ"),
        ("set VPN = [0, 1] in set GVC = [0, 1] in metric(maxprob, EVJ) <= 0.5", "GVC", "VPN"),
    ]:
        with pytest.raises(FormulaError,
                           match=rf"^formula references {below} below assignment target '{target}'$"):
            verdict(intervals_doc, text, attack=("CVE1",))


# -- layer 2 against its point semantics ---------------------------------------


# The point semantics of layer 2, written from the definition: every leaf
# value and every assigned interval is one number, an assigned module is
# collapsed to a leaf, and a metric check is two-valued.
POINT_LOADS = {  # load name -> (delta, its unit, the top of the leaf values)
    "maxprob": (operator.mul, 1.0, 1.0),
    "mincost": (operator.add, 0.0, 10.0),
    "minskill": (max, 0.0, 10.0),
    "mintime-seq": (operator.add, 0.0, 10.0),
}


def _strictly_below(tree, node_id):
    seen, stack = set(), list(tree.nodes[node_id].children)
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack.extend(tree.nodes[nid].children)
    return seen


def _assignable(tree, node_id):
    """A BAS, or a gate whose subtree no node outside it points into."""
    cone = _strictly_below(tree, node_id)
    return not any(child in cone for n in tree.nodes.values()
                   if n.id != node_id and n.id not in cone for child in n.children)


def _collapsed(tree, node_id):
    cone = _strictly_below(tree, node_id)
    return AttackTree([Node(node_id, BAS) if n.id == node_id else n
                       for n in tree.nodes.values() if n.id not in cone], tree.root)


def _random_body(rng, tree, depth):
    if depth == 0 or rng.random() < 0.5:
        return Atom(rng.choice(sorted(tree.nodes)))
    if rng.random() < 0.5:
        return Not(_random_body(rng, tree, depth - 1))
    return And(_random_body(rng, tree, depth - 1), _random_body(rng, tree, depth - 1))


def _random_layer2(rng, tree, steps, depth):
    """Not, And, metric checks and set on leaves and modules; ``tree`` is what the formula sees.

    A bound falls in the range that an attack of ``steps`` steps spans, or
    in [0, 1], where the assigned values lie.
    """
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        load = rng.choice(sorted(POINT_LOADS))
        delta, _, top = POINT_LOADS[load]
        reach = rng.choice((1.0, top * steps if delta is operator.add else top))
        bound = round(rng.uniform(0.0, reach) ** (2 if load == "maxprob" else 1), 3)
        return MetricLeq(load, _random_body(rng, tree, 2), bound)
    if pick < 0.45:
        return Not(_random_layer2(rng, tree, steps, depth - 1))
    if pick < 0.65:
        return And(_random_layer2(rng, tree, steps, depth - 1),
                   _random_layer2(rng, tree, steps, depth - 1))
    modules = [n for n in sorted(tree.nodes) if tree.nodes[n].type is not BAS and _assignable(tree, n)]
    target = rng.choice(modules if modules and rng.random() < 0.5 else sorted(tree.bas_ids))
    low, high = sorted(round(rng.uniform(0.0, 1.0), 3) for _ in range(2))
    body = _random_layer2(rng, _collapsed(tree, target), steps, depth - 1)
    return Assign(target, low, high, body)


def _point_holds(tree, attack, values, formula, pick):
    """Two-valued verdict at one point: ``pick`` chooses a number from each interval."""
    match formula:
        case Not(operand):
            return not _point_holds(tree, attack, values, operand, pick)
        case And(left, right):
            return (_point_holds(tree, attack, values, left, pick)
                    and _point_holds(tree, attack, values, right, pick))
        case MetricLeq(load, body, bound):
            delta, unit, _ = POINT_LOADS[load]
            metric = functools.reduce(delta, (values[load][s] for s in sorted(attack)), unit)
            return _layer1_holds(tree, attack, body) and metric <= bound
        case Assign(target, low, high, body):
            if tree.nodes[target].type is not BAS:
                cone = _strictly_below(tree, target)
                succeeded = holds(tree, target, attack)
                attack = (attack - cone) | ({target} if succeeded else set())
                tree = _collapsed(tree, target)
            value = pick((low, high))
            values = {load: {**per, target: value} for load, per in values.items()}
            return _point_holds(tree, attack, values, body, pick)


def _layer1_holds(tree, attack, body):
    match body:
        case Atom(name):
            return holds(tree, name, attack)
        case Not(operand):
            return not _layer1_holds(tree, attack, operand)
        case And(left, right):
            return _layer1_holds(tree, attack, left) and _layer1_holds(tree, attack, right)


def _targets(formula):
    match formula:
        case Not(operand):
            return _targets(operand)
        case And(left, right):
            return _targets(left) | _targets(right)
        case Assign(target, _, _, body):
            return {target} | _targets(body)
    return set()


def _lone_check(formula):
    while isinstance(formula, Assign):
        formula = formula.body
    return isinstance(formula, MetricLeq)


def test_layer2_verdicts_are_sound_for_every_point():
    """TRUE: every point holds; FALSE: none does; a lone check's MAYBE: its corners disagree."""
    seen = Counter()
    for seed in range(2500):
        rng = random.Random(seed)
        tree = random_tree(rng, max_leaves=8, dag=seed % 2 == 1)
        leaves = sorted(tree.bas_ids)
        attrs = {}
        for load, (_, _, top) in POINT_LOADS.items():
            attrs[load] = {}
            for leaf in leaves:
                a, b = sorted(round(rng.uniform(0.0, top), 3) for _ in range(2))
                attrs[load][leaf] = (a, b) if rng.random() < 0.8 else a
        attack = frozenset(leaf for leaf in leaves if rng.random() < 0.7)
        formula = _random_layer2(rng, tree, len(attack), 3)
        got = eval_layer2(tree, attack, attrs, formula)
        seen[got, any(tree.nodes[t].type is not BAS for t in _targets(formula))] += 1

        def at(pick):
            values = {load: {leaf: v if isinstance(v, float) else pick(v) for leaf, v in per.items()}
                      for load, per in attrs.items()}
            return _point_holds(tree, set(attack), values, formula, pick)

        lower, upper = at(lambda iv: iv[0]), at(lambda iv: iv[1])
        points = [lower, upper] + [at(lambda iv: rng.uniform(*iv)) for _ in range(2)]
        if got is T:
            assert all(points), (seed, formula)
        elif got is F:
            assert not any(points), (seed, formula)
        elif _lone_check(formula):
            assert lower != upper, (seed, formula)
    # every verdict is reached, with and without a module assigned
    assert all(seen[v, module] >= 20 for v in (T, M, F) for module in (False, True)), seen


# -- formula metrics -----------------------------------------------------------


def brute_sets(tree, formula):
    leaves = sorted(tree.bas_ids)
    sat = [
        frozenset(c)
        for r in range(len(leaves) + 1)
        for c in itertools.combinations(leaves, r)
        if eval_layer1(tree, c, formula)
    ]
    return frozenset(a for a in sat if not any(b < a for b in sat))


def _dag_cases(count: int = 3):
    """Formulas over random DAG-shaped trees: shared gates, both branches."""
    cases = []
    seed = 0
    while len(cases) < 4 * count:
        seed += 1
        tree = random_tree(random.Random(seed), max_leaves=8, dag=True)
        if tree.is_tree_structured:
            continue
        shared = min(nid for nid, ps in tree.parents.items() if len(ps) > 1)
        leaf = min(tree.bas_ids)
        for text in (
            tree.root,
            f"{shared} & {leaf}",
            f"{shared} | !{leaf}",
            f"!({tree.root} & {leaf})",
        ):
            cases.append(pytest.param(tree, text, id=f"dag{seed}: {text}"))
    return cases


def _positive_cases(count: int = 4):
    """Random negation-free formulas over random trees, tree- and DAG-shaped."""
    rng = random.Random(14)
    cases = []
    while len(cases) < 2 * count:
        dag = len(cases) % 2 == 1
        tree = random_tree(rng, max_leaves=8, dag=dag)
        if tree.is_tree_structured == dag or len(tree.bas_ids) < 4:
            continue
        ids = sorted(tree.nodes)
        text = rng.choice(ids)
        for _ in range(rng.randint(1, 4)):
            double_negation = "!!" if rng.random() < 0.2 else ""
            text = f"({text} {rng.choice('&|')} {double_negation}{rng.choice(ids)})"
        shape = "dag" if dag else "tree"
        cases.append(pytest.param(tree, text, id=f"{shape}{len(cases)}: {text}"))
    return cases


# Ids that the graft would pick first for its gates.
COLLIDING = AttackTree(
    [
        Node("f0", AND, ("f1", "f2")),
        Node("f1", OR, ("f2", "f3")),
        Node("f2", BAS, ()),
        Node("f3", BAS, ()),
    ],
    "f0",
)


@pytest.mark.parametrize(
    "tree, text",
    [
        pytest.param(wocao_entry_tree(), text, id=text)
        for text in (
            "InA",
            "EVJ & !VPN",
            "EVJ | VPN",
            "CVE1 & CVE2",
            "!CVE1",
            "CVE1 => VPN",
            "EVJ <=> VPN",
            "GVC & (CVE1 | CVP)",
            "!(EVJ & VPN)",
            "InA & !CVE1 & !CVE2",
        )
    ]
    + _dag_cases()
    + _positive_cases()
    + [
        pytest.param(COLLIDING, text, id=f"colliding ids: {text}")
        for text in ("f1 & f3 | f2", "(f3 | f2) & f1 & f0", "f0 | f3")
    ],
)
def test_minimal_satisfying_sets_match_brute_force(tree, text):
    formula = parse(text)
    assert minimal_satisfying_sets(tree, formula) == brute_sets(tree, formula)


def test_minimal_satisfying_sets_frozen_example():
    tree = wocao_entry_tree()
    assert minimal_satisfying_sets(tree, parse("EVJ & !VPN")) == {
        frozenset({"CVE1"}),
        frozenset({"CVE2"}),
    }


def test_positive_formulas_avoid_enumeration():
    # 40 leaves is far past the enumeration limit; positive formulas
    # still work because they compose minimal attacks directly
    leaves = [Node(f"s{i}", BAS, ()) for i in range(40)]
    tree = AttackTree(
        leaves + [Node("root", OR, tuple(n.id for n in leaves))], "root"
    )
    got = minimal_satisfying_sets(tree, parse("s0 & s39"))
    assert got == {frozenset({"s0", "s39"})}


def test_negated_formulas_limited_by_support():
    leaves = [Node(f"s{i}", BAS, ()) for i in range(17)]
    tree = AttackTree(
        leaves + [Node("root", OR, tuple(n.id for n in leaves))], "root"
    )
    with pytest.raises(FormulaError):
        minimal_satisfying_sets(tree, parse("!root"))
    # seventeen leaves in the tree, but the negation only spans two
    small = minimal_satisfying_sets(tree, parse("s0 & !s1"))
    assert small == {frozenset({"s0"})}


def test_formula_metric_point():
    tree = wocao_entry_tree()
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, parse("CVE1 & CVE2")) == 11.0
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, parse("EVJ & !VPN")) == 3.0
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, parse("InA")) == 3.0


def test_atom_metric_equals_node_metric():
    # On a tree-structured tree an atom's graft is the node's own cone, so
    # both go through the same bottom-up fold and agree to the last bit.
    rng = random.Random(9942)
    for _ in range(250):
        tree = random_tree(rng, max_leaves=10)
        for load in BUILTIN_LOADS.values():
            attr = random_attribution(rng, tree, load)
            for nid in tree.nodes:
                assert formula_metric(tree, attr, load, Atom(nid)) == tree_metric(
                    load, attr, cone_tree(tree, nid)
                )


def test_formula_metric_unsatisfiable_yields_unit():
    tree = wocao_entry_tree()
    assert formula_metric(tree, ENTRY_COSTS, MIN_COST, parse("CVE1 & !CVE1")) == math.inf
    probs = {b: 0.5 for b in ENTRY_COSTS}
    assert formula_metric(tree, probs, MAX_PROB, parse("CVE1 & !CVE1")) == 0.0


def test_formula_metric_interval(intervals_doc):
    spans = intervals_doc.attribution("maxprob")
    got = formula_metric(intervals_doc.tree, spans, MAX_PROB, parse("CVE1 | CVE2"))
    assert got == (0.2, 0.3)


def test_formula_metric_rejects_out_of_order_interval():
    tree = wocao_entry_tree()
    spans = {"CVE1": (0.5, 0.2), "CVE2": 0.3, "GVC": (0.1, 0.4), "CVP": (0.2, 0.2)}
    with pytest.raises(InvariantError, match="out of order"):
        formula_metric(tree, spans, MAX_PROB, parse("InA"))


def test_formula_metric_rejects_layer2():
    tree = wocao_entry_tree()
    with pytest.raises(FormulaError):
        formula_metric(tree, ENTRY_COSTS, MIN_COST, parse("metric(mincost, InA) <= 9"))
