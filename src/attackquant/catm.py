"""Two-layer query logic over attack trees.

Layer 1 is Boolean: atoms name tree nodes and are judged through the
structure function against one attack.  Layer 2 wraps layer-1 formulas
in metric threshold checks over interval attributions and evaluates to
a trivalent verdict (TRUE, MAYBE, FALSE) with strong Kleene connectives.

Concrete syntax (both layers share the operators)::

    atom     := [A-Za-z0-9_.@-]+
    unary    := "!" unary | primary
    conj     := unary ("&" unary)*
    disj     := conj ("|" conj)*
    impl     := disj ["=>" impl]                      (right-assoc)
    formula  := impl (("<=>" | "<!>") impl)*
    primary  := "(" formula ")" | metric | assign | atom
    metric   := "metric" "(" load "," formula ")" "<=" number
    assign   := "set" atom "=" "[" number "," number "]" "in" formula

Operator precedence, tightest first: ``!``, ``&``, ``|``, ``=>``,
``<=>``/``<!>``.  ``|``, ``=>``, ``<=>`` and ``<!>`` are sugar and are
rewritten into negation and conjunction while parsing, so the AST only
ever holds Atom, Not, And, MetricLeq, and Assign.  A ``set`` body
extends as far right as possible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .errors import FormulaError, MissingAttributionError
from .metrics import (
    Interval,
    Load,
    _split,
    cuts_metric,
    get_load,
    interval_attack_metric,
)
from .tree import AttackTree, GateType, Node, _cross, _decode, _minimize


class TruthValue(Enum):
    TRUE = 1.0
    MAYBE = 0.5
    FALSE = 0.0

    @classmethod
    def of(cls, flag: bool) -> "TruthValue":
        return cls.TRUE if flag else cls.FALSE


def kleene_not(a: TruthValue) -> TruthValue:
    return TruthValue(1.0 - a.value)


def kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    return TruthValue(min(a.value, b.value))


def kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    return TruthValue(max(a.value, b.value))


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class MetricLeq(Formula):
    load: str
    formula: Formula
    bound: float


@dataclass(frozen=True)
class Assign(Formula):
    target: str
    low: float
    high: float
    body: Formula


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Implies(left, right), Implies(right, left))


def Xiff(left: Formula, right: Formula) -> Formula:
    return Not(Iff(left, right))


def atoms(formula: Formula) -> frozenset[str]:
    """All atom names anywhere in the formula, metric bodies included."""
    match formula:
        case Atom(name):
            return frozenset({name})
        case Not(operand):
            return atoms(operand)
        case And(left, right):
            return atoms(left) | atoms(right)
        case MetricLeq(_, inner, _):
            return atoms(inner)
        case Assign(_, _, _, body):
            return atoms(body)
    raise TypeError(f"not a formula: {formula!r}")


def layer_of(formula: Formula) -> int:
    """1 for pure Boolean formulas, 2 when metric/assignment constructs appear.

    A bare atom at layer 2 (outside every MetricLeq) is illegal: the
    trivalent semantics has no reading for it.
    """

    def pure_layer1(f: Formula) -> bool:
        match f:
            case Atom(_):
                return True
            case Not(operand):
                return pure_layer1(operand)
            case And(left, right):
                return pure_layer1(left) and pure_layer1(right)
            case _:
                return False

    if pure_layer1(formula):
        return 1
    # Otherwise every leaf position must be a layer-2 construct.
    def check2(f: Formula) -> None:
        match f:
            case Atom(name):
                raise FormulaError(
                    f"atom {name!r} at layer 2 must sit inside a metric(...) check"
                )
            case Not(operand):
                check2(operand)
            case And(left, right):
                check2(left)
                check2(right)
            case MetricLeq(_, inner, _):
                if not pure_layer1(inner):
                    raise FormulaError("metric(...) bodies must be layer-1 formulas")
            case Assign(_, _, _, body):
                check2(body)

    check2(formula)
    return 2


# -- concrete syntax --------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<lbracket>\[)"
    r"|(?P<rbracket>\])|(?P<iff><=>)|(?P<xiff><!>)|(?P<leq><=)|(?P<implies>=>)"
    r"|(?P<eq>=)|(?P<bang>!)|(?P<amp>&)|(?P<pipe>\|)|(?P<word>[A-Za-z0-9_.@-]+))"
)

_KEYWORDS = {"metric", "set", "in"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise FormulaError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = match.lastgroup or ""
        token_text = match.group(kind)
        start = match.start(kind)
        if kind == "word" and token_text in _KEYWORDS:
            kind = token_text
        tokens.append(_Token(kind, token_text, start))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind: str | None = None) -> _Token:
        token = self.peek()
        if token is None:
            raise FormulaError("unexpected end of formula", len(self.text))
        if kind is not None and token.kind != kind:
            raise FormulaError(
                f"expected {kind!r}, found {token.text!r}", token.pos
            )
        self.index += 1
        return token

    def parse(self) -> Formula:
        formula = self.formula()
        trailing = self.peek()
        if trailing is not None:
            raise FormulaError(f"unexpected {trailing.text!r}", trailing.pos)
        return formula

    def formula(self) -> Formula:
        left = self.implication()
        while (token := self.peek()) and token.kind in ("iff", "xiff"):
            self.take()
            right = self.implication()
            left = Iff(left, right) if token.kind == "iff" else Xiff(left, right)
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if (token := self.peek()) and token.kind == "implies":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while (token := self.peek()) and token.kind == "pipe":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while (token := self.peek()) and token.kind == "amp":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        token = self.peek()
        if token is not None and token.kind == "bang":
            self.take()
            return Not(self.unary())
        return self.primary()

    def number(self) -> float:
        token = self.take("word")
        try:
            value = float(token.text)
        except ValueError:
            raise FormulaError(f"not a number: {token.text!r}", token.pos) from None
        return value

    def primary(self) -> Formula:
        token = self.peek()
        if token is None:
            raise FormulaError("unexpected end of formula", len(self.text))
        if token.kind == "lparen":
            self.take()
            inner = self.formula()
            self.take("rparen")
            return inner
        if token.kind == "metric":
            self.take()
            self.take("lparen")
            load = self.take("word").text
            self.take("comma")
            inner = self.formula()
            self.take("rparen")
            self.take("leq")
            bound = self.number()
            return MetricLeq(load, inner, bound)
        if token.kind == "set":
            self.take()
            target = self.take("word").text
            self.take("eq")
            self.take("lbracket")
            low = self.number()
            self.take("comma")
            high = self.number()
            self.take("rbracket")
            self.take("in")
            return Assign(target, low, high, self.formula())
        if token.kind == "word":
            self.take()
            return Atom(token.text)
        raise FormulaError(f"unexpected {token.text!r}", token.pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a desugared AST and sanity-check layering."""
    formula = _Parser(text).parse()
    layer_of(formula)
    return formula


def bind(tree: AttackTree, formula: Formula) -> None:
    """Check every atom names a node of the tree."""
    for name in sorted(atoms(formula)):
        tree.node(name)


# -- layer 1 ----------------------------------------------------------------


def eval_layer1(tree: AttackTree, attack: Iterable[str], formula: Formula) -> bool:
    """Judge a Boolean formula against one attack via the structure function."""
    if layer_of(formula) != 1:
        raise FormulaError("layer-2 constructs cannot be evaluated as layer 1")
    bind(tree, formula)
    steps = frozenset(attack)

    def run(f: Formula) -> bool:
        match f:
            case Atom(name):
                return tree.structure_function(name, steps)
            case Not(operand):
                return not run(operand)
            case And(left, right):
                return run(left) and run(right)
        raise TypeError(f"not a layer-1 formula: {f!r}")

    return run(formula)


# -- layer 2 ----------------------------------------------------------------


def check_assignment_target(tree: AttackTree, formula: Formula, target: str) -> str | None:
    """None if the target may be assigned; otherwise the violated condition.

    A BAS is always assignable.  An intermediate node must be a module
    and must not dominate any atom of the body: the assignment treats it
    as a leaf, so nothing in the formula may look below it.
    """
    node = tree.node(target)
    if node.type is GateType.BAS:
        return None
    if not tree.is_module(target):
        return f"assignment target {target!r} is not a module"
    below = tree.descendants(target) & atoms(formula)
    if below:
        inside = ", ".join(sorted(below))
        return (
            f"formula references {inside} below assignment target {target!r}"
        )
    return None


def _collapse(tree: AttackTree, target: str) -> AttackTree:
    """Replace a module's subtree by a single BAS with the module's id."""
    cone = tree.descendants(target)
    nodes = []
    for node in tree.nodes.values():
        if node.id in cone:
            continue
        if node.id == target:
            nodes.append(Node(node.id, GateType.BAS, (), node.label, node.tactic, node.technique))
        else:
            nodes.append(node)
    return AttackTree(nodes, tree.root)


Attributions = Mapping[str, Mapping[str, Interval]]


def eval_layer2(
    tree: AttackTree,
    attack: Iterable[str],
    attributions: Attributions,
    formula: Formula,
    trace: list[str] | None = None,
) -> TruthValue:
    """Trivalent verdict of a layer-2 formula for one attack.

    ``attributions`` maps load name -> node id -> interval; point values
    are intervals with equal ends.  A metric check holds outright when
    the attack's whole metric interval sits at or below the bound, fails
    outright when the bound undercuts the interval or the Boolean body
    is unsatisfied, and is MAYBE when the bound falls inside.
    """
    if layer_of(formula) != 2:
        raise FormulaError("layer-1 formula: use eval_layer1")
    bind(tree, formula)
    steps = frozenset(attack)
    tree._as_attack(steps)

    def run(tr: AttackTree, att: frozenset[str], maps: Attributions, f: Formula) -> TruthValue:
        match f:
            case Not(operand):
                return kleene_not(run(tr, att, maps, operand))
            case And(left, right):
                return kleene_and(run(tr, att, maps, left), run(tr, att, maps, right))
            case MetricLeq(load_name, inner, bound):
                load = get_load(load_name)
                try:
                    per_load = maps[load_name]
                except KeyError:
                    raise MissingAttributionError(
                        f"no {load_name!r} attribution supplied"
                    ) from None
                if not eval_layer1(tr, att, inner):
                    if trace is not None:
                        trace.append(
                            f"metric({load_name}, ...) <= {bound:g}: FALSE because "
                            "the attack does not satisfy the inner formula"
                        )
                    return TruthValue.FALSE
                lo, hi = interval_attack_metric(load, per_load, att)
                if hi <= bound:
                    return TruthValue.TRUE
                if lo <= bound:
                    return TruthValue.MAYBE
                if trace is not None:
                    trace.append(
                        f"metric({load_name}, ...) <= {bound:g}: FALSE because the "
                        f"attack metric interval [{lo:g}, {hi:g}] exceeds the bound"
                    )
                return TruthValue.FALSE
            case Assign(target, low, high, body):
                if low > high:
                    raise FormulaError(
                        f"assignment to {target!r}: bounds out of order [{low:g}, {high:g}]"
                    )
                violation = check_assignment_target(tr, body, target)
                if violation:
                    raise FormulaError(violation)
                node = tr.node(target)
                if node.type is GateType.BAS:
                    new_tree, new_attack = tr, att
                else:
                    succeeded = tr.structure_function(target, att)
                    cone = tr.descendants(target)
                    new_tree = _collapse(tr, target)
                    new_attack = (att - cone) | ({target} if succeeded else frozenset())
                new_maps = {
                    name: {**dict(entries), target: (low, high)}
                    for name, entries in maps.items()
                }
                return run(new_tree, new_attack, new_maps, body)
        raise TypeError(f"not a layer-2 formula: {f!r}")

    return run(tree, steps, attributions, formula)


# -- formula metrics --------------------------------------------------------


_SUPPORT_LIMIT = 16


def minimal_satisfying_sets(tree: AttackTree, formula: Formula) -> frozenset[frozenset[str]]:
    """Inclusion-minimal attacks satisfying a layer-1 formula.

    Negation-free formulas (after desugaring) compose the nodes' minimal
    attacks through the same union/cross-union algebra as the tree
    itself.  Formulas with real negations fall back to enumerating
    subsets of the atoms' leaf support, which is exponential and refused
    beyond 16 support leaves.
    """
    if layer_of(formula) != 1:
        raise FormulaError("formula metrics apply to layer-1 formulas")
    bind(tree, formula)

    def nnf(f: Formula, positive: bool):
        match f:
            case Atom(name):
                return ("lit", name, positive)
            case Not(operand):
                return nnf(operand, not positive)
            case And(left, right):
                op = "and" if positive else "or"
                return (op, nnf(left, positive), nnf(right, positive))
        raise TypeError(f"not a layer-1 formula: {f!r}")

    root = nnf(formula, True)

    def all_positive(n) -> bool:
        if n[0] == "lit":
            return n[2]
        return all_positive(n[1]) and all_positive(n[2])

    if all_positive(root):

        def compose(n) -> list[int]:
            if n[0] == "lit":
                return tree.cut_masks(n[1])
            left, right = compose(n[1]), compose(n[2])
            if n[0] == "or":
                return _minimize(left + right)
            return _cross(left, right)

        return _decode(compose(root), tree.bas_order)

    support = sorted(
        {b for name in atoms(formula) for b in _leaf_cone(tree, name)}
    )
    if len(support) > _SUPPORT_LIMIT:
        raise FormulaError(
            f"negated formula over {len(support)} leaves: enumeration refused "
            f"(limit {_SUPPORT_LIMIT})"
        )
    satisfying = [
        mask
        for mask in range(1 << len(support))
        if eval_layer1(tree, {support[i] for i in range(len(support)) if mask >> i & 1}, formula)
    ]
    return _decode(_minimize(satisfying), support)


def _leaf_cone(tree: AttackTree, node_id: str) -> frozenset[str]:
    node = tree.node(node_id)
    if node.type is GateType.BAS:
        return frozenset({node_id})
    return tree.descendants(node_id) & tree.bas_ids


def formula_metric(
    tree: AttackTree,
    attribution: Mapping[str, float] | Mapping[str, Interval],
    load: Load,
    formula: Formula,
) -> float | Interval:
    """Metric of a layer-1 formula: nabla over its minimal satisfying sets.

    With point attributions the result is a number; with interval
    attributions ((lo, hi) values) it is the endpoint-evaluated interval.
    An unsatisfiable formula yields the load's nabla unit.
    """
    cuts = minimal_satisfying_sets(tree, formula)
    if not any(isinstance(v, tuple) for v in attribution.values()):
        return cuts_metric(load, {k: float(v) for k, v in attribution.items()}, cuts)
    lows, highs = _split({
        k: (float(v[0]), float(v[1])) if isinstance(v, tuple) else (float(v), float(v))
        for k, v in attribution.items()
    })
    return (cuts_metric(load, lows, cuts), cuts_metric(load, highs, cuts))
