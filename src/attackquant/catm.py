"""Two-layer query logic over attack trees.

Layer 1 is Boolean: atoms name tree nodes and are judged through the
structure function against one attack.  Layer 2 wraps layer-1 formulas
in metric threshold checks over interval attributions and evaluates to
a trivalent verdict (TRUE, MAYBE, FALSE) with strong Kleene connectives.

Concrete syntax (both layers share the operators)::

    formula  := implied (("<=>" | "<!>") implied)*
    implied  := clause ["=>" implied]                 (right-assoc)
    clause   := term ("|" term)*
    term     := factor ("&" factor)*
    factor   := "!" factor | "(" formula ")" | metric | assign | atom
    atom     := [A-Za-z0-9_.@-]+
    metric   := "metric" "(" load "," formula ")" "<=" number
    assign   := "set" atom "=" "[" number "," number "]" "in" formula

Operator precedence, tightest first: ``!``, ``&``, ``|``, ``=>``,
``<=>``/``<!>``.  ``|``, ``=>``, ``<=>`` and ``<!>`` are sugar and are
rewritten into negation and conjunction while parsing, so the AST only
ever holds Atom, Not, And, MetricLeq, and Assign.  A ``set`` body
extends as far right as possible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import AbstractSet, Iterable, Mapping

from .errors import FormulaError, MissingAttributionError
from .metrics import (
    Interval,
    Load,
    attack_metric,
    by_endpoints,
    cuts_metric,
    get_load,
    tree_metric,
)
from .tree import AttackTree, GateType, Node, _decode, _minimize


class TruthValue(Enum):
    TRUE = 1.0
    MAYBE = 0.5
    FALSE = 0.0


def kleene_not(a: TruthValue) -> TruthValue:
    return TruthValue(1.0 - a.value)


def kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    return TruthValue(min(a.value, b.value))


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Base of the AST node types."""


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


def _subformulas(formula: Formula, stop: tuple[type, ...] = ()) -> list[Formula]:
    """Distinct subformula objects, operands first, left to right; iterative.

    Keyed by identity, so an operand that ``Iff`` shares is listed once.
    Formulas of a type in ``stop`` are listed without their operands.
    """
    order: list[Formula] = []
    seen: set[int] = set()
    stack = [(formula, False)]
    while stack:
        f, done = stack.pop()
        if done:
            order.append(f)
        elif id(f) not in seen:
            seen.add(id(f))
            stack.append((f, True))
            if isinstance(f, stop):
                continue
            match f:
                case Atom(_):
                    pass
                case And(left, right):
                    stack.append((right, False))
                    stack.append((left, False))
                case Not(inner) | MetricLeq(_, inner, _) | Assign(_, _, _, inner):
                    stack.append((inner, False))
                case _:
                    raise TypeError(f"not a formula: {f!r}")
    return order


def atoms(formula: Formula) -> frozenset[str]:
    """All atom names anywhere in the formula, metric bodies included."""
    return frozenset(f.name for f in _subformulas(formula) if isinstance(f, Atom))


def _pure(walk: list[Formula]) -> bool:
    return all(isinstance(f, (Atom, Not, And)) for f in walk)


def layer_of(formula: Formula) -> int:
    """1 for pure Boolean formulas, 2 when metric/assignment constructs appear.

    A bare atom at layer 2 (outside every MetricLeq) is illegal: the
    trivalent semantics has no reading for it.
    """
    walk = _subformulas(formula, (MetricLeq,))
    if _pure(walk):
        return 1
    # Otherwise every leaf position must be a layer-2 construct; the
    # leftmost one that is not is reported.
    for f in walk:
        if isinstance(f, Atom):
            raise FormulaError(
                f"atom {f.name!r} at layer 2 must sit inside a metric(...) check"
            )
        if isinstance(f, MetricLeq) and not _pure(_subformulas(f.formula)):
            raise FormulaError("metric(...) bodies must be layer-1 formulas")
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


# Binary operators: precedence (higher binds tighter) and constructor.
_BINARY = {
    "amp": (3, And), "pipe": (2, Or), "implies": (1, Implies), "iff": (0, Iff), "xiff": (0, Xiff),
}
# Nesting through "(", "metric(" and "set" recurses once per level; deeper
# formulas are refused rather than left to exhaust the interpreter's stack.
_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

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
        """Operands joined by binary operators, grouped by precedence."""
        operands = [self.operand()]
        pending: list[str] = []

        def reduce() -> None:
            right = operands.pop()
            operands.append(_BINARY[pending.pop()][1](operands.pop(), right))

        while (token := self.peek()) and token.kind in _BINARY:
            self.take()
            # an open operator binding at least as tightly takes its right
            # operand now, except that => leaves an earlier => open
            prec = _BINARY[token.kind][0] + (token.kind == "implies")
            while pending and _BINARY[pending[-1]][0] >= prec:
                reduce()
            pending.append(token.kind)
            operands.append(self.operand())
        while pending:
            reduce()
        return operands[0]

    def number(self) -> float:
        token = self.take("word")
        try:
            value = float(token.text)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise FormulaError(f"not a number: {token.text!r}", token.pos)
        return value

    def operand(self) -> Formula:
        """``!``s before an atom or a nested formula, which recurses one level deeper."""
        negations = 0
        while (token := self.take()).kind == "bang":
            negations += 1
        if token.kind == "word":
            formula: Formula = Atom(token.text)
        elif token.kind in ("lparen", "metric", "set"):
            if self.depth == _MAX_DEPTH:
                raise FormulaError(
                    f"formula nested more than {_MAX_DEPTH} levels deep", token.pos
                )
            self.depth += 1
            if token.kind == "lparen":
                formula = self.formula()
                self.take("rparen")
            elif token.kind == "metric":
                self.take("lparen")
                load = self.take("word").text
                self.take("comma")
                body = self.formula()
                self.take("rparen")
                self.take("leq")
                formula = MetricLeq(load, body, self.number())
            else:
                target = self.take("word").text
                self.take("eq")
                self.take("lbracket")
                low = self.number()
                self.take("comma")
                high = self.number()
                self.take("rbracket")
                self.take("in")
                formula = Assign(target, low, high, self.formula())
            self.depth -= 1
        else:
            raise FormulaError(f"unexpected {token.text!r}", token.pos)
        for _ in range(negations):
            formula = Not(formula)
        return formula


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


def _layer1(tree: AttackTree, formula: Formula, refusal: str) -> list[Formula]:
    """A layer-1 query's checks, run once; the formula's walk."""
    if layer_of(formula) != 1:
        raise FormulaError(refusal)
    bind(tree, formula)
    tree.require_valid()
    return _subformulas(formula)


def _holds(tree: AttackTree, walk: list[Formula], steps: AbstractSet[str]) -> bool:
    """Layer-1 verdict for one attack, without the checks :func:`_layer1` has run."""
    truth: dict[str, bool] = {}  # one memo of gate verdicts for every atom
    value: dict[int, bool] = {}
    for f in walk:
        match f:
            case Atom(name):
                value[id(f)] = tree.fold(name, lambda n: n.id in steps, any, all, values=truth)
            case Not(operand):
                value[id(f)] = not value[id(operand)]
            case And(left, right):
                value[id(f)] = value[id(left)] and value[id(right)]
    return value[id(walk[-1])]


def eval_layer1(tree: AttackTree, attack: Iterable[str], formula: Formula) -> bool:
    """Judge a Boolean formula against one attack via the structure function."""
    walk = _layer1(tree, formula, "layer-2 constructs cannot be evaluated as layer 1")
    return _holds(tree, walk, tree._as_attack(attack))


# -- layer 2 ----------------------------------------------------------------


Attributions = Mapping[str, Mapping[str, float | Interval]]


def eval_layer2(
    tree: AttackTree,
    attack: Iterable[str],
    attributions: Attributions,
    formula: Formula,
    trace: list[str] | None = None,
) -> TruthValue:
    """Trivalent verdict of a layer-2 formula for one attack.

    ``attributions`` maps load name -> node id -> a number or a (lo, hi)
    pair, as ``AtDocument.attributions`` gives.  A metric check holds
    outright when the attack's whole metric interval sits at or below the
    bound, fails outright when the bound undercuts the interval or the
    Boolean body is unsatisfied, and is MAYBE when the bound falls inside.
    """
    if layer_of(formula) != 2:
        raise FormulaError("layer-1 formula: use eval_layer1")
    bind(tree, formula)
    tree.require_valid()
    steps = tree._as_attack(attack)

    # One scope per assignment under evaluation, outermost first: the attack
    # and attributions its metric checks fold, the body's walk (metric checks
    # and assignments are the walk's leaves), the verdicts so far, the body,
    # and where the body's verdict goes in the enclosing scope.
    scopes = [_scope(steps, attributions, formula, None)]
    while True:
        att, maps, walk, verdict, body, slot = scopes[-1]
        for f in walk:
            match f:
                case Not(operand):
                    verdict[id(f)] = kleene_not(verdict[id(operand)])
                case And(left, right):
                    verdict[id(f)] = kleene_and(verdict[id(left)], verdict[id(right)])
                case MetricLeq():
                    verdict[id(f)] = _metric_verdict(tree, steps, att, maps, f, trace)
                case Assign():
                    scopes.append(_scope(*_assigned(tree, steps, att, maps, f), f.body, (verdict, id(f))))
                    break  # resume this walk once the body has its verdict
        else:
            scopes.pop()
            if slot is None:
                return verdict[id(body)]
            into, key = slot
            into[key] = verdict[id(body)]


def _scope(attack: frozenset[str], maps: Attributions, body: Formula,
           slot: tuple[dict[int, TruthValue], int] | None):
    walk = iter(_subformulas(body, (MetricLeq, Assign)))
    return attack, maps, walk, {}, body, slot


def _metric_verdict(tree: AttackTree, steps: frozenset[str], attack: frozenset[str],
                    maps: Attributions, check: MetricLeq, trace: list[str] | None) -> TruthValue:
    """A check's body judged on ``steps``, its metric folded over ``attack``."""
    load_name, bound = check.load, check.bound
    load = get_load(load_name)
    try:
        per_load = maps[load_name]
    except KeyError:
        raise MissingAttributionError(f"no {load_name!r} attribution supplied") from None
    if not _holds(tree, _subformulas(check.formula), steps):
        reason = "the attack does not satisfy the inner formula"
    else:
        value = by_endpoints(lambda attr: attack_metric(load, attr, attack), per_load)
        lo, hi = value if isinstance(value, tuple) else (value, value)
        if hi <= bound:
            return TruthValue.TRUE
        if lo <= bound:
            return TruthValue.MAYBE
        reason = f"the attack metric interval [{lo + 0.0:g}, {hi + 0.0:g}] exceeds the bound"
    if trace is not None:
        trace.append(f"metric({load_name}, ...) <= {bound:g}: FALSE because {reason}")
    return TruthValue.FALSE


def _assigned(tree: AttackTree, steps: frozenset[str], attack: frozenset[str],
              maps: Attributions, assign: Assign) -> tuple[frozenset[str], Attributions]:
    """Attack and attributions that an assignment's metric checks fold.

    A BAS is always assignable.  An intermediate node must be a module,
    which acts as one leaf carrying the interval: the folded attack holds
    it, if ``steps`` compromise it, in place of its subtree, below which no
    atom or nested target may lie.  The subtree reaches the rest of the
    tree through the module alone, so every node outside it keeps the value
    the tree gives for ``steps``, and no collapsed copy of the tree is built.
    """
    target, low, high = assign.target, assign.low, assign.high
    if low > high:
        raise FormulaError(f"assignment to {target!r}: bounds out of order [{low:g}, {high:g}]")
    if tree.node(target).type is not GateType.BAS:
        if not tree.is_module(target):
            raise FormulaError(f"assignment target {target!r} is not a module")
        cone = tree.descendants(target)
        walk = _subformulas(assign.body)
        if below := (cone & {f.name for f in walk if isinstance(f, Atom)}
                     or cone & {f.target for f in walk if isinstance(f, Assign)}):
            raise FormulaError(f"formula references {', '.join(sorted(below))} "
                               f"below assignment target {target!r}")
        succeeded = tree.structure_function(target, steps)
        attack = (attack - cone) | ({target} if succeeded else frozenset())
    return attack, {name: {**entries, target: (low, high)} for name, entries in maps.items()}


# -- formula metrics --------------------------------------------------------


_SUPPORT_LIMIT = 16


def _graft(tree: AttackTree, walk: list[Formula]) -> AttackTree | None:
    """A negation-free formula as gates over its atoms' cones, else None.

    An And is an AND gate when its operands are negation-free, an OR gate
    when they are negation-free once negated (an Or); a Not adds no gate.
    Gate ids are fresh, not node ids of the tree.  The root's minimal
    attacks are the formula's minimal satisfying sets.
    """
    # True: negation-free as it stands; False: once negated.  An And whose
    # operands disagree is neither, and so is every formula around it.
    sign: dict[int, bool] = {}
    node: dict[int, str] = {}  # the graft node each subformula stands for
    gates: list[Node] = []
    fresh = (gid for i in count() if (gid := f"f{i}") not in tree.nodes)
    for f in walk:
        match f:
            case Atom(name):
                sign[id(f)], node[id(f)] = True, name
            case Not(operand):
                sign[id(f)], node[id(f)] = not sign[id(operand)], node[id(operand)]
            case And(left, right):
                if sign[id(left)] != sign[id(right)]:
                    return None
                gate = GateType.AND if sign[id(left)] else GateType.OR
                children = tuple(dict.fromkeys((node[id(left)], node[id(right)])))
                gates.append(Node(next(fresh), gate, children))
                sign[id(f)], node[id(f)] = sign[id(left)], gates[-1].id
    if not sign[id(walk[-1])]:
        return None
    cone = tree.below(f.name for f in walk if isinstance(f, Atom))
    return AttackTree([n for n in tree.nodes.values() if n.id in cone] + gates, node[id(walk[-1])])


def minimal_satisfying_sets(tree: AttackTree, formula: Formula) -> frozenset[frozenset[str]]:
    """Inclusion-minimal attacks satisfying a layer-1 formula.

    For a negation-free formula (after desugaring) they are the minimal
    attacks of its graft.  Formulas with real negations fall back to
    enumerating subsets of the atoms' leaf support, which is exponential
    and refused beyond 16 support leaves.
    """
    walk = _layer1(tree, formula, "formula metrics apply to layer-1 formulas")
    graft = _graft(tree, walk)
    if graft is not None:
        return graft.minimal_attacks()
    cone = tree.below(f.name for f in walk if isinstance(f, Atom))
    support = sorted(n for n in cone if tree.nodes[n].type is GateType.BAS)
    if len(support) > _SUPPORT_LIMIT:
        raise FormulaError(
            f"negated formula over {len(support)} leaves: enumeration refused "
            f"(limit {_SUPPORT_LIMIT})"
        )
    satisfying = [
        mask
        for mask in range(1 << len(support))
        if _holds(tree, walk, {support[i] for i in range(len(support)) if mask >> i & 1})
    ]
    return _decode(_minimize(satisfying), support)


def formula_metric(tree: AttackTree, attribution: Mapping[str, float | Interval], load: Load,
                   formula: Formula) -> float | Interval:
    """Metric of a layer-1 formula: nabla over its minimal satisfying sets.

    A negation-free formula's metric is :func:`tree_metric` of its graft;
    a formula with real negations folds :func:`cuts_metric` over the
    enumerated sets.  The result is a number or an interval as
    :func:`~attackquant.metrics.by_endpoints` decides.  An unsatisfiable
    formula yields the load's nabla unit.
    """
    graft = _graft(tree, _layer1(tree, formula, "formula metrics apply to layer-1 formulas"))
    if graft is None:
        cuts = minimal_satisfying_sets(tree, formula)
        metric = lambda attr: cuts_metric(load, attr, cuts)
    else:
        metric = lambda attr: tree_metric(load, attr, graft)
    return by_endpoints(metric, attribution)
