"""Semiring attribute domains and metric evaluation over attack trees.

A load is a linearly ordered unital semiring (V, nabla, delta): nabla
picks between alternative attacks, delta accumulates within one attack.
Both operations are commutative and associative, delta distributes over
nabla, nabla absorbs (x nabla (x delta y) = x), and the units satisfy
unit_nabla delta x = unit_nabla and unit_delta delta x = x.  Those laws
are what make the bottom-up tree pass agree with the definition over
minimal attacks on tree-structured trees.

Two folds compute every metric: :meth:`AttackTree.fold` with nabla at OR
and delta at AND/SAND, the bottom-up pass over a tree-structured cone
(also the campaign security index, with unused subtrees absent), and
:func:`cuts_metric`, nabla over a family of attacks.  :func:`tree_metric`
(of the root) picks between them by the tree's shape alone.  The metric of
a node, or of a negation-free formula, is :func:`tree_metric` of its atom
or formula grafted onto the tree (``catm.formula_metric``); only a formula
with real negations folds :func:`cuts_metric` over its minimal satisfying
sets directly.  :func:`by_endpoints` decides whether a metric is a number
or an interval, for a tree metric and for a layer-2 metric check over one
attack alike; the point folds refuse a (lo, hi) value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Collection, Iterable, Mapping

from .errors import InvariantError, MissingAttributionError, UnknownEntityError
from .tree import AttackTree

Interval = tuple[float, float]
_POINT_ONLY = "; for (lo, hi) values use interval_tree_metric"


@dataclass(frozen=True)
class Load:
    """One attribute domain; ``domain`` is the closed value range."""

    name: str
    nabla: Callable[[float, float], float]
    delta: Callable[[float, float], float]
    unit_nabla: float
    unit_delta: float
    domain: Interval

    def fold_nabla(self, values: Iterable[float]) -> float:
        return reduce(self.nabla, values, self.unit_nabla)

    def fold_delta(self, values: Iterable[float]) -> float:
        return reduce(self.delta, values, self.unit_delta)

    def check_value(self, value: float, where: str) -> float:
        lo, hi = self.domain
        try:
            if lo <= value <= hi:
                return value
        except TypeError:
            raise InvariantError(f"{where}: value {value!r} is not a number{_POINT_ONLY}") from None
        raise InvariantError(
            f"{where}: value {value!r} outside the {self.name} domain [{lo}, {hi}]"
        )


MIN_COST = Load("mincost", min, operator.add, math.inf, 0.0, (0.0, math.inf))
MIN_TIME_SEQ = Load("mintime-seq", min, operator.add, math.inf, 0.0, (0.0, math.inf))
MIN_TIME_PAR = Load("mintime-par", min, max, math.inf, 0.0, (0.0, math.inf))
MIN_SKILL = Load("minskill", min, max, math.inf, 0.0, (0.0, math.inf))
MAX_PROB = Load("maxprob", max, operator.mul, 0.0, 1.0, (0.0, 1.0))
SECURITY_INDEX = Load("security-index", min, operator.add, math.inf, 0.0, (0.0, math.inf))

BUILTIN_LOADS: dict[str, Load] = {
    load.name: load
    for load in (MIN_COST, MIN_TIME_SEQ, MIN_TIME_PAR, MIN_SKILL, MAX_PROB, SECURITY_INDEX)
}


def get_load(name: str) -> Load:
    try:
        return BUILTIN_LOADS[name]
    except KeyError:
        raise UnknownEntityError(f"unknown load {name!r}") from None


def _value(attr: Mapping[str, float], step: str, load: Load) -> float:
    try:
        value = attr[step]
    except KeyError:
        raise MissingAttributionError(
            f"no {load.name} attribution for leaf {step!r}"
        ) from None
    return load.check_value(value, f"leaf {step!r}")


def attack_metric(load: Load, attr: Mapping[str, float], attack: Iterable[str]) -> float:
    """delta-fold of the leaf values over one attack."""
    return load.fold_delta(_value(attr, step, load) for step in sorted(set(attack)))


def cuts_metric(load: Load, attr: Mapping[str, float], cuts: Iterable[Collection[str]]) -> float:
    """nabla over a family of attacks of their delta-folds, smallest first."""
    return load.fold_nabla(
        attack_metric(load, attr, cut)
        for cut in sorted(cuts, key=lambda c: (len(c), sorted(c)))
    )


def tree_metric(load: Load, attr: Mapping[str, float], tree: AttackTree) -> float:
    """nabla over the root's minimal attacks of their delta-folds.

    On a tree-structured tree this is the linear-time bottom-up
    :meth:`AttackTree.fold`.  On a DAG, where that pass would count a
    shared node once per path, it is :func:`cuts_metric` over the
    enumerated minimal attacks (exponential in the worst case).
    """
    tree.require_valid()
    if not tree.is_tree_structured:
        return cuts_metric(load, attr, tree.minimal_attacks())
    return tree.fold(
        tree.root, lambda node: _value(attr, node.id, load), load.fold_nabla, load.fold_delta
    )


def by_endpoints(metric: Callable[[Mapping[str, float]], float],
                 attr: Mapping[str, float | Interval]) -> float | Interval:
    """``metric(attr)`` when every leaf value is a number, else its (lo, hi) bounds.

    Every built-in load is monotone in each leaf value, so under (lo, hi)
    pairs the metric over all feasible point attributions spans exactly
    the interval between the all-lower-ends and all-upper-ends evaluations,
    a number counting as both ends.  Its callers are tree metrics
    (:func:`interval_tree_metric`) and layer-2 metric checks over one attack.
    """
    if not any(isinstance(v, tuple) for v in attr.values()):
        return metric(attr)
    lows: dict[str, float] = {}
    highs: dict[str, float] = {}
    for step, value in attr.items():
        lo, hi = value if isinstance(value, tuple) else (value, value)
        if lo > hi:
            raise InvariantError(f"leaf {step!r}: interval bounds out of order [{lo}, {hi}]")
        lows[step] = lo
        highs[step] = hi
    return metric(lows), metric(highs)


def interval_tree_metric(load: Load, iattr: Mapping[str, float | Interval],
                         tree: AttackTree) -> float | Interval:
    """:func:`tree_metric` under values that may be (lo, hi) pairs; see :func:`by_endpoints`."""
    return by_endpoints(lambda attr: tree_metric(load, attr, tree), iattr)


def neg_log(p: float) -> float:
    """-ln p of a number p in [0, 1], with p = 0 mapped to infinity (and p = 1 to plain +0.0)."""
    try:
        if 0.0 <= p <= 1.0:
            return math.inf if p == 0.0 else -math.log(p) + 0.0
    except TypeError:
        raise InvariantError(f"probability {p!r} is not a number{_POINT_ONLY}") from None
    raise InvariantError(f"probability {p!r} outside [0, 1]")


def security_index(tree: AttackTree, prob_attr: Mapping[str, float]) -> float:
    """-ln of the max-probability metric, computed in the log domain.

    Working with (min, +) over -ln p avoids product underflow on big
    trees; the two readings agree because -ln is a monotone isomorphism
    between ([0,1], max, *) and ([0,inf], min, +).  A value that is not a
    probability is an InvariantError naming its leaf.
    """
    beta = {}
    for step, p in prob_attr.items():
        try:
            beta[step] = neg_log(p)
        except InvariantError as exc:
            raise InvariantError(f"leaf {step!r}: {exc}") from None
    return tree_metric(SECURITY_INDEX, beta, tree)
