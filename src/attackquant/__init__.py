"""Quantify and compare cyber-attack campaigns.

Attack trees over MITRE-style knowledge snapshots: technique likelihoods,
semiring metrics with point or interval attributions, difficulty-templated
per-campaign security indices, and a trivalent two-layer query logic.
"""

from .atfile import AtDocument, read_at, write_at
from .catm import (
    And,
    Assign,
    Atom,
    Formula,
    Iff,
    Implies,
    MetricLeq,
    Not,
    Or,
    TruthValue,
    Xiff,
    eval_layer1,
    eval_layer2,
    formula_metric,
    minimal_satisfying_sets,
    parse,
)
from .errors import (
    AttackQuantError,
    FormulaError,
    InvariantError,
    MissingAttributionError,
    ParseError,
    UndefinedIndexError,
    UnknownEntityError,
)
from .metrics import (
    BUILTIN_LOADS,
    MAX_PROB,
    MIN_COST,
    MIN_SKILL,
    MIN_TIME_PAR,
    MIN_TIME_SEQ,
    SECURITY_INDEX,
    Load,
    attack_metric,
    get_load,
    interval_tree_metric,
    neg_log,
    security_index,
    tree_metric,
)
from .snapshot import (
    Campaign,
    KnowledgeSnapshot,
    ProbMatrix,
    Tactic,
    Technique,
    likelihoods,
    load_snapshot,
    normalize_usage,
    save_snapshot,
    write_likelihood_csv,
)
from .stix import import_stix
from .template import (
    Difficulty,
    build_template,
    campaign_index,
    compare_all,
    instantiate,
    rank,
    security_range,
)
from .tree import Attack, AttackTree, GateType, Node

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
