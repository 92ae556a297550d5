"""Span tracer that wraps the package's public functions from outside.

Each declared span names a function or method of one module of the
package.  Installing the tracer replaces that object in every module
namespace of the package that binds it (``cli`` imports ``read_at`` by
name, ``template`` imports ``normalize_usage``, and so on), so calls
through any of those names are recorded.  Methods are replaced on their
class.  Uninstalling puts the originals back.

Spans are kept in memory: per span name a call count and self time (span
time minus the time of its child spans), typed errors leaving each
layer, and -- except for the very hot spans -- one record per call with
its operation number, parent, start and end.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, dotted name inside the module)
SPANS = (
    ("stix", "import_stix"),
    ("snapshot", "load_snapshot"),
    ("snapshot", "KnowledgeSnapshot.__init__"),
    ("snapshot", "normalize_usage"),
    ("snapshot", "likelihoods"),
    ("snapshot", "save_snapshot"),
    ("snapshot", "write_likelihood_csv"),
    ("template", "build_template"),
    ("template", "used_pairs"),
    ("template", "campaign_index"),
    ("template", "compare_all"),
    ("template", "instantiate"),
    ("tree", "AttackTree.validate"),
    ("tree", "AttackTree.minimal_attacks"),
    ("tree", "AttackTree.prune"),
    ("tree", "AttackTree.structure_function"),
    ("tree", "AttackTree.is_module"),
    ("tree", "AttackTree.descendants"),
    ("metrics", "tree_metric"),
    ("metrics", "interval_tree_metric"),
    ("metrics", "attack_metric"),
    ("atfile", "read_at"),
    ("atfile", "write_at"),
    ("catm", "parse"),
    ("catm", "eval_layer1"),
    ("catm", "eval_layer2"),
    ("catm", "minimal_satisfying_sets"),
    ("catm", "formula_metric"),
)
SUBCOMMANDS = ("ingest", "template", "metric", "query", "compare", "check")
LAYERS = ("cli", "stix", "snapshot", "template", "tree", "metrics", "atfile", "catm")
# Spans hot enough that only their count and total time are kept.
# ``validate`` is among them because every structure_function call
# re-validates through require_valid.
HOT = {
    "metrics.attack_metric",
    "tree.AttackTree.structure_function",
    "tree.AttackTree.validate",
    "catm.eval_layer1",
    "snapshot.normalize_usage",
}


PACKAGE = "attackquant"


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, name in SPANS] + [f"cli.{c}" for c in SUBCOMMANDS]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {name: 0 for name in span_names()}
        self.self_s: dict[str, float] = {name: 0.0 for name in span_names()}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.records: list[tuple[int, str, int, float, float]] = []
        self.cuts = 0  # minimal attacks returned
        self.usage_pairs: set = set()  # distinct (op, snapshot, campaign, tactic)
        self.op = 0
        self._stack: list[list] = []  # [name, layer, start, child seconds, record index]
        self._patches: list[tuple[object, str, object]] = []
        self._error_types: tuple[type, ...] = ()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every declared span; LookupError names a span the package lacks."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        errors = modules[f"{PACKAGE}.errors"]
        self._error_types = (errors.AttackQuantError,)
        for layer, dotted in SPANS:
            module = modules[f"{PACKAGE}.{layer}"]
            span = f"{layer}.{dotted}"
            owner_name = dotted.split(".")[0]
            if not hasattr(module, owner_name):
                raise LookupError(f"declared span {span}: {module.__name__} has no {owner_name}")
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(getattr(owner, attr), span, layer))
                continue
            original = getattr(module, dotted)
            wrapper = self._wrap(original, span, layer)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        cli = modules[f"{PACKAGE}.cli"]
        for sub in SUBCOMMANDS:
            command = cli.main.commands[sub]
            self._patch(command, "callback", self._wrap(command.callback, f"cli.{sub}", "cli"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span: str, layer: str):
        hot = span in HOT
        stack = self._stack
        clock = time.perf_counter
        counts_cuts = span == "tree.AttackTree.minimal_attacks"
        counts_pairs = span == "snapshot.normalize_usage"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if not hot:
                index = len(self.records)
                self.records.append(None)
            frame = [span, layer, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if self._leaves_layer(exc, layer, parent):
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[2]
                self.calls[span] += 1
                self.self_s[span] += elapsed - frame[3]
                if parent is not None:
                    parent[3] += elapsed
                if index >= 0:
                    parent_index = parent[4] if parent is not None else -1
                    self.records[index] = (self.op, span, parent_index, frame[2], end)
            if counts_cuts:
                self.cuts += len(result)
            elif counts_pairs:
                snapshot, campaign, tactic = args[:3]
                self.usage_pairs.add((self.op, id(snapshot), campaign, tactic))
            return result

        return wrapper

    def _leaves_layer(self, exc: BaseException, layer: str, parent) -> bool:
        if parent is not None and parent[1] == layer:
            return False
        if isinstance(exc, SystemExit):
            return exc.code not in (None, 0)
        return isinstance(exc, self._error_types)

    # -- results -----------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span, seconds in self.self_s.items():
            out[span.split(".", 1)[0]] += seconds * 1e3
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out once at the end."""
        return {
            "calls": self.calls,
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "errors": self.errors,
            "records": [
                {"op": op, "span": span, "parent": parent, "start": start, "end": end}
                for op, span, parent, start, end in self.records
            ],
        }
