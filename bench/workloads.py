"""The three workloads: their operations, inputs and output checks.

A workload is a fixed round of operations.  The closed loop runs whole
rounds, each with fresh inputs generated from (seed, round), so no two
operations of a run share an input file.  Every operation carries a
check that judges the CLI's exit code and output against values the
benchmark computes itself (see kbgen and atgen).
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import atgen
import kbgen
from harness import Outcome

# A check returns None when the output is right, else what is wrong.
Check = Callable[[Outcome], "str | None"]


@dataclass
class Op:
    command: str
    args: list[str]
    check: Check
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    sizes: str
    tail_pct: float  # fixed per workload; see README
    make_round: Callable[[int, int, str], list[Op]]
    spans: set[str] = field(default_factory=set)  # must fire in a traced run


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def close(got: float, want: float, tol: float = 1e-6) -> bool:
    if math.isinf(want):
        return math.isinf(got) and (got > 0) == (want > 0)
    return abs(got - want) <= tol * max(1.0, abs(want))


def expect_exit(code: int, stdout: str | None = None) -> Check:
    def check(out) -> str | None:
        if out.exit_code != code:
            return f"exit {out.exit_code} ({out.exception or out.stderr.strip()[:120]}), expected {code}"
        if stdout is not None and out.stdout != stdout:
            return f"stdout {out.stdout!r}, expected {stdout!r}"
        return None
    return check


def then(first: Check, second: Callable[[], "str | None"]) -> Check:
    def check(out) -> str | None:
        return first(out) or second()
    return check


# -- kb-ingest -------------------------------------------------------------


def _check_snapshot(model: kbgen.KbModel, snap_path: str, snapshot_mod) -> str | None:
    # Through files, not in-memory strings, so that the check's own memory
    # stays below the ingest it checks and peak_rss_mb measures the ingest.
    with open(snap_path, encoding="utf-8") as fh:
        if json.load(fh) != kbgen.snapshot_dict(model):
            return "snapshot tactics, techniques or usage differ from the generator's model"
    again = f"{snap_path}.again"
    snapshot_mod.save_snapshot(snapshot_mod.load_snapshot(snap_path), again)
    if not filecmp.cmp(snap_path, again, shallow=False):
        return "save -> load -> save is not byte-identical"
    return None


def _check_likelihoods(oracle: kbgen.KbOracle, csv_path: str) -> str | None:
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["technique", "tactic", "probability"]:
        return f"likelihood header {rows[0]}"
    want = oracle.likelihood_rows()
    got = {(tech, tac): float(p) for tech, tac, p in rows[1:]}
    if set(got) != set(want) or len(got) != len(rows) - 1:
        return "likelihood rows differ from the model's leaf usage"
    sums: dict[str, float] = {}
    for (tech, tac), p in got.items():
        if not close(p, want[(tech, tac)], 1e-11):
            return f"likelihood of {tech}@{tac} is {p}, expected {want[(tech, tac)]}"
        sums[tac] = sums.get(tac, 0.0) + p
    bad = [tac for tac, total in sums.items() if not close(total, 1.0, 1e-9)]
    return f"likelihoods of {bad} do not sum to 1" if bad else None


GATES = {"easy": ("OR", "OR"), "default": ("SAND", "OR"), "hard": ("AND", "AND")}


def _check_template(oracle: kbgen.KbOracle, campaign: str, difficulty: str, at_path: str) -> str | None:
    with open(at_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("root") != "campaign" or doc.get("difficulty") != difficulty \
            or doc.get("snapshot_version") != oracle.model.version:
        return "template header (root, difficulty, snapshot_version) is wrong"
    want = {f"{tech}@{tac}": oracle.prob(tech, tac) for tech, tac in oracle.leaves[campaign]}
    leaves = {n["id"]: n.get("prob") for n in doc["nodes"] if n["type"] == "BAS"}
    if set(leaves) != set(want):
        return "template leaves differ from the campaign's normalised leaf pairs"
    for nid, p in leaves.items():
        if p is None or not close(p, want[nid], 1e-12):
            return f"leaf {nid} has probability {p}, expected {want[nid]}"
    tactic_gate, technique_gate = GATES[difficulty]
    for node in doc["nodes"]:
        if node["type"] == "BAS":
            continue
        if not node.get("children"):
            return f"gate {node['id']} has no children"
        if node["id"] in kbgen.TACTIC_IDS and node["type"] != tactic_gate:
            return f"tactic gate {node['id']} is {node['type']}, expected {tactic_gate}"
        if "@" in node["id"] and node["type"] != technique_gate:
            return f"technique gate {node['id']} is {node['type']}, expected {technique_gate}"
    return None


def kb_ingest_round(seed: int, number: int, workdir: str) -> list[Op]:
    from attackquant import snapshot as snapshot_mod

    rng = _rng("kb-ingest", seed, number)
    model = kbgen.make_model(rng, 300)
    bundle = os.path.join(workdir, "bundle.json")
    kbgen.write_bundle(model, rng, bundle)
    oracle = kbgen.KbOracle(model)
    snap = os.path.join(workdir, "snapshot.json")
    probs = os.path.join(workdir, "likelihoods.csv")
    ops = [Op("ingest", ["ingest", bundle, "--out", snap, "--likelihoods", probs],
              then(expect_exit(0, ""),
                   lambda: _check_snapshot(model, snap, snapshot_mod) or _check_likelihoods(oracle, probs)))]
    used = [c.id for c in model.campaigns if oracle.leaves[c.id]]
    for k, difficulty in enumerate(kbgen.DIFFICULTIES):
        campaign = rng.choice(used)
        copy = os.path.join(workdir, f"snapshot-{k}.json")
        out = os.path.join(workdir, f"template-{k}.at.json")
        ops.append(Op(
            "template",
            ["template", campaign, "--snapshot", copy, "--difficulty", difficulty, "--out", out],
            then(expect_exit(0, ""),
                 lambda c=campaign, d=difficulty, o=out: _check_template(oracle, c, d, o)),
            prepare=lambda c=copy: _copy_if_present(snap, c),
        ))
    copy = os.path.join(workdir, "snapshot-unknown.json")
    out = os.path.join(workdir, "template-unknown.at.json")
    ops.append(Op("template", ["template", "C9999", "--snapshot", copy, "--out", out],
                  then(expect_exit(4, ""), lambda: "output written for an unknown campaign"
                       if os.path.exists(out) else None),
                  prepare=lambda: _copy_if_present(snap, copy)))
    return ops


def _copy_if_present(src: str, dst: str) -> None:
    """Each template op reads its own copy of the snapshot that ingest wrote."""
    if os.path.exists(src):
        shutil.copyfile(src, dst)


# -- kb-rank ---------------------------------------------------------------


def _check_ranking(oracles: list[kbgen.KbOracle], difficulty: str, out: str) -> str | None:
    expected: dict[str, dict[str, float | None]] = {}
    names: dict[str, str] = {}
    for oracle in oracles:
        for camp in oracle.model.campaigns:
            expected[camp.id] = {d: oracle.index(camp.id, d) for d in kbgen.DIFFICULTIES}
            names[camp.id] = camp.name
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    stem, ext = os.path.splitext(out)
    with open(f"{stem}.plot{ext}", encoding="utf-8", newline="") as fh:
        plot = list(csv.reader(fh))
    if rows[0] != ["campaign", "name", "difficulty", "index"] or \
            plot[0] != ["campaign", "name", "easy", "default", "hard"]:
        return "ranking or plot header is wrong"
    if sorted(r[0] for r in rows[1:]) != sorted(expected) or sorted(r[0] for r in plot[1:]) != sorted(expected):
        return "ranking or plot does not list every campaign once"

    def agrees(text: str, want: float | None) -> bool:
        return text == "undefined" if want is None else text != "undefined" and close(float(text), want)

    def ordered(texts: list[str]) -> bool:
        keys = [(t == "undefined", 0.0 if t == "undefined" else float(t)) for t in texts]
        return keys == sorted(keys)

    for cid, name, diff, index in rows[1:]:
        if name != names[cid] or diff != difficulty or not agrees(index, expected[cid][difficulty]):
            return f"ranking row for {cid} is ({name}, {diff}, {index}), expected index {expected[cid][difficulty]}"
    for cid, name, *levels in plot[1:]:
        for d, text in zip(kbgen.DIFFICULTIES, levels):
            if name != names[cid] or not agrees(text, expected[cid][d]):
                return f"plot {d} index for {cid} is {text}, expected {expected[cid][d]}"
    if not ordered([r[3] for r in rows[1:]]) or not ordered([r[3] for r in plot[1:]]):
        return "ranking is not sorted by index"
    return None


def kb_rank_round(seed: int, number: int, workdir: str) -> list[Op]:
    rng = _rng("kb-rank", seed, number)
    ops = []
    for k, shape in enumerate(("one", "two", "one", "cross", "one", "two", "one", "one")):
        catalogue = kbgen.make_catalogue(rng)
        first = kbgen.make_model(rng, 30, techs=catalogue)
        models = [first]
        if shape == "two":
            models.append(kbgen.make_model(rng, 30, first_number=101, techs=catalogue))
        elif shape == "cross":
            models.append(kbgen.make_model(rng, 30, "mitre-enterprise-v15.0", 101, catalogue))
        paths = []
        for j, model in enumerate(models):
            paths.append(os.path.join(workdir, f"snap-{k}-{j}.json"))
            kbgen.write_snapshot(model, paths[-1])
        difficulty = rng.choice(kbgen.DIFFICULTIES)
        out = os.path.join(workdir, f"rank-{k}.csv")
        args = ["compare", *paths, "--difficulty", difficulty, "--out", out]
        if shape == "cross":
            check = then(expect_exit(3, ""), lambda o=out: "ranking written across versions"
                         if os.path.exists(o) else None)
        else:
            oracles = [kbgen.KbOracle(m) for m in models]
            check = then(expect_exit(0, ""),
                         lambda o=out, d=difficulty, orc=oracles: _check_ranking(orc, d, o))
        ops.append(Op("compare", args, check))
    return ops


# -- at-analysis -----------------------------------------------------------

FIXTURE_README = {
    # README examples: arguments and exact stdout
    "mincost": ("wocao-initial-access.at.json", ["--metric", "mincost"], "3.000000\n"),
    "interval": ("wocao-initial-access-intervals.at.json", [], "[0.250000, 0.810000]\n"),
}


def parse_numbers(text: str) -> list[float] | None:
    text = text.strip()
    try:
        if text.startswith("[") and text.endswith("]"):
            return [float(x) for x in text[1:-1].split(",")]
        return [float(text)]
    except ValueError:
        return None


def expect_value(span: tuple[float, float], interval: bool) -> Check:
    want = list(span) if interval else [span[0]]

    def check(out) -> str | None:
        bad = expect_exit(0)(out)
        if bad:
            return bad
        got = parse_numbers(out.stdout)
        if got is None or len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
            return f"printed {out.stdout.strip()!r}, expected {want}"
        return None
    return check


def expect_typed(result: Check) -> Check:
    """Adversarial inputs: a correct result, or a typed exit code 2-6."""
    def check(out) -> str | None:
        if 2 <= out.exit_code <= 6 and out.exception is None:
            return None
        return result(out)
    return check


class AtRound:
    """Builds one round of at-analysis ops in a directory."""

    def __init__(self, seed: int, number: int, workdir: str, fixtures: str, cache: dict):
        self.rng = _rng("at-analysis", seed, number)
        self.workdir = workdir
        self.fixtures = fixtures
        self.cache = cache  # oracle values of the committed fixtures
        self.count = 0
        self.ops: list[Op] = []

    def write(self, doc: dict | str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in-{self.count}.at.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc, indent=1))
        return path

    def fixture(self, name: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in-{self.count}-{name}")
        shutil.copyfile(os.path.join(self.fixtures, name), path)
        return path

    def add(self, command: str, args: list[str], check: Check) -> None:
        self.ops.append(Op(command, [command, *args], check))

    def metric(self, doc: dict, load: str, method: str) -> None:
        model = atgen.AtModel(doc)
        span = atgen.expected_metric(model, load, method)
        self.add("metric", [self.write(doc), "--metric", load],
                 expect_value(span, model.has_intervals(load)))

    def fixture_metric(self, name: str, load: str, method: str) -> None:
        if (name, load) not in self.cache:
            with open(os.path.join(self.fixtures, name), encoding="utf-8") as fh:
                model = atgen.AtModel(json.load(fh))
            self.cache[(name, load)] = (atgen.expected_metric(model, load, method),
                                        model.has_intervals(load))
        span, interval = self.cache[(name, load)]
        self.add("metric", [self.fixture(name), "--metric", load], expect_value(span, interval))

    def layer1(self, size: int, interval: bool) -> None:
        doc = atgen.tree_doc(self.rng, size, interval)
        model = atgen.AtModel(doc)
        atoms = self.rng.sample(sorted(model.kind), 5)
        formula = atgen.random_formula(self.rng, atoms, negations=True)
        attack = {leaf for leaf in model.leaves if self.rng.random() < 0.5}
        verdict = atgen.eval_bool(formula, model.truth(attack))
        self.add("query", [self.write(doc), "--catm", atgen.render(formula),
                           "--attack", ",".join(sorted(attack))],
                 expect_exit(0, "TRUE\n" if verdict else "FALSE\n"))

    def layer2(self, target_kind: str | None, combined: bool) -> None:
        rng = self.rng
        doc = atgen.tree_doc(rng, 40, interval=True)
        model = atgen.AtModel(doc)
        maps = atgen.attribution_maps(model)
        gates = [n for n, k in model.kind.items() if k != "BAS" and n != model.root]
        attack = {leaf for leaf in model.leaves if rng.random() < 0.6}

        def claim(exclude: set[str]):
            load = rng.choice(sorted(maps))
            pool = sorted(n for n in model.kind if n not in exclude)
            inner = atgen.random_formula(rng, rng.sample(pool, 2), negations=False)
            lo, hi = atgen.attack_span(model, maps, load, attack)
            bound = round(rng.uniform(0.5 * lo, 1.5 * hi + 1e-3), 4)
            return ("metric", load, inner, bound)

        if target_kind is None:
            formula = claim(set())
        else:
            target = rng.choice(sorted(attack) if target_kind == "BAS" else gates)
            below = model.cone(target)
            lo = round(rng.uniform(0.1, 0.6), 3)
            formula = ("set", target, lo, round(lo + rng.uniform(0.0, 0.3), 3), claim(below))
        if combined:
            formula = (rng.choice(("and", "or", "imp")), ("not", claim(set())), formula)
        verdict = atgen.layer2(model, formula, attack, maps)
        text = {1.0: "TRUE\n", 0.5: "MAYBE\n", 0.0: "FALSE\n"}[verdict]
        self.add("query", [self.write(doc), "--catm", atgen.render(formula),
                           "--attack", ",".join(sorted(attack))], expect_exit(0, text))

    def formula_metric(self, support: int, negated: bool, load: str, interval: bool) -> None:
        """Fixed shape, seeded atoms: (a & !b) | c when negated, else (a | b) & c.

        The shape is fixed because the cost of a negated formula grows with
        every atom occurrence in the 2^support enumeration.
        """
        rng = self.rng
        atoms = None
        while atoms is None:
            doc = atgen.tree_doc(rng, 90, interval)
            model = atgen.AtModel(doc)
            atoms = atgen.support_atoms(rng, model, support)
        a, b, c = (("atom", x) for x in atoms)
        formula = ("or", ("and", a, ("not", b)), c) if negated else ("and", ("or", a, b), c)
        span = atgen.formula_metric_value(model, formula, load)
        self.add("query", [self.write(doc), "--catm", atgen.render(formula), "--metric", load],
                 expect_value(span, model.has_intervals(load)))


def at_analysis_round(seed: int, number: int, workdir: str, fixtures: str, cache: dict) -> list[Op]:
    r = AtRound(seed, number, workdir, fixtures, cache)
    rng = r.rng
    # committed fixtures
    r.fixture_metric("wocao-custom.at.json", "security-index", "cuts")
    r.fixture_metric("dreamjob-custom.at.json", "security-index", "fold")
    for name, extra, stdout in FIXTURE_README.values():
        r.add("metric", [r.fixture(name), *extra], expect_exit(0, stdout))
    r.add("query", [r.fixture("wocao-initial-access.at.json"), "--catm", "EVJ & !VPN",
                    "--attack", "CVE1"], expect_exit(0, "TRUE\n"))
    r.add("query", [r.fixture("wocao-initial-access-intervals.at.json"), "--catm",
                    "metric(maxprob, VPN) <= 0.5", "--attack", "GVC,CVP"], expect_exit(0, "MAYBE\n"))
    r.add("query", [r.fixture("wocao-initial-access.at.json"), "--catm", "EVJ | VPN",
                    "--metric", "mincost"], expect_exit(0, "3.000000\n"))
    r.add("check", [r.fixture("wocao-custom.at.json")], expect_exit(0, "OK\n"))
    # tree-structured trees, 100 to 2000 nodes
    for size, load, interval in ((100, "security-index", False), (300, "minskill", True),
                                 (1000, "mintime-seq", False), (2000, "mintime-par", True)):
        r.metric(atgen.tree_doc(rng, size, interval), load, "fold")
    r.add("check", [r.write(atgen.tree_doc(rng, 2000, False))], expect_exit(0, "OK\n"))
    # shared-leaf DAG family, 13 to 25 leaves, and random DAGs
    family = (("maxprob", False), ("mincost", True), ("security-index", True), ("minskill", False),
              ("mintime-par", False), ("mintime-seq", True), ("mincost", False))
    for k, (load, interval) in zip(range(6, 13), family):
        r.metric(atgen.family_doc(rng, k, interval), load, "family")
    for leaves, load, interval in ((12, "maxprob", True), (14, "mincost", False),
                                   (16, "security-index", True)):
        r.metric(atgen.random_dag_doc(rng, leaves, interval), load, "brute")
    # layer-1 queries with an attack, layer-2 metric/set queries
    for size, interval in ((300, False), (1000, True), (2000, False)):
        r.layer1(size, interval)
    r.layer2(None, combined=False)
    r.layer2("BAS", combined=False)
    r.layer2("module", combined=False)
    r.layer2("module", combined=True)
    # formula metrics, positive and negated, 8 to 15 support leaves
    for support, negated, load, interval in ((8, False, "mincost", False), (12, False, "maxprob", True),
                                             (15, False, "minskill", False), (8, True, "mintime-seq", True),
                                             (12, True, "security-index", False), (15, True, "mincost", True)):
        r.formula_metric(support, negated, load, interval)
    # documented error exits
    small = atgen.tree_doc(rng, 20, False)
    r.add("check", [r.write({"format": "at/1", "root": "g0", "nodes": [
        {"id": "g0", "type": "OR", "children": ["g1", "b0"]},
        {"id": "g1", "type": "AND", "children": ["g0", "b1"]},
        {"id": "b0", "type": "BAS"}, {"id": "b1", "type": "BAS"}]})], expect_exit(3, ""))
    r.add("check", [r.write({"format": "at/1", "root": "g0", "nodes": [
        {"id": "g0", "type": "OR", "children": ["b0", "missing"]}, {"id": "b0", "type": "BAS"}]})],
        expect_exit(3, ""))
    r.add("check", [r.write('{"format": "at/1", "root": "g0", "nodes": [')], expect_exit(2, ""))
    r.add("metric", [r.write(small), "--metric", "maxcost"], expect_exit(4, ""))
    bare = {**small, "nodes": [{k: v for k, v in n.items() if k != "attrs"} for n in small["nodes"]]}
    r.add("metric", [r.write(bare), "--metric", "mincost"], expect_exit(5, ""))
    r.add("query", [r.write(small), "--catm", "metric(maxprob, n0) <= 0.5"], expect_exit(6, ""))
    r.add("query", [r.write(small), "--catm", "n1 & ghost", "--attack", "n1"], expect_exit(4, ""))
    # adversarial: 5000-deep OR chain, 5001-deep negation
    chain = atgen.chain_doc(5000)
    cheapest = min(n["attrs"]["mincost"] for n in chain["nodes"] if n["type"] == "BAS")
    r.add("metric", [r.write(chain), "--metric", "mincost"],
          expect_typed(expect_value((cheapest, cheapest), False)))
    leaf = next(n["id"] for n in small["nodes"] if n["type"] == "BAS")
    r.add("query", [r.write(small), "--catm", "!" * 5001 + leaf, "--attack", leaf],
          expect_typed(expect_exit(0, "FALSE\n")))
    return r.ops


# -- registry --------------------------------------------------------------

KB_SPANS = {"snapshot.KnowledgeSnapshot.__init__", "snapshot.normalize_usage", "snapshot.likelihoods",
            "snapshot.load_snapshot", "template.build_template", "template.used_pairs"}


def workloads(fixtures: str) -> dict[str, Workload]:
    cache: dict = {}
    return {
        "kb-ingest": Workload(
            "kb-ingest",
            "STIX bundle: 14 tactics, 200 parents, 420 subtechniques, 300 campaigns; "
            "round = 1 ingest, 3 template, 1 unknown-campaign template (exit 4)",
            90.0,
            kb_ingest_round,
            KB_SPANS | {"cli.ingest", "cli.template", "stix.import_stix", "snapshot.save_snapshot",
                        "snapshot.write_likelihood_csv", "template.instantiate",
                        "tree.AttackTree.prune", "tree.AttackTree.validate", "atfile.write_at"},
        ),
        "kb-rank": Workload(
            "kb-rank",
            "snapshots of 30 campaigns on a 620-technique catalogue; round = 5 single, "
            "2 same-version pairs, 1 cross-version refusal (exit 3)",
            56.25,
            kb_rank_round,
            KB_SPANS | {"cli.compare", "template.compare_all", "template.campaign_index"},
        ),
        "at-analysis": Workload(
            "at-analysis",
            "fixtures, trees of 100-2000 nodes, shared-leaf DAGs of 13-25 leaves, random DAGs, "
            "formulas with 8-15 support leaves, error and adversarial ops; 45 ops a round",
            100.0 * (1 - 1.5 / 45),
            lambda seed, number, workdir: at_analysis_round(seed, number, workdir, fixtures, cache),
            {"cli.metric", "cli.query", "cli.check", "atfile.read_at", "tree.AttackTree.validate",
             "tree.AttackTree.minimal_attacks", "tree.AttackTree.structure_function",
             "tree.AttackTree.is_module", "tree.AttackTree.descendants", "metrics.tree_metric",
             "metrics.interval_tree_metric", "metrics.attack_metric", "catm.parse",
             "catm.eval_layer1", "catm.eval_layer2", "catm.minimal_satisfying_sets",
             "catm.formula_metric"},
        ),
    }
