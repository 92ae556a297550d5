"""Golden-output corpus: a fixed list of CLI operations and a digest of each one's output.

Every operation runs in-process through ``cli.main(args,
standalone_mode=False)`` inside a scratch directory, with inputs under
``in/`` and outputs under ``out/``.  Its digest is a sha256 over the exit
code, stdout, the ``error:`` lines on stderr and the bytes of every file
it wrote.  Other stderr (ingest warnings, ``check`` violations, the
``-v`` trace) is not pinned.  Inputs are the committed fixtures plus
seeded trees and snapshots built here from ``helpers``, so the corpus
does not depend on ``PYTHONHASHSEED``.

``tests/golden.json`` maps each operation (its arguments joined by
spaces) to its digest, and ``test_golden.py`` checks the package
against it.  After an intended output change, regenerate the file and
name each changed operation in CHANGES.md::

    python tests/golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import pathlib
import random
import shutil
import sys

TESTS = pathlib.Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
GOLDEN = TESTS / "golden.json"

if __name__ == "__main__":
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import click  # noqa: E402

from attackquant.cli import main  # noqa: E402
from attackquant.metrics import BUILTIN_LOADS  # noqa: E402
from attackquant.tree import AttackTree, GateType, Node  # noqa: E402
from helpers import (  # noqa: E402
    random_attribution,
    random_interval_attribution,
    random_snapshot,
    random_tree,
    snapshot_from_usage,
    snapshot_to_dict,
)

LOADS = sorted(BUILTIN_LOADS)
ATTR_LOADS = [name for name in LOADS if name not in ("maxprob", "security-index")]
DIFFICULTIES = ("easy", "default", "hard")


# -- inputs -------------------------------------------------------------------


def _at_doc(tree: AttackTree, values: dict[str, dict[str, object]]) -> dict:
    """at/1 document of ``tree`` with per-load leaf values (a number or [lo, hi])."""
    nodes = []
    for node in tree.nodes.values():
        raw: dict = {"id": node.id, "type": node.type.value}
        if node.children:
            raw["children"] = list(node.children)
        if node.type is GateType.BAS:
            prob = values["maxprob"][node.id]
            raw["prob_interval" if isinstance(prob, list) else "prob"] = prob
            raw["attrs"] = {name: values[name][node.id] for name in ATTR_LOADS}
        nodes.append(raw)
    return {"format": "at/1", "root": tree.root, "nodes": nodes}


def _values(rng: random.Random, tree: AttackTree, shape: str) -> dict[str, dict[str, object]]:
    """Leaf values for every attributed load: all points, all intervals,
    alternating, or intervals whose ends agree."""
    out: dict[str, dict[str, object]] = {}
    for name in ["maxprob"] + ATTR_LOADS:
        load = BUILTIN_LOADS[name]
        points = random_attribution(rng, tree, load)
        spans = random_interval_attribution(rng, tree, load)
        per_leaf: dict[str, object] = {}
        for i, leaf in enumerate(sorted(tree.bas_ids)):
            if shape == "point" or (shape == "mixed" and i % 2 == 0):
                per_leaf[leaf] = points[leaf]
            elif shape == "degenerate":
                per_leaf[leaf] = [points[leaf], points[leaf]]
            else:
                per_leaf[leaf] = list(spans[leaf])
        out[name] = per_leaf
    return out


def _family(k: int) -> AttackTree:
    """k ORs of {a_i, b_i, s} under an AND: every OR shares the leaf s."""
    nodes = [Node("s", GateType.BAS, ())]
    for i in range(k):
        nodes += [
            Node(f"o{i}", GateType.OR, (f"a{i}", f"b{i}", "s")),
            Node(f"a{i}", GateType.BAS, ()),
            Node(f"b{i}", GateType.BAS, ()),
        ]
    nodes.append(Node("top", GateType.AND, tuple(f"o{i}" for i in range(k))))
    return AttackTree(nodes, "top")


def _trees() -> dict[str, AttackTree]:
    """Four seeded trees, four seeded DAGs with a shared node, and the family."""
    trees: dict[str, AttackTree] = {}
    for dag in (False, True):
        seed, found = 0, 0
        while found < 4:
            tree = random_tree(random.Random(seed), max_leaves=8, dag=dag)
            seed += 1
            if len(tree.bas_ids) < 3 or tree.is_tree_structured == dag:
                continue
            trees[f"{'dag' if dag else 'tree'}{found}"] = tree
            found += 1
    trees["family"] = _family(4)
    return trees


def _snapshots() -> dict[str, dict]:
    snaps = {
        f"rand{seed}": snapshot_to_dict(random_snapshot(random.Random(seed)))
        for seed in range(3)
    }
    # One campaign without usage (undefined index), one using a parent technique.
    snaps["sparse"] = snapshot_to_dict(snapshot_from_usage(
        {"TA1": ["T1", "T2"], "TA2": ["T3"]},
        {"T1": ["T1.1", "T1.2"]},
        {"K1": [("TA1", "T1.1"), ("TA2", "T3")], "K2": [], "K3": [("TA1", "T1"), ("TA1", "T2")]},
    ))
    # Same version as rand1, other campaign ids: a valid two-snapshot compare.
    other = snapshot_to_dict(random_snapshot(random.Random(7)))
    for camp in other["campaigns"]:
        camp["id"] = "Z" + camp["id"]
    snaps["rand7z"] = other
    return snaps


def _write_inputs(inp: pathlib.Path) -> tuple[dict[str, AttackTree], dict[str, dict]]:
    inp.mkdir()
    for path in FIXTURES.glob("*.json"):
        shutil.copyfile(path, inp / path.name)
    (inp / "garbage.json").write_text("{nope")
    (inp / "empty-bundle.json").write_text('{"type": "bundle", "objects": []}')
    (inp / "invalid.at.json").write_text(json.dumps({
        "format": "at/1", "root": "g",
        "nodes": [{"id": "g", "type": "OR", "children": ["missing"]}],
    }))
    trees = _trees()
    rng = random.Random(2024)
    for name, tree in trees.items():
        for shape in ("point", "interval", "mixed", "degenerate"):
            doc = _at_doc(tree, _values(rng, tree, shape))
            (inp / f"{name}-{shape}.at.json").write_text(json.dumps(doc, indent=2))
    snaps = _snapshots()
    for name, snap in snaps.items():
        (inp / f"{name}.snapshot.json").write_text(json.dumps(snap, indent=2) + "\n")
    return trees, snaps


# -- operations ----------------------------------------------------------------


def _ops(trees: dict[str, AttackTree], snaps: dict[str, dict]) -> list[list[str]]:
    ops: list[list[str]] = []

    # ingest: both outputs, snapshot only, unreadable JSON (2), no campaigns (3)
    ops += [
        ["ingest", "in/mini-bundle.json", "--out", "out/snap.json", "--likelihoods", "out/lik.csv"],
        ["ingest", "in/mini-bundle.json", "--out", "out/snap.json"],
        ["ingest", "in/garbage.json", "--out", "out/snap.json"],
        ["ingest", "in/empty-bundle.json", "--out", "out/snap.json"],
    ]

    # template and compare on every snapshot and difficulty
    snapshot_files = {
        "miniature": json.loads((FIXTURES / "miniature.snapshot.json").read_text()),
        "toy-two-campaigns": json.loads((FIXTURES / "toy-two-campaigns.snapshot.json").read_text()),
        **snaps,
    }
    for name, snap in snapshot_files.items():
        path = f"in/{name}.snapshot.json"
        for difficulty in DIFFICULTIES:
            for camp in snap["campaigns"]:
                ops.append(["template", camp["id"], "--snapshot", path,
                            "--difficulty", difficulty, "--out", "out/t.at.json"])
            ops.append(["compare", path, "--difficulty", difficulty, "--out", "out/rank.csv"])
    ops += [
        # unknown campaign (4), unreadable snapshot (2)
        ["template", "NOPE", "--snapshot", "in/miniature.snapshot.json", "--out", "out/t.at.json"],
        ["template", "C1", "--snapshot", "in/garbage.json", "--out", "out/t.at.json"],
        # an output path without an extension
        ["compare", "in/sparse.snapshot.json", "--out", "out/rank"],
        # two snapshots: one version, different versions, the same campaigns twice
        ["compare", "in/rand1.snapshot.json", "in/rand7z.snapshot.json", "--out", "out/rank.csv"],
        ["compare", "in/rand7z.snapshot.json", "in/sparse.snapshot.json", "--difficulty", "hard",
         "--out", "out/rank.csv"],
        ["compare", "in/miniature.snapshot.json", "in/toy-two-campaigns.snapshot.json",
         "--out", "out/rank.csv"],
        ["compare", "in/miniature.snapshot.json", "in/toy-two-campaigns.snapshot.json",
         "--allow-cross-version", "--out", "out/rank.csv"],
        ["compare", "in/miniature.snapshot.json", "in/miniature.snapshot.json",
         "--out", "out/rank.csv"],
        ["compare", "in/rand1.snapshot.json", "in/rand2.snapshot.json", "--out", "out/rank.csv"],
        ["compare", "in/garbage.json", "--out", "out/rank.csv"],
    ]

    # metric and check on the fixtures and on every generated tree
    fixture_ats = sorted(p.name for p in FIXTURES.glob("*.at.json"))
    generated = [f"{name}-{shape}.at.json" for name in trees
                 for shape in ("point", "interval", "mixed", "degenerate")]
    for name in fixture_ats + generated + ["invalid.at.json", "garbage.json"]:
        ops.append(["check", f"in/{name}"])
        if name == "wocao-custom.at.json":
            continue  # a 78-leaf DAG: its metrics take most of a second each
        for load in LOADS:
            ops.append(["metric", f"in/{name}", "--metric", load])
    ops.append(["metric", "in/wocao-initial-access.at.json", "--metric", "nope"])
    ops.append(["metric", "in/wocao-initial-access.at.json"])

    # query: layer 1, formula metrics (positive and negated), layer 2
    for name, tree in trees.items():
        leaves = sorted(tree.bas_ids)
        gates = [n for n in tree.nodes if n != tree.root and tree.nodes[n].type is not GateType.BAS]
        module = gates[0] if gates else tree.root
        everything = ",".join(leaves)
        formulas = [tree.root, f"{leaves[0]} | {leaves[1]}",
                    f"{tree.root} & !{leaves[0]}", f"!{leaves[1]}"]
        for shape in ("point", "interval", "mixed", "degenerate"):
            path = f"in/{name}-{shape}.at.json"
            loads = ("maxprob", "mincost") + (("security-index",) if shape in ("point", "interval") else ())
            for formula in formulas:
                for load in loads:
                    ops.append(["query", path, "--catm", formula, "--metric", load])
            if shape in ("mixed", "degenerate"):
                continue
            ops += [
                ["query", path, "--catm", tree.root, "--attack", everything],
                ["query", path, "--catm", f"{tree.root} => {leaves[0]}", "--attack", leaves[-1]],
                ["query", path, "--catm", f"metric(mincost, {tree.root}) <= 120",
                 "--attack", everything],
                ["query", path, "--catm", f"metric(maxprob, {tree.root}) <= 0.01",
                 "--attack", everything],
                ["query", path, "--catm",
                 f"set {leaves[0]} = [0.2, 0.6] in metric(maxprob, {tree.root}) <= 0.3",
                 "--attack", everything],
                ["query", path, "--catm",
                 f"set {module} = [5, 40] in metric(mincost, {tree.root}) <= 100",
                 "--attack", everything],
                ["-v", "query", path, "--catm", f"metric(minskill, {tree.root}) <= 10",
                 "--attack", everything],
            ]
    iv = "in/wocao-initial-access-intervals.at.json"
    pt = "in/wocao-initial-access.at.json"
    for path in (pt, iv):
        ops += [
            ["query", path, "--catm", "EVJ & !VPN", "--metric", "maxprob"],
            ["query", path, "--catm", "CVE1 | CVE2", "--metric", "security-index"],
            ["query", path, "--catm", "InA", "--metric", "mincost"],
            ["query", path, "--catm", "VPN", "--attack", "GVC,CVP"],
            ["query", path, "--catm", "metric(maxprob, VPN) <= 0.5", "--attack", "GVC,CVP"],
            ["query", path, "--catm", "set GVC = [0.25, 0.45] in metric(maxprob, VPN) <= 0.3",
             "--attack", "GVC,CVP"],
            ["query", path, "--catm", "set EVJ = [0.6, 0.7] in metric(maxprob, EVJ) <= 0.65",
             "--attack", "CVE1"],
        ]
    ops += [
        # formula errors (6), an unknown atom, a malformed attack list
        ["query", pt, "--catm", "metric(maxprob, VPN) <= 0.5"],
        ["query", pt, "--catm", "(InA &"],
        ["query", pt, "--catm", "set GVC = [0.9, 0.1] in metric(maxprob, VPN) <= 0.3",
         "--attack", "GVC"],
        ["query", iv, "--catm", "set VPN = [0, 1] in set GVC = [0, 1] in metric(maxprob, EVJ) <= 0.5",
         "--attack", "CVE1"],
        ["query", pt, "--catm", "NOPE", "--attack", "GVC"],
        ["query", pt, "--catm", "InA", "--attack", ",,GVC, CVP,"],
        ["query", pt, "--catm", "InA", "--metric", "nope"],
        ["query", "in/garbage.json", "--catm", "InA"],
    ]
    return ops


# -- running -------------------------------------------------------------------


def _run(args: list[str]) -> tuple[int, str, list[str]]:
    """Exit code, stdout and ``error:`` lines of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="attackquant", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(f"error: {exc.format_message()}\n")
        except Exception as exc:  # a traceback and exit 1 in a real process
            code = 1
            err.write(f"uncaught: {type(exc).__name__}\n")
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith(("error:", "uncaught:"))]
    return code, out.getvalue(), errors


def run_corpus(workdir: pathlib.Path) -> dict[str, str]:
    """Digest per operation, with every input and output inside ``workdir``."""
    trees, snaps = _write_inputs(workdir / "in")
    outdir = workdir / "out"
    digests: dict[str, str] = {}
    # A handler on the root logger keeps ``main``'s basicConfig from
    # binding one op's redirected stderr for the rest of the run.
    handler = logging.NullHandler()
    logging.getLogger().addHandler(handler)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for args in _ops(trees, snaps):
            outdir.mkdir()
            code, stdout, errors = _run(args)
            files = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(outdir.iterdir())
            }
            shutil.rmtree(outdir)
            record = {"exit": code, "stdout": stdout, "errors": errors, "files": files}
            blob = json.dumps(record, sort_keys=True).encode()
            name = " ".join(args)
            if name in digests:
                raise ValueError(f"operation listed twice: {name}")
            digests[name] = hashlib.sha256(blob).hexdigest()
    finally:
        os.chdir(cwd)
        logging.getLogger().removeHandler(handler)
    return digests


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    opts = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(pathlib.Path(tmp))
    if opts.write:
        GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
    else:
        want = json.loads(GOLDEN.read_text())
        changed = sorted(op for op in want.keys() | digests.keys() if want.get(op) != digests.get(op))
        print("\n".join(changed) or f"all {len(digests)} operations match")
        sys.exit(1 if changed else 0)
