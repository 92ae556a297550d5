"""Deep, huge and malformed inputs end in a result or a typed error.

Every walker over trees and formulas is iterative, the parser refuses
nesting beyond a fixed depth, and the JSON readers turn every decoding
failure into a ParseError; the fuzzers check that nothing else escapes.
"""

import copy
import io
import json
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import attackquant
from attackquant import (
    AttackQuantError,
    AttackTree,
    FormulaError,
    ParseError,
    eval_layer1,
    eval_layer2,
    import_stix,
    load_snapshot,
    minimal_satisfying_sets,
    parse,
    read_at,
    save_snapshot,
)
from attackquant.catm import Formula, layer_of
from attackquant.cli import main
from helpers import BAS, OR, Node, wocao_entry_tree


def chain_doc(depth: int) -> dict:
    """OR chain ``depth`` gates deep, one leaf per gate plus one at the bottom."""
    below = [f"g{i}" for i in range(1, depth)] + [f"b{depth}"]
    nodes = [{"id": f"g{i}", "type": "OR", "children": [f"b{i}", below[i]]} for i in range(depth)]
    nodes += [
        {"id": f"b{i}", "type": "BAS", "attrs": {"mincost": float(1 + (i * 7919) % 1000)}}
        for i in range(depth + 1)
    ]
    return {"format": "at/1", "root": "g0", "nodes": nodes}


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_clean_exit(result, code):
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# -- deep trees ---------------------------------------------------------------


def test_structure_function_on_5000_deep_chain(tmp_path):
    path = tmp_path / "chain.at.json"
    path.write_text(json.dumps(chain_doc(5000)))
    result = invoke("query", path, "--catm", "g0", "--attack", "b5000")
    assert_clean_exit(result, 0)
    assert result.output == "TRUE\n"


def test_formula_metric_on_1500_deep_chain(tmp_path):
    doc = chain_doc(1500)
    cheapest = min(n["attrs"]["mincost"] for n in doc["nodes"] if n["type"] == "BAS")
    path = tmp_path / "chain.at.json"
    path.write_text(json.dumps(doc))
    result = invoke("query", path, "--catm", "g0", "--metric", "mincost")
    assert_clean_exit(result, 0)
    assert result.output == f"{cheapest:.6f}\n"


def test_prune_on_5000_deep_chain():
    depth = 5000
    tree = read_at(io.StringIO(json.dumps(chain_doc(depth)))).tree
    pruned = tree.prune({f"b{depth}"})
    assert len(pruned.nodes) == depth + 1
    assert pruned.node("g0").children == ("g1",)
    assert pruned.minimal_attacks() == {frozenset({f"b{depth}"})}


# -- deep formulas ------------------------------------------------------------


SMALL = AttackTree([Node("R", OR, ("A", "B")), Node("A", BAS), Node("B", BAS)], "R")


@pytest.mark.parametrize(
    "text, sets",
    [
        pytest.param("!" * 5000 + "A", {frozenset({"A"})}, id="5000 negations"),
        pytest.param(" & ".join(["A"] * 5000), {frozenset({"A"})}, id="5000-term and"),
        pytest.param(" | ".join(["A"] * 2000), {frozenset({"A"})}, id="2000-term or"),
        pytest.param(" => ".join(["A"] * 3000), {frozenset()}, id="3000-term implies"),
        pytest.param("(" * 200 + "A" + ")" * 200, {frozenset({"A"})}, id="200 parentheses"),
    ],
)
def test_deep_formulas_evaluate(text, sets):
    formula = parse(text)
    assert eval_layer1(SMALL, {"A"}, formula)
    assert minimal_satisfying_sets(SMALL, formula) == sets


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "A" + ")" * 5000,
        "(" * 201 + "A" + ")" * 201,
        "metric(mincost, " * 300 + "A",
        "set A = [0, 1] in " * 300 + "A",
    ],
    ids=["5000 parentheses", "201 parentheses", "300 metric", "300 set"],
)
def test_nesting_beyond_the_limit_is_a_formula_error(text):
    with pytest.raises(FormulaError, match="nested more than 200 levels deep"):
        parse(text)


def test_deep_layer2_formula_evaluates():
    doc = read_at(io.StringIO(json.dumps(chain_doc(3))))
    text = " & ".join(["metric(mincost, b0) <= 5"] * 2000)
    verdict = eval_layer2(doc.tree, {"b0"}, doc.attributions(), parse("!!" * 2500 + f"({text})"))
    assert verdict.name == "TRUE"


def test_iff_chain_stays_linear():
    # Iff shares its operands; a walker that does not notice takes 2^n steps.
    code = (
        "from attackquant import AttackTree, parse, eval_layer1, minimal_satisfying_sets\n"
        "from attackquant.tree import GateType, Node\n"
        "tree = AttackTree([Node('A', GateType.BAS)], 'A')\n"
        "f = parse(' <=> '.join(['A'] * 200))\n"
        "print(eval_layer1(tree, {'A'}, f), eval_layer1(tree, set(), f),\n"
        "      sorted(map(sorted, minimal_satisfying_sets(tree, f))))\n"
    )
    src = pathlib.Path(attackquant.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env={"PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    # 199 left-grouped <=> over one atom: a tautology
    assert out.stdout == "True True [[]]\n"


# -- deep and undecodable JSON ------------------------------------------------


@pytest.mark.parametrize("command", ["metric", "check", "ingest", "compare"])
def test_json_nested_100k_deep_is_a_parse_error(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    extra = ["--out", tmp_path / "out"] if command in ("ingest", "compare") else []
    result = invoke(command, path, *extra)
    assert_clean_exit(result, 2)
    assert "nested too deeply" in result.output


@pytest.mark.parametrize("reader", [read_at, load_snapshot, import_stix])
def test_undecodable_bytes_are_a_parse_error(tmp_path, reader):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"format": "\xff\xfe"}')
    with pytest.raises(ParseError, match="not valid JSON"):
        reader(str(path))


def test_number_too_large_for_a_float_is_a_parse_error():
    doc = {"format": "at/1", "root": "a", "nodes": [{"id": "a", "type": "BAS", "prob": 10**400}]}
    with pytest.raises(ParseError, match="number out of range"):
        read_at(io.StringIO(json.dumps(doc)))


# -- fuzzers ------------------------------------------------------------------


PIECES = ["(", ")", ",", "[", "]", "<=>", "<!>", "<=", "=>", "=", "!", "&", "|",
          "metric", "set", "in", "mincost", "maxprob", "EVJ", "VPN", "CVE1", "InA",
          "0.5", "1e9", "-1", " ", "\t", "#", "é", "<", ">", "$"]
INTERVALS = {"maxprob": {n: (0.2, 0.6) for n in ("CVE1", "CVE2", "GVC", "CVP")},
             "mincost": {n: (1.0, 3.0) for n in ("CVE1", "CVE2", "GVC", "CVP")}}
FAST = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FAST
@given(st.lists(st.sampled_from(PIECES) | st.text(max_size=2), max_size=30).map("".join))
def test_parse_fuzz(text):
    try:
        formula = parse(text)
    except FormulaError:
        return
    assert isinstance(formula, Formula)
    tree = wocao_entry_tree()
    try:
        if layer_of(formula) == 1:
            eval_layer1(tree, {"CVE1"}, formula)
            minimal_satisfying_sets(tree, formula)
        else:
            eval_layer2(tree, {"CVE1", "GVC"}, INTERVALS, formula)
    except AttackQuantError:
        pass


DEEP = "\x00deep"  # stands for JSON nested 100k deep
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
           | st.sampled_from([10**400, 0.5, 1, 2, DEEP, "", "at/1", "snapshot/1", "BAS", "OR",
                              "AND", "campaign", "attack-pattern", "relationship", "uses",
                              "x-mitre-tactic", "mitre-attack", "mincost", "maxprob"]))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _fixture(name):
    from conftest import FIXTURES

    return json.loads((FIXTURES / name).read_text())


def _mutate(data, doc):
    """Replace up to three sub-values of the document by arbitrary JSON."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            parent, key = node, data.draw(st.sampled_from(keys))
            node = parent[key]
        value = data.draw(JSON)
        if parent is None:
            doc = value
        else:
            parent[key] = value
    return doc


def _text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize(
    "reader, fixture",
    [
        (read_at, "wocao-initial-access-intervals.at.json"),
        (load_snapshot, "miniature.snapshot.json"),
        (import_stix, "mini-bundle.json"),
    ],
    ids=["read_at", "load_snapshot", "import_stix"],
)
@FAST
@given(data=st.data())
def test_reader_fuzz(reader, fixture, data):
    doc = _mutate(data, _fixture(fixture)) if data.draw(st.booleans()) else data.draw(JSON)
    try:
        result = reader(io.StringIO(_text(doc)))
    except AttackQuantError:
        return
    if reader is import_stix:
        # an ingested snapshot must load back and save to the same bytes
        saved = io.StringIO()
        save_snapshot(result, saved)
        again = io.StringIO()
        save_snapshot(load_snapshot(io.StringIO(saved.getvalue())), again)
        assert again.getvalue() == saved.getvalue()
