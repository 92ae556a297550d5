"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion NN PASS" line (visible with -s; the
pytest -v report carries the per-criterion pass/fail status either way).
Criterion 10 needs a full knowledge-base export and is skipped with a
notice when the ATTACKQUANT_V14_SNAPSHOT environment variable is unset.
"""

import itertools
import json
import math
import os
import random
import time
import zlib
from fractions import Fraction

import pytest
from click.testing import CliRunner

from attackquant import (
    Difficulty,
    UndefinedIndexError,
    attack_metric,
    build_template,
    campaign_index,
    eval_layer2,
    instantiate,
    interval_tree_metric,
    likelihoods,
    load_snapshot,
    import_stix,
    parse,
    read_at,
    security_index,
    security_range,
    tree_metric,
)
from attackquant.catm import TruthValue, kleene_and, kleene_not
from attackquant.cli import main as cli_main
from attackquant.metrics import (
    BUILTIN_LOADS,
    MAX_PROB,
    MIN_COST,
    MIN_SKILL,
    MIN_TIME_PAR,
    MIN_TIME_SEQ,
    cuts_metric,
)
from attackquant.tree import GateType
from conftest import FIXTURES
from helpers import (
    brute_minimal_attacks,
    kleene_or,
    wocao_entry_tree,
    random_attribution,
    random_interval_attribution,
    random_snapshot,
    random_tree,
    snapshot_from_usage,
)

TABLE_LOADS = [MIN_COST, MIN_TIME_SEQ, MIN_TIME_PAR, MIN_SKILL, MAX_PROB]

T, M, F = TruthValue.TRUE, TruthValue.MAYBE, TruthValue.FALSE


def report(num: int, label: str) -> None:
    print(f"criterion {num:02d} PASS: {label}")


def test_criterion_01_technique_likelihoods():
    started = time.monotonic()
    snap = load_snapshot(str(FIXTURES / "toy-two-campaigns.snapshot.json"))
    probs = likelihoods(snap)
    assert probs.prob("E1", "A1") == Fraction(2, 3)
    assert probs.prob("E2", "A1") == Fraction(1, 3)
    assert probs.prob("E3", "A1") == Fraction(0)
    assert time.monotonic() - started < 1.0
    report(1, "worked likelihood example is exact")


def test_criterion_02_minimal_attacks():
    started = time.monotonic()
    tree = wocao_entry_tree()
    assert tree.minimal_attacks() == {
        frozenset({"CVE1"}),
        frozenset({"CVE2"}),
        frozenset({"GVC", "CVP"}),
    }
    rng = random.Random(20260819)
    for i in range(200):
        sample = random_tree(rng, max_leaves=10, dag=i % 2 == 1)
        assert sample.minimal_attacks() == brute_minimal_attacks(sample), (
            i,
            sample.nodes,
        )
    assert time.monotonic() - started < 30.0
    report(2, "minimal attacks match brute-force filtering on 200 trees")


def test_criterion_03_mincost_example():
    tree = wocao_entry_tree()
    costs = {"CVE1": 8.0, "CVE2": 3.0, "GVC": 11.0, "CVP": 1.0}
    assert tree_metric(MIN_COST, costs, tree) == 3.0
    assert attack_metric(MIN_COST, costs, {"GVC", "CVP"}) == 12.0
    report(3, "min-cost worked example")


def test_criterion_04_load_laws():
    for load in BUILTIN_LOADS.values():
        rng = random.Random(zlib.crc32(load.name.encode()))
        lo, hi = load.domain
        hi = min(hi, 1e6)
        exact_nabla = load.nabla in (min, max)
        exact_delta = load.delta in (min, max)

        def close(x, y, exact):
            if exact:
                return x == y
            return x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)

        def sample():
            r = rng.random()
            if r < 0.05:
                return load.unit_nabla
            if r < 0.10:
                return load.unit_delta
            if r < 0.15:
                return lo
            return rng.uniform(lo, hi)

        for _ in range(1000):
            a, b, c = sample(), sample(), sample()
            assert load.nabla(a, b) == load.nabla(b, a)
            assert close(
                load.nabla(load.nabla(a, b), c),
                load.nabla(a, load.nabla(b, c)),
                exact_nabla,
            )
            assert load.nabla(a, load.unit_nabla) == a
            assert load.delta(a, b) == load.delta(b, a)
            assert close(
                load.delta(load.delta(a, b), c),
                load.delta(a, load.delta(b, c)),
                exact_delta,
            )
            assert load.delta(a, load.unit_delta) == a
            assert load.delta(a, load.nabla(b, c)) == load.nabla(
                load.delta(a, b), load.delta(a, c)
            )
            if b <= c:
                assert load.delta(a, b) <= load.delta(a, c)
    report(4, "semiring laws hold on 1000 sampled triples per load")


def _successful_sets(tree):
    """All successful leaf sets, via one bitmap pass over the powerset."""
    leaves = sorted(tree.bas_ids)
    n = len(leaves)
    full = (1 << (1 << n)) - 1
    patterns = {}
    for i, leaf in enumerate(leaves):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        p = 0
        for r in range((1 << n) // period):
            p |= block << (r * period)
        patterns[leaf] = p
    memo: dict[str, int] = {}

    def bitmap(nid: str) -> int:
        if nid in memo:
            return memo[nid]
        node = tree.nodes[nid]
        if node.type is GateType.BAS:
            result = patterns[nid]
        elif node.type is GateType.OR:
            result = 0
            for child in node.children:
                result |= bitmap(child)
        else:
            result = full
            for child in node.children:
                result &= bitmap(child)
        memo[nid] = result
        return result

    root_map = bitmap(tree.root)
    return [
        [leaves[i] for i in range(n) if mask >> i & 1]
        for mask in range(1 << n)
        if root_map >> mask & 1
    ]


def test_criterion_05_bottom_up_vs_definitional():
    rng = random.Random(424242)
    for _ in range(200):
        tree = random_tree(rng, max_leaves=12, dag=False)
        assert tree.is_tree_structured
        successful = _successful_sets(tree)
        for load in TABLE_LOADS:
            attr = random_attribution(rng, tree, load)
            bottom_up = tree_metric(load, attr, tree)
            definitional = cuts_metric(load, attr, tree.minimal_attacks())
            assert math.isclose(bottom_up, definitional, rel_tol=1e-9, abs_tol=1e-12)
            over_all = load.fold_nabla(
                load.fold_delta(attr[s] for s in combo) for combo in successful
            )
            assert math.isclose(definitional, over_all, rel_tol=1e-9, abs_tol=1e-12)
    report(5, "bottom-up, definitional, and all-successful folds agree")


def test_criterion_06_interval_soundness():
    rng = random.Random(31415)
    for i in range(100):
        tree = random_tree(rng, max_leaves=10, dag=i % 3 == 0)
        load = TABLE_LOADS[i % len(TABLE_LOADS)]
        spans = random_interval_attribution(rng, tree, load)
        lo, hi = interval_tree_metric(load, spans, tree)
        cuts = [sorted(c) for c in tree.minimal_attacks()]
        nabla, delta = load.nabla, load.delta
        unit_n, unit_d = load.unit_nabla, load.unit_delta
        for _ in range(500):
            point = {b: rng.uniform(*spans[b]) for b in spans}
            acc = unit_n
            for cut in cuts:
                v = unit_d
                for step in cut:
                    v = delta(v, point[step])
                acc = nabla(acc, v)
            assert lo - 1e-9 <= acc <= hi + 1e-9
        at_lo = tree_metric(load, {b: s[0] for b, s in spans.items()}, tree)
        at_hi = tree_metric(load, {b: s[1] for b, s in spans.items()}, tree)
        assert math.isclose(at_lo, lo, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(at_hi, hi, rel_tol=1e-9, abs_tol=1e-12)
    report(6, "sampled point attributions never escape the interval")


def test_criterion_07_kleene_semantics():
    assert [kleene_not(v) for v in (T, M, F)] == [F, M, T]
    for a, b in itertools.product((T, M, F), repeat=2):
        assert kleene_and(a, b) is kleene_and(b, a)
        assert kleene_and(a, b) is min(a, b, key=lambda v: v.value)

    doc = read_at(str(FIXTURES / "wocao-initial-access-intervals.at.json"))
    base = {
        T: "metric(maxprob, VPN) <= 0.81",
        M: "metric(maxprob, VPN) <= 0.5",
        F: "metric(maxprob, VPN) <= 0.1",
    }

    def verdict(text):
        return eval_layer2(doc.tree, {"GVC", "CVP"}, doc.attributions(), parse(text))

    for a, b in itertools.product((T, M, F), repeat=2):
        assert verdict(f"({base[a]}) & ({base[b]})") is kleene_and(a, b)
        assert verdict(f"({base[a]}) | ({base[b]})") is kleene_or(a, b)
        implies = kleene_or(kleene_not(a), b)
        assert verdict(f"({base[a]}) => ({base[b]})") is implies
        iff = kleene_and(kleene_or(kleene_not(a), b), kleene_or(kleene_not(b), a))
        assert verdict(f"({base[a]}) <=> ({base[b]})") is iff
    assert verdict(f"({base[M]}) => ({base[M]})") is M
    for a in (T, M, F):
        assert verdict(f"!({base[a]})") is kleene_not(a)

    point = read_at(str(FIXTURES / "wocao-initial-access.at.json"))
    for bound in [0.0, 0.1, 0.25, 0.2499999, 0.4999, 0.5, 0.75, 1.0]:
        v = eval_layer2(
            point.tree,
            {"GVC", "CVP"},
            point.attributions(),
            parse(f"metric(maxprob, VPN) <= {bound!r}"),
        )
        assert v in (T, F)
    report(7, "trivalent connectives are Kleene's; degenerate intervals decide")


def test_criterion_08_index_equals_pruned_metric():
    rng = random.Random(515253)
    checked = 0
    for _ in range(100):
        snap = random_snapshot(rng)
        templates = {difficulty: build_template(snap, difficulty) for difficulty in Difficulty}
        for campaign_id in snap.campaigns:
            for difficulty in Difficulty:
                try:
                    direct = campaign_index(snap, campaign_id, templates[difficulty])
                except UndefinedIndexError:
                    continue
                pruned, attr = instantiate(snap, campaign_id, difficulty)
                via_tree = security_index(pruned, attr)
                assert math.isclose(direct, via_tree, rel_tol=1e-9, abs_tol=1e-9)
                checked += 1
    assert checked >= 200

    rng = random.Random(606060)
    for _ in range(3):
        extra = [rng.randint(0, 20) for _ in range(4)]
        campaigns = {"CSTAR": [("A1", "E1"), ("A1", "E2.2"), ("A1", "E2.3")]}
        for tag, (leaf, count) in enumerate(
            zip(["E1", "E2.2", "E2.3", "E3"], extra)
        ):
            for i in range(count):
                campaigns[f"AUX{tag}_{i}"] = [("A1", leaf)]
        snap = snapshot_from_usage(
            {"A1": ["E1", "E2", "E3"]},
            {"E2": ["E2.1", "E2.2", "E2.3"]},
            campaigns,
        )
        probs = likelihoods(snap)
        p1 = probs.prob_float("E1", "A1")
        p22 = probs.prob_float("E2.2", "A1")
        p23 = probs.prob_float("E2.3", "A1")
        symbolic = -math.log(p1) + min(-math.log(p22), -math.log(p23))
        got = campaign_index(snap, "CSTAR", build_template(snap, Difficulty.DEFAULT))
        assert math.isclose(got, symbolic, rel_tol=1e-9, abs_tol=1e-9)
    report(8, "campaign index equals the pruned template metric")


def test_criterion_09_difficulty_ordering_and_rank_reversal():
    rng = random.Random(808808)
    for _ in range(60):
        snap = random_snapshot(rng)
        easy_t, default_t, hard_t = (build_template(snap, d) for d in Difficulty)
        for campaign_id in snap.campaigns:
            try:
                easy = campaign_index(snap, campaign_id, easy_t)
            except UndefinedIndexError:
                continue
            default = campaign_index(snap, campaign_id, default_t)
            hard = campaign_index(snap, campaign_id, hard_t)
            assert easy <= default + 1e-12
            assert default <= hard + 1e-12

    campaigns = {"X": [("A", "e1")], "Y": [("A", "e2"), ("A", "e3"), ("A", "e4")]}
    for i in range(5):
        campaigns[f"AUX{i}"] = [("A", "e2"), ("A", "e3"), ("A", "e4")]
    snap = snapshot_from_usage({"A": ["e1", "e2", "e3", "e4"]}, {}, campaigns)
    easy_t, default_t = (build_template(snap, d) for d in (Difficulty.EASY, Difficulty.DEFAULT))
    x_easy = campaign_index(snap, "X", easy_t)
    y_easy = campaign_index(snap, "Y", easy_t)
    x_default = campaign_index(snap, "X", default_t)
    y_default = campaign_index(snap, "Y", default_t)
    assert y_easy < x_easy
    assert x_default < y_default
    report(9, "difficulties are ordered; the two-campaign witness flips rank")


WOCAO_ROWS = {"easy": 24.51, "default": 184.02, "hard": 317.45}
DREAM_JOB_ROWS = {"easy": 26.48, "default": 128.96, "hard": 192.10}


def test_criterion_10_enterprise_v14_rows():
    location = os.environ.get("ATTACKQUANT_V14_SNAPSHOT")
    if not location:
        print(
            "criterion 10 SKIP: point ATTACKQUANT_V14_SNAPSHOT at an "
            "Enterprise v14 bundle or snapshot to enable the table check"
        )
        pytest.skip("ATTACKQUANT_V14_SNAPSHOT not set")
    with open(location, encoding="utf-8") as fh:
        head = fh.read(4096)
    snap = (
        load_snapshot(location) if '"snapshot/1"' in head else import_stix(location)
    )

    def find(fragment: str) -> str:
        hits = [
            c.id for c in snap.campaigns.values() if fragment.lower() in c.name.lower()
        ]
        assert hits, f"no campaign named like {fragment!r} in the snapshot"
        return hits[0]

    wocao, dream_job = find("Wocao"), find("Dream Job")
    got = {}
    for cid, rows in ((wocao, WOCAO_ROWS), (dream_job, DREAM_JOB_ROWS)):
        for difficulty in Difficulty:
            value = campaign_index(snap, cid, build_template(snap, difficulty))
            got[cid, difficulty] = value
            assert value == pytest.approx(rows[difficulty.value], abs=0.5), (
                cid,
                difficulty,
            )
    for difficulty in (Difficulty.DEFAULT, Difficulty.HARD):
        assert got[wocao, difficulty] > got[dream_job, difficulty]

    for cid, fixture in (
        (wocao, "wocao-custom.at.json"),
        (dream_job, "dreamjob-custom.at.json"),
    ):
        doc = read_at(str(FIXTURES / fixture))
        value = security_index(doc.tree, doc.attribution("maxprob"))
        lo, hi = security_range(snap, cid)
        assert lo <= value <= hi, (fixture, value, lo, hi)
    report(10, "published table rows reproduced within 0.5")


def test_criterion_11_cli_round_trip(tmp_path):
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(cli_main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        return result.output

    bundle = FIXTURES / "mini-bundle.json"
    outputs = []
    for tag in ("one", "two"):
        snap = tmp_path / f"{tag}.snapshot.json"
        at = tmp_path / f"{tag}.at.json"
        run("ingest", bundle, "--out", snap)
        run("template", "C0100", "--snapshot", snap, "--out", at)
        metric_out = run("metric", at, "--metric", "security-index")
        outputs.append((snap.read_bytes(), at.read_bytes(), metric_out))
    assert outputs[0] == outputs[1]
    assert outputs[0][2].strip() == "1.098612"

    wocao_entry = FIXTURES / "wocao-initial-access.at.json"
    intervals = FIXTURES / "wocao-initial-access-intervals.at.json"
    assert run("metric", wocao_entry, "--metric", "mincost").strip() == "3.000000"
    assert run("metric", wocao_entry).strip() == "0.500000"
    assert run("metric", wocao_entry, "--metric", "security-index").strip() == "0.693147"
    assert run("metric", intervals).strip() == "[0.250000, 0.810000]"
    assert (
        run("query", wocao_entry, "--catm", "EVJ & !VPN", "--attack", "CVE1").strip()
        == "TRUE"
    )
    assert (
        run(
            "query", intervals, "--catm", "metric(maxprob, VPN) <= 0.5",
            "--attack", "GVC,CVP",
        ).strip()
        == "MAYBE"
    )
    assert (
        run("query", wocao_entry, "--catm", "EVJ | VPN", "--metric", "mincost").strip()
        == "3.000000"
    )

    toy_csv = tmp_path / "toy.csv"
    run("compare", FIXTURES / "toy-two-campaigns.snapshot.json", "--out", toy_csv)
    toy_rows = toy_csv.read_text().splitlines()
    assert toy_rows[1] == "C1,First campaign,default,1.098612"
    assert toy_rows[2] == "C2,Second campaign,default,2.197225"

    mini_csv = tmp_path / "mini.csv"
    run("compare", FIXTURES / "miniature.snapshot.json", "--out", mini_csv)
    rows = mini_csv.read_text().splitlines()
    assert rows[1].startswith("X2,")
    assert any(r.startswith("CSTAR,") and r.endswith("2.079442") for r in rows)
    plot_rows = (tmp_path / "mini.plot.csv").read_text().splitlines()
    cstar = next(r for r in plot_rows if r.startswith("CSTAR,"))
    assert cstar.endswith("0.693147,2.079442,4.158883")
    report(11, "CLI pipeline is deterministic and matches the worked values")
