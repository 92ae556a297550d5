import json
from collections import Counter

import pytest
from click.testing import CliRunner

import attackquant
from attackquant.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# -- ingest -------------------------------------------------------------------


def test_ingest_writes_snapshot_and_csv(runner, fixtures, tmp_path):
    snap = tmp_path / "snap.json"
    csv_out = tmp_path / "lik.csv"
    result = invoke(
        runner,
        "ingest",
        fixtures / "mini-bundle.json",
        "--out",
        snap,
        "--likelihoods",
        csv_out,
    )
    assert result.exit_code == 0, result.output
    data = json.loads(snap.read_text())
    assert data["format"] == "snapshot/1"
    assert data["version"] == "mitre-enterprise-v16.1"
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "technique,tactic,probability"
    assert "T1110.002,TA0006,0.666666666667" in lines


def test_ingest_rejects_garbage(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    result = invoke(runner, "ingest", bad, "--out", tmp_path / "out.json")
    assert result.exit_code == 2
    assert "error:" in result.output


def test_ingest_requires_campaigns(runner, tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text('{"type": "bundle", "objects": []}')
    result = invoke(runner, "ingest", bad, "--out", tmp_path / "out.json")
    assert result.exit_code == 3


def test_ingest_non_string_names_fall_back_to_ids(runner, fixtures, tmp_path, caplog):
    data = json.loads((fixtures / "mini-bundle.json").read_text())
    renamed = {}  # the first tactic, technique and campaign, by type
    for obj in data["objects"]:
        kind = obj["type"]
        if kind in ("x-mitre-tactic", "attack-pattern", "campaign") and kind not in renamed:
            obj["name"] = None if kind == "campaign" else 5
            renamed[kind] = obj["external_references"][0]["external_id"]
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(data))
    snap = tmp_path / "snap.json"
    result = invoke(runner, "ingest", bundle, "--out", snap)
    assert result.exit_code == 0, result.output
    assert caplog.text.count("name is not a string; using the external id") == 3
    written = json.loads(snap.read_text())
    names = {
        entry["id"]: entry["name"]
        for key in ("tactics", "techniques", "campaigns")
        for entry in written[key]
    }
    assert all(names[ext] == ext for ext in renamed.values())
    out = tmp_path / "t.at.json"
    result = invoke(runner, "template", renamed["campaign"], "--snapshot", snap, "--out", out)
    assert result.exit_code == 0, result.output


# -- template -----------------------------------------------------------------


@pytest.fixture
def mini_snapshot(runner, fixtures, tmp_path):
    snap = tmp_path / "mini.snapshot.json"
    invoke(runner, "ingest", fixtures / "mini-bundle.json", "--out", snap)
    return snap


def test_template_round_trip_is_byte_stable(runner, mini_snapshot, tmp_path):
    one = tmp_path / "one.at.json"
    two = tmp_path / "two.at.json"
    for out in (one, two):
        result = invoke(
            runner, "template", "C0100", "--snapshot", mini_snapshot, "--out", out
        )
        assert result.exit_code == 0, result.output
    assert one.read_bytes() == two.read_bytes()
    data = json.loads(one.read_text())
    assert data["format"] == "at/1"
    assert data["difficulty"] == "default"
    assert data["snapshot_version"] == "mitre-enterprise-v16.1"


@pytest.mark.parametrize("difficulty", ["easy", "default", "hard"])
def test_template_difficulties(runner, mini_snapshot, tmp_path, difficulty):
    out = tmp_path / f"{difficulty}.at.json"
    result = invoke(
        runner,
        "template",
        "C0100",
        "--snapshot",
        mini_snapshot,
        "--difficulty",
        difficulty,
        "--out",
        out,
    )
    assert result.exit_code == 0
    kinds = {n["id"]: n["type"] for n in json.loads(out.read_text())["nodes"]}
    expected = {"easy": "OR", "default": "SAND", "hard": "AND"}[difficulty]
    assert kinds["TA0001"] == expected
    assert kinds["campaign"] == "SAND"


def test_template_unknown_campaign(runner, mini_snapshot, tmp_path):
    result = invoke(
        runner,
        "template",
        "C9999",
        "--snapshot",
        mini_snapshot,
        "--out",
        tmp_path / "x.json",
    )
    assert result.exit_code == 4


# -- metric -------------------------------------------------------------------


def test_metric_point(runner, fixtures):
    result = invoke(
        runner, "metric", fixtures / "wocao-initial-access.at.json", "--metric", "mincost"
    )
    assert result.exit_code == 0
    assert result.output.strip() == "3.000000"


def test_metric_default_is_maxprob(runner, fixtures):
    result = invoke(runner, "metric", fixtures / "wocao-initial-access.at.json")
    assert result.output.strip() == "0.500000"


def test_metric_interval(runner, fixtures):
    result = invoke(
        runner, "metric", fixtures / "wocao-initial-access-intervals.at.json"
    )
    assert result.output.strip() == "[0.250000, 0.810000]"


def test_metric_security_index(runner, fixtures):
    result = invoke(
        runner,
        "metric",
        fixtures / "wocao-initial-access.at.json",
        "--metric",
        "security-index",
    )
    assert result.output.strip() == "0.693147"


def test_metric_on_a_5000_deep_or_chain(runner, tmp_path):
    depth = 5000
    nodes = [
        {"id": f"g{i}", "type": "OR",
         "children": [f"b{i}", f"g{i + 1}" if i + 1 < depth else f"b{depth}"]}
        for i in range(depth)
    ]
    costs = [float(1 + (i * 7919) % 1000) for i in range(depth + 1)]
    nodes += [{"id": f"b{i}", "type": "BAS", "attrs": {"mincost": c}} for i, c in enumerate(costs)]
    doc = tmp_path / "chain.at.json"
    doc.write_text(json.dumps({"format": "at/1", "root": "g0", "nodes": nodes}))
    result = invoke(runner, "metric", doc, "--metric", "mincost")
    assert result.exit_code == 0, result.output
    assert result.output == f"{min(costs):.6f}\n"


@pytest.mark.parametrize("args", [
    ["metric"],
    ["metric", "--metric", "mincost"],
    ["query", "--catm", "a", "--metric", "maxprob"],
])
def test_signed_zero_prints_without_sign(runner, tmp_path, args):
    doc = tmp_path / "zero.at.json"
    doc.write_text(json.dumps({"format": "at/1", "root": "a", "nodes": [
        {"id": "a", "type": "BAS", "prob": -0.0, "attrs": {"mincost": -0.0}}]}))
    result = invoke(runner, args[0], doc, *args[1:])
    assert result.exit_code == 0, result.output
    assert result.output == "0.000000\n"


def test_signed_zero_traces_without_sign(runner, tmp_path):
    doc = tmp_path / "zero.at.json"
    doc.write_text(json.dumps({"format": "at/1", "root": "a", "nodes": [
        {"id": "a", "type": "BAS", "prob": -0.0}]}))
    result = invoke(runner, "-v", "query", doc, "--catm", "metric(maxprob, a) <= -1", "--attack", "a")
    assert result.exit_code == 0, result.output
    assert result.stdout == "FALSE\n"
    assert result.stderr == ("metric(maxprob, ...) <= -1: FALSE because "
                             "the attack metric interval [0, 0] exceeds the bound\n")


def test_metric_unknown_load(runner, fixtures):
    result = invoke(
        runner, "metric", fixtures / "wocao-initial-access.at.json", "--metric", "entropy"
    )
    assert result.exit_code == 4


def test_metric_missing_attribution(runner, fixtures):
    result = invoke(
        runner, "metric", fixtures / "wocao-initial-access.at.json", "--metric", "minskill"
    )
    assert result.exit_code == 5


# -- compare ------------------------------------------------------------------


def test_compare_writes_table_and_plot_data(runner, mini_snapshot, tmp_path):
    out = tmp_path / "cmp.csv"
    result = invoke(runner, "compare", mini_snapshot, "--out", out)
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "campaign,name,difficulty,index"
    assert lines[1] == "C0100,Operation Alpha,default,1.098612"
    plot = tmp_path / "cmp.plot.csv"
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "campaign,name,easy,default,hard"
    assert plot_lines[1] == "C0100,Operation Alpha,1.098612,1.098612,2.197225"


def test_compare_refuses_cross_version(runner, mini_snapshot, tmp_path):
    other = tmp_path / "other.snapshot.json"
    data = json.loads(mini_snapshot.read_text())
    data["version"] = "mitre-enterprise-v15.0"
    for c in data["campaigns"]:
        c["id"] = c["id"].replace("C0", "C9")
    other.write_text(json.dumps(data, indent=2) + "\n")

    refused = invoke(runner, "compare", mini_snapshot, other, "--out", tmp_path / "x.csv")
    assert refused.exit_code == 3
    assert "--allow-cross-version" in refused.output

    allowed = invoke(
        runner,
        "compare",
        mini_snapshot,
        other,
        "--allow-cross-version",
        "--out",
        tmp_path / "y.csv",
    )
    assert allowed.exit_code == 0
    rows = (tmp_path / "y.csv").read_text().splitlines()
    assert len(rows) == 5


def test_compare_rejects_campaign_collision(runner, mini_snapshot, tmp_path):
    result = invoke(
        runner, "compare", mini_snapshot, mini_snapshot, "--out", tmp_path / "x.csv"
    )
    assert result.exit_code == 3
    assert "more than one snapshot" in result.output


def test_compare_marks_undefined(runner, tmp_path):
    snap = tmp_path / "snap.json"
    snap.write_text(
        json.dumps(
            {
                "format": "snapshot/1",
                "version": "test-v1",
                "tactics": [{"id": "A", "name": "A"}],
                "techniques": [{"id": "T", "name": "T", "tactics": ["A"]}],
                "campaigns": [
                    {"id": "C1", "name": "One", "uses": [{"tactic": "A", "technique": "T"}]},
                    {"id": "C2", "name": "Ghost", "uses": []},
                ],
            },
            indent=2,
        )
        + "\n"
    )
    out = tmp_path / "cmp.csv"
    result = invoke(runner, "compare", snap, "--out", out)
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[-1] == "C2,Ghost,default,undefined"


def test_compare_builds_one_template_per_difficulty(runner, mini_snapshot, tmp_path,
                                                    monkeypatch):
    import attackquant.snapshot as snapshot_mod
    import attackquant.template as template_mod

    builds = []
    real_build = template_mod.build_template

    def counting_build(snapshot, difficulty):
        builds.append(difficulty)
        return real_build(snapshot, difficulty)

    normalized = Counter()
    real_normalize = snapshot_mod.normalize_usage

    def counting_normalize(snapshot, campaign_id, tactic_id):
        normalized[campaign_id, tactic_id] += 1
        return real_normalize(snapshot, campaign_id, tactic_id)

    snap = snapshot_mod.load_snapshot(str(mini_snapshot))
    monkeypatch.setattr(template_mod, "build_template", counting_build)
    monkeypatch.setattr(snapshot_mod, "normalize_usage", counting_normalize)
    result = invoke(runner, "compare", mini_snapshot, "--out", tmp_path / "cmp.csv")
    assert result.exit_code == 0, result.output
    assert len(builds) <= 3
    assert len(normalized) == len(snap.campaigns) * len(snap.tactics)
    assert max(normalized.values()) == 1


# -- query --------------------------------------------------------------------


def test_query_layer1_with_attack(runner, fixtures):
    at = fixtures / "wocao-initial-access.at.json"
    yes = invoke(runner, "query", at, "--catm", "EVJ & !VPN", "--attack", "CVE1")
    assert yes.exit_code == 0 and yes.output.strip() == "TRUE"
    no = invoke(runner, "query", at, "--catm", "EVJ & !VPN", "--attack", "GVC,CVP")
    assert no.exit_code == 0 and no.output.strip() == "FALSE"


def test_query_layer1_formula_metric(runner, fixtures):
    at = fixtures / "wocao-initial-access.at.json"
    result = invoke(runner, "query", at, "--catm", "EVJ | VPN", "--metric", "mincost")
    assert result.output.strip() == "3.000000"


def test_query_layer2_three_valued(runner, fixtures):
    at = fixtures / "wocao-initial-access-intervals.at.json"
    result = invoke(
        runner,
        "query",
        at,
        "--catm",
        "metric(maxprob, VPN) <= 0.5",
        "--attack",
        "GVC,CVP",
    )
    assert result.output.strip() == "MAYBE"


def test_query_layer2_assignment(runner, fixtures):
    at = fixtures / "wocao-initial-access-intervals.at.json"
    result = invoke(
        runner,
        "query",
        at,
        "--catm",
        "set GVC = [0.25, 0.45] in metric(maxprob, VPN) <= 0.3",
        "--attack",
        "GVC,CVP",
    )
    assert result.output.strip() == "MAYBE"


def test_query_layer2_requires_attack(runner, fixtures):
    result = invoke(
        runner,
        "query",
        fixtures / "wocao-initial-access.at.json",
        "--catm",
        "metric(maxprob, EVJ) <= 0.4",
    )
    assert result.exit_code == 6


def test_query_parse_error(runner, fixtures):
    result = invoke(
        runner, "query", fixtures / "wocao-initial-access.at.json", "--catm", "EVJ &"
    )
    assert result.exit_code == 6


def test_query_unknown_atom(runner, fixtures):
    result = invoke(
        runner,
        "query",
        fixtures / "wocao-initial-access.at.json",
        "--catm",
        "NOPE",
        "--attack",
        "CVE1",
    )
    assert result.exit_code == 4


# -- check --------------------------------------------------------------------


def test_check_ok(runner, fixtures):
    for name in (
        "wocao-initial-access.at.json",
        "wocao-custom.at.json",
        "dreamjob-custom.at.json",
    ):
        result = invoke(runner, "check", fixtures / name)
        assert result.exit_code == 0
        assert result.output.strip() == "OK"


def test_check_reports_violations(runner, tmp_path):
    bad = tmp_path / "bad.at.json"
    bad.write_text(
        json.dumps(
            {
                "format": "at/1",
                "root": "g",
                "nodes": [{"id": "g", "type": "OR", "children": ["missing"]}],
            }
        )
    )
    result = invoke(runner, "check", bad)
    assert result.exit_code == 3
    assert "missing child" in result.output


def test_version_flag(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert "attackquant" in result.output
    assert attackquant.__version__ in result.output


# -- output paths -------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        ["ingest", "{fx}/mini-bundle.json", "--out", "{missing}"],
        ["ingest", "{fx}/mini-bundle.json", "--out", "{tmp}/s.json", "--likelihoods", "{missing}"],
        ["template", "CSTAR", "--snapshot", "{fx}/miniature.snapshot.json", "--out", "{missing}"],
        ["compare", "{fx}/miniature.snapshot.json", "--out", "{missing}"],
    ],
    ids=["ingest-out", "ingest-likelihoods", "template-out", "compare-out"],
)
def test_output_in_missing_directory_is_an_error_not_a_traceback(runner, fixtures, tmp_path,
                                                                 command):
    missing = tmp_path / "no-such-dir" / "out"
    args = [arg.format(fx=fixtures, tmp=tmp_path, missing=missing) for arg in command]
    result = invoke(runner, *args)
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert str(missing) in result.output
