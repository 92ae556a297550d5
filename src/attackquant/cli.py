"""Command line interface.

Diagnostics go to stderr; data goes to stdout or to the file named by
--out.  Exit codes: 0 success, 2 parse failure or unreadable/unwritable
file (such as an output path in a missing directory), 3 invariant
violation, 4 unknown entity, 5 missing attribution, 6 formula error.
"""

from __future__ import annotations

import csv
import functools
import logging
import os
import sys

import click

from . import __version__, catm
from .atfile import AtDocument, read_at, write_at
from .errors import AttackQuantError, FormulaError, InvariantError
from .metrics import BUILTIN_LOADS, Interval, get_load, interval_tree_metric
from .snapshot import likelihoods, load_snapshot, save_snapshot, write_likelihood_csv
from .stix import import_stix
from .template import Difficulty, compare_all, instantiate, rank

_DIFFICULTIES = click.Choice([d.value for d in Difficulty])
# load names resolve through get_load so an unknown one exits with the
# unknown-entity code instead of click's usage error
_METRIC_HELP = "One of: " + ", ".join(sorted(BUILTIN_LOADS)) + "."


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttackQuantError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, AttackQuantError) else 2)

    return wrapper


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Chattier diagnostics on stderr.")
@click.version_option(version=__version__, prog_name="attackquant")
def main(verbose: bool) -> None:
    """Quantify and compare cyber-attack campaigns."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s: %(message)s",
    )


@main.command()
@click.argument("bundle", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Snapshot output path.")
@click.option("--likelihoods", "likelihood_csv", type=click.Path(dir_okay=False),
              help="Also write the per-tactic likelihood CSV here.")
@_guarded
def ingest(bundle: str, out: str, likelihood_csv: str | None) -> None:
    """Import a STIX bundle into a canonical snapshot."""
    snapshot = import_stix(bundle)
    save_snapshot(snapshot, out)
    if likelihood_csv:
        write_likelihood_csv(likelihoods(snapshot), likelihood_csv)


@main.command()
@click.argument("campaign")
@click.option("--snapshot", "snapshot_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--difficulty", type=_DIFFICULTIES, default="default", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="AT output path.")
@_guarded
def template(campaign: str, snapshot_path: str, difficulty: str, out: str) -> None:
    """Write the pruned, probability-attributed template for one campaign."""
    snapshot = load_snapshot(snapshot_path)
    pruned, attribution = instantiate(snapshot, campaign, Difficulty(difficulty))
    doc = AtDocument(
        tree=pruned,
        prob={leaf: (p, p) for leaf, p in attribution.items()},
        top_extras={"snapshot_version": snapshot.version, "difficulty": difficulty},
    )
    write_at(doc, out)


@main.command()
@click.argument("at_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", "metric_name", default="maxprob", show_default=True,
              help=_METRIC_HELP)
@_guarded
def metric(at_file: str, metric_name: str) -> None:
    """Evaluate one metric of the tree in an at/1 file."""
    doc = read_at(at_file)
    doc.tree.require_valid()
    _echo_metric(interval_tree_metric(get_load(metric_name), doc.attribution(metric_name), doc.tree))


def _echo_metric(value: float | Interval) -> None:
    """A metric on stdout: a number, or ``[lo, hi]`` under interval attributions."""
    if isinstance(value, tuple):  # + 0.0 prints -0.0 as 0.000000, as neg_log returns +0.0
        click.echo(f"[{value[0] + 0.0:.6f}, {value[1] + 0.0:.6f}]")
    else:
        click.echo(f"{value + 0.0:.6f}")


@main.command()
@click.argument("snapshots", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--difficulty", type=_DIFFICULTIES, default="default", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="CSV output path.")
@click.option("--allow-cross-version", is_flag=True,
              help="Permit comparing snapshots with different version strings.")
@_guarded
def compare(snapshots: tuple[str, ...], difficulty: str, out: str,
            allow_cross_version: bool) -> None:
    """Rank campaigns by security index; also writes <out stem>.plot.csv."""
    loaded = [load_snapshot(path) for path in snapshots]
    versions = {snap.version for snap in loaded}
    if len(versions) > 1 and not allow_cross_version:
        raise InvariantError(
            "snapshots carry different versions "
            f"({', '.join(sorted(versions))}); indices are not comparable "
            "across versions (pass --allow-cross-version to override)"
        )
    level = Difficulty(difficulty)
    table: dict[str, tuple[str, dict[Difficulty, float | None]]] = {}
    for snap in loaded:
        indices = compare_all(snap)
        if repeats := indices.keys() & table.keys():
            # the repeat ranked first at the level, whatever the snapshot's campaign order
            first, _ = rank((c, indices[c][level]) for c in repeats)[0]
            raise InvariantError(f"campaign {first!r} appears in more than one snapshot")
        table.update((c, (snap.campaign(c).name, per)) for c, per in indices.items())
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["campaign", "name", "difficulty", "index"])
        for campaign_id, index in rank((c, per[level]) for c, (_, per) in table.items()):
            writer.writerow([campaign_id, table[campaign_id][0], difficulty, _cell(index)])
    stem, ext = os.path.splitext(out)
    with open(f"{stem}.plot{ext or '.csv'}", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["campaign", "name", "easy", "default", "hard"])
        for campaign_id, _ in rank((c, per[Difficulty.DEFAULT]) for c, (_, per) in table.items()):
            name, per_level = table[campaign_id]
            writer.writerow([campaign_id, name] + [_cell(per_level[d]) for d in Difficulty])


def _cell(index: float | None) -> str:
    return "undefined" if index is None else f"{index:.6f}"


@main.command()
@click.argument("at_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--catm", "formula_text", required=True, help="Query formula.")
@click.option("--attack", "attack_text", default=None,
              help="Comma-separated BAS ids; omit for formula-metric mode.")
@click.option("--metric", "metric_name", default="maxprob", show_default=True,
              help="Load for formula-metric mode. " + _METRIC_HELP)
@click.pass_context
@_guarded
def query(ctx: click.Context, at_file: str, formula_text: str,
          attack_text: str | None, metric_name: str) -> None:
    """Evaluate a query formula against the tree in an at/1 file."""
    verbose = bool(ctx.parent and ctx.parent.params.get("verbose"))
    doc = read_at(at_file)
    doc.tree.require_valid()
    formula = catm.parse(formula_text)
    layer = catm.layer_of(formula)
    if attack_text is None:
        if layer == 2:
            raise FormulaError("a layer-2 formula needs --attack")
        load = get_load(metric_name)
        _echo_metric(catm.formula_metric(doc.tree, doc.attribution(metric_name), load, formula))
        return
    attack = frozenset(step for step in (s.strip() for s in attack_text.split(",")) if step)
    if layer == 1:
        verdict = catm.eval_layer1(doc.tree, attack, formula)
        click.echo("TRUE" if verdict else "FALSE")
        return
    trace: list[str] | None = [] if verbose else None
    value = catm.eval_layer2(doc.tree, attack, doc.attributions(), formula, trace)
    if trace:
        for line in trace:
            click.echo(line, err=True)
    click.echo(value.name)


@main.command()
@click.argument("at_file", type=click.Path(exists=True, dir_okay=False))
@_guarded
def check(at_file: str) -> None:
    """Validate an at/1 file; exit 3 listing violations if invalid."""
    doc = read_at(at_file)
    violations = doc.tree.validate()
    if violations:
        for violation in violations:
            click.echo(violation, err=True)
        sys.exit(3)
    click.echo("OK")


if __name__ == "__main__":
    main()
