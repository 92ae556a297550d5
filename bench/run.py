"""attackquant benchmark: one closed-loop client running CLI subcommands in-process.

Run from the repository root:

    python3 bench/run.py --workload kb-rank --seed 1 --seconds 20 --trace 0

``--trace 0`` measures whole rounds of the workload until the operations
have taken ``--seconds`` and prints the end-to-end metrics, with each
latency scaled to a host of fixed speed (see reference.py).  ``--trace 1``
runs one round twice per operation, untraced and then traced on a copy
of the same inputs, and prints the per-layer metrics and the tracing
overhead.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, Reference, scale_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s budget


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(reference: Reference) -> tuple[float, float]:
    """Median time of a fresh interpreter importing attackquant.cli, scaled and unscaled.

    Each sample is scaled by the reference task timed just before and after it.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import attackquant.cli"
    scaled, unscaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = reference.time()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        seconds = time.perf_counter() - start
        if i:  # the first run may compile bytecode
            scaled.append(seconds * 2 * NOMINAL_S / (before + reference.time()))
            unscaled.append(seconds)
    return statistics.median(scaled), statistics.median(unscaled)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = pct / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Tally:
    """Outcome of every operation: latency, subcommand, and verdict."""

    def __init__(self):
        self.latencies: list[float] = []
        self.ref_times: list[float] = []  # the reference task, timed before each op
        self.commands: list[str] = []
        self.failures: list[str] = []
        self.wrong = 0  # failures that were an answer, not a crash

    def judge(self, op, outcome, label: str) -> None:
        self.latencies.append(outcome.seconds)
        self.commands.append(op.command)
        problem = op.check(outcome)
        if problem:
            self.failures.append(f"{label} {' '.join(op.args)[:160]}: {problem}")
            if outcome.exception is None:
                self.wrong += 1


def run_op(runner, op, tally: Tally, label: str, reference=None):
    if op.prepare:
        op.prepare()
    if reference:
        tally.ref_times.append(reference.time())
    gc.collect()
    outcome = runner.run(op.args)
    tally.judge(op, outcome, label)
    return outcome


def measure(workload, runner, reference: Reference, seed: int, seconds: float,
            workdir: Path) -> tuple[Tally, int]:
    """Whole rounds until the ops have been busy ``seconds``; returns the rounds run."""
    tally, rounds = Tally(), 0
    started = time.monotonic()
    while sum(tally.latencies) < seconds and time.monotonic() - started < WALL_LIMIT_S:
        round_dir = workdir / f"round-{rounds}"
        round_dir.mkdir(parents=True)
        for op in workload.make_round(seed, rounds, str(round_dir)):
            if time.monotonic() - started > WALL_LIMIT_S:
                break
            run_op(runner, op, tally, f"round {rounds}", reference)
        shutil.rmtree(round_dir)
        rounds += 1
    return tally, rounds


def report_measured(workload, tally: Tally, rounds: int, setup: tuple[float, float]) -> dict:
    factors = scale_factors(tally.ref_times)
    ms = [s * f * 1e3 for s, f in zip(tally.latencies, factors)]
    n, busy = len(ms), sum(tally.latencies)
    beyond = n * (1 - workload.tail_pct / 100)
    metrics = {
        "ops_per_s": (n / sum(ms) * 1e3, "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup[0], "s"),
    }
    print(f"workload {workload.name}: 1 closed-loop client, {rounds} rounds, "
          f"{n} ops, {busy:.2f} s busy")
    print(f"  inputs: {workload.sizes}")
    print(f"  latencies scaled to a host where the reference task takes {NOMINAL_S * 1e3:g} ms; "
          f"median scale {statistics.median(factors):.4g}, range {min(factors):.4g}-{max(factors):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  unscaled: ops_per_s {n / busy:.6g} ops/s, "
          f"latency_p50_ms {statistics.median(tally.latencies) * 1e3:.6g} ms, setup_s {setup[1]:.6g} s")
    # printed, not gated: one op kind sets it, and host drift moves that
    # kind by up to half between runs (see README)
    print(f"  latency_tail_ms {percentile(ms, workload.tail_pct):.6g} ms  "
          f"(p{workload.tail_pct:.2f}, {beyond:.1f} ops beyond)")
    if beyond < 10:
        print(f"  warning: only {beyond:.1f} ops beyond the tail percentile")
    for command in ("ingest", "template", "compare", "metric", "query", "check"):
        picked = [v for v, c in zip(ms, tally.commands) if c == command]
        if picked:
            print(f"  {command}_p50_ms {statistics.median(picked):.6g} ms  ({len(picked)} ops)")
    print(f"  failed_frac {len(tally.failures) / n:.6g} ratio  ({len(tally.failures)}/{n})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def trace_round(workload, runner, seed: int, workdir: Path) -> tuple[Tally, dict, list[str]]:
    from tracer import LAYERS, Tracer, span_names

    tracer = Tracer()
    tally = Tally()
    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    plain_dir.mkdir(parents=True)
    traced_dir.mkdir(parents=True)
    plain = workload.make_round(seed, 0, str(plain_dir))
    traced = workload.make_round(seed, 0, str(traced_dir))
    untraced_s = traced_s = 0.0
    ingest_warnings = 0
    for index, (op_a, op_b) in enumerate(zip(plain, traced)):
        untraced_s += run_op(runner, op_a, tally, "untraced").seconds
        if op_b.prepare:
            op_b.prepare()
        gc.collect()
        tracer.op = index
        warnings_before = runner.log.warnings
        try:
            tracer.install()
        except LookupError as exc:
            fail(str(exc))
        try:
            outcome = runner.run(op_b.args)
        finally:
            tracer.uninstall()
        if op_b.command == "ingest":
            ingest_warnings += runner.log.warnings - warnings_before
        tally.judge(op_b, outcome, "traced")
        traced_s += outcome.seconds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls, self_ms = tracer.calls, {k: v * 1e3 for k, v in tracer.self_s.items()}
    metrics: dict[str, tuple[float, str]] = {}
    for span in span_names():
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_ms"] = (self_ms[span], "ms")
    for layer, value in tracer.layer_self_ms().items():
        metrics[f"{layer}.self_ms"] = (value, "ms")
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["snapshot.normalize_usage.calls_per_pair"] = (
        ratio(calls["snapshot.normalize_usage"], len(tracer.usage_pairs)), "ratio")
    metrics["template.build_template.calls_per_op"] = (
        ratio(calls["template.build_template"], calls["cli.compare"] + calls["cli.template"]), "ratio")
    metrics["tree.minimal_attacks.cuts"] = (tracer.cuts, "count")
    metrics["stix.warnings"] = (ratio(ingest_warnings, calls["cli.ingest"]), "count")
    metrics["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")

    print(f"workload {workload.name} traced: {len(traced)} ops, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s, overhead {metrics['trace.overhead_frac'][0]:+.1%}")
    for layer in LAYERS:
        print(f"  {layer:9s} self {metrics[f'{layer}.self_ms'][0]:10.1f} ms  "
              f"errors {metrics[f'{layer}.errors'][0]}")
    for name, (value, unit) in metrics.items():
        if not name.endswith(".calls") or value:
            print(f"  {name} {value:.6g} {unit}")
    silent = sorted(s for s in workload.spans if calls[s] == 0)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return tally, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, silent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "attackquant" / "cli.py").is_file():
        fail(f"no package source at {SRC}; run from a checkout of the repository")
    fixtures = ROOT / "fixtures"
    if not fixtures.is_dir():
        fail(f"no fixtures directory at {fixtures}")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    catalogue = workloads.workloads(str(fixtures))
    if args.workload not in catalogue:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(catalogue)}")
    workload = catalogue[args.workload]

    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = None
    try:
        reference = Reference(str(workdir))
        setup = None if args.trace else measure_setup(reference)
        import attackquant.cli
        if not Path(attackquant.cli.__file__).resolve().is_relative_to(SRC):
            fail(f"imported attackquant from {attackquant.cli.__file__}, not from {SRC}")
        from harness import CliRunner

        runner = CliRunner(attackquant.cli.main)
        if args.trace:
            tally, metrics, silent = trace_round(workload, runner, args.seed, workdir)
        else:
            tally, rounds = measure(workload, runner, reference, args.seed, args.seconds, workdir)
            metrics = report_measured(workload, tally, rounds, setup)
            silent = []
    finally:
        if runner:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    for failure in tally.failures:
        print(f"  failed: {failure}")
    if silent:
        fail(f"declared spans recorded no calls on {workload.name}: {', '.join(silent)}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": len(tally.latencies),
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
