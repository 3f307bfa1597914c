"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lattice-gossip --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats untraced trials for ``--seconds`` and reports the
end-to-end metrics, with wall times in reference seconds
(:mod:`perfbench.speed`).  ``--workload all`` runs every workload in
turn, each in its own process, and prints one line per workload.
``--trace 1`` alternates untraced and traced trials and reports the
per-layer metrics.  Either way every trial passes the
correctness gate or the run reports ``"correct": false``.  The last line
of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs keep their span dumps and exact-metric records.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: ``setup_s`` is the median of at least this many set-ups; runs with
#: fewer trials set up again without running the load.
MIN_SETUPS = 3

Metric = Tuple[float, str]


def _import_program() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"perfbench: no program source under {ROOT}/src")
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def end_to_end_metrics(trials, setups: List[float]) -> Dict[str, Metric]:
    from perfbench.scenarios import percentile, tail_quantile

    steps = sorted(s for trial in trials for s in trial.step_ref_s)
    exact = trials[0].exact
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tx_per_s": (statistics.median(
            t.exact["confirmed"] / t.run_ref_s for t in trials), "1/s"),
        "step_p50_ms": (percentile(steps, 0.5) * 1e3, "ms"),
        "step_p99_ms": (percentile(steps, tail_quantile(len(steps))) * 1e3,
                        "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "confirm_p50_s": (exact["confirm_p50_s"], "s"),
        "confirm_p99_s": (exact["confirm_p99_s"], "s"),
        "confirmed_fraction": (exact["confirmed_fraction"], "ratio"),
    }


def traced_trial(workload, seed: int):
    """One trial with every layer entry point wrapped in spans; the
    originals are back in place when this returns."""
    from perfbench.layers import install_spans, install_timeline
    from perfbench.scenarios import run_trial
    from perfbench.spans import Patcher, SpanLog

    log = SpanLog()
    timeline: Dict[object, List[float]] = {}
    patcher = Patcher()
    try:
        install_spans(patcher, log)
        install_timeline(patcher, timeline)
        trial = run_trial(workload, seed, on_setup=lambda: len(log))
    finally:
        patcher.restore()
    return trial, log, timeline


def layer_counts(trial, log, timeline) -> Dict[str, Metric]:
    """Exact per-layer counts of one traced trial (work done, in counts
    and simulated time); these repeat bit for bit for a seed."""
    from perfbench.layers import span_count
    from perfbench.scenarios import latency_split, longest_commit_gap, percentile
    from perfbench.spans import count_by_name
    from repro.protocol import aggregate_layer_counters

    deployment, stream = trial.deployment, trial.stream
    nodes = deployment.nodes
    observer = nodes[0]
    layer = aggregate_layer_counters(nodes)
    network = deployment.network
    stats = deployment.scale_stats()
    spans = count_by_name(log)
    prune_stats = getattr(deployment.ledger, "prune_stats", [])
    sig_lookups = layer.get("sigcache.hits", 0.0) + layer.get("sigcache.misses", 0.0)
    paradigm = deployment.paradigm
    counts: Dict[str, Metric] = {
        "sim.events": (deployment.simulator.events_processed, "count"),
        "sharded.floods": (stats["messages_modeled"], "count"),
        "sharded.modeled_deliveries": (stats["modeled_deliveries"], "count"),
        "net.deliveries": (network.messages_delivered, "count"),
        "net.bytes": (network.bytes_transferred, "B"),
        "net.lost": (network.messages_lost, "count"),
        "protocol.ingests": (span_count(spans, (
            "protocol:ProtocolNode.ingest",
            "protocol:ProtocolNode.ingest_batch")), "count"),
        "intake.parked": (layer.get("intake.parked", 0.0), "count"),
        "intake.revived": (layer.get("intake.revived", 0.0), "count"),
        "intake.evicted": (layer.get("intake.evicted", 0.0), "count"),
        "transport.republished": (layer.get("transport.republished", 0.0),
                                  "count"),
        "blockchain.blocks": (observer.chain.height
                              if paradigm == "blockchain" else 0, "count"),
        "blockchain.orphaned_blocks": (sum(
            n.stats.orphaned_blocks for n in nodes)
            if paradigm == "blockchain" else 0, "count"),
        "mempool.accepted": (layer.get("mempool.accepted", 0.0), "count"),
        "mempool.backlog": (layer.get("mempool.backlog", 0.0), "count"),
        "mempool.rejected": (sum(layer.get(f"mempool.rejected_{why}", 0.0)
                                 for why in ("fee", "full", "replacement")),
                             "count"),
        "storage.prunes": (sum(s.ticks for s in prune_stats), "count"),
        "storage.bytes_freed": (sum(s.bytes_freed for s in prune_stats), "B"),
        "dag.blocks": (observer.lattice.block_count()
                       if paradigm == "dag" else 0, "count"),
        "dag.cemented": (observer.lattice.cemented_count()
                         if paradigm == "dag" else 0, "count"),
        "dag.elections": (observer.elections.confirmed_count()
                          if paradigm == "dag" else 0, "count"),
        "consensus.commits": (layer.get("consensus.commits", 0.0), "count"),
        "consensus.qcs_formed": (layer.get("consensus.qcs_formed", 0.0),
                                 "count"),
        "consensus.view_changes": (layer.get("consensus.view_changes", 0.0),
                                   "count"),
        "consensus.timeouts": (layer.get("consensus.timeouts", 0.0), "count"),
        "consensus.outage_s": (longest_commit_gap(trial), "s"),
        "crypto.signs": (span_count(spans, ("crypto:KeyPair.sign",)), "count"),
        "crypto.verifies": (sig_lookups, "count"),
        "crypto.sigcache_hit_ratio": (
            layer.get("sigcache.hits", 0.0) / sig_lookups
            if sig_lookups else 0.0, "ratio"),
        "trace.records": (network.tracer.emitted, "count"),
        "workloads.submits": (stream.next, "count"),
        "workloads.lateness_max_s": (stream.lateness_max_s, "s"),
    }
    for stage, values in latency_split(trial, timeline).items():
        values.sort()
        counts[f"latency.{stage}_p50_s"] = (percentile(values, 0.5), "s")
        counts[f"latency.{stage}_p99_s"] = (percentile(values, 0.99), "s")
    return counts


def layer_times(trial, log) -> Tuple[Dict[str, float], List[str]]:
    """Self time per layer of one traced trial, plus any violation of
    the span arithmetic (layer self times + unattributed = wall)."""
    from perfbench.layers import LAYERS, self_time_by_layer
    from perfbench.spans import min_self_time, root_duration, self_time_by_name

    by_layer = self_time_by_layer(self_time_by_name(log))
    setup = self_time_by_layer(self_time_by_name(log, 0, trial.setup_mark))
    covered = root_duration(log)
    unattributed = trial.wall_s - covered
    attributed = sum(by_layer[layer] for layer in LAYERS)
    problems = []
    if abs(attributed + unattributed - trial.wall_s) > 1e-6 * trial.wall_s:
        problems.append(f"layer self times {attributed:.6f} s + unattributed "
                        f"{unattributed:.6f} s != traced wall "
                        f"{trial.wall_s:.6f} s")
    if unattributed < 0 or min_self_time(log) < -1e-9:
        problems.append("spans do not nest inside the traced wall time")
    times = {f"{layer}.self_s": by_layer.get(layer, 0.0)
             for layer in LAYERS + ("mempool",)}
    times["sharded.setup_s"] = setup["sharded"]
    times["bench.unattributed_s"] = unattributed
    times["bench.traced_wall_s"] = trial.wall_s
    return times, problems


def per_layer_metrics(untraced, traced) -> Dict[str, Metric]:
    """Medians of the traced trials' self times, the first traced
    trial's exact counts, and derived per-unit costs."""
    from perfbench.scenarios import tail_quantile

    metrics: Dict[str, Metric] = dict(traced[0][2])
    times = [t for _, t, _ in traced]
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")

    def per(seconds: str, count: str, scale: float) -> float:
        n = metrics[count][0]
        return metrics[seconds][0] / n * scale if n else 0.0

    metrics["sim.us_per_event"] = (per("sim.self_s", "sim.events", 1e6), "us")
    metrics["sharded.ms_per_flood"] = (
        per("sharded.self_s", "sharded.floods", 1e3), "ms")
    metrics["net.us_per_delivery"] = (
        per("net.self_s", "net.deliveries", 1e6), "us")
    steps = sum(len(t.step_s) for t in untraced)
    confirmed = untraced[0].exact["confirmed"]
    metrics["bench.steps"] = (steps, "count")
    metrics["bench.step_tail_quantile"] = (tail_quantile(steps), "ratio")
    metrics["bench.confirm_tail_quantile"] = (tail_quantile(confirmed),
                                              "ratio")
    metrics["bench.trace_overhead"] = (
        statistics.median(t.wall_s for t in (x for x, _, _ in traced))
        / statistics.median(t.wall_s for t in untraced), "ratio")
    return metrics


def _compare_exact(reference: Dict[str, object], other: Dict[str, object],
                   what: str) -> List[str]:
    return [f"{what}: {key} {other.get(key)!r} != {value!r}"
            for key, value in reference.items() if other.get(key) != value]


def _recorded_exact(workload: str, seed: int,
                    exact: Dict[str, object]) -> List[str]:
    """Compare with the exact metrics an earlier run of this seed
    recorded in this checkout (first run records them)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"exact-{workload}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return _compare_exact(json.load(handle), exact, "earlier run")
    with open(path, "w") as handle:
        json.dump(exact, handle, indent=1, sort_keys=True)
    return []


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> Dict:
    from perfbench.scenarios import WORKLOADS, finish_trial, run_trial, time_setup
    from perfbench.speed import SpeedProbe

    workload = WORKLOADS[workload_name]
    began = time.perf_counter()
    untraced, traced_runs, problems = [], [], []
    log = None

    def budget_left() -> bool:
        # Start another trial (or untraced/traced pair) only if it is
        # expected to end within the budget; always run at least one.
        if not untraced:
            return True
        elapsed = time.perf_counter() - began
        return elapsed + elapsed / len(untraced) <= seconds

    while budget_left():
        trial = run_trial(workload, seed, probe=SpeedProbe())
        finish_trial(trial)
        trial.release()
        untraced.append(trial)
        if traced:
            trial, log, timeline = traced_trial(workload, seed)
            times, arithmetic = layer_times(trial, log)
            finish_trial(trial)
            trial.violations.extend(arithmetic)
            counts = layer_counts(trial, log, timeline)
            trial.release()
            traced_runs.append((trial, times, counts))
    reference = untraced[0].exact
    trials = untraced + [t for t, _, _ in traced_runs]
    for index, trial in enumerate(trials):
        problems.extend(trial.violations)
        problems.extend(_compare_exact(reference, trial.exact,
                                       f"trial {index}"))
    for index, (_, _, counts) in enumerate(traced_runs[1:], 1):
        problems.extend(_compare_exact(traced_runs[0][2], counts,
                                       f"traced trial {index}"))
    problems.extend(_recorded_exact(workload_name, seed, reference))
    if traced:
        metrics = per_layer_metrics(untraced, traced_runs)
        log.save(os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.npz"))
    else:
        setups = [t.setup_ref_s for t in untraced]
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload))
        metrics = end_to_end_metrics(untraced, setups)
    offered = sum(t.exact["offered"] for t in trials)
    for problem in problems:
        print(f"perfbench: gate: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": offered,
        "failed": offered if problems else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(workloads, argv: List[str]) -> int:
    """Every workload in turn, each in a fresh process of its own (so
    ``peak_rss_mb`` is per workload); one result line per workload.
    Returns 1 when any run failed or broke the correctness gate."""
    failed = False
    for name in workloads:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             *argv], stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "correct": False}))
            failed = True
            continue
        result = json.loads(lines[-1])
        failed = failed or not result["correct"]
        print(json.dumps({"workload": name, **result}))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.scenarios import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, ["--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from all, {', '.join(WORKLOADS)})")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
