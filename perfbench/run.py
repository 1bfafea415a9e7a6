"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload twice from fresh state, untraced and then traced, for half of
``--seconds`` each, prints every per-layer metric, and writes the spans
to ``.perfbench/``.  Each metric is printed with its unit and sample
count, then the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any answer check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (the benchmark's own modules, after sys.path)
from metrics import END_TO_END, PER_LAYER, WORKLOAD_ONLY, Measured, quantile, ratio  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _fresh_state(workload, seed):
    started = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - started


def run_untraced(workload, seed, seconds):
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        state, seconds_taken = _fresh_state(workload, seed)
        setups.append(seconds_taken)
    gc.collect()
    try:
        phase = workload.measure(state, seconds)
    finally:
        workload.teardown(state)
    checked, mismatches = workload.check(state, phase, {})
    failed = phase.failures + mismatches
    q, d = phase.query_latencies, phase.delta_latencies
    metrics = {
        "setup_s": Measured(statistics.median(setups), len(setups)),
        "ops_per_s": Measured(phase.ops_per_s, phase.ops),
        "query_p90_s": Measured(quantile(q, 0.9), len(q)),
        "peak_rss_mb": Measured(phase.rss_mb, 1),
        "ok_ratio": Measured(1.0 - ratio(failed, phase.ops), phase.ops),
    }
    extra = {
        "query_p50_s": Measured(quantile(q, 0.5), len(q)),
        "fail_ratio": Measured(ratio(failed, phase.ops), phase.ops),
    }
    if workload.name == "serve-sessions":
        extra["query_p99_s"] = Measured(quantile(q, 0.99), len(q))
    if d:
        extra["delta_p50_s"] = Measured(quantile(d, 0.5), len(d))
        extra["delta_p90_s"] = Measured(quantile(d, 0.9), len(d))
    units = dict(END_TO_END, **WORKLOAD_ONLY)
    for name, measured in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<14} {measured.value:>14.6g} {units[name]:<6} n={measured.n}")
    _print_inputs(phase, checked, mismatches)
    return phase.ops, failed, {name: (m.value, END_TO_END[name]) for name, m in metrics.items()}


def run_traced(workload, seed, seconds):
    memo = {}
    half = seconds / 2.0
    state, _ = _fresh_state(workload, seed)
    gc.collect()
    try:
        untraced = workload.measure(state, half)
    finally:
        workload.teardown(state)
    checked_a, mismatches_a = workload.check(state, untraced, memo)

    state, _ = _fresh_state(workload, seed)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    gc.collect()
    try:
        traced = workload.measure(state, half, recorder)
    finally:
        recorder.unpatch()
        workload.teardown(state)
    checked_b, mismatches_b = workload.check(state, traced, memo)

    layer = layer_metrics(recorder, traced, untraced)
    for name, measured in layer.items():
        print(f"  {name:<28} {measured.value:>14.6g} {PER_LAYER[name][0]:<6} n={measured.n}")
    _print_inputs(traced, checked_a + checked_b, mismatches_a + mismatches_b)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json")
    recorder.write(path, {
        "workload": workload.name,
        "seed": seed,
        "seconds_per_phase": half,
        "ops_per_s": {"untraced": untraced.ops_per_s, "traced": traced.ops_per_s},
        "per_layer": {
            name: {
                "value": measured.value,
                "unit": PER_LAYER[name][0],
                "samples": measured.n,
                "moves": [
                    {"metric": metric, "workloads": list(workloads)}
                    for metric, workloads in PER_LAYER[name][1]
                ],
            }
            for name, measured in layer.items()
        },
        "inputs": traced.extras,
    })
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    ops = untraced.ops + traced.ops
    failed = untraced.failures + traced.failures + mismatches_a + mismatches_b
    return ops, failed, {name: (m.value, PER_LAYER[name][0]) for name, m in layer.items()}


def layer_metrics(recorder, traced, untraced):
    """Every per-layer metric from the traced phase's spans and extras."""
    summary = tracing.span_summary(recorder)
    ops = traced.ops
    empty = {"n": 0, "self_s": 0.0, "total_s": 0.0}

    def span(name):
        return summary.get(name, empty)

    def mean_self(name):
        entry = span(name)
        return Measured(ratio(entry["self_s"], entry["n"]), entry["n"])

    def per_op(name, attr):
        return Measured(ratio(span(name).get(attr, 0), ops), ops)

    def per_call(name, attr):
        entry = span(name)
        return Measured(ratio(entry.get(attr, 0), entry["n"]), entry["n"])

    pairs, engine = span("core.pairs"), span("mining.engine")
    extras = traced.extras
    cache = extras.get("cache", {})
    responses = extras.get("responses", 0)
    paths, sources = extras.get("paths", {}), extras.get("sources", {})
    widths = extras.get("coalesce_widths", [])
    sizes = extras.get("response_bytes", [])
    handle = span("server.handle")
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    skeleton_lookups = cache.get("skeleton_hits", 0) + cache.get("skeleton_misses", 0)

    values = {
        "core.plan_s": mean_self("core.plan"),
        "core.pairs_s": mean_self("core.pairs"),
        "core.pair_checks": per_op("core.pairs", "pair_checks"),
        "core.pairs_out": per_op("core.pairs", "pairs_out"),
        "core.pair_yield": Measured(
            ratio(pairs.get("pairs_out", 0), pairs.get("pair_checks", 0)),
            pairs.get("pair_checks", 0),
        ),
        "core.parse_s": mean_self("core.parse"),
        "mining.engine_s": mean_self("mining.engine"),
        "mining.count_s": mean_self("mining.count"),
        "mining.count_calls": Measured(ratio(span("mining.count")["n"], ops), ops),
        "mining.sets_counted": per_op("mining.engine", "sets_counted"),
        "mining.subset_tests": per_op("mining.engine", "subset_tests"),
        "mining.scans": per_op("mining.engine", "scans"),
        "mining.frequent_yield": Measured(
            ratio(engine.get("frequent", 0), engine.get("sets_counted", 0)),
            engine.get("sets_counted", 0),
        ),
        "serve.execute_s": mean_self("serve.execute"),
        "serve.batch_s": mean_self("serve.batch"),
        "serve.skeleton_build_s": per_call("serve.batch", "skeleton_build_s"),
        "serve.fingerprint_s": mean_self("serve.fingerprint"),
        "serve.result_hit_ratio": Measured(ratio(cache.get("hits", 0), lookups), lookups),
        "serve.skeleton_hit_ratio": Measured(
            ratio(cache.get("skeleton_hits", 0), skeleton_lookups), skeleton_lookups
        ),
        "serve.evictions": Measured(cache.get("evictions", 0), 1 if cache else 0),
        "serve.bytes_held": Measured(cache.get("bytes_held", 0), 1 if cache else 0),
        "server.handle_s": mean_self("server.handle"),
        "server.outside_s": Measured(
            extras.get("latency_mean", 0.0) - ratio(handle["total_s"], handle["n"])
            if handle["n"] else 0.0,
            handle["n"],
        ),
        "server.render_s": mean_self("server.render"),
        "server.response_bytes_mean": Measured(ratio(sum(sizes), len(sizes)), len(sizes)),
    }
    for path in ("doc-cache", "fast-path", "single", "coalesced"):
        values[f"server.share.{path}"] = Measured(
            ratio(paths.get(path, 0), responses), responses
        )
    for source in ("skeleton", "cold"):
        values[f"server.share.{source}"] = Measured(
            ratio(sources.get(source, 0), responses), responses
        )
    values["server.dedup_ratio"] = Measured(ratio(extras.get("dedup", 0), responses), responses)
    values["server.coalesce_width_mean"] = Measured(ratio(sum(widths), len(widths)), len(widths))
    values["server.shed"] = Measured(extras.get("shed", 0), responses)
    values["server.rejected"] = Measured(extras.get("rejected", 0), responses)
    values["delta.db_s"] = mean_self("delta.db")
    values["delta.apply_s"] = mean_self("delta.apply")
    values["delta.refresh_s"] = mean_self("delta.refresh")
    for attr in ("probed", "probe_scans", "results_invalidated",
                 "skeletons_dropped", "skeletons_refreshed"):
        values[f"delta.{attr}"] = per_call("delta.apply", attr)
    common = min(len(traced.op_latencies), len(untraced.op_latencies))
    values["trace.overhead"] = Measured(
        ratio(sum(traced.op_latencies[:common]), sum(untraced.op_latencies[:common]))
        - 1.0,
        common,
    )
    return {name: values[name] for name in PER_LAYER}


def _print_inputs(phase, checked, mismatches):
    for name, value in phase.extras.items():
        if name in ("distinct_queries", "cache_capacities", "pairs_per_answer",
                    "answer_bytes_per_query",
                    "answer_bytes_checked", "refreshes_per_delta_min", "sources", "paths"):
            print(f"  input {name}: {value}")
    print(f"  answers checked: {checked}, mismatches: {mismatches}")


def run_all(args) -> int:
    """Each workload in a fresh process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            status = completed.returncode or 1
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    run = run_traced if args.trace else run_untraced
    attempted, failed, metrics = run(workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
