"""The versioned run-report document (repro.obs.report)."""

import cProfile
import json

import pytest

from repro.core.optimizer import CFQOptimizer
from repro.datagen.workloads import jmax_workload, quickstart_workload
from repro.obs.report import (
    RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
    ReportSchemaError,
    RunReport,
    build_run_report,
    profile_hotspots,
    pruning_summary,
    render_pruning_table,
)
from repro.obs.trace import Tracer


def _run(n_transactions=200, trace=True, workload_fn=quickstart_workload,
         **workload_kwargs):
    workload = workload_fn(n_transactions=n_transactions, **workload_kwargs)
    cfq = workload.cfq()
    tracer = Tracer() if trace else None
    result = CFQOptimizer(cfq).execute(workload.db, tracer=tracer)
    return result, tracer


def test_report_round_trip():
    result, tracer = _run()
    report = build_run_report(result, tracer=tracer)
    text = report.to_json()
    parsed = RunReport.from_json(text)
    assert parsed.meta == report.meta
    assert parsed.trace == report.trace
    assert parsed.pruning == report.pruning
    assert parsed.answers == report.answers
    document = json.loads(text)
    assert document["schema"] == RUN_REPORT_SCHEMA
    assert document["version"] == RUN_REPORT_VERSION
    assert "generated_at_unix" in document


def test_report_sections_populated():
    result, tracer = _run()
    report = build_run_report(result, tracer=tracer)
    assert report.meta["query"] == str(result.cfq)
    assert report.trace["spans"], "trace tree must not be empty"
    assert report.op_counters["sets_counted"] > 0
    # The expanded per-level ledger carries (var, level, sets) rows.
    rows = report.op_counters["support_counted"]
    assert all({"var", "level", "sets"} <= set(r) for r in rows)
    for var in result.cfq.variables:
        assert report.pruning[var]["1"]["counted"] > 0
        assert report.answers["frequent_valid"][var] == len(
            result.frequent_valid(var)
        )


def test_report_defaults_to_result_trace():
    result, tracer = _run()
    assert result.trace is tracer
    report = build_run_report(result)
    assert report.trace == tracer.to_dict()


def test_validate_rejects_missing_keys():
    with pytest.raises(ReportSchemaError, match="missing keys"):
        RunReport.validate({"schema": RUN_REPORT_SCHEMA})


def test_validate_rejects_wrong_schema_and_version():
    result, tracer = _run()
    document = build_run_report(result, tracer=tracer).to_dict()
    bad_schema = dict(document, schema="something.else")
    with pytest.raises(ReportSchemaError, match="unexpected schema"):
        RunReport.validate(bad_schema)
    bad_version = dict(document, version=RUN_REPORT_VERSION + 1)
    with pytest.raises(ReportSchemaError, match="version"):
        RunReport.validate(bad_version)
    no_spans = dict(document, trace={})
    with pytest.raises(ReportSchemaError, match="spans"):
        RunReport.validate(no_spans)


def test_report_write_and_read_back(tmp_path):
    result, tracer = _run()
    path = str(tmp_path / "report.json")
    build_run_report(result, tracer=tracer).write(path)
    with open(path, encoding="utf-8") as handle:
        RunReport.from_dict(json.load(handle))


def test_bound_histories_json_safe():
    """J^k_max bound series legitimately start at +/-inf; the document
    must still be standard JSON (no bare Infinity literals)."""
    workload = jmax_workload(600.0, n_transactions=200, core_size=10)
    cfq = workload.cfq()
    tracer = Tracer()
    result = CFQOptimizer(cfq).execute(workload.db, tracer=tracer)
    report = build_run_report(result, tracer=tracer)
    text = report.to_json()
    assert "Infinity" not in text
    json.loads(text)
    assert report.bound_histories, "jmax workload must produce bound series"


def test_pruning_summary_and_render():
    result, __ = _run(trace=False)
    pruning = pruning_summary(result.raw)
    for var in result.cfq.variables:
        for level, sets in result.raw.result_for(var).frequent.items():
            assert pruning[var][str(level)]["frequent"] == len(sets)
    rendered = render_pruning_table(pruning)
    assert rendered.startswith("  per-level pruning:")
    assert "L1: counted" in rendered
    # explain() embeds the same table.
    assert rendered in result.explain()


def test_profile_hotspots_shape():
    profile = cProfile.Profile()
    profile.enable()
    sorted([(-i) % 7 for i in range(5000)])
    profile.disable()
    section = profile_hotspots(profile, top_n=5)
    assert section["engine"] == "cProfile"
    assert 0 < len(section["hotspots"]) <= 5
    cumulative = [h["cumulative_seconds"] for h in section["hotspots"]]
    assert cumulative == sorted(cumulative, reverse=True)
    json.dumps(section)


# ----------------------------------------------------------------------
# v3: the serving layer's cache block
# ----------------------------------------------------------------------
def _served_run(tmp_cache=None):
    from repro.serve import QueryService

    workload = quickstart_workload(n_transactions=200)
    cfq = workload.cfq()
    service = QueryService(
        **({"cache_dir": tmp_cache} if tmp_cache else {})
    )
    tracer = Tracer()
    service.execute(workload.db, cfq, tracer=tracer)  # cold, stored
    tracer = Tracer()
    warm = service.execute(workload.db, cfq, tracer=tracer)
    return warm, tracer


def test_cache_block_round_trips_in_v3_reports():
    warm, tracer = _served_run()
    assert warm.cache_info["source"] == "result-cache"
    report = build_run_report(warm, tracer=tracer)
    assert report.cache == warm.cache_info
    document = report.to_dict()
    assert document["version"] == RUN_REPORT_VERSION
    cache = document["cache"]
    assert cache["source"] == "result-cache"
    assert len(cache["dataset_fingerprint"]) == 64
    assert len(cache["query_fingerprint"]) == 64
    assert cache["cold_wall_seconds"] >= 0
    assert cache["warm_wall_seconds"] >= 0
    # Hit/miss/eviction counts and held bytes are all present.
    stats = cache["stats"]
    for key in ("hits", "misses", "stores", "evictions", "expirations",
                "invalidations", "bytes_held"):
        assert key in stats, key
    assert stats["hits"] >= 1
    parsed = RunReport.from_json(report.to_json())
    assert parsed.cache == report.cache
    RunReport.validate(json.loads(report.to_json()))


def test_uncached_runs_omit_the_cache_block():
    result, tracer = _run()
    report = build_run_report(result, tracer=tracer)
    assert report.cache is None
    assert report.to_dict()["cache"] is None


def test_older_report_versions_remain_readable():
    """v1/v2 documents have no ``cache`` key; reading one must default
    the block to absent instead of failing."""
    result, tracer = _run()
    document = build_run_report(result, tracer=tracer).to_dict()
    for version in (1, 2):
        old = dict(document, version=version)
        old.pop("cache", None)
        if version == 1:
            old.pop("budget", None)
            old.pop("interruption", None)
        parsed = RunReport.from_dict(old)
        assert parsed.cache is None


def test_cache_block_survives_nonfinite_floats():
    """A cache_info carrying a non-finite timing (a defensive case: the
    sanitizer must treat the cache block like every other section) still
    yields standard JSON."""
    warm, tracer = _served_run()
    warm.cache_info["warm_wall_seconds"] = float("inf")
    report = build_run_report(warm, tracer=tracer)
    text = report.to_json()
    assert "Infinity" not in text
    document = json.loads(text)
    assert document["cache"]["warm_wall_seconds"] == "inf"


def test_explain_renders_cache_block():
    warm, __ = _served_run()
    explained = warm.explain()
    assert "cache: source result-cache" in explained
    assert "dataset fingerprint:" in explained
    assert "query fingerprint:" in explained
    assert "cold wall seconds:" in explained
    assert "warm wall seconds:" in explained
    assert "stats: " in explained
    assert "hits=" in explained


def test_explain_renders_cold_store_info():
    from repro.serve import QueryService

    workload = quickstart_workload(n_transactions=200)
    service = QueryService()
    cold = service.execute(workload.db, workload.cfq())
    explained = cold.explain()
    assert "cache: source cold" in explained
    assert "cold wall seconds:" in explained


# ----------------------------------------------------------------------
# v5: the serving layer's telemetry block
# ----------------------------------------------------------------------
def _served_run_with_telemetry():
    from repro.serve import QueryService

    workload = quickstart_workload(n_transactions=200)
    cfq = workload.cfq()
    service = QueryService()
    service.execute(workload.db, cfq)
    tracer = Tracer()
    warm = service.execute(workload.db, cfq, tracer=tracer)
    return warm, tracer, service


def test_telemetry_block_round_trips_in_v5_reports():
    warm, tracer, service = _served_run_with_telemetry()
    snapshot = service.telemetry.snapshot(service.stats)
    report = build_run_report(warm, tracer=tracer, telemetry=snapshot)
    document = report.to_dict()
    assert document["version"] == RUN_REPORT_VERSION == 5
    telemetry = document["telemetry"]
    assert telemetry["schema"] == "repro.serve.telemetry"
    assert telemetry["runs_merged"] == 0
    assert set(telemetry["outcomes"]) == {"cold", "warm-memory"}
    assert telemetry["journal"]["seq"] >= 2
    parsed = RunReport.from_json(report.to_json())
    assert parsed.telemetry == report.telemetry
    RunReport.validate(json.loads(report.to_json()))
    # The embedded metrics state is lossless: the registry rebuilds.
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry.from_state(parsed.telemetry["metrics"])
    assert registry.histogram("serve_seconds", outcome="cold").count == 1


def test_reports_without_telemetry_keep_the_block_absent():
    result, tracer = _run()
    report = build_run_report(result, tracer=tracer)
    assert report.telemetry is None
    assert report.to_dict()["telemetry"] is None


def test_v1_through_v4_documents_remain_readable():
    """The versioned reader path: each prior version's documents (which
    lack the keys later versions added) must parse without error."""
    warm, tracer, service = _served_run_with_telemetry()
    snapshot = service.telemetry.snapshot(service.stats)
    document = build_run_report(
        warm, tracer=tracer, telemetry=snapshot
    ).to_dict()
    removed_by_version = {
        4: ["telemetry"],
        3: ["telemetry", "delta"],
        2: ["telemetry", "delta", "cache"],
        1: ["telemetry", "delta", "cache", "budget", "interruption"],
    }
    for version, absent_keys in removed_by_version.items():
        old = dict(document, version=version)
        for key in absent_keys:
            old.pop(key, None)
        parsed = RunReport.from_dict(old)
        assert parsed.answers == document["answers"]
        assert parsed.telemetry is None
        if "cache" in absent_keys:
            assert parsed.cache is None
        RunReport.validate(json.loads(json.dumps(old, default=str)))


def test_stored_v5_document_with_parallel_stats_still_loads():
    """Reports written while a sharded counting backend existed carry a
    populated ``parallel_stats`` block and ``meta.backend``; new reports
    write neither, and the reader still validates and loads the old
    documents."""
    result, tracer = _run()
    document = build_run_report(result, tracer=tracer).to_dict()
    assert "parallel_stats" not in document
    assert "backend" not in document["meta"]
    stored = dict(
        document,
        version=5,
        meta=dict(document["meta"], backend="parallel"),
        parallel_stats={
            "levels": 2, "pooled_levels": 2, "max_shards": 2,
            "pool_forks": 1, "failures": 0, "retries": 0,
            "fallback_shards": 0, "pool_broken": False,
        },
    )
    RunReport.validate(json.loads(json.dumps(stored)))
    parsed = RunReport.from_json(json.dumps(stored))
    assert parsed.op_counters == document["op_counters"]
    assert parsed.answers == document["answers"]
    assert parsed.meta["backend"] == "parallel"
