"""Versioned, machine-readable run reports for CFQ mining runs.

A :class:`RunReport` is the export format of the observability layer:
one JSON document per run bundling

* the **trace tree** (:class:`repro.obs.trace.Tracer` spans: wall/CPU
  time and structured attributes per pipeline stage),
* the **metrics registry** snapshot,
* the ccc **operation counters** (:class:`repro.db.stats.OpCounters`),
* the **per-level pruning table** (candidates counted, frequent
  survivors, and sets pruned per constraint, per variable per level —
  the quantities behind the paper's Figures 8–9 arguments),
* the ``J^k_max`` **bound histories** (each ``W^k`` with its level),
* optional **cProfile hotspots** (the CLI's ``--profile`` flag).

The document is versioned (``schema``/``version`` header) and
round-trips: ``RunReport.from_json(report.to_json())`` validates the
header and returns an equal report.  The CLI's ``--trace-out`` writes
one, and the benchmark harness emits the same document per strategy
run, so the Figure 8a/8b ablation rows are reproducible artifacts.
"""

from __future__ import annotations

import cProfile
import io
import json
import math
import platform
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

RUN_REPORT_SCHEMA = "repro.run_report"
#: Version history:
#:   1 — trace/metrics/op_counters/pruning/bounds/answers (+ profile)
#:   2 — adds the optional ``budget`` (RunGuard telemetry) and
#:       ``interruption`` (GuardTrip) blocks and ``answers.status``;
#:       v1 documents remain readable (the new blocks default to absent)
#:   3 — adds the optional ``cache`` block (the serving layer's
#:       ``CFQResult.cache_info``: answer source, dataset/query
#:       fingerprints, cold/warm wall seconds, CacheStats snapshot);
#:       v1/v2 documents remain readable
#:   4 — adds the optional ``delta`` block (dataset-churn maintenance:
#:       the ``DeltaMaintenanceReport.as_dict()`` steps applied before
#:       this run was served); v1–v3 documents remain readable
#:   5 — adds the optional ``telemetry`` block (the serving layer's
#:       ``ServiceTelemetry.snapshot()``: process-lifetime per-outcome
#:       latency histograms, hit-ratio/occupancy gauges, event-journal
#:       summary); v1–v4 documents remain readable
#: Documents of every version may carry an optional ``parallel_stats``
#: block (shard timings of a sharded counting backend the library no
#: longer has); new reports omit it and readers ignore it.
RUN_REPORT_VERSION = 5
SUPPORTED_REPORT_VERSIONS = (1, 2, 3, 4, 5)

#: Hotspot count embedded by ``--profile``.
PROFILE_TOP_N = 20


class ReportSchemaError(ValueError):
    """A document failed run-report schema validation."""


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats (``J^k_max`` bound histories legitimately
    start at ±inf) with string markers so the JSON stays standard —
    ``json.dumps`` would otherwise emit the non-interoperable
    ``Infinity``/``NaN`` literals."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _counters_section(counters) -> Dict[str, Any]:
    """Serialize :class:`~repro.db.stats.OpCounters` with the per-level
    ledger expanded (its keys are tuples, which JSON cannot carry)."""
    section = dict(counters.as_dict())
    section["support_counted"] = [
        {"var": var, "level": level, "sets": n}
        for (var, level), n in sorted(counters.support_counted.items())
    ]
    return section


def pruning_summary(raw) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Per-variable, per-level pruning table from a
    :class:`~repro.mining.dovetail.DovetailResult`.

    For every level: how many candidate sets were counted, how many came
    out frequent (and valid), and how many candidates each installed
    constraint pruned before counting (keyed by pruner kind and source).
    JSON object keys must be strings, so levels are stringified.
    """
    table: Dict[str, Dict[str, Dict[str, int]]] = {}
    for var, lattice_result in raw.lattices.items():
        levels: Dict[str, Dict[str, int]] = {}
        all_levels = sorted(
            set(lattice_result.counted_per_level)
            | set(lattice_result.frequent)
            | set(getattr(lattice_result, "prune_counts", {}))
        )
        for level in all_levels:
            entry: Dict[str, int] = {
                "counted": lattice_result.counted_per_level.get(level, 0),
                "frequent": len(lattice_result.frequent.get(level, {})),
            }
            for reason, n in sorted(
                getattr(lattice_result, "prune_counts", {}).get(level, {}).items()
            ):
                entry[reason] = n
            levels[str(level)] = entry
        table[var] = levels
    return table


def render_pruning_table(pruning: Dict[str, Dict[str, Dict[str, int]]]) -> str:
    """Human-readable rendering of :func:`pruning_summary` (the table
    ``CFQResult.explain()`` prints)."""
    lines = ["  per-level pruning:"]
    for var in sorted(pruning):
        for level_key in sorted(pruning[var], key=int):
            entry = dict(pruning[var][level_key])
            counted = entry.pop("counted", 0)
            frequent = entry.pop("frequent", 0)
            infrequent = entry.pop("infrequent", None)
            detail = "; ".join(f"{reason}={n}" for reason, n in sorted(entry.items()))
            line = (
                f"    {var} L{level_key}: counted {counted}, "
                f"frequent+valid {frequent}"
            )
            if infrequent is not None:
                line += f", infrequent {infrequent}"
            if detail:
                line += f" | pruned: {detail}"
            lines.append(line)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# cProfile integration (the CLI's --profile flag)
# ----------------------------------------------------------------------
def profile_hotspots(
    profile: cProfile.Profile, top_n: int = PROFILE_TOP_N
) -> Dict[str, Any]:
    """The ``top_n`` hottest functions (by cumulative time) of a
    collected profile, in serializable form."""
    stats = pstats.Stats(profile, stream=io.StringIO())
    entries: List[Dict[str, Any]] = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        entries.append(
            {
                "function": func,
                "file": filename,
                "line": line,
                "calls": nc,
                "primitive_calls": cc,
                "total_seconds": round(tt, 6),
                "cumulative_seconds": round(ct, 6),
            }
        )
    entries.sort(key=lambda e: e["cumulative_seconds"], reverse=True)
    return {"engine": "cProfile", "ordered_by": "cumulative_seconds",
            "hotspots": entries[:top_n]}


# ----------------------------------------------------------------------
# The report document
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """One run's observability export (see module docstring)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    trace: Dict[str, Any] = field(default_factory=lambda: {"spans": []})
    metrics: Dict[str, Any] = field(default_factory=dict)
    op_counters: Dict[str, Any] = field(default_factory=dict)
    pruning: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)
    bound_histories: Dict[str, List[List[float]]] = field(default_factory=dict)
    answers: Dict[str, Any] = field(default_factory=dict)
    profile: Optional[Dict[str, Any]] = None
    #: Schema v2: :meth:`RunGuard.telemetry` of a guarded run (budgets
    #: configured, resources consumed); ``None`` for unguarded runs.
    budget: Optional[Dict[str, Any]] = None
    #: Schema v2: the ``GuardTrip.as_dict()`` of an interrupted run;
    #: ``None`` when the run completed.
    interruption: Optional[Dict[str, Any]] = None
    #: Schema v3: how the serving layer answered this run (the
    #: ``CFQResult.cache_info`` dict — source, fingerprints, timings,
    #: cache-stats snapshot); ``None`` for uncached runs.
    cache: Optional[Dict[str, Any]] = None
    #: Schema v4: dataset-churn maintenance applied before this run —
    #: ``{"steps": [DeltaMaintenanceReport.as_dict(), ...]}``; ``None``
    #: when the dataset never changed.
    delta: Optional[Dict[str, Any]] = None
    #: Schema v5: the serving layer's process-lifetime telemetry
    #: snapshot (``ServiceTelemetry.snapshot()`` — per-outcome latency
    #: histograms, cache gauges, event-journal summary); ``None`` for
    #: unserved runs.
    telemetry: Optional[Dict[str, Any]] = None

    REQUIRED_KEYS = (
        "schema",
        "version",
        "generated_at_unix",
        "meta",
        "trace",
        "metrics",
        "op_counters",
        "pruning",
        "answers",
    )

    def to_dict(self) -> Dict[str, Any]:
        return _sanitize({
            "schema": RUN_REPORT_SCHEMA,
            "version": RUN_REPORT_VERSION,
            "generated_at_unix": time.time(),
            "generator": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "meta": self.meta,
            "trace": self.trace,
            "metrics": self.metrics,
            "op_counters": self.op_counters,
            "pruning": self.pruning,
            "bound_histories": self.bound_histories,
            "answers": self.answers,
            "profile": self.profile,
            "budget": self.budget,
            "interruption": self.interruption,
            "cache": self.cache,
            "delta": self.delta,
            "telemetry": self.telemetry,
        })

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> str:
        """Serialize to ``path``; returns the path for chaining."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # Parsing / validation
    # ------------------------------------------------------------------
    @staticmethod
    def validate(document: Dict[str, Any]) -> Dict[str, Any]:
        """Check the schema header and required sections; returns the
        document on success, raises :class:`ReportSchemaError` otherwise."""
        if not isinstance(document, dict):
            raise ReportSchemaError("run report must be a JSON object")
        missing = [k for k in RunReport.REQUIRED_KEYS if k not in document]
        if missing:
            raise ReportSchemaError(f"run report missing keys: {missing}")
        if document["schema"] != RUN_REPORT_SCHEMA:
            raise ReportSchemaError(
                f"unexpected schema {document['schema']!r}; "
                f"expected {RUN_REPORT_SCHEMA!r}"
            )
        if document["version"] not in SUPPORTED_REPORT_VERSIONS:
            raise ReportSchemaError(
                f"unsupported run-report version {document['version']!r}; "
                f"this reader understands versions "
                f"{list(SUPPORTED_REPORT_VERSIONS)}"
            )
        if not isinstance(document["trace"], dict) or "spans" not in document["trace"]:
            raise ReportSchemaError("trace section must contain 'spans'")
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunReport":
        cls.validate(document)
        return cls(
            meta=document["meta"],
            trace=document["trace"],
            metrics=document["metrics"],
            op_counters=document["op_counters"],
            pruning=document["pruning"],
            bound_histories=document.get("bound_histories", {}),
            answers=document["answers"],
            profile=document.get("profile"),
            budget=document.get("budget"),
            interruption=document.get("interruption"),
            cache=document.get("cache"),
            delta=document.get("delta"),
            telemetry=document.get("telemetry"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


def build_run_report(
    result,
    tracer=None,
    meta: Optional[Dict[str, Any]] = None,
    profile: Optional[cProfile.Profile] = None,
    delta: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished
    :class:`~repro.core.optimizer.CFQResult` (or any object exposing
    ``counters``, ``raw`` and optionally ``cfq``).

    ``tracer`` defaults to the trace attached to the result (if any);
    ``profile`` is an optional collected :class:`cProfile.Profile`;
    ``delta`` is the optional churn-maintenance block (schema v4);
    ``telemetry`` is the optional serving-telemetry snapshot (schema
    v5).
    """
    tracer = tracer if tracer is not None else getattr(result, "trace", None)
    raw = result.raw
    doc_meta: Dict[str, Any] = {}
    cfq = getattr(result, "cfq", None)
    if cfq is not None:
        doc_meta["query"] = str(cfq)
    if meta:
        doc_meta.update(meta)
    answers: Dict[str, Any] = {}
    if cfq is not None:
        answers["frequent_valid"] = {
            var: len(raw.result_for(var).all_sets()) for var in cfq.variables
        }
    status = getattr(result, "status", None)
    if status is not None:
        answers["status"] = status
    guard = getattr(result, "guard", None)
    trip = getattr(result, "interruption", None)
    return RunReport(
        meta=doc_meta,
        trace=tracer.to_dict() if tracer is not None else {"spans": []},
        metrics=(
            tracer.metrics.as_dict()
            if tracer is not None and getattr(tracer, "metrics", None) is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        ),
        op_counters=_counters_section(result.counters),
        pruning=pruning_summary(raw),
        bound_histories={
            key: [[k, bound] for k, bound in history]
            for key, history in raw.bound_histories.items()
        },
        answers=answers,
        profile=profile_hotspots(profile) if profile is not None else None,
        budget=(
            guard.telemetry()
            if guard is not None and getattr(guard, "enabled", False)
            else None
        ),
        interruption=trip.as_dict() if trip is not None else None,
        cache=getattr(result, "cache_info", None) or None,
        delta=delta,
        telemetry=telemetry,
    )
