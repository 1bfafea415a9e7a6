"""Metric names, units, and how each layer metric is expected to move.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
declares; the runner prints every one of them.  ``PER_LAYER`` also
records, for each layer metric, which end-to-end metric on which
workload a change in that layer should move (``README.md`` explains the
reasoning).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

# name -> unit; every workload reports every one of these.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Printed, not declared: not steady on every workload (query_p50_s), or
# measured by one workload only (see README.md).
WORKLOAD_ONLY = {
    "query_p50_s": "s",
    "query_p99_s": "s",   # serve-sessions: >= 1,000 requests per run
    "delta_p50_s": "s",   # churn-rw
    "delta_p90_s": "s",   # churn-rw
    "fail_ratio": "ratio",
}

_SERVE = ("serve-sessions",)
_CHURN = ("churn-rw",)
_MINE = ("mine-cold",)

# name -> (unit, [(end-to-end metric, workloads)])
PER_LAYER: Dict[str, Tuple[str, List[Tuple[str, Tuple[str, ...]]]]] = {
    "core.plan_s": ("s", [("query_p50_s", _CHURN + _SERVE)]),
    "core.pairs_s": ("s", [("query_p90_s", _MINE), ("query_p99_s", _SERVE)]),
    "core.pair_checks": ("count", [("query_p90_s", _MINE), ("query_p99_s", _SERVE)]),
    "core.pairs_out": ("count", [("query_p90_s", _MINE), ("query_p99_s", _SERVE)]),
    "core.pair_yield": ("ratio", [("query_p90_s", _MINE), ("query_p99_s", _SERVE)]),
    "core.parse_s": ("s", [("query_p50_s", _SERVE)]),
    "mining.engine_s": ("s", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.count_s": ("s", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.count_calls": ("count", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.sets_counted": ("count", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.subset_tests": ("count", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.scans": ("count", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "mining.frequent_yield": ("ratio", [("ops_per_s", _MINE), ("query_p50_s", _MINE)]),
    "serve.execute_s": ("s", [("query_p99_s", _SERVE), ("query_p50_s", _CHURN)]),
    "serve.batch_s": ("s", [("query_p99_s", _SERVE), ("query_p50_s", _CHURN)]),
    "serve.skeleton_build_s": ("s", [("query_p99_s", _SERVE), ("query_p50_s", _CHURN)]),
    "serve.fingerprint_s": ("s", [("query_p99_s", _SERVE), ("query_p50_s", _CHURN)]),
    "serve.result_hit_ratio": ("ratio", [("query_p50_s", _SERVE), ("ops_per_s", _CHURN), ("delta_p50_s", _CHURN), ("peak_rss_mb", _CHURN)]),
    "serve.skeleton_hit_ratio": ("ratio", [("query_p50_s", _SERVE), ("ops_per_s", _CHURN), ("delta_p50_s", _CHURN), ("peak_rss_mb", _CHURN)]),
    "serve.evictions": ("count", [("query_p50_s", _SERVE), ("ops_per_s", _CHURN), ("delta_p50_s", _CHURN), ("peak_rss_mb", _CHURN)]),
    "serve.bytes_held": ("bytes", [("query_p50_s", _SERVE), ("ops_per_s", _CHURN), ("delta_p50_s", _CHURN), ("peak_rss_mb", _CHURN)]),
    "server.handle_s": ("s", [("query_p50_s", _SERVE), ("ops_per_s", _SERVE)]),
    "server.outside_s": ("s", [("query_p50_s", _SERVE), ("ops_per_s", _SERVE)]),
    "server.render_s": ("s", [("query_p99_s", _SERVE)]),
    "server.response_bytes_mean": ("bytes", [("query_p99_s", _SERVE)]),
    "server.share.doc-cache": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.share.fast-path": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.share.single": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.share.coalesced": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.share.skeleton": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.share.cold": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.dedup_ratio": ("ratio", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.coalesce_width_mean": ("count", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.shed": ("count", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "server.rejected": ("count", [("query_p50_s", _SERVE), ("query_p99_s", _SERVE)]),
    "delta.db_s": ("s", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.apply_s": ("s", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.refresh_s": ("s", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.probed": ("count", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.probe_scans": ("count", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.results_invalidated": ("count", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.skeletons_dropped": ("count", [("delta_p50_s", _CHURN), ("delta_p90_s", _CHURN)]),
    "delta.skeletons_refreshed": ("count", [("delta_p50_s", _CHURN)]),
    "trace.overhead": ("ratio", []),
}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Measured:
    """A value with its sample count."""

    __slots__ = ("value", "n")

    def __init__(self, value: float, n: int):
        self.value = float(value)
        self.n = n
