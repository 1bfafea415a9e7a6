"""Spans around the calls the benchmark makes into each layer.

The program itself carries no benchmark spans.  For a traced run the
benchmark replaces a fixed list of public functions and methods (see
:func:`install`) with wrappers that record one span per call, and puts
the originals back when the run ends.  A span holds its name, start,
end, parent span, the id of the operation (query, request or delta) it
belongs to, and counts read off the call's arguments or result.  Spans
stay in memory until :meth:`Recorder.write` saves them.

Self time is a span's duration minus the durations of its direct
children.  Children are recorded on a thread-local stack, so on one
thread they never overlap and the subtraction is exact.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List


class Span:
    __slots__ = ("span_id", "parent", "request", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, request, name, start):
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, float] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans from every thread of one traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: List[tuple] = []

    def new_request(self) -> int:
        """Start a new operation on this thread; later spans share its id."""
        with self._lock:
            request = next(self._requests)
        self._local.request = request
        return request

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, after=None, before=None):
        # ``before`` and ``after`` read counts outside the timed span, so
        # reading them is not charged to the layer.
        pre = before(args, kwargs) if before is not None else None
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id,
            stack[-1].span_id if stack else None,
            getattr(self._local, "request", None),
            name,
            time.perf_counter(),
        )
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if after is not None:
            after(span, args, kwargs, result, pre)
        return result

    def patch(self, owner: Any, attr: str, name: str, after=None, before=None) -> None:
        """Route calls of ``owner.attr`` through a recording wrapper."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            return recorder.call(name, original, args, kwargs, after, before)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        document = dict(extra)
        document["spans"] = [span.as_dict() for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start
            )
    return {
        span.span_id: (span.end - span.start) - child_time.get(span.span_id, 0.0)
        for span in spans
    }


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _pair_checks(args, kwargs):
    counters = kwargs.get("counters")
    return counters.pair_checks if counters is not None else 0


def _pairs_after(span, args, kwargs, result, before):
    span.attrs["pair_checks"] = _pair_checks(args, kwargs) - before
    span.attrs["pairs_out"] = len(result)


def _engine_after(span, args, kwargs, result, pre):
    counters = args[0].counters
    span.attrs["sets_counted"] = counters.total_counted
    span.attrs["subset_tests"] = counters.subset_tests
    span.attrs["scans"] = counters.scans
    span.attrs["frequent"] = sum(
        len(sets)
        for lattice in result.lattices.values()
        for sets in lattice.frequent.values()
    )


def _batch_after(span, args, kwargs, result, pre):
    span.attrs["skeleton_build_s"] = result.skeleton_build_seconds


def _delta_after(span, args, kwargs, result, pre):
    span.attrs["probed"] = sum(r.probed for r in result.refreshes)
    span.attrs["probe_scans"] = sum(r.probe_scans for r in result.refreshes)
    span.attrs["results_invalidated"] = result.results_invalidated
    span.attrs["skeletons_dropped"] = result.skeletons_dropped
    span.attrs["skeletons_refreshed"] = result.skeletons_refreshed


def install(recorder: Recorder) -> None:
    """Wrap every layer call the per-layer metrics are measured at."""
    import repro.core.optimizer as optimizer
    import repro.db.transactions as transactions
    import repro.mining.backends as backends
    import repro.mining.dovetail as dovetail
    import repro.mining.lattice as lattice
    import repro.serve.server as server
    import repro.serve.service as service

    recorder.patch(optimizer.CFQOptimizer, "plan", "core.plan")
    recorder.patch(
        optimizer, "form_valid_pairs", "core.pairs", _pairs_after, _pair_checks
    )
    recorder.patch(server, "parse_cfq", "core.parse")
    recorder.patch(dovetail.DovetailEngine, "run", "mining.engine", _engine_after)
    recorder.patch(dovetail, "count_singletons", "mining.count")
    recorder.patch(lattice, "count_singletons", "mining.count")
    recorder.patch(backends.HybridBackend, "count", "mining.count")
    recorder.patch(service.QueryService, "execute", "serve.execute")
    recorder.patch(service.QueryService, "execute_batch", "serve.batch", _batch_after)
    for module in (service, server):
        recorder.patch(module, "dataset_fingerprint", "serve.fingerprint")
        recorder.patch(module, "result_key", "serve.fingerprint")
    # Each request the server handles is one operation: its spans share
    # the id started here, on the server's worker thread.
    recorder.patch(
        server.QueryServer, "handle_query", "server.handle",
        before=lambda args, kwargs: recorder.new_request(),
    )
    recorder.patch(server, "answer_document", "server.render")
    recorder.patch(transactions.TransactionDatabase, "append", "delta.db")
    recorder.patch(transactions.TransactionDatabase, "delete", "delta.db")
    recorder.patch(service.QueryService, "apply_delta", "delta.apply", _delta_after)
    recorder.patch(service, "refresh_skeleton", "delta.refresh")


def span_summary(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, mean self time, and summed counts."""
    selfs = self_times(recorder.spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in recorder.spans:
        entry = summary.setdefault(span.name, {"n": 0, "self_s": 0.0, "total_s": 0.0})
        entry["n"] += 1
        entry["self_s"] += selfs[span.span_id]
        entry["total_s"] += span.end - span.start
        for key, value in span.attrs.items():
            entry[key] = entry.get(key, 0) + value
    return summary

