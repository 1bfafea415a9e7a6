"""Threaded load-replay client for the query server.

Drives a running :mod:`repro.serve.server` instance from many client
threads (persistent HTTP/1.1 connections, one per thread), collects
per-request latencies and serving metadata, and aggregates them into a
:class:`ReplayReport` — the shape the load benchmark publishes through
the perf-trend gate.

The ``verify_cold`` pass is the serving layer's ground-truth check:
after the replay, every *unique* (query, options) pair that produced a
complete answer is re-executed cold — single-threaded
``CFQOptimizer.execute`` on a fresh engine, no caches, no skeletons, no
coalescing — and the served ``answer`` documents are compared
byte-for-byte against the cold one.  Any divergence is a serving bug by
definition (the concurrency machinery must be answer-invisible).
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from repro.core.cfq_parser import parse_cfq
from repro.core.optimizer import CFQOptimizer
from repro.errors import ExecutionError
from repro.serve.server import answer_document


def query_text(cfq) -> str:
    """Render a CFQ as request text that re-parses to the same query.

    ``str(cfq)`` drops the support thresholds (they live beside the
    constraint list on the object), so explicit ``freq(var, threshold)``
    atoms are prepended; :func:`parse_cfq` folds them back into
    per-variable minsup and the fingerprints round-trip exactly.
    """
    atoms = [f"freq({var}, {cfq.minsup_for(var)!r})" for var in cfq.variables]
    body = " & ".join(atoms + [str(c) for c in cfq.parsed])
    variables = ", ".join(cfq.variables)
    return f"{{({variables}) | {body}}}"


@dataclass
class ReplayOutcome:
    """One request's round trip."""

    index: int
    request: Dict[str, Any]
    status: int
    body: Dict[str, Any]
    latency_seconds: float

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class ReplayReport:
    """Aggregates of one replay run (latencies in seconds)."""

    n_requests: int
    n_ok: int
    n_rejected: int          # 4xx admission outcomes (rate limit, bad request)
    n_shed: int              # 503 queue-full
    n_errors: int            # 5xx / transport failures
    n_partial: int           # 200s with a guard-tripped partial answer
    wall_seconds: float
    qps: float
    p50: float
    p95: float
    p99: float
    dedup_responses: int     # responses served off another request's flight
    coalesce_max_width: int
    coalesce_widths: Dict[int, int] = field(default_factory=dict)
    sources: Dict[str, int] = field(default_factory=dict)
    verify: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        document = {
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_rejected": self.n_rejected,
            "n_shed": self.n_shed,
            "n_errors": self.n_errors,
            "n_partial": self.n_partial,
            "wall_seconds": round(self.wall_seconds, 4),
            "qps": round(self.qps, 2),
            "p50_ms": round(self.p50 * 1000, 3),
            "p95_ms": round(self.p95 * 1000, 3),
            "p99_ms": round(self.p99 * 1000, 3),
            "dedup_responses": self.dedup_responses,
            "coalesce_max_width": self.coalesce_max_width,
            "coalesce_widths": {
                str(k): v for k, v in sorted(self.coalesce_widths.items())
            },
            "sources": dict(sorted(self.sources.items())),
        }
        if self.verify is not None:
            document["verify"] = self.verify
        return document


class _Connection:
    """A persistent HTTP/1.1 connection to the server (per thread)."""

    def __init__(self, url: str, timeout: float):
        parsed = urlparse(url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ExecutionError(f"replay needs an http:// URL, got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, document: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        payload = json.dumps(document)
        for attempt in (0, 1):  # one reconnect on a dropped keep-alive
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
                self._conn.connect()
                # Mirror the server's NODELAY: the request is a couple
                # of small writes and a Nagle stall per POST dwarfs
                # warm serving latency.
                self._conn.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            try:
                self._conn.request(
                    "POST", path, body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = self._conn.getresponse()
                body = json.loads(response.read().decode("utf-8"))
                return response.status, body
            except (http.client.HTTPException, OSError, ValueError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


def replay(
    url: str,
    requests: Sequence[Dict[str, Any]],
    threads: int = 8,
    timeout: float = 60.0,
) -> List[ReplayOutcome]:
    """POST every request document from ``threads`` client threads.

    Requests are fed through a shared queue — arrival order is the
    sequence order, completion order is whatever concurrency yields.
    Transport failures become status ``599`` outcomes rather than
    exceptions so one flaky socket doesn't void a load run.
    """
    if threads < 1:
        raise ExecutionError(f"threads must be >= 1, got {threads}")
    work: "queue.Queue" = queue.Queue()
    for index, request in enumerate(requests):
        work.put((index, request))
    outcomes: List[Optional[ReplayOutcome]] = [None] * len(requests)

    def worker() -> None:
        connection = _Connection(url, timeout)
        try:
            while True:
                try:
                    index, request = work.get_nowait()
                except queue.Empty:
                    return
                start = time.perf_counter()
                try:
                    status, body = connection.post("/query", request)
                except Exception as exc:
                    status, body = 599, {
                        "code": "transport",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                outcomes[index] = ReplayOutcome(
                    index=index,
                    request=request,
                    status=status,
                    body=body,
                    latency_seconds=time.perf_counter() - start,
                )
        finally:
            connection.close()

    pool = [
        threading.Thread(target=worker, name=f"replay-{i}", daemon=True)
        for i in range(min(threads, max(len(requests), 1)))
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]


def _percentile(latencies: List[float], fraction: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def summarize(
    outcomes: Sequence[ReplayOutcome], wall_seconds: float
) -> ReplayReport:
    """Fold raw outcomes into the benchmark-facing report."""
    latencies = [o.latency_seconds for o in outcomes]
    n_ok = n_rejected = n_shed = n_errors = n_partial = dedup = 0
    widths: Dict[int, int] = {}
    sources: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status == 200:
            n_ok += 1
            serving = outcome.body.get("serving", {})
            if serving.get("dedup"):
                dedup += 1
            width = int(serving.get("coalesced_width", 1))
            widths[width] = widths.get(width, 0) + 1
            source = serving.get("source", "unknown")
            sources[source] = sources.get(source, 0) + 1
            if outcome.body.get("answer", {}).get("status") == "partial":
                n_partial += 1
        elif outcome.status == 503:
            n_shed += 1
        elif 400 <= outcome.status < 500:
            n_rejected += 1
        else:
            n_errors += 1
    return ReplayReport(
        n_requests=len(outcomes),
        n_ok=n_ok,
        n_rejected=n_rejected,
        n_shed=n_shed,
        n_errors=n_errors,
        n_partial=n_partial,
        wall_seconds=wall_seconds,
        qps=(len(outcomes) / wall_seconds) if wall_seconds > 0 else 0.0,
        p50=_percentile(latencies, 0.50),
        p95=_percentile(latencies, 0.95),
        p99=_percentile(latencies, 0.99),
        dedup_responses=dedup,
        coalesce_max_width=max(widths, default=1),
        coalesce_widths=widths,
        sources=sources,
    )


def verify_cold(
    outcomes: Sequence[ReplayOutcome],
    db,
    domains: Dict[str, Any],
    default_minsup: float = 0.02,
) -> Dict[str, Any]:
    """Ground-truth every served answer against a cold re-execution.

    Each unique (query text, options) pair with at least one complete
    200 response is parsed and executed once on a bare
    ``CFQOptimizer`` — no service, no caches, no concurrency — and its
    :func:`~repro.serve.server.answer_document` (JSON-normalized, so
    tuple/list and float spellings match the wire form) must equal every
    served ``answer`` bearing that pair.  Partial servings are checked
    for *status honesty* only (they self-identify; their truncated
    answer legitimately differs from the complete cold one).
    """
    groups: Dict[str, List[ReplayOutcome]] = {}
    for outcome in outcomes:
        if outcome.status != 200:
            continue
        request = outcome.request
        signature = json.dumps(
            {
                "query": request.get("query"),
                "minsup": request.get("minsup", default_minsup),
                "options": request.get("options") or {},
            },
            sort_keys=True,
        )
        groups.setdefault(signature, []).append(outcome)

    mismatches: List[Dict[str, Any]] = []
    checked = 0
    for signature, members in groups.items():
        spec = json.loads(signature)
        complete = [
            m for m in members
            if m.body["answer"].get("status") == "complete"
        ]
        if not complete:
            continue
        cfq = parse_cfq(
            spec["query"], domains, default_minsup=float(spec["minsup"])
        )
        cold = CFQOptimizer(cfq).execute(db, **spec["options"])
        oracle = json.loads(json.dumps(answer_document(cold)))
        for member in complete:
            checked += 1
            if member.body["answer"] != oracle:
                mismatches.append(
                    {
                        "index": member.index,
                        "query": spec["query"],
                        "served_counters": member.body["answer"].get("counters"),
                        "cold_counters": oracle.get("counters"),
                    }
                )
    return {
        "checked": checked,
        "unique_queries": len(groups),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def session_requests(
    workload,
    n_requests: int,
    tenants: Sequence[str] = ("alice", "bob", "carol"),
    steps: int = 4,
    relax: float = 0.5,
    min_step: int = 0,
) -> List[Dict[str, Any]]:
    """The benchmark workload: interleaved refinement sessions.

    Cycles ``n_requests`` requests over a ``steps``-query refinement
    session (see :func:`repro.datagen.workloads.refinement_queries`)
    and the tenant ring — many tenants concurrently asking overlapping
    session queries, which is exactly the shape single-flight dedup and
    dataset coalescing are built for.

    ``min_step`` drops the session's first (broadest) queries: step 0
    applies one constraint at the most relaxed threshold and its answer
    can run to megabytes of pairs, which measures payload shuffling
    rather than serving — load runs typically start at step 1.
    """
    from repro.datagen.workloads import refinement_queries

    session = refinement_queries(workload, steps=steps, relax=relax)[min_step:]
    if not session:
        raise ExecutionError(
            f"min_step {min_step} leaves no queries of a {steps}-step session"
        )
    texts = [query_text(cfq) for cfq in session]
    return [
        {
            "query": texts[i % len(texts)],
            "tenant": tenants[i % len(tenants)],
        }
        for i in range(n_requests)
    ]
