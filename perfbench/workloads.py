"""The three workloads: set-up, closed-loop timed phase, answer check.

Each workload class has the same four steps:

* ``setup(seed)`` builds the inputs and the program state the timed phase
  runs against (dataset generation, service or server start, warm-up);
* ``measure(state, seconds, recorder)`` runs the closed loop for
  ``seconds`` and returns a :class:`Phase`; a ``recorder`` is passed only
  on the traced run, which marks each operation with a new request id;
* ``check(state, phase, memo)`` compares the phase's answers against
  reference runs, outside the timed region, and returns
  ``(checked, mismatches)``; ``memo`` holds reference answers across the
  two phases of a traced run;
* ``teardown(state)`` stops whatever ``setup`` started.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.cfq_parser import parse_cfq
from repro.core.optimizer import CFQOptimizer
from repro.serve.fingerprint import dataset_fingerprint
from repro.serve.replay import query_text
from repro.serve.server import QueryServer, answer_document, start_server
from repro.serve.service import QueryService

import inputs
from client import Connection, closed_loop

#: Client connections or threads never exceed the machine's cores.
CONNECTIONS = min(2, os.cpu_count() or 1)

now = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """What one timed phase did."""

    ops: int
    elapsed: float
    query_latencies: List[float]
    rss_mb: float
    #: Wall time of each write batch (churn-rw only).
    delta_latencies: List[float] = field(default_factory=list)
    #: Wall time of each operation, in the order sent: two phases over the
    #: same inputs compare their common prefix to measure tracing cost.
    op_latencies: List[float] = field(default_factory=list)
    failures: int = 0
    #: Answers kept for the check (format is the workload's own).
    kept: Any = None
    #: Raw inputs of per-layer metrics that do not come from spans.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed


def write_batch(db, step: int, rng: random.Random, pool, size: int):
    """One write batch: even steps append ``size`` transactions from
    ``pool``, odd steps delete ``size`` random transactions."""
    if step % 2 == 0:
        start = (step // 2 * size) % max(len(pool) - size, 1)
        return db.append(pool[start:start + size])
    return db.delete(rng.sample(range(len(db)), size))


def _cache_counts(service: QueryService) -> Dict[str, int]:
    stats = service.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "skeleton_hits": stats.skeleton_hits,
        "skeleton_misses": stats.skeleton_misses,
        "evictions": stats.evictions,
    }


def _cache_extras(service: QueryService, before: Dict[str, int]) -> Dict[str, Any]:
    after = _cache_counts(service)
    diff = {name: after[name] - before[name] for name in after}
    diff["bytes_held"] = service.stats.bytes_held
    return {"cache": diff}


def _size_summary(sizes: List[int]) -> Dict[str, int]:
    if not sizes:
        return {"n": 0}
    ordered = sorted(sizes)
    return {
        "n": len(ordered),
        "p50": ordered[len(ordered) // 2],
        "p90": ordered[int(0.9 * (len(ordered) - 1))],
        "max": ordered[-1],
    }


# ----------------------------------------------------------------------
# mine-cold
# ----------------------------------------------------------------------
def _canonical(result, pairs) -> Tuple:
    """Pairs plus the supports of every set in them."""
    s_var, t_var = result.cfq.variables
    s_sets, t_sets = result.frequent_valid(s_var), result.frequent_valid(t_var)
    return (
        sorted(pairs),
        sorted((s, s_sets[s]) for s in {s for s, _ in pairs}),
        sorted((t, t_sets[t]) for t in {t for _, t in pairs}),
    )


class MineCold:
    """One caller mining distinct CFQs cold, with no serving layer."""

    name = "mine-cold"
    #: Indices of the first query of each family, checked against a
    #: reference run.
    checked = frozenset(inputs.MINE_BLOCK.index(family) for family in inputs.MINE_BLOCK)

    def setup(self, seed: int):
        return {"queries": inputs.mine_cold_inputs(seed)}

    def teardown(self, state) -> None:
        pass

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        queries = state["queries"]
        latencies: List[float] = []
        pair_counts: List[int] = []
        kept: Dict[int, Tuple] = {}
        index = 0
        start = now()
        deadline = start + seconds
        while now() < deadline:
            query = queries[index % len(queries)]
            if recorder is not None:
                recorder.new_request()
            t0 = now()
            result = CFQOptimizer(query.cfq).execute(query.db)
            pairs = result.pairs()
            latencies.append(now() - t0)
            pair_counts.append(len(pairs))
            if index in self.checked:
                kept[index] = (result, pairs)
            index += 1
        elapsed = now() - start
        return Phase(
            ops=index, elapsed=elapsed, query_latencies=latencies,
            rss_mb=peak_rss_mb(), op_latencies=latencies, kept=kept,
            extras={
                "distinct_queries": min(index, len(queries)),
                "pairs_per_answer": _size_summary(pair_counts),
            },
        )

    def check(self, state, phase: Phase, memo: Dict) -> Tuple[int, int]:
        """Pairs and their sets' supports against the optimizer run with
        reduction, J^k_max pruning and dovetailing all off (apriori_plus
        gives the same answer but is slower at 20k transactions)."""
        mismatches = 0
        for index, (result, pairs) in phase.kept.items():
            if index not in memo:
                query = state["queries"][index]
                reference = CFQOptimizer(query.cfq).execute(
                    query.db, use_reduction=False, use_jmax=False, dovetail=False
                )
                memo[index] = _canonical(reference, reference.pairs())
            if _canonical(result, pairs) != memo[index]:
                mismatches += 1
        return len(phase.kept), mismatches


# ----------------------------------------------------------------------
# serve-sessions
# ----------------------------------------------------------------------
class ServeSessions:
    """Two persistent connections replaying Zipf-skewed tenant sessions
    against the in-process HTTP server in its default configuration."""

    name = "serve-sessions"

    def setup(self, seed: int):
        data = inputs.serve_sessions_inputs(seed)
        service = QueryService(telemetry=True)
        core = QueryServer(service, data.db, data.domains)
        handle = start_server(core)
        state = {"inputs": data, "service": service, "core": core, "handle": handle}
        # Warm-up: one health check proves the server answers.  No query
        # is sent, so the timed phase starts from empty caches and its
        # first queries run cold.
        connection = Connection(handle.host, handle.port)
        try:
            status = connection.get("/healthz")
        finally:
            connection.close()
        if status != 200:
            self.teardown(state)
            raise RuntimeError(f"health check failed with status {status}")
        return state

    def teardown(self, state) -> None:
        state["handle"].shutdown()

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        data, service = state["inputs"], state["service"]
        handle = state["handle"]
        before = _cache_counts(service)
        start = now()
        outcomes = closed_loop(
            handle.host, handle.port, data.requests, CONNECTIONS, seconds
        )
        elapsed = now() - start
        rss = peak_rss_mb()
        extras = _cache_extras(service, before)

        ok = [o for o in outcomes if o.status == 200 and o.digest is not None]
        paths = Counter(o.serving.get("path") for o in ok)
        sources = Counter(o.serving.get("source") for o in ok)
        widths = [o.serving.get("coalesced_width", 1) for o in ok
                  if o.serving.get("path") == "coalesced"]
        texts = [data.requests[o.index % len(data.requests)]["query"] for o in outcomes]
        sizes = {}
        for outcome, text in zip(outcomes, texts):
            if outcome.digest is not None:
                sizes[text] = outcome.nbytes
        extras.update({
            "responses": len(ok),
            "paths": dict(paths),
            "sources": dict(sources),
            "dedup": sum(1 for o in ok if o.serving.get("dedup")),
            "coalesce_widths": widths,
            "shed": sum(1 for o in outcomes if o.status == 503),
            "rejected": sum(1 for o in outcomes if 400 <= o.status < 500),
            "response_bytes": [o.nbytes for o in ok],
            "latency_mean": sum(o.latency_s for o in outcomes) / max(len(outcomes), 1),
            "distinct_queries": len(set(texts)),
            "cache_capacities": inputs.default_capacities(),
            "answer_bytes_per_query": _size_summary(list(sizes.values())),
        })
        return Phase(
            ops=len(outcomes), elapsed=elapsed,
            query_latencies=[o.latency_s for o in outcomes], rss_mb=rss,
            op_latencies=[o.latency_s for o in outcomes],
            failures=len(outcomes) - len(ok),
            kept=list(zip(texts, outcomes)), extras=extras,
        )

    def check(self, state, phase: Phase, memo: Dict) -> Tuple[int, int]:
        """Every served answer's digest against a cold run of its query."""
        data, core = state["inputs"], state["core"]
        checked = mismatches = 0
        for text, outcome in phase.kept:
            if outcome.digest is None:
                continue
            if text not in memo:
                cfq = parse_cfq(text, data.domains, default_minsup=core.default_minsup)
                cold = CFQOptimizer(cfq).execute(data.db)
                answer = json.dumps(answer_document(cold)).encode("utf-8")
                memo[text] = hashlib.sha256(answer).hexdigest()
            checked += 1
            if outcome.digest != memo[text]:
                mismatches += 1
        return checked, mismatches


# ----------------------------------------------------------------------
# churn-rw
# ----------------------------------------------------------------------
class ChurnRW:
    """Write batches interleaved with refinement-session reads on one
    in-process service."""

    name = "churn-rw"
    #: Single-query re-reads after each session batch.
    rereads = 2

    def setup(self, seed: int):
        data = inputs.churn_inputs(seed)
        service = QueryService()
        # Warm-up: build the skeleton every later write refreshes, at the
        # weakest threshold any session needs, so its size does not depend
        # on which session the seed puts first.
        service.prepare(data.db, [cfq for session in data.sessions for cfq in session])
        return {"inputs": data, "service": service,
                "sessions": itertools.cycle(data.sessions)}

    def teardown(self, state) -> None:
        pass

    def measure(self, state, seconds: float, recorder=None) -> Phase:
        data, service = state["inputs"], state["service"]
        rng, db = data.rng, data.db
        queries: List[float] = []
        deltas: List[float] = []
        refreshed: List[int] = []
        # Reads to check, as (writes applied before it, query, answer); the
        # check replays the writes instead of keeping every database
        # version alive, which would inflate peak_rss_mb.
        kept: List[Tuple] = []
        writes = []
        op_latencies: List[float] = []
        distinct = set()
        before = _cache_counts(service)
        ops = step = 0
        start = now()
        deadline = start + seconds
        while now() < deadline:
            if recorder is not None:
                recorder.new_request()
            t0 = now()
            db, delta = write_batch(db, step, rng, data.fresh, inputs.CHURN_BATCH)
            report = service.apply_delta(db, delta)
            deltas.append(now() - t0)
            writes.append(delta)
            op_latencies.append(deltas[-1])
            refreshed.append(report.skeletons_refreshed)
            step += 1

            session = next(state["sessions"])
            if recorder is not None:
                recorder.new_request()
            t0 = now()
            batch = service.execute_batch(db, session)
            documents = [answer_document(result) for result in batch.results()]
            # Every query of the batch is answered when the batch returns.
            queries.extend([now() - t0] * len(session))
            op_latencies.append(queries[-1])
            reads = list(zip(session, documents))
            for cfq in rng.sample(session, self.rereads):
                if recorder is not None:
                    recorder.new_request()
                t0 = now()
                document = answer_document(service.execute(db, cfq))
                queries.append(now() - t0)
                op_latencies.append(queries[-1])
                reads.append((cfq, document))
            ops += 1 + len(reads)
            distinct.update(str(cfq) + repr(cfq.minsup) for cfq, _ in reads)
            kept.append((len(writes),) + rng.choice(reads))
        elapsed = now() - start
        rss = peak_rss_mb()
        extras = _cache_extras(service, before)
        extras.update({
            "distinct_queries": len(distinct),
            "cache_capacities": inputs.default_capacities(),
            "refreshes_per_delta_min": min(refreshed),
        })
        return Phase(
            ops=ops, elapsed=elapsed, query_latencies=queries,
            delta_latencies=deltas, rss_mb=rss, op_latencies=op_latencies,
            kept=(writes, kept), extras=extras,
        )

    def check(self, state, phase: Phase, memo: Dict) -> Tuple[int, int]:
        """After each write, one sampled read against a cold run on the
        database version it was answered on."""
        writes, reads = phase.kept
        db, applied = state["inputs"].db, 0
        mismatches = 0
        sizes = []
        for version, cfq, document in reads:
            for delta in writes[applied:version]:
                if delta.added:
                    db, _ = db.append(delta.added)
                else:
                    db, _ = db.delete(delta.removed_tids)
            applied = version
            key = (dataset_fingerprint(db), query_text(cfq))
            if key[0] != writes[version - 1].new_digest:
                raise RuntimeError("replayed writes did not reproduce the database")
            if key not in memo:
                memo[key] = answer_document(CFQOptimizer(cfq).execute(db))
            sizes.append(len(json.dumps(document)))
            if document != memo[key]:
                mismatches += 1
        phase.extras["answer_bytes_checked"] = _size_summary(sizes)
        return len(reads), mismatches


WORKLOADS = {cls.name: cls for cls in (MineCold, ServeSessions, ChurnRW)}
