"""Instrumentation counters for the ccc cost model.

The paper's notion of ccc-optimality (Definition 6) is defined over two
fundamental operations:

* **support counting** — the number of candidate sets whose support is
  counted, and
* **constraint checking** — the number of invocations of the constraint
  checking operation, split by whether the checked set is a singleton
  (condition (2) permits checks only on sets of size 1).

:class:`OpCounters` records both, plus the I/O-side quantities the
Section 5.2 dovetailing discussion cares about (database scans and tuples
read).  Every mining strategy in :mod:`repro.mining` threads a single
:class:`OpCounters` through its run so strategies can be compared on a
deterministic, machine-independent cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass
class ScanStats:
    """Scan-level I/O statistics for a transaction database."""

    scans: int = 0
    tuples_read: int = 0

    def record_scan(self, tuples: int) -> None:
        """Record one full pass over ``tuples`` transactions."""
        self.scans += 1
        self.tuples_read += tuples

    def merged(self, other: "ScanStats") -> "ScanStats":
        """Return the sum of two scan statistics."""
        return ScanStats(self.scans + other.scans, self.tuples_read + other.tuples_read)


@dataclass
class OpCounters:
    """Operation counts underlying the ccc cost model.

    Attributes
    ----------
    support_counted:
        Number of candidate sets whose support was counted, per variable
        name and level: ``{("S", 2): 153, ...}``.
    constraint_checks_singleton / constraint_checks_larger:
        Constraint-checking invocations on singletons vs larger sets.
        Condition (2) of Definition 6 allows only the former during the
        lattice computation.
    subset_tests:
        Fine-grained counting work: number of (candidate, transaction)
        containment tests performed — the dominant CPU term, standing in
        for the paper's CPU time.
    scans / tuples_read:
        Database passes and transactions touched, standing in for I/O.
    pair_checks:
        Constraint checks performed while forming final (S, T) pairs; the
        paper treats pair formation as a separate, cheap phase, so these
        are tracked apart from lattice-time checks.
    """

    support_counted: Dict[Tuple[str, int], int] = field(default_factory=dict)
    constraint_checks_singleton: int = 0
    constraint_checks_larger: int = 0
    subset_tests: int = 0
    scans: int = 0
    tuples_read: int = 0
    pair_checks: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_counted(self, var: str, level: int, n_sets: int) -> None:
        """Record that ``n_sets`` candidates of size ``level`` for variable
        ``var`` had their support counted."""
        key = (var, level)
        self.support_counted[key] = self.support_counted.get(key, 0) + n_sets

    def record_check(self, set_size: int, n_checks: int = 1) -> None:
        """Record constraint-check invocations on sets of ``set_size``."""
        if set_size <= 1:
            self.constraint_checks_singleton += n_checks
        else:
            self.constraint_checks_larger += n_checks

    def record_scan(self, tuples: int) -> None:
        """Record one database pass touching ``tuples`` transactions."""
        self.scans += 1
        self.tuples_read += tuples

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def total_counted(self) -> int:
        """Total number of sets counted for support, all variables/levels."""
        return sum(self.support_counted.values())

    @property
    def total_checks(self) -> int:
        """Total lattice-time constraint-check invocations."""
        return self.constraint_checks_singleton + self.constraint_checks_larger

    def counted_for(self, var: str) -> int:
        """Total sets counted for one variable."""
        return sum(n for (v, __), n in self.support_counted.items() if v == var)

    def counted_by_level(self, var: str) -> Dict[int, int]:
        """Per-level counted-set totals for one variable."""
        return {
            level: n
            for (v, level), n in sorted(self.support_counted.items())
            if v == var
        }

    def cost(self, weights: "CostWeights" = None) -> float:
        """Scalar cost under the (weighted) ccc cost model.

        The default weights make support-counting work (subset tests) the
        dominant term with I/O next, mirroring the paper's "CPU + I/O"
        total; constraint checks are cheap but non-free.
        """
        w = weights or CostWeights()
        return (
            w.subset_test * self.subset_tests
            + w.counted_set * self.total_counted
            + w.check * (self.total_checks + self.pair_checks)
            + w.tuple_read * self.tuples_read
        )

    def merged(self, other: "OpCounters") -> "OpCounters":
        """Return the element-wise sum of two counter sets."""
        merged = OpCounters(
            support_counted=dict(self.support_counted),
            constraint_checks_singleton=self.constraint_checks_singleton
            + other.constraint_checks_singleton,
            constraint_checks_larger=self.constraint_checks_larger
            + other.constraint_checks_larger,
            subset_tests=self.subset_tests + other.subset_tests,
            scans=self.scans + other.scans,
            tuples_read=self.tuples_read + other.tuples_read,
            pair_checks=self.pair_checks + other.pair_checks,
        )
        for key, n in other.support_counted.items():
            merged.support_counted[key] = merged.support_counted.get(key, 0) + n
        return merged

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "sets_counted": self.total_counted,
            "constraint_checks_singleton": self.constraint_checks_singleton,
            "constraint_checks_larger": self.constraint_checks_larger,
            "subset_tests": self.subset_tests,
            "scans": self.scans,
            "tuples_read": self.tuples_read,
            "pair_checks": self.pair_checks,
            "cost": self.cost(),
        }

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Lossless JSON-serializable copy of every counter.

        Unlike :meth:`as_dict` (a reporting summary), this preserves the
        full per-``(var, level)`` ledger — including its insertion order,
        which :meth:`restore` reproduces — so a checkpointed run's
        counters can be reconstructed bit-identically on resume.
        """
        return {
            "support_counted": [
                [var, level, n] for (var, level), n in self.support_counted.items()
            ],
            "constraint_checks_singleton": self.constraint_checks_singleton,
            "constraint_checks_larger": self.constraint_checks_larger,
            "subset_tests": self.subset_tests,
            "scans": self.scans,
            "tuples_read": self.tuples_read,
            "pair_checks": self.pair_checks,
        }

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Overwrite every counter in place from a :meth:`snapshot`.

        In-place so the instance already threaded through the lattices
        snaps to the checkpointed state without re-wiring.
        """
        self.support_counted.clear()
        for var, level, n in snapshot["support_counted"]:
            self.support_counted[(var, int(level))] = int(n)
        self.constraint_checks_singleton = int(
            snapshot["constraint_checks_singleton"]
        )
        self.constraint_checks_larger = int(snapshot["constraint_checks_larger"])
        self.subset_tests = int(snapshot["subset_tests"])
        self.scans = int(snapshot["scans"])
        self.tuples_read = int(snapshot["tuples_read"])
        self.pair_checks = int(snapshot["pair_checks"])

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "OpCounters":
        """A fresh instance equal to the snapshotted one."""
        counters = cls()
        counters.restore(snapshot)
        return counters


@dataclass
class CacheStats:
    """Hit/miss accounting for the serving layer's fingerprinted caches.

    One instance is shared by a :class:`~repro.serve.QueryService`'s
    result cache and skeleton cache, so a single snapshot describes the
    whole service: how often full results were served from cache
    (``hits``/``misses``), how entries left (``evictions`` by LRU
    pressure, ``expirations`` by TTL, ``invalidations`` explicitly), how
    the frequency-skeleton tier fared, and how many payload bytes the
    caches currently hold.  ``as_dict`` feeds the run report's ``cache``
    block and ``--explain`` output.

    **Thread safety.**  One stats object is written by every serving
    thread of the concurrent query server, and ``count += 1`` is a
    non-atomic read-modify-write in CPython — two racing threads can
    lose an increment.  Every mutation therefore goes through
    :meth:`bump` (or a ``record_*`` helper built on it), which holds the
    instance lock.  The lock is **innermost** in the serving lock order
    (see ``docs/server.md``): code holding it never calls out, so it can
    be taken while a cache-tier lock is held.  Reads of individual
    fields stay lock-free (a torn multi-field snapshot is acceptable for
    monitoring output; individual int reads are atomic under the GIL).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    skeleton_hits: int = 0
    skeleton_misses: int = 0
    skeleton_builds: int = 0
    #: skeletons migrated across a dataset delta instead of rebuilt
    skeleton_refreshes: int = 0
    bytes_held: int = 0
    #: disk-tier I/O failures absorbed by the degradation ladder
    disk_errors: int = 0
    #: failed disk attempts that a retry followed; an operation whose
    #: retries all fail also counts one ``disk_errors``, one whose retry
    #: succeeds counts only here
    disk_retries: int = 0
    #: corrupt disk artifacts renamed aside (never re-read)
    quarantined: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, name: str, delta: int = 1) -> None:
        """Atomically add ``delta`` to one counter field by name."""
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    def record_hit(self) -> None:
        self.bump("hits")

    def record_miss(self) -> None:
        self.bump("misses")

    def record_disk_promotion(self) -> None:
        """A disk-tier hit after a memory miss: the memory probe above it
        was metered as a miss, so convert it into a hit atomically."""
        with self._lock:
            self.hits += 1
            self.misses -= 1

    def record_store(self, nbytes: int) -> None:
        with self._lock:
            self.stores += 1
            self.bytes_held += nbytes

    def record_eviction(self, nbytes: int, expired: bool = False) -> None:
        with self._lock:
            if expired:
                self.expirations += 1
            else:
                self.evictions += 1
            self.bytes_held -= nbytes

    def record_invalidation(self, nbytes: int) -> None:
        with self._lock:
            self.invalidations += 1
            self.bytes_held -= nbytes

    @property
    def hit_rate(self) -> float:
        """Fraction of result lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat summary suitable for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "skeleton_hits": self.skeleton_hits,
            "skeleton_misses": self.skeleton_misses,
            "skeleton_builds": self.skeleton_builds,
            "skeleton_refreshes": self.skeleton_refreshes,
            "bytes_held": self.bytes_held,
            "disk_errors": self.disk_errors,
            "disk_retries": self.disk_retries,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, float]) -> "CacheStats":
        """Rebuild from an :meth:`as_dict` snapshot (the derived
        ``hit_rate`` key is ignored; unknown keys are too, so newer
        snapshots stay readable)."""
        stats = cls()
        for name in (
            "hits",
            "misses",
            "stores",
            "evictions",
            "expirations",
            "invalidations",
            "skeleton_hits",
            "skeleton_misses",
            "skeleton_builds",
            "skeleton_refreshes",
            "bytes_held",
            "disk_errors",
            "disk_retries",
            "quarantined",
        ):
            if name in document:
                setattr(stats, name, int(document[name]))
        return stats

    def summary(self) -> str:
        """One-line rendering for CLI ``--explain`` output."""
        d = self.as_dict()
        text = (
            f"{d['hits']} hit(s), {d['misses']} miss(es) "
            f"(rate {d['hit_rate']:.0%}), {d['stores']} store(s), "
            f"{d['bytes_held']} bytes held"
        )
        if d["evictions"] or d["expirations"] or d["invalidations"]:
            text += (
                f"; {d['evictions']} evicted, {d['expirations']} expired, "
                f"{d['invalidations']} invalidated"
            )
        if d["skeleton_builds"] or d["skeleton_hits"] or d["skeleton_misses"]:
            text += (
                f"; skeleton: {d['skeleton_builds']} build(s), "
                f"{d['skeleton_hits']} hit(s), {d['skeleton_misses']} miss(es)"
            )
            if d["skeleton_refreshes"]:
                text += f", {d['skeleton_refreshes']} refresh(es)"
        if d["disk_errors"] or d["disk_retries"] or d["quarantined"]:
            text += (
                f"; disk: {d['disk_errors']} error(s), "
                f"{d['disk_retries']} retried, "
                f"{d['quarantined']} quarantined"
            )
        return text


@dataclass(frozen=True)
class CostWeights:
    """Weights for collapsing :class:`OpCounters` into a scalar cost."""

    subset_test: float = 1.0
    counted_set: float = 5.0
    check: float = 1.0
    tuple_read: float = 0.5
