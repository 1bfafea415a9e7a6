"""A bounded, rotating JSONL event journal for serving lifecycle events.

Metrics aggregate (how many evictions?); the journal narrates (*which*
entry was evicted, when, at what age, displaced by what).  The serving
layer (:mod:`repro.serve.telemetry`) records one event per lifecycle
transition — result/skeleton hit, miss, store, evict, TTL-expiry, disk
sweep, delta refresh, guard trip — and the journal keeps a bounded
in-memory window plus an optional on-disk JSONL file with size-based
rotation, so a long-lived service never grows without bound.

Journal I/O is **never fatal to the host service**: a failed append or
rotation (disk full, permissions, a yanked volume) is counted
(``io_errors`` / ``rotation_failures``), the disk file is abandoned
(``degraded``), and the bounded in-memory window keeps recording — the
journal narrates degradations, so it must be the last thing to crash a
serve.  Rotation is atomic-or-abandoned: a failure mid-shift leaves at
worst a gap in the generation chain (``.2`` without ``.1``), never a
torn or misnumbered file, and the live file keeps appending.

Each event is one JSON object per line:

``{"seq": 17, "ts": 123.456, "kind": "result_evict", ...fields}``

* ``seq`` — monotonic sequence number, never reused across rotation,
  so a reader can detect gaps (events dropped by the memory window)
  and order events without trusting the clock;
* ``ts`` — seconds from the journal's clock (``time.monotonic`` by
  default: durable ordering matters more than wall-clock labels);
* ``kind`` — one of :data:`EVENT_KINDS`;
* remaining keys are event-specific (fingerprints, ages, byte sizes).

The journal is deliberately dependency-free and synchronous — one
``dict`` build plus one ``json.dumps`` per event — because it sits on
the serving hot path's *slow* branches only (misses, stores, evicts);
steady-state warm hits record a single event too, which the overhead
benchmark keeps inside the serving layer's existing budget.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.runtime import faults

#: The serving lifecycle vocabulary.  ``record()`` accepts only these —
#: a typo'd kind raises immediately instead of polluting the journal.
EVENT_KINDS = frozenset(
    {
        "result_hit",
        "result_miss",
        "result_store",
        "result_evict",
        "result_expire",
        "result_invalidate",
        "skeleton_hit",
        "skeleton_miss",
        "skeleton_store",
        "skeleton_evict",
        "skeleton_expire",
        "skeleton_invalidate",
        "disk_sweep",
        "delta_refresh",
        "guard_trip",
        "batch_execute",
        "service_clear",
        # fault-tolerance narration (docs/fault-tolerance.md)
        "disk_error",
        "disk_retry",
        "disk_degraded",
        "disk_recovered",
        "result_quarantine",
        "refresh_fallback",
        "checkpoint_degraded",
        # query-server narration (docs/server.md)
        "server_admit",
        "server_reject",
        "server_shed",
        "server_coalesce",
        "flight_dedup",
    }
)

#: Default bounded-memory window (events kept for `tail()`/snapshots).
DEFAULT_MAX_EVENTS = 1024

#: Default per-file rotation threshold for the on-disk journal.
DEFAULT_MAX_BYTES = 1 << 20  # 1 MiB

#: Rotated generations kept on disk (journal.jsonl.1 … .N).
DEFAULT_MAX_FILES = 3


class EventJournal:
    """Bounded in-memory + rotating on-disk serving event journal.

    Parameters
    ----------
    path:
        Optional JSONL file.  When set, every event is appended (and
        flushed) there; when the file exceeds ``max_bytes`` it rotates
        to ``<path>.1`` (existing generations shift up, the oldest
        beyond ``max_files`` is deleted).  When ``None`` the journal is
        memory-only.
    max_events:
        In-memory window size — ``tail()`` and ``snapshot()`` see at
        most this many recent events.  Sequence numbers keep counting
        past it, so drops are detectable.
    clock:
        Timestamp source; defaults to ``time.monotonic`` to match the
        serving layer's cache clocks.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.path = path
        self.max_events = max_events
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.clock = clock
        self.seq = 0
        self.dropped = 0
        self.rotations = 0
        #: Failed disk appends/opens (the events still land in memory).
        self.io_errors = 0
        #: Rotations that were abandoned mid-shift.
        self.rotation_failures = 0
        self._events: Deque[Dict[str, Any]] = deque(maxlen=max_events)
        self._file: Optional[io.TextIOBase] = None
        self._file_bytes = 0
        self._closed = False
        # One journal is shared by every server worker thread; ``seq``
        # is a non-atomic increment and interleaved appends would tear
        # the JSONL file, so recording and window reads are serialized.
        # Leaf lock in the docs/server.md order: record() calls nothing
        # that takes another lock.
        self._lock = threading.Lock()
        if path is not None:
            try:
                directory = os.path.dirname(path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._open()
            except OSError:
                # An unwritable journal location degrades to memory-only
                # instead of killing the service being instrumented.
                self.io_errors += 1
                self._file = None

    @property
    def degraded(self) -> bool:
        """Whether a disk journal was requested but has been abandoned
        because of I/O failures (an explicit :meth:`close` is not a
        degradation)."""
        return (
            self.path is not None
            and self._file is None
            and not self._closed
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the event dict (with seq/ts/kind)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{sorted(EVENT_KINDS)}"
            )
        with self._lock:
            self.seq += 1
            event: Dict[str, Any] = {
                "seq": self.seq,
                "ts": round(self.clock(), 6),
                "kind": kind,
            }
            event.update(fields)
            if len(self._events) == self.max_events:
                self.dropped += 1
            self._events.append(event)
            if self._file is not None:
                try:
                    faults.fire("journal.write")
                    line = json.dumps(event, sort_keys=False, default=str)
                    self._file.write(line + "\n")
                    self._file.flush()
                    self._file_bytes += len(line) + 1
                except (OSError, ValueError):
                    # A failed append (disk full, revoked handle)
                    # abandons the disk file; the memory window above
                    # already has the event, and the host service must
                    # never see the error.
                    self.io_errors += 1
                    self._abandon()
                    return event
                if self._file_bytes >= self.max_bytes:
                    self._rotate()
            return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` events (all windowed events if None)."""
        with self._lock:
            events = list(self._events)
        if n is not None:
            events = events[-n:]
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterable[Dict[str, Any]]:
        with self._lock:
            return iter(list(self._events))

    def counts(self) -> Dict[str, int]:
        """Event counts per kind over the in-memory window."""
        out: Dict[str, int] = {}
        for event in self.tail():
            out[event["kind"]] = out.get(event["kind"], 0) + 1
        return dict(sorted(out.items()))

    def snapshot(self) -> Dict[str, Any]:
        """Serializable journal summary for telemetry snapshots."""
        return {
            "seq": self.seq,
            "dropped": self.dropped,
            "rotations": self.rotations,
            "io_errors": self.io_errors,
            "rotation_failures": self.rotation_failures,
            "degraded": self.degraded,
            "path": self.path,
            "counts": self.counts(),
            "events": self.tail(),
        }

    # ------------------------------------------------------------------
    # Disk management
    # ------------------------------------------------------------------
    def _open(self) -> None:
        assert self.path is not None
        faults.fire("journal.open")
        self._file = open(self.path, "a", encoding="utf-8")
        self._file_bytes = self._file.tell()

    def _abandon(self) -> None:
        """Give up on the disk file (memory recording continues)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    def _rotate(self) -> None:
        """Shift generations up: journal → .1 → .2 … drop beyond max.

        Atomic-or-abandoned: every move is an ``os.replace`` (atomic on
        POSIX), and any failure abandons the *rotation* — never the
        journal.  A partial shift can leave a numbering gap (``.3``
        moved before ``.2`` failed), which readers already tolerate;
        the live file is then reopened (or recreated) and appending
        continues.  Only if that reopen also fails does the journal
        degrade to memory-only.
        """
        assert self.path is not None and self._file is not None
        self._file.close()
        self._file = None
        try:
            faults.fire("journal.rotate")
            oldest = f"{self.path}.{self.max_files}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for generation in range(self.max_files - 1, 0, -1):
                src = f"{self.path}.{generation}"
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{generation + 1}")
            os.replace(self.path, f"{self.path}.1")
            self.rotations += 1
        except OSError:
            self.rotation_failures += 1
        try:
            self._open()
        except OSError:
            self.io_errors += 1
            self._file = None

    def close(self) -> None:
        """Close the on-disk file (memory window stays readable)."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL journal file back into event dicts (skips blank
    lines; raises on malformed JSON so corruption is loud)."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class _NullJournal:
    """Inert journal for telemetry-disabled services."""

    path = None
    seq = 0
    dropped = 0
    rotations = 0
    io_errors = 0
    rotation_failures = 0
    degraded = False

    def record(self, kind: str, **fields: Any) -> None:
        return None

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def counts(self) -> Dict[str, int]:
        return {}

    def snapshot(self) -> Dict[str, Any]:
        return {
            "seq": 0,
            "dropped": 0,
            "rotations": 0,
            "io_errors": 0,
            "rotation_failures": 0,
            "degraded": False,
            "path": None,
            "counts": {},
            "events": [],
        }

    def close(self) -> None:
        return None


NULL_JOURNAL = _NullJournal()
