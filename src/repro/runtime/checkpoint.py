"""Crash-safe checkpoint/resume for levelwise mining runs.

A long dovetailed run that dies at level 7 — OOM, SIGKILL, a tripped
:class:`~repro.runtime.guard.RunGuard` budget — should not have to pay
for levels 1–6 again.  After every completed level boundary the
:class:`~repro.mining.dovetail.DovetailEngine` hands its
:class:`CheckpointManager` a :class:`Checkpoint`, which is serialized as
versioned JSON via **atomic write-rename** (write to a temp file in the
same directory, ``fsync``, ``os.replace``), so a crash mid-write leaves
the previous checkpoint intact.

Resume by replay
----------------
The checkpoint deliberately stores *inputs*, not engine state: the exact
support mappings each counting pass returned (one ordered
:class:`CountEvent` per ``(variable, level)`` pass, level 1 included),
plus an :class:`~repro.db.stats.OpCounters` snapshot taken at the
boundary.  On ``--resume`` the engine re-executes its normal code path —
candidate generation, reduction, ``J^k_max`` series, pruning attribution
— but substitutes the stored supports for the database passes, then
overwrites its counters from the snapshot the moment the last stored
event is consumed.  Everything downstream of the supports is a
deterministic function of them (dicts and rank orders are rebuilt with
the same insertion order), so a resumed run is **bit-identical** to an
uninterrupted one: same frequent sets, same supports, same counters,
same bound histories.  Replay costs no database scans and no support
counting — only the (cheap) candidate regeneration.

Fingerprinting
--------------
A checkpoint binds to ``sha256(query text + dataset digest + the
plan-shaping engine options)``.  ``--resume`` against a different query,
dataset, or option set is refused with
:class:`~repro.errors.ExecutionError` — silently replaying supports
against the wrong inputs would produce confidently wrong answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.db.stats import OpCounters
from repro.errors import ExecutionError
from repro.obs.logs import get_logger
from repro.runtime import faults

logger = get_logger(__name__)

CHECKPOINT_SCHEMA = "repro.checkpoint"
CHECKPOINT_VERSION = 1
CHECKPOINT_FILENAME = "checkpoint.json"

Itemset = Tuple[int, ...]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
# The canonical transaction-content digest lives in :mod:`repro.db.digest`
# (it is shared with the churn layer's DatasetDelta, which sits below the
# runtime layer); re-exported here for the historical import path.
from repro.db.digest import dataset_digest, transactions_digest  # noqa: E402,F401


def checkpoint_integrity(document: Dict[str, Any]) -> str:
    """Content checksum of a checkpoint document (minus the checksum)."""
    payload = {k: v for k, v in document.items() if k != "integrity"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_fingerprint(query: str, db, options: Dict[str, Any]) -> str:
    """The identity a checkpoint binds to: query + data + plan options."""
    payload = json.dumps(
        {
            "query": query,
            "dataset": dataset_digest(db),
            "options": options,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Checkpoint document
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountEvent:
    """One counting pass: the supports a ``(var, level)`` pass produced.

    ``supports`` preserves the exact mapping (and its insertion order)
    the counting kernel returned — for level 1 the keys are singleton
    tuples wrapping the raw :func:`count_singletons` elements.
    ``candidates_in`` is the number of candidates that were counted;
    replay asserts the regenerated candidates match it, catching
    corrupt or mismatched checkpoints before they can corrupt answers.
    """

    var: str
    level: int
    candidates_in: int
    supports: Tuple[Tuple[Itemset, int], ...]

    def support_map(self) -> Dict[Itemset, int]:
        return {itemset: n for itemset, n in self.supports}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "var": self.var,
            "level": self.level,
            "candidates_in": self.candidates_in,
            "supports": [[list(itemset), n] for itemset, n in self.supports],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "CountEvent":
        return cls(
            var=document["var"],
            level=int(document["level"]),
            candidates_in=int(document["candidates_in"]),
            supports=tuple(
                (tuple(int(i) for i in itemset), int(n))
                for itemset, n in document["supports"]
            ),
        )


@dataclass(frozen=True)
class Checkpoint:
    """One completed-boundary snapshot of a mining run (see module doc).

    ``events`` is the ordered log of every counting pass completed so
    far; ``counters`` is the :meth:`OpCounters.snapshot` taken at the
    boundary; ``levels_completed`` maps each variable to its deepest
    fully absorbed level (reporting only — replay is driven by
    ``events``).
    """

    fingerprint: str
    events: Tuple[CountEvent, ...]
    counters: Dict[str, Any]
    levels_completed: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "levels_completed": dict(self.levels_completed),
            "events": [event.as_dict() for event in self.events],
            "counters": self.counters,
        }
        # Content checksum over everything else: a bit-flip that happens
        # to keep the JSON parseable (a digit in a support count!) must
        # be caught before replay can turn it into a wrong answer.
        document["integrity"] = checkpoint_integrity(document)
        return document

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Checkpoint":
        if not isinstance(document, dict):
            raise ExecutionError("checkpoint must be a JSON object")
        if document.get("schema") != CHECKPOINT_SCHEMA:
            raise ExecutionError(
                f"not a checkpoint document (schema "
                f"{document.get('schema')!r}, expected {CHECKPOINT_SCHEMA!r})"
            )
        if document.get("version") != CHECKPOINT_VERSION:
            raise ExecutionError(
                f"unsupported checkpoint version {document.get('version')!r}; "
                f"this reader understands version {CHECKPOINT_VERSION}"
            )
        for key in ("fingerprint", "events", "counters"):
            if key not in document:
                raise ExecutionError(f"checkpoint missing required key {key!r}")
        stored = document.get("integrity")
        if stored is not None and stored != checkpoint_integrity(document):
            # Parseable JSON but flipped content (a digit in a support
            # count).  Refusing here is what keeps resume bit-identical.
            raise ExecutionError(
                "checkpoint integrity checksum mismatch: the file was "
                "modified or corrupted after it was written"
            )
        return cls(
            fingerprint=document["fingerprint"],
            events=tuple(CountEvent.from_dict(e) for e in document["events"]),
            counters=dict(document["counters"]),
            levels_completed={
                var: int(level)
                for var, level in document.get("levels_completed", {}).items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExecutionError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_dict(document)

    def counters_snapshot(self) -> OpCounters:
        """Rebuild the :class:`OpCounters` captured at the boundary."""
        return OpCounters.from_snapshot(self.counters)


# ----------------------------------------------------------------------
# Manager: persistence + resume validation
# ----------------------------------------------------------------------
class CheckpointManager:
    """Owns one run's checkpoint file: load-and-validate, atomic save.

    Parameters
    ----------
    directory:
        Where ``checkpoint.json`` lives; created if missing.
    fingerprint:
        The current run's :func:`run_fingerprint`.  Saves stamp it;
        :meth:`load_for_resume` refuses a stored checkpoint whose
        fingerprint differs (changed query, dataset, or engine options).

    Degradation
    -----------
    Checkpointing is an *optimization* (crash recovery), never a
    correctness dependency — so persistent save failures (disk full,
    permissions) downgrade the run to checkpoint-less execution rather
    than killing it: after :data:`FAILURE_THRESHOLD` consecutive
    ``OSError`` saves the manager sets ``degraded`` and skips every
    subsequent save.  A *corrupt* stored checkpoint (torn JSON, failed
    integrity checksum) is quarantined — renamed to
    ``checkpoint.json.quarantined`` so it is never re-read — and the run
    starts fresh.  Only a fingerprint mismatch still raises: that file
    is valid, it just belongs to a different run, and silently ignoring
    it would surprise the operator who asked to resume it.
    """

    #: Consecutive failed saves before downgrading to checkpoint-less.
    FAILURE_THRESHOLD = 3

    def __init__(self, directory: str, fingerprint: str):
        self.directory = directory
        self.fingerprint = fingerprint
        self.path = os.path.join(directory, CHECKPOINT_FILENAME)
        self.saves = 0
        self.failures = 0
        self.quarantined = 0
        self._consecutive_failures = 0
        self.degraded = False
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            logger.warning(
                "cannot create checkpoint directory %s (%s); "
                "running without checkpoints", directory, exc,
            )
            self.failures += 1
            self.degraded = True

    # -- resume --------------------------------------------------------
    def load_for_resume(self) -> Optional[Checkpoint]:
        """The stored checkpoint, fingerprint-validated.

        Returns ``None`` when no checkpoint exists yet (a ``--resume``
        of a run that never reached its first boundary simply starts
        fresh).  A fingerprint mismatch raises
        :class:`~repro.errors.ExecutionError` — resuming another run's
        supports would silently corrupt answers.
        """
        if not os.path.exists(self.path):
            logger.info("no checkpoint at %s; starting fresh", self.path)
            return None
        try:
            text = faults.fs_read_text(self.path, "checkpoint.load")
        except OSError as exc:
            logger.warning(
                "cannot read checkpoint at %s (%s); starting fresh",
                self.path, exc,
            )
            return None
        try:
            checkpoint = Checkpoint.from_json(text)
        except ExecutionError as exc:
            self._quarantine(str(exc))
            return None
        if checkpoint.fingerprint != self.fingerprint:
            raise ExecutionError(
                f"checkpoint at {self.path} belongs to a different run "
                f"(stored fingerprint {checkpoint.fingerprint[:12]}..., "
                f"current {self.fingerprint[:12]}...): the query, dataset, "
                "or engine options changed. Delete the checkpoint directory "
                "or rerun without --resume."
            )
        logger.info(
            "resuming from %s: %d counting pass(es), levels %s",
            self.path, len(checkpoint.events), checkpoint.levels_completed,
        )
        return checkpoint

    def _quarantine(self, reason: str) -> None:
        """Rename a corrupt checkpoint aside so it is never re-read."""
        aside = self.path + ".quarantined"
        try:
            os.replace(self.path, aside)
            self.quarantined += 1
            logger.warning(
                "quarantined corrupt checkpoint %s -> %s (%s); "
                "starting fresh", self.path, aside, reason,
            )
        except OSError as exc:
            # Can't even rename it: leave it; the next load will fail
            # the same way and the run still starts fresh.
            logger.warning(
                "corrupt checkpoint at %s (%s) could not be quarantined "
                "(%s); starting fresh anyway", self.path, reason, exc,
            )

    # -- save ----------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Optional[str]:
        """Atomically persist ``checkpoint`` (write temp + fsync + rename).

        A crash at any instant leaves either the previous checkpoint or
        the new one on disk, never a torn file.  An ``OSError`` (disk
        full, permissions, injected fault) is absorbed: the failure is
        counted, and after :data:`FAILURE_THRESHOLD` consecutive
        failures the manager goes ``degraded`` and stops trying — the
        run continues checkpoint-less.  Returns the checkpoint path on
        success, ``None`` when the save was skipped or failed.
        """
        if self.degraded:
            return None
        payload = checkpoint.to_json()
        try:
            faults.fire("checkpoint.save")
            fd, tmp_path = tempfile.mkstemp(
                prefix=".checkpoint-", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                    handle.write("\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.failures += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.FAILURE_THRESHOLD:
                self.degraded = True
                logger.warning(
                    "checkpoint save failed %d time(s) in a row (%s); "
                    "continuing without checkpoints",
                    self._consecutive_failures, exc,
                )
            else:
                logger.warning("checkpoint save failed (%s); will retry "
                               "at the next boundary", exc)
            return None
        self.saves += 1
        self._consecutive_failures = 0
        return self.path
