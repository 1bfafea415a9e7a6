"""A zero-dependency metrics registry: counters, gauges, histograms.

The registry complements the span tracer (:mod:`repro.obs.trace`): spans
answer *where time went*, metrics answer *how much of each thing
happened* — candidates generated, sets pruned per constraint, bounds
tightened.  Instruments are named and optionally
**labeled** (sorted key=value pairs appended to the name), in the style
of Prometheus clients; :mod:`repro.obs.export` renders a registry in
Prometheus text exposition format, and the registry serializes into the
run report via :meth:`MetricsRegistry.as_dict`.

Histograms are :class:`~repro.obs.hist.QuantileHistogram` — log-bucketed
with a bounded relative error, so ``histogram(...).p99`` answers the
latency questions summary statistics cannot.  Registries **merge**
(:meth:`MetricsRegistry.merge`): counters add, gauges take the incoming
value (last write wins), histograms fold bucket-exactly — which is how
per-run registries roll up into a process-lifetime one.

A :data:`NULL_METRICS` singleton mirrors the null tracer so disabled
runs pay one no-op call per recording site.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.obs.hist import QuantileHistogram

#: Histograms are quantile histograms; the old summary-only class name
#: remains importable because the ``observe()`` API is unchanged.
Histogram = QuantileHistogram

#: Characters that are structural in the flattened instrument key
#: ``name{k1=v1,k2=v2}`` and must therefore be escaped inside label
#: values (and keys): unescaped they make distinct label sets collide —
#: ``inc("x", q="a=1,b")`` and ``inc("x", q="a", b="1")`` would both
#: render as ``x{q=a=1,b}`` / ``x{b=1,q=a}``-style ambiguous keys.
_STRUCTURAL = ("\\", ",", "{", "}", "=")
_ESCAPE_TABLE = str.maketrans({c: f"\\{c}" for c in _STRUCTURAL})


def _escape(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def _unescape(text: str) -> str:
    out = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            out.append(next(it, ""))
        else:
            out.append(ch)
    return "".join(out)


def _key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical instrument key: ``name{k1=v1,k2=v2}`` with sorted labels.

    Structural characters inside label keys/values are backslash-escaped,
    so the rendering is injective: two different (name, labels) pairs can
    never produce the same key, and :func:`parse_key` inverts it.
    """
    if not labels:
        return name
    rendered = ",".join(
        f"{_escape(str(k))}={_escape(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`_key`: ``name{k=v,...}`` → ``(name, {k: v})``.

    Label values come back as strings (the key format stringifies), with
    escapes resolved.  Exporters use this to recover structured labels
    from the registry's flattened keys.
    """
    if not key.endswith("}"):
        return key, {}
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name, body = key[:brace], key[brace + 1:-1]
    labels: Dict[str, str] = {}
    part: list = []
    parts: list = []
    escaped = False
    for ch in body:
        if escaped:
            part.append("\\" + ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == ",":
            parts.append("".join(part))
            part = []
        else:
            part.append(ch)
    parts.append("".join(part))
    for item in parts:
        if not item:
            continue
        # Split on the first unescaped '=': the key side never contains
        # one un-escaped, by construction.
        depth_escaped = False
        for position, ch in enumerate(item):
            if depth_escaped:
                depth_escaped = False
            elif ch == "\\":
                depth_escaped = True
            elif ch == "=":
                labels[_unescape(item[:position])] = _unescape(
                    item[position + 1:]
                )
                break
    return name, labels


@dataclass
class MetricsRegistry:
    """Named, labeled counters, gauges and histograms for one run.

    Thread safety: the query server's worker threads record into one
    shared registry, and ``counters[k] = counters.get(k, 0) + v`` is a
    non-atomic read-modify-write (two threads can read the same old
    value and lose one increment), while histogram bucket updates
    mutate a dict a concurrent ``as_dict``/``merge`` may be iterating.
    Every mutator and every whole-registry read therefore holds the
    per-registry lock.  The lock is leaf-level (``docs/server.md`` lock
    order): no callback ever runs under it, so it can be taken while
    holding any cache or server lock.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, QuantileHistogram] = field(default_factory=dict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    enabled = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a (monotone) counter."""
        key = _key(name, labels)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to its latest value."""
        with self._lock:
            self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Feed one observation into a histogram."""
        key = _key(name, labels)
        with self._lock:
            histogram = self.histograms.get(key)
            if histogram is None:
                histogram = self.histograms[key] = QuantileHistogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self.counters.get(_key(name, labels), 0)

    def gauge(self, name: str, **labels: Any) -> Optional[float]:
        """Current value of a gauge (None if never set)."""
        with self._lock:
            return self.gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: Any) -> Optional[QuantileHistogram]:
        """The histogram for a name/label set (None if never observed)."""
        with self._lock:
            return self.histograms.get(_key(name, labels))

    # ------------------------------------------------------------------
    # Merging (run → process roll-ups)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place (and return self).

        Exact semantics per instrument kind:

        * **counters** add — a count of events is additive over any
          partition of the events;
        * **gauges** take the incoming value (last write wins — a gauge
          is "latest observed state", and ``other`` is the newer view);
        * **histograms** merge bucket-exactly
          (:meth:`QuantileHistogram.merge`), never aliasing ``other``'s
          stores.

        This is how per-run registries fold into a
        :class:`ServiceTelemetry`'s process-lifetime registry.
        """
        # Snapshot ``other`` under its own lock first, then fold under
        # ours — never both at once, so two registries can merge in
        # either direction without a lock-order cycle.
        other_lock = getattr(other, "_lock", None)
        if other_lock is not None:
            with other_lock:
                counters = dict(other.counters)
                gauges = dict(other.gauges)
                histograms = {k: h.copy() for k, h in other.histograms.items()}
        else:
            counters = dict(other.counters)
            gauges = dict(other.gauges)
            histograms = {k: h.copy() for k, h in other.histograms.items()}
        with self._lock:
            for key, value in counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.gauges.update(gauges)
            for key, histogram in histograms.items():
                mine = self.histograms.get(key)
                if mine is None:
                    self.histograms[key] = histogram
                else:
                    mine.merge(histogram)
        return self

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Serializable form (the run report's ``metrics`` section)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {
                    k: h.as_dict() for k, h in sorted(self.histograms.items())
                },
            }

    def to_state(self) -> Dict[str, Dict[str, Any]]:
        """Lossless serializable form: histograms keep their bucket
        state, so :meth:`from_state` rebuilds a registry that continues
        to observe and merge exactly (telemetry snapshots use this)."""
        with self._lock:
            return {
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "histograms": {
                    k: h.to_state() for k, h in sorted(self.histograms.items())
                },
            }

    @classmethod
    def from_state(cls, state: Dict[str, Dict[str, Any]]) -> "MetricsRegistry":
        """Rebuild a registry saved by :meth:`to_state`."""
        registry = cls(
            counters=dict(state.get("counters", {})),
            gauges=dict(state.get("gauges", {})),
        )
        for key, hist_state in state.get("histograms", {}).items():
            registry.histograms[key] = QuantileHistogram.from_state(hist_state)
        return registry


class _NullMetrics:
    """Inert registry handed out by the null tracer."""

    enabled = False
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, QuantileHistogram] = {}

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def counter(self, name: str, **labels: Any) -> float:
        return 0

    def gauge(self, name: str, **labels: Any) -> None:
        return None

    def histogram(self, name: str, **labels: Any) -> None:
        return None

    def merge(self, other: "MetricsRegistry") -> "_NullMetrics":
        return self

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_state(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = _NullMetrics()
