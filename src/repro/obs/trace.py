"""A zero-dependency span tracer for the CFQ optimizer pipeline.

The paper's claims are quantitative — quasi-succinct reduction and
iterated ``J^k_max`` pruning win because they cut candidate counts and
scan work *level by level* — so every stage of the pipeline opens a
:class:`Span` describing what it did: the optimizer one per planning
rule fired, the dovetail engine one per mining level per variable
(carrying candidates-in / frequent-out / pruned-by-which-constraint
attributes).  The resulting
tree serializes into the run report (:mod:`repro.obs.report`), and
``CFQResult.explain()`` renders its per-level pruning table from it.

Tracing is **off by default**: every instrumented call site takes a
tracer that defaults to the module's :data:`NULL_TRACER`, whose
``span()`` returns one preallocated no-op context manager — a disabled
run pays a single attribute lookup and method call per *level*, never
per candidate (the overhead micro-benchmark in
``benchmarks/test_obs_overhead.py`` holds this under 3%).

Spans measure both wall time (``time.perf_counter``) and CPU time
(``time.process_time``), nest through an explicit stack, and carry
structured attributes (JSON-serializable values only)::

    tracer = Tracer()
    with tracer.span("dovetail.run", dovetail=True):
        with tracer.span("level", var="S", level=2) as span:
            ...
            span.set(candidates=153, frequent=87)
    tracer.to_dict()   # the serializable trace tree
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "events",
        "start_wall",
        "end_wall",
        "start_cpu",
        "end_cpu",
    )

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self.events: List[Dict[str, Any]] = []
        self.start_wall: float = 0.0
        self.end_wall: float = 0.0
        self.start_cpu: float = 0.0
        self.end_cpu: float = 0.0

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) structured attributes."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event inside this span (e.g. one
        ``W^k`` bound update)."""
        self.events.append({"name": name, **attributes})

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """Elapsed wall-clock time of the span."""
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def cpu_seconds(self) -> float:
        """CPU time (user + system) consumed while the span was open."""
        return max(0.0, self.end_cpu - self.start_cpu)

    # ------------------------------------------------------------------
    # Traversal / serialization
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form (the run-report trace-tree node schema)."""
        node: Dict[str, Any] = {
            "name": self.name,
            "start_seconds": round(self.start_wall, 9),
            "wall_seconds": round(self.wall_seconds, 9),
            "cpu_seconds": round(self.cpu_seconds, 9),
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.events:
            node["events"] = [dict(e) for e in self.events]
        if self.children:
            node["children"] = [c.to_dict() for c in self.children]
        return node


class _SpanHandle:
    """Context manager opening/closing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        self._span.start_wall = time.perf_counter()
        self._span.start_cpu = time.process_time()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end_cpu = time.process_time()
        self._span.end_wall = time.perf_counter()
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()


class Tracer:
    """Collects a tree of :class:`Span` objects plus a metrics registry.

    One tracer instance covers one run (planning + mining + reporting);
    carrying the :class:`~repro.obs.metrics.MetricsRegistry` on the
    tracer lets call sites thread a single object through the pipeline.
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.roots: List[Span] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _SpanHandle:
        """Open a child span of the current span (or a new root)."""
        span = Span(name, attributes)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        return _SpanHandle(self, span)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside
        any span)."""
        span = self.current()
        if span is not None:
            span.set(**attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Record an event on the innermost open span (dropped when no
        span is open)."""
        span = self.current()
        if span is not None:
            span.add_event(name, **attributes)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(
        self, name: str, predicate: Optional[Callable[[Span], bool]] = None
    ) -> List[Span]:
        """All spans with ``name`` (optionally also passing ``predicate``)."""
        return [
            s for s in self.walk()
            if s.name == name and (predicate is None or predicate(s))
        ]

    def to_dict(self) -> Dict[str, Any]:
        """The serializable trace tree (run-report ``trace`` section)."""
        return {"spans": [root.to_dict() for root in self.roots]}


class _NullSpan(Span):
    """The shared inert span handed out by :class:`NullTracer`.

    Mutating methods drop their input so hot loops can call
    ``span.set(...)`` unconditionally; one instance is shared by every
    disabled call site.
    """

    def set(self, **attributes: Any) -> "Span":
        return self

    def add_event(self, name: str, **attributes: Any) -> None:
        return None


class _NullHandle:
    """Reusable no-op context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span()`` ignores its arguments and returns one preallocated
    handle, so the cost of a disabled call site is one method call —
    no Span allocation, no clock reads.
    """

    enabled = False

    def __init__(self):
        self.roots: List[Span] = []
        self.metrics = NULL_METRICS

    def span(self, name: str, **attributes: Any) -> _NullHandle:
        return _NULL_HANDLE

    def current(self) -> Optional[Span]:
        return None

    def annotate(self, **attributes: Any) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name, predicate=None) -> List[Span]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": []}


#: Shared singletons: the default tracer of every instrumented call site.
NULL_SPAN = _NullSpan("null")
_NULL_HANDLE = _NullHandle()
NULL_TRACER = NullTracer()


def resolve_tracer(tracer) -> "Tracer":
    """Normalize an optional tracer argument (``None`` → disabled)."""
    return NULL_TRACER if tracer is None else tracer
