"""A log-bucketed quantile histogram with bounded relative error.

The summary-only histogram of PR 3 (count/sum/min/max) cannot answer
the questions the serving layer's load benchmarks ask — *what is the
warm-hit p99?* — so :class:`QuantileHistogram` replaces it behind the
same ``observe()`` API.  The design is the standard log-bucket (HDR /
DDSketch) scheme:

* a positive value ``v`` lands in bucket ``i = ceil(log_gamma(v))``
  where ``gamma = (1 + alpha) / (1 - alpha)`` for a configured relative
  accuracy ``alpha`` (default 1%); bucket ``i`` covers the interval
  ``(gamma^(i-1), gamma^i]``;
* the bucket's representative value ``2 * gamma^i / (gamma + 1)`` is
  within relative error ``alpha`` of **every** value in the bucket, so
  any reported quantile ``q`` satisfies
  ``|quantile(q) - exact_q| <= alpha * exact_q`` — a *guarantee*, not a
  heuristic (pinned by the property suite in ``tests/test_obs_hist.py``
  against exact quantiles on random and adversarial distributions);
* zero and negative values get a dedicated zero bucket and a mirrored
  negative store, so latencies, deltas and gauge-like observations all
  work;
* storage is one sparse ``dict`` of bucket counts per sign — memory is
  O(distinct buckets), ~115 buckets per decade of observed magnitude at
  1% accuracy, never O(observations);
* histograms **merge** by adding bucket counts, which is exact (the
  merged histogram equals the histogram of the concatenated streams)
  and associative/commutative — per-run registries fold into a
  process-lifetime one through
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` without
  approximation drift.

``count``/``sum``/``min``/``max``/``mean`` remain exact (tracked
directly, not reconstructed from buckets), so everything the PR 3
summary histogram reported is unchanged, and ``as_dict()`` keeps those
keys while adding ``p50``/``p95``/``p99``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional, Tuple

#: Default relative-accuracy bound: reported quantiles are within 1% of
#: the exact quantile value.
DEFAULT_RELATIVE_ERROR = 0.01


class QuantileHistogram:
    """Mergeable log-bucketed histogram (see module docstring).

    Parameters
    ----------
    relative_error:
        The accuracy bound ``alpha``: every reported quantile ``est`` of
        a true value ``x`` satisfies ``|est - x| <= alpha * |x|``.
        Histograms only merge with an equal ``relative_error``.
    """

    __slots__ = (
        "relative_error",
        "count",
        "total",
        "min",
        "max",
        "_gamma",
        "_ln_gamma",
        "_zero",
        "_pos",
        "_neg",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._ln_gamma = math.log(self._gamma)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Feed one observation (any finite float, any sign)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = math.ceil(math.log(value) / self._ln_gamma)
            self._pos[index] = self._pos.get(index, 0) + 1
        elif value < 0.0:
            index = math.ceil(math.log(-value) / self._ln_gamma)
            self._neg[index] = self._neg.get(index, 0) + 1
        else:
            self._zero += 1

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _bucket_value(self, index: int) -> float:
        """The representative value of positive bucket ``index`` —
        within ``relative_error`` of every value in
        ``(gamma^(index-1), gamma^index]``."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``) of everything observed,
        within ``relative_error`` of the exact order statistic.

        The exact statistic targeted is ``sorted(values)[floor(q *
        (count - 1))]`` rounded toward the nearest-rank convention the
        property suite pins; with ``count == 0`` the result is 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min  # exact: min/max are tracked directly
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        cumulative = 0
        # Ascending value order: most-negative first (descending |v|
        # index), then zero, then positives ascending.
        for index in sorted(self._neg, reverse=True):
            cumulative += self._neg[index]
            if cumulative > rank:
                return self._clamp(-self._bucket_value(index))
        cumulative += self._zero
        if cumulative > rank:
            return self._clamp(0.0)
        for index in sorted(self._pos):
            cumulative += self._pos[index]
            if cumulative > rank:
                return self._clamp(self._bucket_value(index))
        return self._clamp(self.max)  # pragma: no cover - defensive

    def _clamp(self, value: float) -> float:
        """Clamp an estimate into the observed [min, max] envelope —
        the true order statistic lies in it, so clamping can only move
        the estimate closer."""
        return min(max(value, self.min), self.max)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileHistogram") -> "QuantileHistogram":
        """Fold ``other`` into this histogram in place (and return self).

        Exact: bucket counts add, so the result equals a histogram fed
        the concatenation of both observation streams.  Requires equal
        ``relative_error`` (different bucket bases are not alignable
        without violating the error bound).
        """
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge histograms with different relative errors "
                f"({self.relative_error} vs {other.relative_error})"
            )
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self._zero += other._zero
        for index, n in other._pos.items():
            self._pos[index] = self._pos.get(index, 0) + n
        for index, n in other._neg.items():
            self._neg[index] = self._neg.get(index, 0) + n
        return self

    def copy(self) -> "QuantileHistogram":
        """An independent deep copy (merge never aliases stores)."""
        return QuantileHistogram.from_state(self.to_state())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, float]:
        """Reporting summary: the PR 3 keys plus quantiles."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def to_state(self) -> Dict[str, Any]:
        """Lossless JSON-serializable state (bucket counts included), so
        telemetry snapshots round-trip and remote histograms merge."""
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "zero": self._zero,
            "pos": {str(i): n for i, n in sorted(self._pos.items())},
            "neg": {str(i): n for i, n in sorted(self._neg.items())},
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "QuantileHistogram":
        """Rebuild a histogram equal to the one :meth:`to_state` saved."""
        hist = cls(relative_error=state.get(
            "relative_error", DEFAULT_RELATIVE_ERROR
        ))
        hist.count = int(state["count"])
        hist.total = float(state["sum"])
        hist.min = math.inf if state.get("min") is None else float(state["min"])
        hist.max = -math.inf if state.get("max") is None else float(state["max"])
        hist._zero = int(state.get("zero", 0))
        hist._pos = {int(i): int(n) for i, n in state.get("pos", {}).items()}
        hist._neg = {int(i): int(n) for i, n in state.get("neg", {}).items()}
        return hist

    # ------------------------------------------------------------------
    # Introspection (tests, exporters)
    # ------------------------------------------------------------------
    def buckets(self) -> Iterable[Tuple[float, int]]:
        """(representative value, count) pairs in ascending value order."""
        for index in sorted(self._neg, reverse=True):
            yield (-self._bucket_value(index), self._neg[index])
        if self._zero:
            yield (0.0, self._zero)
        for index in sorted(self._pos):
            yield (self._bucket_value(index), self._pos[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileHistogram):
            return NotImplemented
        return self.to_state() == other.to_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileHistogram(count={self.count}, mean={self.mean:.6g}, "
            f"p50={self.p50 if self.count else 0:.6g}, "
            f"alpha={self.relative_error})"
        )


def exact_quantile(values, q: float) -> float:
    """The exact order statistic :meth:`QuantileHistogram.quantile`
    approximates — ``sorted(values)[floor(q * (n - 1))]`` — shared by
    the property tests and the trend harness."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[int(q * (len(ordered) - 1))]
