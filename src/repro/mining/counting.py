"""Support counting over (projected) transaction layouts.

Counting is the dominant cost of levelwise mining, and its volume is what
the paper's optimizations reduce, so this module both counts supports and
*meters the work* (``subset_tests`` on the run's
:class:`~repro.db.stats.OpCounters`).

Both kernels take a :class:`~repro.db.columns.TransactionColumns` layout
(any other transaction sequence is laid out once per call) and run as
array operations:

* :func:`count_singletons` is one ``bincount`` over the entry codes;
* :func:`count_candidates` ANDs the candidates' rows of the layout's
  packed uint64 bitmap and popcounts them (:func:`popcount_words`) in
  chunked gathers.  The bitmap is built once per layout and cached on
  it, so the trimmed layout a lattice counts every level against is
  packed once.  Gather buffers are sized by :data:`WORD_BUDGET`: each
  chunk holds ``max(1, WORD_BUDGET // n_words)`` candidates, so the
  kernel's memory beyond the bitmap is bounded by the budget, not by the
  batch.

Metering
--------
The work is metered in the units of the classic *hybrid* strategy, which
per transaction picks the cheaper of

* **enumeration** — generate the k-subsets of the (candidate-filtered)
  transaction and probe the candidate hash table: cost ``C(m_t, k)``;
* **candidate scan** — test each candidate for containment in the
  transaction: cost ``|C| * k``;

plus ``len(t)`` for reading the transaction, where ``m_t`` is the number
of the transaction's items that occur in some candidate and ``C`` the
(deduplicated) candidate set.  In closed form::

    subset_tests = sum_t len(t) + sum_{t : m_t >= k} min(C(m_t, k), |C| * k)
                 = n_entries   + sum_{m >= k} hist[m] * min(C(m, k), |C| * k)

where ``hist[m]`` counts the transactions with ``m_t == m``.  The kernel
evaluates the right-hand side from a histogram of ``m_t`` in exact Python
integers, so the figure is the one the per-transaction loop produces,
without the loop.  Singleton counting meters ``len(t)`` per transaction,
i.e. ``n_entries``.

Shard additivity
----------------
Both figures the kernel produces are per-transaction sums, so they
distribute over any partition of the transaction list (a CSR slice of a
layout counts like any other layout):

* **supports** are popcounts of disjoint bit ranges;
* **probe metering** has a per-transaction term that depends only on the
  transaction and the candidate set — ``m_t`` is a property of one
  transaction, and the enumerate-vs-scan threshold ``|C| * k`` depends
  only on the candidate set — so the histogram of a partition's parts
  sums to the whole's histogram.

The candidate-set ledger (``record_counted``) is *not* additive: every
part counts the same candidates.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.db.columns import as_columns
from repro.db.stats import OpCounters
from repro.errors import ExecutionError
from repro.mining.itemsets import Itemset

#: uint64 words per gather buffer.  A chunk of the candidate batch holds
#: ``max(1, WORD_BUDGET // n_words)`` candidates, and the histogram pass
#: reads at most this many entries at a time.
WORD_BUDGET = 1 << 15

#: Set bits per byte value, for numpys without ``bitwise_count``.
_POPCOUNT_TABLE = np.array([bin(v).count("1") for v in range(256)],
                           dtype=np.uint16)


def popcount_words(words):
    """Per-element popcount of a uint64 array.

    Uses ``numpy.bitwise_count`` when available (numpy >= 2.0); older
    numpys fall back to a byte-view lookup table — same results, a few
    times slower, still fully vectorized.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    lookup = _POPCOUNT_TABLE[words.view(np.uint8)]
    return lookup.reshape(*words.shape, 8).sum(axis=-1)


def count_singletons(
    transactions,
    elements: Iterable[int],
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[int, int]:
    """Count the support of each element in one pass.

    Returns ``{element: support}`` for every requested element (including
    zero-support ones), keyed in ``set(elements)`` order.  An enabled
    ``guard`` (:class:`~repro.runtime.guard.RunGuard`) is ticked once
    with the pass's probe units.
    """
    columns = as_columns(transactions)
    support = dict.fromkeys(set(elements), 0)
    if guard is not None and guard.enabled:
        guard.tick(columns.n_entries)
    if support:
        per_code = np.bincount(columns.codes, minlength=len(columns.vocab) + 1)
        codes = columns.code_of(np.fromiter(support, dtype=np.int64,
                                            count=len(support)))
        # Absent elements have code -1, which reads the zero tail bin.
        support = dict(zip(support, per_code[codes].tolist()))
    if counters is not None:
        counters.record_counted(var, 1, len(support))
        counters.subset_tests += columns.n_entries
    return support


def count_candidates(
    transactions,
    candidates: Sequence[Itemset],
    k: int,
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[Itemset, int]:
    """Count the support of canonical k-itemset candidates in one pass.

    Returns ``{candidate: support}`` keyed in (deduplicated) candidate
    order.  An enabled ``guard`` is ticked once per gather chunk with the
    chunk's probe units (``chunk * k * n_transactions``).
    """
    support: Dict[Itemset, int] = dict.fromkeys(candidates, 0)
    if not support:
        return support
    columns = as_columns(transactions)
    candidate_list = list(support)
    n = len(candidate_list)
    flat = np.fromiter(chain.from_iterable(candidate_list), dtype=np.int64)
    if len(flat) != n * k:
        raise ExecutionError(f"count_candidates: every candidate must hold {k} items")
    codes = columns.code_of(flat)
    n_transactions = len(columns)
    tick = None
    if guard is not None and guard.enabled:
        def tick(chunk):
            guard.tick(chunk * k * n_transactions)
    counts = _count_gather(
        columns.bitmap(), (codes + 1).reshape(n, k),
        max(1, WORD_BUDGET // max(columns.n_words, 1)), tick=tick,
    )
    support = dict(zip(candidate_list, counts.tolist()))
    if counters is not None:
        counters.record_counted(var, k, n)
        counters.subset_tests += _hybrid_work(columns, codes, n * k, k)
    return support


def _count_gather(matrix, index, chunk_size, tick=None):
    """Chunked gather + AND + popcount over row indices ``(n, k)``.

    Work buffers are preallocated once and reused across chunks, so the
    kernel's memory high-water mark is two ``(chunk, words)`` arrays
    regardless of batch size.  ``tick``, when given, is called with each
    chunk's candidate count before the chunk is counted (the cooperative
    guard checks).
    """
    n, k = index.shape
    n_words = matrix.shape[1]
    chunk = min(chunk_size, n)
    acc = np.empty((chunk, n_words), dtype=np.uint64)
    tmp = np.empty((chunk, n_words), dtype=np.uint64)
    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        sub = index[start:start + chunk]
        b = len(sub)
        if tick is not None:
            tick(b)
        np.take(matrix, sub[:, 0], axis=0, out=acc[:b])
        for j in range(1, k):
            np.take(matrix, sub[:, j], axis=0, out=tmp[:b])
            np.bitwise_and(acc[:b], tmp[:b], out=acc[:b])
        np.sum(popcount_words(acc[:b]), axis=1, dtype=np.int64,
               out=counts[start:start + b])
    return counts


def _hybrid_work(columns, codes, scan_cost: int, k: int) -> int:
    """The closed-form hybrid metering (see the module docstring)."""
    # One spare slot absorbs code -1 (candidate items absent from the
    # data); no entry carries that code, so it is never read.
    relevant = np.zeros(len(columns.vocab) + 1, dtype=bool)
    relevant[codes] = True
    n = len(columns)
    hist = np.zeros(1, dtype=np.int64)
    step = max(WORD_BUDGET, 1)
    row = 0
    while row < n:
        # Whole rows, at most ``step`` entries (at least one row).
        lo = int(columns.offsets[row])
        stop = int(np.searchsorted(columns.offsets, lo + step, side="right")) - 1
        stop = min(max(stop, row + 1), n)
        hi = int(columns.offsets[stop])
        hits = columns.rows[lo:hi].take(
            np.flatnonzero(relevant.take(columns.codes[lo:hi]))
        )
        per_row = np.bincount(hits - row, minlength=stop - row)
        part = np.bincount(per_row)
        if len(part) > len(hist):
            part[:len(hist)] += hist
            hist = part
        else:
            hist[:len(part)] += part
        row = stop
    work = columns.n_entries
    for m in range(k, len(hist)):
        if hist[m]:
            work += int(hist[m]) * min(comb(m, k), scan_cost)
    return work


def frequent_only(support: Dict, min_count: int) -> Dict:
    """Filter a support map down to the frequent entries."""
    return {key: n for key, n in support.items() if n >= min_count}
