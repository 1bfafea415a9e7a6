"""Delta recounting: support arithmetic over added/removed transactions.

Incremental skeleton maintenance (:mod:`repro.serve.delta`) adjusts the
support of *known* itemsets by counting them only over the delta's
transactions — supports are per-transaction sums, so for any itemset
``X``::

    support_new(X) = support_old(X) + count(X, added) - count(X, removed)

This module supplies the two counting shapes that refresh needs, both
reusing the audited counting kernels so metering stays comparable:

* :func:`count_over` — a mixed-size candidate set counted over a (small)
  transaction list, used for the delta passes;
* :class:`SupportIndex` — an inverted item→TID index over the **full**
  new database, built lazily from its columnar layout (one sort of the
  entry codes, no per-transaction loop) and then answering any number
  of probes (candidates the old skeleton never counted: children of
  promoted sets, or everything a dropped threshold newly generates) by
  TID-set intersection, with no further database passes.

Both leave scan accounting to the caller: refresh records one scan for
the delta pass and one for the index build, so its cost shows up
honestly in the refresh stats.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.db.columns import as_columns
from repro.db.stats import OpCounters
from repro.mining.counting import count_candidates, count_singletons
from repro.mining.itemsets import Itemset

Transaction = Tuple[int, ...]


def relevant_candidates(
    candidates: Iterable[Itemset], touched_items: frozenset
) -> List[Itemset]:
    """The candidates whose items all occur in the delta's touched set.

    A candidate with any item outside ``touched_items`` is contained in
    no delta transaction, so its delta count is zero — filtering these
    up front keeps the delta pass proportional to the delta, not to the
    skeleton.
    """
    return [c for c in candidates if all(item in touched_items for item in c)]


def count_over(
    transactions: Sequence[Transaction],
    candidates: Iterable[Itemset],
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[Itemset, int]:
    """Exact supports of a mixed-size candidate set over one list.

    Candidates are grouped by size and each group is counted with the
    standard kernels (:func:`~repro.mining.counting.count_singletons` /
    :func:`~repro.mining.counting.count_candidates`), so the work is
    metered in the same units as cold mining.  The list is laid out once
    and shared by every group (so is its packed bitmap).
    """
    transactions = as_columns(transactions)
    by_size: Dict[int, List[Itemset]] = {}
    for candidate in candidates:
        by_size.setdefault(len(candidate), []).append(candidate)
    supports: Dict[Itemset, int] = {}
    for k in sorted(by_size):
        group = by_size[k]
        if k == 1:
            singles = count_singletons(
                transactions, (c[0] for c in group), counters, var, guard=guard
            )
            supports.update({(e,): n for e, n in singles.items()})
        else:
            supports.update(
                count_candidates(transactions, group, k, counters, var,
                                 guard=guard)
            )
    return supports


class SupportIndex:
    """Inverted item → TID-set index answering exact support probes.

    Built from the columnar layout by one stable sort of the entry codes
    (each item's TIDs are then a contiguous run); after that every
    probe is an intersection of its items' TID sets (smallest first,
    bailing on empty), so probing P candidates across L levels costs one
    database pass total instead of L — the structural reason a skeleton
    refresh beats a cold re-mine even when a dropped threshold forces
    thousands of probes.
    """

    def __init__(self, transactions) -> None:
        columns = as_columns(transactions)
        self.n_transactions = len(columns)
        order = np.argsort(columns.codes, kind="stable")
        tids = columns.rows[order].tolist()
        bounds = np.searchsorted(
            columns.codes[order], np.arange(len(columns.vocab) + 1)
        ).tolist()
        self._tids: Dict[int, Set[int]] = {
            item: set(tids[lo:hi])
            for item, lo, hi in zip(columns.vocab.tolist(), bounds, bounds[1:])
            if hi > lo
        }

    def support(self, candidate: Itemset) -> int:
        """Exact support of one candidate (the empty set is supported by
        every transaction, matching ``TransactionDatabase.support``)."""
        if not candidate:
            return self.n_transactions
        tid_sets = []
        for item in candidate:
            tids = self._tids.get(item)
            if not tids:
                return 0
            tid_sets.append(tids)
        tid_sets.sort(key=len)
        current = tid_sets[0]
        for other in tid_sets[1:]:
            current = current & other
            if not current:
                return 0
        return len(current)

    def probe(
        self,
        candidates: Sequence[Itemset],
        counters: Optional[OpCounters] = None,
        var: str = "S",
        level: int = 0,
    ) -> Dict[Itemset, int]:
        """Supports of a candidate batch, metered like a counting pass
        (``support_counted`` per (var, level)) so refresh stats stay in
        the same units as cold mining."""
        supports = {c: self.support(c) for c in candidates}
        if counters is not None and candidates:
            counters.record_counted(var, level, len(candidates))
        return supports
