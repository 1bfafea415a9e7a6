"""Per-transaction reference loops for the columnar kernels (test oracle).

These are the pure-Python counting, projection and trimming loops the
library ran before its counting moved to :mod:`repro.db.columns` and the
array kernels of :mod:`repro.mining.counting`.  They define the exact
contract the kernels must keep: supports, dict key order, the
``record_counted`` ledger and the ``subset_tests`` figure.

:func:`oracle_path` swaps them in at every call site, so a whole engine
run can be replayed on the loops and compared counter for counter.
"""

from __future__ import annotations

import contextlib
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.db.stats import OpCounters
from repro.mining.itemsets import Itemset


def loop_count_singletons(
    transactions: Sequence[Tuple[int, ...]],
    elements: Iterable[int],
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[int, int]:
    """Count each element's support, one transaction at a time."""
    wanted = set(elements)
    support = dict.fromkeys(wanted, 0)
    tick = guard.tick if guard is not None and guard.enabled else None
    probes = 0
    for t in transactions:
        if tick is not None:
            tick(len(t))
        probes += len(t)
        for item in t:
            if item in wanted:
                support[item] += 1
    if counters is not None:
        counters.record_counted(var, 1, len(wanted))
        counters.subset_tests += probes
    return support


def loop_count_candidates(
    transactions: Sequence[Tuple[int, ...]],
    candidates: Sequence[Itemset],
    k: int,
    counters: Optional[OpCounters] = None,
    var: str = "S",
    guard=None,
) -> Dict[Itemset, int]:
    """The hybrid enumerate-or-scan loop: per transaction, the cheaper of
    probing its k-subsets (``C(m, k)``) and scanning every candidate
    (``|C| * k``), plus ``len(t)`` to read it."""
    support: Dict[Itemset, int] = dict.fromkeys(candidates, 0)
    if not support:
        return support
    candidate_items = frozenset(item for c in support for item in c)
    candidate_list: List[Itemset] = list(support)
    scan_cost = len(candidate_list) * k
    tick = guard.tick if guard is not None and guard.enabled else None
    work = 0
    for t in transactions:
        if tick is not None:
            tick(scan_cost)
        relevant = [i for i in t if i in candidate_items]
        m = len(relevant)
        if m < k:
            work += len(t)
            continue
        enum_cost = comb(m, k)
        if enum_cost <= scan_cost:
            work += enum_cost + len(t)
            for subset in combinations(relevant, k):
                if subset in support:
                    support[subset] += 1
        else:
            work += scan_cost + len(t)
            t_set = frozenset(relevant)
            for candidate in candidate_list:
                if t_set.issuperset(candidate):
                    support[candidate] += 1
    if counters is not None:
        counters.record_counted(var, k, len(candidate_list))
        counters.subset_tests += work
    return support


def loop_project(domain, transactions) -> List[Tuple[int, ...]]:
    """``domain.project`` applied to every transaction."""
    return [domain.project(t) for t in transactions]


def loop_trim(transactions, keep_items) -> List[Tuple[int, ...]]:
    """Drop every item outside ``keep_items`` from every transaction."""
    keep = frozenset(keep_items)
    return [tuple(i for i in t if i in keep) for t in transactions]


def _on_tuples(loop):
    """Run ``loop`` over the tuples of whatever layout it is handed."""

    def kernel(transactions, *args, **kwargs):
        return loop(list(transactions), *args, **kwargs)

    return kernel


@contextlib.contextmanager
def oracle_path(monkeypatch):
    """Route every counting call site, domain projection and lattice
    trimming through the loops above for the duration of the block."""
    import repro.mining.backends as backends
    import repro.mining.counting as counting
    import repro.mining.delta as delta
    import repro.mining.dovetail as dovetail
    import repro.mining.fm as fm
    import repro.mining.lattice as lattice
    from repro.db.columns import TransactionColumns
    from repro.db.domain import Domain

    singletons = _on_tuples(loop_count_singletons)
    candidates = _on_tuples(loop_count_candidates)
    with monkeypatch.context() as patch:
        for module in (counting, dovetail, lattice, delta):
            if hasattr(module, "count_singletons"):
                patch.setattr(module, "count_singletons", singletons)
        for module in (counting, backends, delta, fm):
            patch.setattr(module, "count_candidates", candidates)
        patch.setattr(
            Domain, "project_columns",
            lambda domain, columns: TransactionColumns.from_transactions(
                loop_project(domain, columns)
            ),
        )

        def trim(self):
            self.transactions = TransactionColumns.from_transactions(
                loop_trim(self.transactions, self.level1_supports)
            )

        patch.setattr(lattice.ConstrainedLattice, "_trim_transactions", trim)
        yield
