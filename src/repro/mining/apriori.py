"""Classic Apriori: all frequent sets, no constraints.

This is the unconstrained base case of
:class:`~repro.mining.lattice.ConstrainedLattice` and the substrate of the
paper's baseline ``Apriori+``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import RunInterrupted
from repro.mining.lattice import ConstrainedLattice, LatticeResult
from repro.obs.trace import resolve_tracer
from repro.runtime.guard import resolve_guard


def mine_frequent(
    transactions: Sequence[Tuple[int, ...]],
    elements: Iterable[int],
    min_count: int,
    counters: Optional[OpCounters] = None,
    var: str = "S",
    max_level: Optional[int] = None,
    tracer=None,
    guard=None,
) -> LatticeResult:
    """Mine all frequent itemsets from pre-projected transactions.

    Parameters
    ----------
    transactions:
        Transactions as tuples of element ids (already projected onto the
        variable's domain if applicable).
    elements:
        The element universe.
    min_count:
        Absolute support threshold.
    counters:
        Operation counters to meter the run with.
    var:
        Label under which counted work is recorded.
    max_level:
        Optional cap on lattice depth.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; records one ``level``
        span per mining level.
    guard:
        Optional :class:`~repro.runtime.guard.RunGuard`; when a budget
        trips, the raised :class:`~repro.errors.RunInterrupted` carries
        the completed levels as its ``partial`` payload (a
        :class:`LatticeResult`).
    """
    tracer = resolve_tracer(tracer)
    guard = resolve_guard(guard).start()
    lattice = ConstrainedLattice(
        var=var,
        elements=tuple(elements),
        transactions=transactions,
        min_count=min_count,
        counters=counters,
        max_level=max_level,
        guard=guard,
    )
    with tracer.span("apriori.run", var=var, min_count=min_count):
        try:
            while True:
                level = lattice.level + 1
                with tracer.span("level", var=var, level=level) as span:
                    progressed = lattice.count_and_absorb()
                    if tracer.enabled:
                        span.set(
                            candidates_in=lattice.counted_per_level.get(level, 0),
                            frequent_out=len(lattice.frequent.get(level, {})),
                            pruned=dict(lattice.prune_counts.get(level, {})),
                        )
                if not progressed:
                    break
        except RunInterrupted as exc:
            exc.partial = lattice.result()
            raise
    return lattice.result()


def apriori(
    db: TransactionDatabase,
    minsup: float,
    elements: Optional[Iterable[int]] = None,
    counters: Optional[OpCounters] = None,
    max_level: Optional[int] = None,
    tracer=None,
    guard=None,
) -> LatticeResult:
    """Classic Apriori over a transaction database.

    ``minsup`` is relative (a fraction of the database size); ``elements``
    defaults to the items occurring in the database.
    """
    universe = tuple(sorted(elements)) if elements is not None else tuple(
        sorted(db.item_universe())
    )
    return mine_frequent(
        db.columns(),
        universe,
        db.min_count(minsup),
        counters=counters,
        max_level=max_level,
        tracer=tracer,
        guard=guard,
    )
