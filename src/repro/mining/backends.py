"""The counting entry point the levelwise lattice calls per level.

:class:`HybridBackend` forwards a level's candidate batch to
:func:`repro.mining.counting.count_candidates`, the columnar AND +
popcount kernel, metered as enumerate-or-scan (see that module).  It is
the one place every level-k counting pass goes through, so callers that
time or substitute counting hook ``HybridBackend.count`` (or this
module's ``count_candidates``) instead of each driver.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.db.stats import OpCounters
from repro.itemsets import Itemset
from repro.mining.counting import count_candidates


class HybridBackend:
    """The columnar kernel, metered as enumerate-or-scan."""

    name = "hybrid"

    def count(
        self,
        transactions: Sequence[Tuple[int, ...]],
        candidates: Sequence[Itemset],
        k: int,
        counters: Optional[OpCounters] = None,
        var: str = "S",
        guard=None,
    ) -> Dict[Itemset, int]:
        return count_candidates(transactions, candidates, k, counters, var,
                                guard=guard)
