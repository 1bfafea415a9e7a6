"""The full-materialization (FM) strategy of Section 6.2.

FM is the paper's counterexample showing that minimizing support counting
alone does not make a strategy good: it first *checks every subset of the
universe* against the constraints (2^N constraint checks), then counts
support only for the valid ones, in ascending cardinality.  FM therefore
satisfies condition (1) of ccc-optimality while grossly violating
condition (2) — which is exactly what the ccc audit demonstrates on it.

Only meant for tiny universes; the implementation refuses N > 22.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.constraints.ast import Constraint
from repro.constraints.evaluate import evaluate_all
from repro.db.columns import as_columns
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.errors import ExecutionError
from repro.mining.counting import count_candidates, frequent_only
from repro.mining.itemsets import Itemset, all_nonempty_subsets
from repro.mining.lattice import LatticeResult


def full_materialization(
    var: str,
    domain: Domain,
    transactions: Sequence[Tuple[int, ...]],
    min_count: int,
    constraints: Sequence[Constraint] = (),
    counters: Optional[OpCounters] = None,
) -> LatticeResult:
    """Run the FM strategy for one variable (1-var constraints only).

    Returns the same frequent valid sets CAP would, with wildly different
    operation counts — the point of the exercise.
    """
    if len(domain.elements) > 22:
        raise ExecutionError(
            f"FM enumerates 2^N subsets; N={len(domain.elements)} is too large"
        )
    counters = counters if counters is not None else OpCounters()
    domains = {var: domain}
    transactions = as_columns(transactions)

    valid_by_level: Dict[int, List[Itemset]] = {}
    for subset in all_nonempty_subsets(domain.elements):
        counters.record_check(len(subset))
        if evaluate_all(constraints, {var: subset}, domains):
            valid_by_level.setdefault(len(subset), []).append(subset)

    frequent: Dict[int, Dict[Itemset, int]] = {}
    level1_supports: Dict[int, int] = {}
    counted: Dict[int, int] = {}
    known_infrequent: Set[Itemset] = set()
    for k in sorted(valid_by_level):
        # Frequency is anti-monotone regardless of constraints, so FM may
        # still skip candidates with a known-infrequent subset.
        candidates = [
            c for c in valid_by_level[k]
            if k == 1
            or not any(sub in known_infrequent for sub in combinations(c, k - 1))
        ]
        if not candidates:
            break
        counters.record_scan(len(transactions))
        support = count_candidates(transactions, candidates, k, counters, var)
        counted[k] = len(candidates)
        freq = frequent_only(support, min_count)
        frequent[k] = freq
        if k == 1:
            level1_supports = {c[0]: n for c, n in freq.items()}
        known_infrequent.update(c for c, n in support.items() if n < min_count)

    return LatticeResult(
        var=var,
        frequent=frequent,
        level1_supports=level1_supports,
        counted_per_level=counted,
    )
