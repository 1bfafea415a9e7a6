"""ccc-optimality: Definition 6, Theorem 4 and Corollary 2, made testable.

Definition 6 says a strategy is **ccc-optimal** for a constraint class iff

1. it counts the support of a candidate set ``CS`` iff all subsets of
   ``CS`` are frequent and ``CS`` is valid; and
2. it invokes the constraint-checking operation only on singletons
   (so at most ``N`` invocations over an ``N``-element domain).

This module audits *actual runs* against those conditions using a
brute-force oracle:

* the oracle mines all frequent sets per variable unconstrained;
* a set is **valid** in the Definition 3 sense: it satisfies its own
  1-var constraints, and for every 2-var constraint some frequent set of
  the other variable (any size) satisfies it jointly;
* the audited strategy runs with ``keep_candidates=True`` so the exact
  sets it counted are known.

Condition (1) is audited in two strengths:

* **strict** — every counted set has *all* subsets frequent.  This is
  Definition 6 verbatim; it holds for item-filter-style succinct
  constraints and for unconstrained mining.
* **mgf** — every counted set has all its *valid* subsets frequent.
  Under a required-bucket (member generating function) constraint the
  frequency of invalid subsets is unknowable without counting them —
  which condition (1) itself forbids — so this is the reading under which
  Theorem 4's claim is coherent, and the one CAP satisfies.

Completeness (the "if" direction of condition (1)) is audited strictly:
every set of size >= 2 that is valid with all subsets frequent must have
been counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.evaluate import evaluate_constraint
from repro.core.optimizer import CFQOptimizer, CFQResult
from repro.core.query import CFQ
from repro.db.transactions import TransactionDatabase
from repro.mining.apriori import mine_frequent
from repro.itemsets import Itemset


@dataclass
class CCCReport:
    """Outcome of auditing one run against Definition 6."""

    condition1_strict: bool
    condition1_mgf: bool
    condition1_complete: bool
    condition2: bool
    universe_size: int
    singleton_checks: int
    larger_checks: int
    violations: List[str] = field(default_factory=list)

    @property
    def ccc_optimal(self) -> bool:
        """ccc-optimality under the MGF reading of condition (1)."""
        return self.condition1_mgf and self.condition1_complete and self.condition2

    @property
    def ccc_optimal_strict(self) -> bool:
        """ccc-optimality under the verbatim reading of condition (1)."""
        return self.condition1_strict and self.condition1_complete and self.condition2

    def describe(self) -> str:
        """Human-readable audit summary."""
        lines = [
            f"condition 1 (counted => valid & subsets frequent): "
            f"strict={self.condition1_strict} mgf={self.condition1_mgf}",
            f"condition 1 (valid & subsets frequent => counted): "
            f"{self.condition1_complete}",
            f"condition 2 (checks only on singletons): {self.condition2} "
            f"({self.singleton_checks} singleton checks over universe of "
            f"{self.universe_size}; {self.larger_checks} larger-set checks)",
        ]
        lines.extend(f"violation: {v}" for v in self.violations[:10])
        if len(self.violations) > 10:
            lines.append(f"... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class _Oracle:
    """Ground-truth frequency and Definition-3 validity for one CFQ run."""

    def __init__(self, db: TransactionDatabase, cfq: CFQ, max_level: Optional[int]):
        self.cfq = cfq
        self.frequent: Dict[str, Dict[Itemset, int]] = {}
        self.eligible_partners: Dict[str, List[Itemset]] = {}
        for var in cfq.variables:
            domain = cfq.domains[var]
            projected = domain.project_columns(db.columns())
            result = mine_frequent(
                projected,
                domain.elements,
                db.min_count(cfq.minsup_for(var)),
                max_level=max_level,
            )
            self.frequent[var] = result.all_sets()
        # Partners for the 2-var existential must satisfy their own 1-var
        # constraints: elements of any answer pair do, and the engine's
        # reduction constants are computed from the constrained L1, so
        # this is the coherent joint reading of Definition 3.
        for var in cfq.variables:
            own = cfq.onevar_for(var)
            self.eligible_partners[var] = [
                itemset
                for itemset in self.frequent[var]
                if all(
                    evaluate_constraint(c, {var: itemset}, cfq.domains)
                    for c in own
                )
            ]

    def is_frequent(self, var: str, itemset: Itemset) -> bool:
        return itemset in self.frequent[var]

    def all_subsets_frequent(self, var: str, itemset: Itemset) -> bool:
        return all(
            subset in self.frequent[var]
            for subset in combinations(itemset, len(itemset) - 1)
        )

    def is_valid(self, var: str, itemset: Itemset) -> bool:
        """Definition-3 validity of a set, per-constraint existential."""
        cfq = self.cfq
        domains = cfq.domains
        for constraint in cfq.onevar_for(var):
            if not evaluate_constraint(constraint, {var: itemset}, domains):
                return False
        for constraint in cfq.twovar:
            variables = constraint.variables()
            if var not in variables:
                continue
            (other,) = variables - {var}
            witnessed = any(
                evaluate_constraint(
                    constraint, {var: itemset, other: partner}, domains
                )
                for partner in self.eligible_partners[other]
            )
            if not witnessed:
                return False
        return True


def audit_ccc(
    db: TransactionDatabase,
    cfq: CFQ,
    dovetail: bool = True,
    use_reduction: bool = True,
    use_jmax: bool = True,
    oracle_max_level: Optional[int] = None,
) -> Tuple[CFQResult, CCCReport]:
    """Run the optimizer's strategy on ``cfq`` and audit it.

    Only sensible on small workloads: the oracle mines unconstrained and
    validity checks are existential over all frequent partner sets.
    """
    result = CFQOptimizer(cfq).execute(
        db,
        dovetail=dovetail,
        use_reduction=use_reduction,
        use_jmax=use_jmax,
        keep_candidates=True,
    )
    report = audit_counted_sets(
        db, cfq, result.raw.candidate_logs, result.counters,
        oracle_max_level=oracle_max_level,
    )
    return result, report


def audit_counted_sets(
    db: TransactionDatabase,
    cfq: CFQ,
    candidate_logs: Mapping[str, Mapping[int, Sequence[Itemset]]],
    counters,
    oracle_max_level: Optional[int] = None,
) -> CCCReport:
    """Audit explicit per-level candidate logs against Definition 6."""
    oracle = _Oracle(db, cfq, oracle_max_level)
    violations: List[str] = []
    strict_ok = True
    mgf_ok = True

    validity_cache: Dict[Tuple[str, Itemset], bool] = {}

    def valid(var: str, itemset: Itemset) -> bool:
        key = (var, itemset)
        if key not in validity_cache:
            validity_cache[key] = oracle.is_valid(var, itemset)
        return validity_cache[key]

    counted: Dict[str, Set[Itemset]] = {}
    for var, levels in candidate_logs.items():
        counted[var] = set()
        for k, candidates in levels.items():
            counted[var].update(candidates)
            if k < 2:
                continue
            for candidate in candidates:
                if not valid(var, candidate):
                    mgf_ok = False
                    strict_ok = False
                    violations.append(f"{var}: counted invalid set {candidate}")
                    continue
                for subset in combinations(candidate, k - 1):
                    frequent = oracle.is_frequent(var, subset)
                    if not frequent:
                        strict_ok = False
                        if valid(var, subset):
                            mgf_ok = False
                            violations.append(
                                f"{var}: counted {candidate} whose valid subset "
                                f"{subset} is infrequent"
                            )

    complete_ok = True
    for var in cfq.variables:
        frequent = oracle.frequent[var]
        by_level: Dict[int, List[Itemset]] = {}
        for itemset in frequent:
            by_level.setdefault(len(itemset), []).append(itemset)
        deepest = max(by_level) if by_level else 0
        for k in range(2, deepest + 2):
            required = _closed_valid_candidates(oracle, var, k, valid)
            missing = required - counted.get(var, set())
            for itemset in sorted(missing):
                complete_ok = False
                violations.append(
                    f"{var}: never counted {itemset} though it is valid with "
                    f"all subsets frequent"
                )

    universe = sum(len(cfq.domains[var].elements) for var in cfq.variables)
    return CCCReport(
        condition1_strict=strict_ok,
        condition1_mgf=mgf_ok,
        condition1_complete=complete_ok,
        condition2=counters.constraint_checks_larger == 0,
        universe_size=universe,
        singleton_checks=counters.constraint_checks_singleton,
        larger_checks=counters.constraint_checks_larger,
        violations=violations,
    )


def _closed_valid_candidates(oracle: _Oracle, var: str, k: int, valid) -> Set[Itemset]:
    """All k-sets whose every (k-1)-subset is frequent and that are valid."""
    prev = [s for s in oracle.frequent[var] if len(s) == k - 1]
    prev_set = set(prev)
    required: Set[Itemset] = set()
    by_prefix: Dict[Itemset, List[int]] = {}
    for itemset in prev:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    for prefix, tails in by_prefix.items():
        tails.sort()
        for i in range(len(tails)):
            for j in range(i + 1, len(tails)):
                candidate = prefix + (tails[i], tails[j])
                if all(
                    subset in prev_set
                    for subset in combinations(candidate, k - 1)
                ) and valid(var, candidate):
                    required.add(candidate)
    return required
