"""Partial-result semantics and degenerate inputs.

Complements ``test_resume_differential`` (bit-identical resume) and
``test_guard`` (guard unit behavior): here we assert what an
*interrupted* run hands back — a well-labeled ``CFQResult`` whose
partial sets are exactly the completed levels — and that the guardrail
machinery behaves on the edges: empty databases and nothing-frequent
thresholds.
"""


import pytest

from repro.core.optimizer import CFQOptimizer, mine_cfq
from repro.core.query import CFQ
from repro.datagen.workloads import quickstart_workload
from repro.db.transactions import TransactionDatabase
from repro.errors import DataError, RunInterrupted
from repro.mining.apriori import mine_frequent
from repro.mining.aprioriplus import apriori_plus
from repro.mining.cap import cap_mine
from repro.obs.report import RunReport, build_run_report
from repro.runtime.guard import RunGuard

from tests.test_resume_differential import TripAfterLevels


# ----------------------------------------------------------------------
# Partial results from the optimizer
# ----------------------------------------------------------------------
def test_partial_result_covers_exactly_the_completed_levels():
    workload = quickstart_workload(n_transactions=300)
    cfq = workload.cfq()
    full = CFQOptimizer(cfq).execute(workload.db)
    partial = CFQOptimizer(cfq).execute(
        workload.db, guard=TripAfterLevels(4)
    )
    assert partial.is_partial and not full.is_partial
    trip = partial.interruption
    assert trip.reason == "cancelled"
    for var in cfq.variables:
        completed = trip.levels_completed.get(var, 0)
        assert completed >= 1
        partial_levels = partial.raw.result_for(var).frequent
        full_levels = full.raw.result_for(var).frequent
        # Every completed level is bit-identical to the full run...
        for level in range(1, completed + 1):
            assert partial_levels.get(level, {}) == full_levels.get(level, {})
        # ...and nothing deeper than completed+1 was ever absorbed.
        assert all(level <= completed + 1 for level in partial_levels)


def test_partial_pairs_are_reverified_subset_of_full_answer():
    workload = quickstart_workload(n_transactions=300)
    cfq = workload.cfq()
    full = CFQOptimizer(cfq).execute(workload.db)
    partial = CFQOptimizer(cfq).execute(workload.db, guard=TripAfterLevels(4))
    # pairs() re-verifies the 2-var constraint exactly, so partial pairs
    # are pairs of the full answer restricted to the mined levels.
    assert set(partial.pairs()) <= set(full.pairs())


def test_partial_explain_and_report_are_labeled():
    workload = quickstart_workload(n_transactions=300)
    cfq = workload.cfq()
    guard = TripAfterLevels(3)
    result = CFQOptimizer(cfq).execute(workload.db, guard=guard)
    assert result.is_partial
    text = result.explain()
    assert "PARTIAL" in text
    assert "run budgets" in text
    report = build_run_report(result)
    assert report.answers["status"] == "partial"
    assert report.interruption["reason"] == "cancelled"
    assert report.budget["consumed"]["checks"] > 0
    # The document validates and round-trips at schema v2.
    RunReport.validate(report.to_dict())
    restored = RunReport.from_dict(report.to_dict())
    assert restored.interruption == report.interruption
    assert restored.budget == report.budget


def test_deadline_trip_end_to_end():
    workload = quickstart_workload(n_transactions=300)
    result = CFQOptimizer(workload.cfq()).execute(
        workload.db, guard=RunGuard(deadline_seconds=0.0)
    )
    assert result.is_partial
    assert result.interruption.reason == "deadline"


def test_candidate_budget_trip_end_to_end():
    workload = quickstart_workload(n_transactions=300)
    result = CFQOptimizer(workload.cfq()).execute(
        workload.db, guard=RunGuard(max_candidates=10)
    )
    assert result.is_partial
    assert result.interruption.reason == "candidates"


def test_complete_run_with_guard_is_unchanged():
    """An armed guard that never trips must not perturb the answer."""
    workload = quickstart_workload(n_transactions=300)
    plain = CFQOptimizer(workload.cfq()).execute(workload.db)
    guarded = CFQOptimizer(workload.cfq()).execute(
        workload.db, guard=RunGuard(deadline_seconds=3600.0)
    )
    assert not guarded.is_partial
    assert guarded.pairs() == plain.pairs()
    assert guarded.counters.as_dict() == plain.counters.as_dict()


# ----------------------------------------------------------------------
# Partial payloads from the standalone miners
# ----------------------------------------------------------------------
def _tripped_guard():
    return RunGuard(deadline_seconds=0.0)


def test_mine_frequent_attaches_partial_lattice():
    transactions = [(1, 2, 3), (1, 2), (2, 3)] * 5
    with pytest.raises(RunInterrupted) as excinfo:
        mine_frequent(transactions, [1, 2, 3], 2, guard=_tripped_guard())
    assert excinfo.value.partial is not None


def test_apriori_plus_partial_maps_every_variable(market_db, market_domain):
    cfq = CFQ(domains={"S": market_domain, "T": market_domain}, minsup=0.2,
              constraints=["max(S.Price) <= min(T.Price)"])
    with pytest.raises(RunInterrupted) as excinfo:
        apriori_plus(market_db, cfq, guard=_tripped_guard())
    partial = excinfo.value.partial
    assert set(partial) == {"S", "T"}  # untouched vars get empty results


def test_cap_mine_attaches_partial(market_db, market_domain):
    with pytest.raises(RunInterrupted) as excinfo:
        cap_mine(
            "S", market_domain, list(market_db.transactions),
            min_count=2, guard=_tripped_guard(),
        )
    assert excinfo.value.partial is not None


# ----------------------------------------------------------------------
# Degenerate inputs (regression: must stay clean under guardrails too)
# ----------------------------------------------------------------------
def _simple_cfq(domain, minsup=0.5):
    return CFQ(domains={"S": domain, "T": domain}, minsup=minsup,
               constraints=["max(S.Price) <= min(T.Price)"])


def test_empty_database(market_domain, tmp_path):
    db = TransactionDatabase([])
    result = CFQOptimizer(_simple_cfq(market_domain)).execute(
        db, guard=RunGuard(deadline_seconds=3600.0),
        checkpoint_dir=str(tmp_path),
    )
    assert not result.is_partial
    assert result.frequent_valid("S") == {}
    assert result.pairs() == []
    # ...and a resume over the empty-run checkpoint also comes up empty.
    resumed = CFQOptimizer(_simple_cfq(market_domain)).execute(
        db, checkpoint_dir=str(tmp_path), resume=True
    )
    assert resumed.pairs() == []


def test_database_of_empty_transactions(market_domain):
    db = TransactionDatabase([()] * 8)
    result = mine_cfq(db, _simple_cfq(market_domain))
    assert result.pairs() == []


def test_zero_frequent_singletons(market_domain):
    """minsup at the whole database: no item survives level 1."""
    db = TransactionDatabase([(1,), (2,), (3,), (4,)])
    result = mine_cfq(db, _simple_cfq(market_domain, minsup=1.0))
    assert result.frequent_valid("S") == {}
    assert result.frequent_valid("T") == {}
    assert result.pairs() == []


def test_minsup_above_database_size_rejected(market_domain):
    db = TransactionDatabase([(1, 2)])
    with pytest.raises(DataError, match="minsup"):
        mine_cfq(db, _simple_cfq(market_domain, minsup=5.0))
