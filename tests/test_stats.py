"""Unit tests for the ccc operation counters."""

from repro.db.stats import CostWeights, OpCounters, ScanStats


def test_record_counted_accumulates():
    counters = OpCounters()
    counters.record_counted("S", 2, 10)
    counters.record_counted("S", 2, 5)
    counters.record_counted("T", 1, 7)
    assert counters.support_counted[("S", 2)] == 15
    assert counters.total_counted == 22
    assert counters.counted_for("S") == 15
    assert counters.counted_by_level("S") == {2: 15}


def test_record_check_splits_by_size():
    counters = OpCounters()
    counters.record_check(1, 4)
    counters.record_check(3)
    assert counters.constraint_checks_singleton == 4
    assert counters.constraint_checks_larger == 1
    assert counters.total_checks == 5


def test_record_scan():
    counters = OpCounters()
    counters.record_scan(100)
    counters.record_scan(50)
    assert counters.scans == 2
    assert counters.tuples_read == 150


def test_cost_is_weighted_sum():
    counters = OpCounters()
    counters.subset_tests = 10
    counters.record_counted("S", 1, 2)
    counters.record_check(1, 3)
    counters.record_scan(4)
    weights = CostWeights(subset_test=1, counted_set=5, check=1, tuple_read=0.5)
    assert counters.cost(weights) == 10 + 2 * 5 + 3 + 4 * 0.5


def test_merged_adds_everything():
    a = OpCounters()
    a.record_counted("S", 1, 2)
    a.record_check(2)
    a.record_scan(10)
    b = OpCounters()
    b.record_counted("S", 1, 3)
    b.record_counted("T", 2, 1)
    b.pair_checks = 4
    merged = a.merged(b)
    assert merged.support_counted[("S", 1)] == 5
    assert merged.support_counted[("T", 2)] == 1
    assert merged.constraint_checks_larger == 1
    assert merged.tuples_read == 10
    assert merged.pair_checks == 4
    # Originals untouched.
    assert a.support_counted[("S", 1)] == 2


def test_as_dict_keys():
    summary = OpCounters().as_dict()
    assert {"sets_counted", "scans", "cost"} <= set(summary)


def test_scan_stats_merged():
    merged = ScanStats(1, 10).merged(ScanStats(2, 5))
    assert merged.scans == 3
    assert merged.tuples_read == 15
