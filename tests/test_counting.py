"""Support counting: correctness against the brute-force oracle and
work metering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.stats import OpCounters
from repro.mining.apriori import mine_frequent
from repro.mining.backends import HybridBackend
from repro.mining.counting import count_candidates, count_singletons, frequent_only
from tests.conftest import brute_frequent

#: The kernel, and the per-level entry point the lattice counts through.
ENTRY_POINTS = (count_candidates, HybridBackend().count)


def test_count_singletons(market_db):
    counters = OpCounters()
    support = count_singletons(market_db.transactions, range(1, 8), counters, "S")
    assert support[1] == 7
    assert support[6] == 1
    assert support[7] == 0
    assert counters.support_counted[("S", 1)] == 7
    assert counters.subset_tests > 0


def test_count_candidates_matches_direct_support(market_db):
    candidates = [(1, 2), (4, 5), (1, 6), (2, 3), (3, 6)]
    for count in ENTRY_POINTS:
        support = count(market_db.transactions, candidates, 2)
        for candidate in candidates:
            assert support[candidate] == market_db.support(candidate)


def test_count_candidates_empty(market_db):
    for count in ENTRY_POINTS:
        assert count([(1, 2)], [], 2) == {}
        assert count(market_db.transactions, [], 2) == {}


def test_count_candidates_counts_work(market_db):
    for count in ENTRY_POINTS:
        for candidates in ([(1, 2)], [(1, 2), (4, 5)]):
            counters = OpCounters()
            count(market_db.transactions, candidates, 2, counters, "T")
            assert counters.support_counted[("T", 2)] == len(candidates)
            assert counters.subset_tests > 0


def test_frequent_only():
    assert frequent_only({(1,): 5, (2,): 2}, 3) == {(1,): 5}


transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=6),
    min_size=1,
    max_size=30,
)

#: A wider item universe, where the candidate list is capped.
wide_transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=8),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(
    raw=st.one_of(transactions_strategy, wide_transactions_strategy),
    k=st.integers(min_value=2, max_value=4),
)
def test_count_candidates_matches_brute_force(raw, k):
    """Both counting strategies (subset enumeration and candidate scan)
    agree with the oracle for every candidate at every level."""
    from itertools import combinations

    transactions = [tuple(sorted(set(t))) for t in raw]
    universe = sorted({i for t in transactions for i in t})
    if len(universe) < k:
        return
    candidates = list(combinations(universe, k))[:80]
    support = count_candidates(transactions, candidates, k)
    frozen = [frozenset(t) for t in transactions]
    for candidate in candidates:
        expected = sum(1 for t in frozen if frozenset(candidate) <= t)
        assert support[candidate] == expected


@settings(max_examples=30, deadline=None)
@given(raw=transactions_strategy)
def test_singletons_match_brute_force(raw):
    transactions = [tuple(sorted(set(t))) for t in raw]
    universe = sorted({i for t in transactions for i in t})
    support = count_singletons(transactions, universe)
    oracle = brute_frequent(transactions, universe, 1, max_size=1)
    for item in universe:
        assert support[item] == oracle.get((item,), 0)


def _random_database(seed):
    """A randomized transaction database (deterministic per seed)."""
    rng = random.Random(seed)
    n_transactions = rng.randint(20, 45)
    n_items = rng.randint(8, 14)
    transactions = [
        tuple(sorted(rng.sample(range(1, n_items + 1),
                                rng.randint(0, min(7, n_items)))))
        for __ in range(n_transactions)
    ]
    universe = sorted({i for t in transactions for i in t})
    return transactions, universe, max(2, n_transactions // 8)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_full_mining_matches_oracle(seed):
    transactions, universe, min_count = _random_database(seed)
    oracle = brute_frequent(transactions, universe, min_count)
    assert mine_frequent(transactions, universe, min_count).all_sets() == oracle
