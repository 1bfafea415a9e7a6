"""The per-level counting entry point (``HybridBackend``) must agree with
direct support and with the brute-force oracle, and meter its work."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.stats import OpCounters
from repro.mining.backends import HybridBackend

BACKENDS = {HybridBackend.name: HybridBackend}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_backend_agrees_with_direct_support(market_db, name):
    backend = BACKENDS[name]()
    candidates = [(1, 2), (4, 5), (2, 3), (1, 6), (3, 6)]
    support = backend.count(market_db.transactions, candidates, 2)
    for candidate in candidates:
        assert support[candidate] == market_db.support(candidate), name


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_backend_empty_candidates(market_db, name):
    backend = BACKENDS[name]()
    assert backend.count(market_db.transactions, [], 2) == {}


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.lists(st.integers(min_value=0, max_value=25), min_size=0, max_size=8),
        min_size=1,
        max_size=30,
    ),
    k=st.integers(min_value=2, max_value=4),
    name=st.sampled_from(sorted(BACKENDS)),
)
def test_backends_match_oracle_property(raw, k, name):
    transactions = [tuple(sorted(set(t))) for t in raw]
    universe = sorted({i for t in transactions for i in t})
    if len(universe) < k:
        return
    candidates = list(combinations(universe, k))[:80]
    support = BACKENDS[name]().count(transactions, candidates, k)
    frozen = [frozenset(t) for t in transactions]
    for candidate in candidates:
        expected = sum(1 for t in frozen if frozenset(candidate) <= t)
        assert support[candidate] == expected, (name, candidate)


def test_backends_meter_work(market_db):
    for name in sorted(BACKENDS):
        counters = OpCounters()
        BACKENDS[name]().count(
            market_db.transactions, [(1, 2), (4, 5)], 2, counters, "S"
        )
        assert counters.subset_tests > 0, name
        assert counters.support_counted[("S", 2)] == 2
