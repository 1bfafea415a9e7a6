"""Columnar kernels against the per-transaction loops they replaced.

:mod:`repro.db.columns` lays a transaction list out as CSR arrays and the
kernels of :mod:`repro.mining.counting` count over it as array
operations; :meth:`Domain.project_columns` and lattice trimming project
it with masks.  The loops in :mod:`tests.counting_oracle` are the
contract, and this suite holds the array code to it exactly:

* **projection** — row for row equal to ``[domain.project(t) ...]`` for
  item, segment and derived domains (many-to-one and unmapped items);
* **counting** — supports, dict key order, the ``record_counted`` ledger
  and ``subset_tests`` identical to the loops, over empty databases and
  transactions, negative and huge (> 2**22) ids, candidates with absent
  items, duplicate candidates, k from 1 to 5, and the enumerate/scan tie
  ``C(m, k) == |C| * k``;
* **sharding** — supports and ``subset_tests`` of any CSR slicing sum to
  the serial pass;
* **popcount** — the lookup-table fallback for numpy < 2 equals
  ``numpy.bitwise_count``;
* **engine** — whole optimizer runs (fig8a, fig8b, jmax, cascade,
  quickstart and a Type-domain query) produce the full
  ``OpCounters.as_dict()``, ledger and lattice state of a run on the
  loops;
* **memory** — counting 2k candidates over 200k transactions stays
  within the packed matrix plus a small multiple of the word budget.
"""

from __future__ import annotations

import pickle
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.optimizer import CFQOptimizer
from repro.core.query import CFQ
from repro.datagen.workloads import (
    cascade_workload,
    fig8a_workload,
    fig8b_workload,
    jmax_workload,
    quickstart_workload,
)
from repro.db.catalog import ItemCatalog
from repro.db.columns import TransactionColumns, as_columns
from repro.db.digest import transactions_digest
from repro.db.domain import Domain, derived_type_domain
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.mining.counting import (
    WORD_BUDGET,
    count_candidates,
    count_singletons,
    popcount_words,
)
from repro.mining.delta import SupportIndex
from tests.counting_oracle import (
    loop_count_candidates,
    loop_count_singletons,
    loop_project,
    loop_trim,
    oracle_path,
)

SETTINGS = settings(max_examples=150, deadline=None)

#: Item ids across every path: negative, small, and past 2**22, where
#: a dense item-id lookup table stops being affordable.
HUGE = (1 << 22) + 9
ITEM = st.one_of(
    st.integers(min_value=-4, max_value=12),
    st.sampled_from([HUGE, HUGE + 1, 1 << 40]),
)
TRANSACTIONS = st.lists(
    st.lists(ITEM, max_size=8).map(lambda t: tuple(sorted(set(t)))),
    max_size=30,
)


def _ledger(counters):
    return counters.as_dict(), dict(counters.support_counted)


class RecordingGuard:
    """An enabled guard that records every tick's units."""

    enabled = True

    def __init__(self):
        self.ticks = []

    def tick(self, units=1, where="counting"):
        self.ticks.append(units)


# ----------------------------------------------------------------------
# The layout itself
# ----------------------------------------------------------------------
@SETTINGS
@given(transactions=TRANSACTIONS, data=st.data())
def test_columns_are_a_tuple_sequence(transactions, data):
    columns = TransactionColumns.from_transactions(transactions)
    assert len(columns) == len(transactions)
    assert list(columns) == transactions
    assert columns.n_entries == sum(map(len, transactions))
    assert transactions_digest(columns) == transactions_digest(transactions)
    if transactions:
        index = data.draw(st.integers(-len(transactions), len(transactions) - 1))
        assert columns[index] == transactions[index]
    start = data.draw(st.integers(-3, len(transactions) + 3))
    stop = data.draw(st.integers(-3, len(transactions) + 3))
    step = data.draw(st.sampled_from([None, 1, 2, -1]))
    assert list(columns[start:stop:step]) == transactions[start:stop:step]
    restored = pickle.loads(pickle.dumps(columns[start:stop]))
    assert list(restored) == transactions[start:stop]
    with pytest.raises(IndexError):
        columns[len(transactions)]


def test_non_canonical_rows_are_normalized():
    columns = TransactionColumns.from_transactions([(3, 1, 1), (), (2, 2), (5,)])
    assert list(columns) == [(1, 3), (), (2,), (5,)]
    assert as_columns(columns) is columns


# ----------------------------------------------------------------------
# Projection and trimming
# ----------------------------------------------------------------------
@st.composite
def domains(draw):
    """Item domains (whole catalog or a segment) and derived domains
    with many-to-one and unmapped items."""
    items = sorted(draw(st.sets(ITEM, min_size=1, max_size=10)))
    kind = draw(st.sampled_from(["items", "segment", "type", "partial"]))
    types = {i: draw(st.sampled_from("abc")) for i in items}
    catalog = ItemCatalog({"Type": types, "Price": {i: 1.0 for i in items}})
    if kind == "items":
        return Domain.items(catalog)
    if kind == "segment":
        return Domain.items(catalog, subset=draw(st.sets(st.sampled_from(items))))
    if kind == "type":
        return derived_type_domain(catalog)
    # A hand-built derived domain mapping only some items (many-to-one).
    mapped = draw(st.sets(st.sampled_from(items), min_size=1))
    mapping = {i: draw(st.sampled_from([-2, 0, 1, HUGE])) for i in mapped}
    elements = sorted(set(mapping.values()))
    element_catalog = ItemCatalog({"Value": {e: e for e in elements}})
    return Domain("Partial", elements, element_catalog,
                  {e: e for e in elements}, item_to_element=mapping)


@SETTINGS
@given(transactions=TRANSACTIONS, domain=domains())
def test_project_columns_matches_projection_loop(transactions, domain):
    projected = domain.project_columns(
        TransactionColumns.from_transactions(transactions)
    )
    assert list(projected) == loop_project(domain, transactions)
    db = TransactionDatabase(transactions)
    assert db.projected(domain).transactions == tuple(
        loop_project(domain, transactions)
    )


@SETTINGS
@given(transactions=TRANSACTIONS, keep=st.sets(ITEM))
def test_restrict_matches_trimming_loop(transactions, keep):
    columns = TransactionColumns.from_transactions(transactions)
    trimmed = columns.restrict(columns.vocab_mask(keep))
    assert list(trimmed) == loop_trim(transactions, keep)
    db = TransactionDatabase(transactions)
    assert db.filtered(keep).transactions == tuple(loop_trim(transactions, keep))
    assert db.item_universe() == frozenset(i for t in transactions for i in t)


# ----------------------------------------------------------------------
# Counting kernels
# ----------------------------------------------------------------------
@st.composite
def counting_inputs(draw):
    transactions = draw(TRANSACTIONS)
    k = draw(st.integers(1, 5))
    present = sorted({i for t in transactions for i in t})
    pool = sorted(set(present) | {-9, 77, HUGE + 2})  # some absent items
    candidates = draw(st.lists(
        st.sets(st.sampled_from(pool), min_size=k, max_size=k).map(
            lambda c: tuple(sorted(c))
        ),
        max_size=25,
    )) if len(pool) >= k else []
    if candidates and draw(st.booleans()):
        candidates += draw(st.lists(st.sampled_from(candidates), max_size=5))
    return transactions, candidates, k


@SETTINGS
@given(inputs=counting_inputs())
# The enumerate/scan tie: one transaction with m = 4 relevant items and
# three 2-candidates, so C(4, 2) == 3 * 2.
@example(inputs=([(1, 2, 3, 4), (1, 2), ()], [(1, 2), (3, 4), (2, 3)], 2))
def test_count_candidates_matches_hybrid_loop(inputs):
    transactions, candidates, k = inputs
    expected_counters, counters = OpCounters(), OpCounters()
    expected = loop_count_candidates(transactions, candidates, k,
                                     expected_counters, "T")
    columns = TransactionColumns.from_transactions(transactions)
    got = count_candidates(columns, candidates, k, counters, "T")
    assert list(got.items()) == list(expected.items())
    assert _ledger(counters) == _ledger(expected_counters)
    # A plain tuple list is laid out on the fly, with the same result.
    assert list(count_candidates(transactions, candidates, k).items()) == (
        list(expected.items())
    )


def test_tie_between_enumeration_and_scan_is_metered_exactly():
    transactions = [(1, 2, 3, 4), (1, 2), ()]
    candidates = [(1, 2), (3, 4), (2, 3)]
    assert comb(4, 2) == len(candidates) * 2  # the tie really occurs
    expected_counters, counters = OpCounters(), OpCounters()
    loop_count_candidates(transactions, candidates, 2, expected_counters)
    count_candidates(transactions, candidates, 2, counters)
    # len(t) for all three, plus min(6, 6) for the tie and C(2, 2) = 1.
    assert counters.subset_tests == expected_counters.subset_tests == 6 + 6 + 1


@SETTINGS
@given(transactions=TRANSACTIONS, elements=st.lists(ITEM, max_size=12))
def test_count_singletons_matches_loop(transactions, elements):
    expected_counters, counters = OpCounters(), OpCounters()
    expected = loop_count_singletons(transactions, elements,
                                     expected_counters, "S")
    got = count_singletons(TransactionColumns.from_transactions(transactions),
                           elements, counters, "S")
    assert list(got.items()) == list(expected.items())
    assert _ledger(counters) == _ledger(expected_counters)


@SETTINGS
@given(inputs=counting_inputs())
def test_guard_units_match_the_loop(inputs):
    """Chunked ticks carry the same total units as per-transaction ticks."""
    transactions, candidates, k = inputs
    loop_guard, guard = RecordingGuard(), RecordingGuard()
    loop_count_candidates(transactions, candidates, k, guard=loop_guard)
    count_candidates(transactions, candidates, k, guard=guard)
    assert sum(guard.ticks) == sum(loop_guard.ticks)
    loop_guard, guard = RecordingGuard(), RecordingGuard()
    loop_count_singletons(transactions, [1, 2], guard=loop_guard)
    count_singletons(transactions, [1, 2], guard=guard)
    assert sum(guard.ticks) == sum(loop_guard.ticks)


def test_guard_ticks_once_per_gather_chunk(monkeypatch):
    import repro.mining.counting as counting

    monkeypatch.setattr(counting, "WORD_BUDGET", 1)
    transactions = [(1, 2, 3)] * 70  # two words per bitmap row
    candidates = [(1, 2), (1, 3), (2, 3)]
    guard = RecordingGuard()
    count_candidates(transactions, candidates, 2, guard=guard)
    assert guard.ticks == [2 * 70] * 3  # one candidate per chunk


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
@SETTINGS
@given(inputs=counting_inputs(), cuts=st.lists(st.integers(0, 30), max_size=5))
def test_any_csr_slicing_sums_to_the_serial_pass(inputs, cuts):
    transactions, candidates, k = inputs
    columns = TransactionColumns.from_transactions(transactions)
    serial_counters = OpCounters()
    serial = count_candidates(columns, candidates, k, serial_counters)
    bounds = [0] + sorted(min(c, len(columns)) for c in cuts) + [len(columns)]
    serial_singles = count_singletons(columns, [1, HUGE])
    merged = dict.fromkeys(serial, 0)
    singles = dict.fromkeys(serial_singles, 0)
    tests = single_tests = 0
    for lo, hi in zip(bounds, bounds[1:]):
        shard_counters = OpCounters()
        for itemset, n in count_candidates(columns[lo:hi], candidates, k,
                                           shard_counters).items():
            merged[itemset] += n
        tests += shard_counters.subset_tests
        shard_counters = OpCounters()
        for item, n in count_singletons(columns[lo:hi], [1, HUGE],
                                        shard_counters).items():
            singles[item] += n
        single_tests += shard_counters.subset_tests
    assert merged == serial
    assert tests == serial_counters.subset_tests
    assert singles == serial_singles
    assert single_tests == columns.n_entries


@SETTINGS
@given(transactions=TRANSACTIONS, probes=st.lists(
    st.lists(ITEM, max_size=3).map(lambda c: tuple(sorted(set(c)))),
    max_size=10,
))
def test_support_index_matches_direct_support(transactions, probes):
    index = SupportIndex(TransactionColumns.from_transactions(transactions))
    db = TransactionDatabase(transactions)
    for candidate in probes:
        expected = sum(1 for t in transactions if set(candidate) <= set(t))
        assert index.support(candidate) == expected
        assert db.support(candidate) == expected


def test_popcount_lut_fallback_matches_bitwise_count(monkeypatch):
    """Old numpys lack ``bitwise_count``; the byte-LUT fallback must be
    bit-identical to both it and the Python reference."""
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=(5, 9), dtype=np.uint64)
    reference = [[bin(w).count("1") for w in row] for row in words.tolist()]
    assert popcount_words(words).tolist() == reference
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert popcount_words(words).tolist() == reference


# ----------------------------------------------------------------------
# Whole engine runs: every counter and all lattice state
# ----------------------------------------------------------------------
def _type_domain_query():
    workload = quickstart_workload(n_transactions=300)
    cfq = CFQ(
        domains={"S": workload.domains["S"],
                 "T": derived_type_domain(workload.catalog)},
        minsup={"S": 0.02, "T": 0.05},
        constraints=["S.Type ⊆ T"],
    )
    return workload.db, cfq


ENGINE_QUERIES = {
    "fig8a": lambda: _workload_query(fig8a_workload(50.0, n_items=150,
                                                    n_transactions=500)),
    "fig8b": lambda: _workload_query(fig8b_workload(40.0, n_items=120,
                                                    n_transactions=400)),
    "fig8b-300": lambda: _workload_query(fig8b_workload(40.0, n_items=120,
                                                        n_transactions=300)),
    "jmax": lambda: _workload_query(jmax_workload(650.0, n_transactions=200,
                                                  core_size=8)),
    "jmax-600": lambda: _workload_query(jmax_workload(600.0, n_transactions=200,
                                                      core_size=8)),
    "cascade": lambda: _workload_query(cascade_workload(n_transactions=600)),
    "quickstart": lambda: _workload_query(quickstart_workload(n_transactions=300)),
    "type-domain": _type_domain_query,
}


def _workload_query(workload):
    return workload.db, workload.cfq()


def _engine_state(db, cfq):
    result = CFQOptimizer(cfq).execute(db)
    lattices = {
        var: (
            [(k, list(sets.items())) for k, sets in lattice.frequent.items()],
            list(lattice.level1_supports.items()),
            lattice.counted_per_level,
            lattice.prune_counts,
            lattice.border,
        )
        for var, lattice in result.raw.lattices.items()
    }
    return (
        result.counters.as_dict(),
        dict(result.counters.support_counted),
        lattices,
        list(result.pairs(limit=None)),
        result.raw.bound_histories,
    )


@pytest.mark.parametrize("name", sorted(ENGINE_QUERIES))
def test_engine_counters_and_lattices_match_the_loop_path(name, monkeypatch):
    db, cfq = ENGINE_QUERIES[name]()
    columnar = _engine_state(db, cfq)
    with oracle_path(monkeypatch):
        looped = _engine_state(TransactionDatabase(db.transactions), cfq)
    assert columnar == looped
    assert columnar[0]["subset_tests"] > 0


# ----------------------------------------------------------------------
# Memory: the gather buffers are bounded by the word budget
# ----------------------------------------------------------------------
def _sparse_columns(n_transactions, n_items, density, seed):
    """A random layout built straight from arrays (no tuple list)."""
    rng = np.random.default_rng(seed)
    rows, codes = [], []
    for code in range(n_items):
        hit = np.flatnonzero(rng.random(n_transactions) < density)
        rows.append(hit)
        codes.append(np.full(len(hit), code))
    rows, codes = np.concatenate(rows), np.concatenate(codes)
    order = np.lexsort((codes, rows))
    rows = rows[order].astype(np.int32)
    offsets = np.zeros(n_transactions + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_transactions), out=offsets[1:])
    vocab = np.arange(n_items, dtype=np.int64) * 7 + 3
    return TransactionColumns(vocab, codes[order].astype(np.int32), offsets, rows)


def test_counting_memory_stays_within_budget_plus_matrix():
    columns = _sparse_columns(200_000, 100, 0.04, seed=5)
    items = columns.vocab.tolist()
    candidates = list(combinations(items, 2))[::2][:2000]
    assert len(candidates) == 2000
    tracemalloc.start()
    try:
        count_candidates(columns, candidates, 2, OpCounters())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = columns.bitmap().nbytes
    budget_bytes = WORD_BUDGET * 8
    # Two gather buffers, the popcount output, one histogram block and
    # one packing block, each about a budget's worth.
    assert peak <= matrix + 6 * budget_bytes, (peak, matrix, budget_bytes)
    # An unchunked gather would hold every candidate's row at once.
    assert 6 * budget_bytes < len(candidates) * columns.n_words * 8 // 10
