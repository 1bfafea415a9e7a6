"""Counting-kernel guard: the columnar kernel against the loop it replaced.

On one counting-bound level-2 batch of the Figure 8(a) workload (50%
overlap, 12k transactions, 600 items, every pair of the items frequent
at 1%), :func:`repro.mining.counting.count_candidates` over
``db.columns()`` must return exactly what the per-transaction hybrid
loop of :mod:`tests.counting_oracle` returns — the same supports in the
same key order, the same ``record_counted`` ledger and the same
``subset_tests`` figure — and count at least
:data:`KERNEL_MIN_SPEEDUP` times faster.

Timing alternates loop and kernel runs in pairs after one untimed
warm-up of each (the kernel's warm-up packs the layout's bitmap, which
is then cached on it), and the guard holds the median of the per-pair
speedups, so a noisy neighbour slows both sides of a pair alike.  On
2-vCPU containers six runs measured medians of 4.9x to 6.3x and a
worst single pair of 4.06x; the 3x floor sits below that spread, while
a kernel that fell back to per-transaction work would read about 1x.
"""

import statistics
from itertools import combinations
from time import perf_counter

from repro.bench.experiments import ExperimentResult
from repro.datagen.workloads import fig8a_workload
from repro.db.stats import OpCounters
from repro.mining.counting import count_candidates, count_singletons
from tests.counting_oracle import loop_count_candidates

GUARD_TRANSACTIONS = 12_000
GUARD_ITEMS = 600
GUARD_MINSUP = 0.010
GUARD_PAIRS = 7
KERNEL_MIN_SPEEDUP = 3.0


def _count(kernel, transactions, candidates):
    counters = OpCounters()
    start = perf_counter()
    support = kernel(transactions, candidates, 2, counters, "S")
    return perf_counter() - start, support, counters


def _kernel_guard_table():
    workload = fig8a_workload(
        50.0, n_transactions=GUARD_TRANSACTIONS, n_items=GUARD_ITEMS
    )
    db = workload.db
    columns = db.columns()
    min_count = db.min_count(GUARD_MINSUP)
    singles = count_singletons(columns, db.item_universe())
    frequent = sorted(item for item, s in singles.items() if s >= min_count)
    candidates = list(combinations(frequent, 2))
    assert len(candidates) >= 1000, "guard batch must be counting-bound"

    _count(loop_count_candidates, db.transactions, candidates)
    _count(count_candidates, columns, candidates)
    speedups = []
    loop_times, kernel_times = [], []
    for __ in range(GUARD_PAIRS):
        loop_s, expected, loop_counters = _count(
            loop_count_candidates, db.transactions, candidates
        )
        kernel_s, support, counters = _count(count_candidates, columns, candidates)
        assert list(support.items()) == list(expected.items())
        assert counters.as_dict() == loop_counters.as_dict()
        assert counters.support_counted == loop_counters.support_counted
        loop_times.append(loop_s)
        kernel_times.append(kernel_s)
        speedups.append(loop_s / kernel_s)
    table = ExperimentResult(
        experiment=(
            "Counting-kernel guard (Figure 8(a), 50% overlap, "
            f"N={GUARD_TRANSACTIONS}, {len(candidates)} level-2 candidates, "
            f"{GUARD_PAIRS} alternating pairs)"
        ),
        headers=["path", "median_count_seconds", "median_pair_speedup",
                 "min_pair_speedup"],
        rows=[
            ["per-transaction loop", round(statistics.median(loop_times), 4),
             1.0, 1.0],
            ["columnar kernel", round(statistics.median(kernel_times), 4),
             round(statistics.median(speedups), 2), round(min(speedups), 2)],
        ],
        notes=[
            "supports, key order, ledger and subset_tests asserted "
            "identical in every pair",
            f"guard: median pair speedup >= {KERNEL_MIN_SPEEDUP}x",
        ],
    )
    return table, statistics.median(speedups)


def test_counting_kernel_speedup(benchmark, record):
    table, median_speedup = benchmark.pedantic(
        _kernel_guard_table, rounds=1, iterations=1
    )
    record(table)
    assert median_speedup >= KERNEL_MIN_SPEEDUP, table.rows
