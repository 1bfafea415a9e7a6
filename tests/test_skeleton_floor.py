"""The served floor keeps a skeleton's threshold steady under churn.

A skeleton cold-built at threshold ``m0`` over ``n0`` transactions serves
the relative minsups above ``(m0 - 1) / n0``.  Refreshes derive every
new threshold from that exact floor, so alternating appends and deletes
leave the threshold where a cold build at the same floor would put it —
instead of rounding down again on every write.
"""

import math
import random
from fractions import Fraction

from repro.datagen.workloads import quickstart_workload
from repro.serve import build_skeleton, refresh_skeleton


def _churn_transactions(db, n, rng):
    universe = sorted(db.item_universe())
    lengths = [len(t) for t in db.transactions if t] or [1]
    return [
        tuple(sorted(rng.sample(universe, min(rng.choice(lengths), len(universe)))))
        for _ in range(n)
    ]


def test_cold_build_records_its_served_floor():
    workload = quickstart_workload(n_transactions=250)
    skeleton = build_skeleton(workload.db, workload.domains["S"], 15)
    assert skeleton.served_floor == Fraction(14, 250)


def test_alternating_churn_does_not_ratchet_the_threshold():
    workload = quickstart_workload(n_transactions=250)
    db, domain = workload.db, workload.domains["S"]
    skeleton = build_skeleton(db, domain, 15)
    floor = skeleton.served_floor
    rng = random.Random(40)
    added = []
    for step in range(40):
        if step % 2 == 0:
            db, delta = db.append(_churn_transactions(db, 8, rng))
            added = list(range(len(db) - 8, len(db)))
        else:
            db, delta = db.delete(added)
        skeleton, stats = refresh_skeleton(skeleton, db, delta)
        at_floor = math.floor(floor * len(db)) + 1
        assert abs(skeleton.min_count - at_floor) <= 1, (step, skeleton.min_count)
        assert skeleton.served_floor == floor
        cold = build_skeleton(db, domain, skeleton.min_count)
        assert skeleton.supports == cold.supports, step
        assert skeleton.border == cold.border, step
    assert len(db) == 250
    assert skeleton.min_count == 15


def test_explicit_threshold_starts_a_new_floor():
    workload = quickstart_workload(n_transactions=250)
    db, domain = workload.db, workload.domains["S"]
    skeleton = build_skeleton(db, domain, 20)
    db2, delta = db.append([[1, 2, 3]])
    refreshed, _ = refresh_skeleton(skeleton, db2, delta, min_count=14)
    assert refreshed.served_floor == Fraction(13, len(db2))
