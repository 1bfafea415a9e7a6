"""Seeded inputs for the three benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so
one seed always yields the same datasets, catalogs and query streams.
The program under test only ever sees the generated objects.

Sizes and shapes are fixed across seeds; the seed moves the data and the
constants inside fixed ranges.  That keeps the cost distribution of a run
the same from seed to seed, which is what lets ten seeded runs agree
within the benchmark's bounds.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.query import CFQ
from repro.datagen.iteminfo import typed_catalog_with_overlap, uniform_prices
from repro.datagen.quest import QuestParameters, generate_quest
from repro.datagen.workloads import cascade_workload, fig8b_workload, jmax_workload
from repro.db.catalog import ItemCatalog
from repro.db.domain import Domain
from repro.db.transactions import TransactionDatabase
from repro.serve.replay import query_text
from repro.serve.server import QueryServer
from repro.serve.service import QueryService

#: mine-cold runs 20k-transaction Quest data (the fig8a/fig8b families
#: share one dataset; only their catalogs differ per query).
MINE_TRANSACTIONS = 20_000
MINE_DATASET_SEED = 1999
#: One block of mine-cold queries, in order.  Counting dominates the
#: fig8 queries, pair formation the jmax and cascade ones.
MINE_BLOCK = (
    "fig8b", "fig8a", "fig8b", "fig8a", "jmax",
    "fig8b", "fig8a", "fig8b", "fig8a", "cascade",
)
#: Each block draws one overlap (%) uniformly from every range of its
#: family, in a seeded order, so runs of different seeds see the same
#: spread of query costs.  Two of the ten queries of a block are the
#: high-overlap fig8b ones whose pair formation is the tail, so the 90th
#: percentile falls inside that group rather than on its edge.  fig8b
#: stops at 65%: above it one query's pair formation swings between 1
#: and 4 seconds with the catalog draw.
OVERLAP_RANGES = {
    "fig8a": ((10.0, 30.0), (30.0, 50.0), (50.0, 70.0), (70.0, 90.0)),
    "fig8b": ((15.0, 35.0), (15.0, 35.0), (55.0, 65.0), (55.0, 65.0)),
}
MINE_BLOCKS = 6

#: serve-sessions and churn-rw share a Figure 8(b)-style dataset size.
SERVE_TRANSACTIONS = 2_000
#: Sessions in the serve-sessions pool.  Their steps are pairwise
#: distinct queries, so a run that sees every session asks
#: 4 * SERVE_SESSIONS distinct queries: more than the result cache (32)
#: and the server's doc cache (128) hold.
SERVE_SESSIONS = 64
CHURN_SESSIONS = 12
#: Session popularity: rank r is chosen with weight 1 / r ** ZIPF_S.
ZIPF_S = 1.0
#: Refinement sessions in progress at once; the stream interleaves them.
ACTIVE_SESSIONS = 3
#: Appended or deleted transactions per churn-rw write batch (0.5%).
CHURN_BATCH = SERVE_TRANSACTIONS // 200


def numpy_seed(seed: int, *salt) -> int:
    """A seed for the program's numpy-seeded generators, derived from the
    workload seed and ``salt``.

    ``numpy.random.RandomState`` takes only 0 <= seed < 2**32, while the
    workload seed may be any integer; a string-seeded ``random.Random``
    maps both into [0, 2**31) the same way in every process, leaving room
    for the generators that add small offsets to the seed they are given.
    """
    return random.Random(f"{seed}:{salt}").randrange(2**31)


def _quest(n_transactions: int, seed: int) -> TransactionDatabase:
    return generate_quest(
        QuestParameters(
            n_transactions=n_transactions,
            avg_transaction_size=10,
            avg_pattern_size=4,
            n_patterns=300,
            n_items=600,
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# mine-cold
# ----------------------------------------------------------------------
@dataclass
class MineQuery:
    family: str
    label: str
    db: TransactionDatabase
    cfq: CFQ


def _fig8a(overlap: float, rng: random.Random, seed: int) -> Tuple[str, CFQ]:
    s_low = rng.uniform(380.0, 420.0)
    v = s_low + overlap / 100.0 * (1000.0 - s_low)
    s_items, t_items = list(range(300)), list(range(300, 600))
    prices = uniform_prices(s_items, s_low, 1000.0, seed=seed)
    prices.update(uniform_prices(t_items, 0.0, v, seed=seed + 1))
    catalog = ItemCatalog({"Price": prices})
    cfq = CFQ(
        domains={
            "S": Domain.items(catalog, name="ItemS", subset=s_items),
            "T": Domain.items(catalog, name="ItemT", subset=t_items),
        },
        minsup=0.01,
        constraints=["max(S.Price) <= min(T.Price)"],
    )
    return f"overlap={overlap:.1f} s_low={s_low:.0f}", cfq


def _fig8b(overlap: float, rng: random.Random, seed: int) -> Tuple[str, CFQ]:
    s_min = round(rng.uniform(390.0, 410.0))
    t_max = round(rng.uniform(590.0, 610.0))
    catalog = typed_catalog_with_overlap(
        n_items=600,
        s_price_range=(s_min, 1000.0),
        t_price_range=(0.0, t_max),
        overlap_pct=overlap,
        seed=seed,
    )
    item = Domain.items(catalog)
    cfq = CFQ(
        domains={"S": item, "T": item},
        minsup=0.01,
        constraints=[
            f"min(S.Price) >= {s_min}",
            f"max(T.Price) <= {t_max}",
            "S.Type = T.Type",
        ],
    )
    return f"type_overlap={overlap:.1f} s_min={s_min} t_max={t_max}", cfq


def mine_cold_inputs(seed: int) -> List[MineQuery]:
    """``MINE_BLOCKS`` blocks of distinct CFQs in ``MINE_BLOCK`` order."""
    rng = random.Random(seed)
    # The datasets are the same for every seed; the seed draws each
    # query's catalog, overlap and bounds.  A seeded Quest draw moved a
    # run's throughput by up to a fifth, and the small jmax (600) and
    # cascade (3,000 transactions) datasets moved pair counts up to 3x.
    quest = _quest(MINE_TRANSACTIONS, MINE_DATASET_SEED)
    cascade = cascade_workload()
    queries: List[MineQuery] = []
    for block in range(MINE_BLOCKS):
        grids = {}
        for family, ranges in OVERLAP_RANGES.items():
            draws = [rng.uniform(low, high) for low, high in ranges]
            grids[family] = rng.sample(draws, len(draws))
        for slot, family in enumerate(MINE_BLOCK):
            sub_seed = numpy_seed(seed, block, slot)
            if family in grids:
                overlap = grids[family].pop()
                make = _fig8a if family == "fig8a" else _fig8b
                label, cfq = make(overlap, rng, sub_seed)
                db = quest
            elif family == "jmax":
                t_mean = rng.uniform(600.0, 750.0)
                workload = jmax_workload(t_mean, core_size=9, n_s_items=20)
                label, db, cfq = f"t_mean={t_mean:.0f}", workload.db, workload.cfq()
            else:
                minsup = rng.uniform(0.022, 0.028)
                label, db = f"minsup={minsup:.4f}", cascade.db
                cfq = cascade.cfq(minsup=minsup)
            queries.append(MineQuery(family, f"{family} {label}", db, cfq))
    return queries


# ----------------------------------------------------------------------
# Refinement sessions (serve-sessions and churn-rw)
# ----------------------------------------------------------------------
def session_queries(a: int, b: int, minsup: float) -> List[Tuple[int, int, float]]:
    """One analyst's refinement: the price window narrows, then the
    threshold is relaxed to see more of the narrow window.  Every step
    keeps ``S.Type = T.Type``, so answers stay bounded."""
    return [
        (a - 40, b + 40, minsup),
        (a - 20, b + 20, minsup),
        (a, b, minsup),
        (a, b, round(minsup * 0.8, 5)),
    ]


def fig8b_query(domains, a: int, b: int, minsup: float) -> CFQ:
    return CFQ(
        domains=domains,
        minsup=minsup,
        constraints=[
            f"min(S.Price) >= {a}",
            f"max(T.Price) <= {b}",
            "S.Type = T.Type",
        ],
    )


def session_pool(rng: random.Random, n_sessions: int) -> List[List[Tuple[int, int, float]]]:
    """``n_sessions`` sessions whose steps are pairwise distinct queries,
    in the seed's order (the order is each session's popularity rank).

    The constants come from one fixed draw, the same for every seed:
    with constants drawn per seed, the mean cost of a cache miss, and
    with it ``ops_per_s``, moved by a tenth between seeds.
    """
    fixed = random.Random(0)
    sessions: List[List[Tuple[int, int, float]]] = []
    seen = set()
    while len(sessions) < n_sessions:
        steps = session_queries(
            fixed.randrange(440, 561, 10),
            fixed.randrange(440, 561, 10),
            fixed.choice((0.03, 0.04, 0.05)),
        )
        if seen.isdisjoint(steps):
            seen.update(steps)
            sessions.append(steps)
    rng.shuffle(sessions)
    return sessions


def zipf_schedule(rng: random.Random, n_sessions: int, block: int = 300):
    """Endless order in which sessions start.

    Every ``block`` consecutive starts hold each session rank in
    proportion to its Zipf weight (largest-remainder rounding), shuffled
    by ``rng``.  Drawing ranks independently instead lets the number of
    rare, uncached sessions in a run swing by a fifth from seed to seed.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_sessions)]
    quotas = [block * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(n_sessions), key=lambda rank: counts[rank] - quotas[rank]
    )
    for rank in by_remainder[: block - sum(counts)]:
        counts[rank] += 1
    order = [rank for rank in range(n_sessions) for _ in range(counts[rank])]
    while True:
        rng.shuffle(order)
        yield from order


def serve_dataset():
    """The Figure 8(b)-style dataset (Price and Type) both serving
    workloads run over.

    It is the same for every seed: the catalog's type draw moves the
    answer sizes of one query by about 40% from seed to seed, which would
    swamp the serving-path differences these workloads exist to show.
    The seed draws the sessions' popularity order, the session starts and
    the writes.
    """
    workload = fig8b_workload(50.0, n_transactions=SERVE_TRANSACTIONS)
    return workload.db, workload.domains


@dataclass
class ServeInputs:
    db: TransactionDatabase
    domains: Dict[str, Domain]
    #: ``{"query": text, "tenant": name}`` documents in send order.
    requests: List[Dict[str, str]]


def serve_sessions_inputs(seed: int, n_requests: int = 6000) -> ServeInputs:
    """Interleaved tenant sessions with Zipf-skewed popularity."""
    rng = random.Random(seed)
    db, domains = serve_dataset()
    sessions = session_pool(rng, SERVE_SESSIONS)
    texts = [
        [query_text(fig8b_query(domains, *step)) for step in session]
        for session in sessions
    ]
    schedule = zipf_schedule(rng, len(sessions))
    active = [[next(schedule), 0] for _ in range(ACTIVE_SESSIONS)]
    requests = []
    while len(requests) < n_requests:
        slot = active[rng.randrange(ACTIVE_SESSIONS)]
        session, step = slot
        requests.append({"query": texts[session][step], "tenant": f"tenant-{session % 8}"})
        if step + 1 == len(texts[session]):
            slot[:] = [next(schedule), 0]
        else:
            slot[1] = step + 1
    return ServeInputs(db, domains, requests)


@dataclass
class ChurnInputs:
    db: TransactionDatabase
    domains: Dict[str, Domain]
    #: Transactions appended batch by batch, in order.
    fresh: List[Tuple[int, ...]]
    sessions: List[List[CFQ]]
    rng: random.Random


def churn_inputs(seed: int) -> ChurnInputs:
    rng = random.Random(seed)
    db, domains = serve_dataset()
    fresh = list(_quest(2_000, numpy_seed(seed, "churn")).transactions)
    sessions = [
        [fig8b_query(domains, *step) for step in session]
        for session in session_pool(rng, CHURN_SESSIONS)
    ]
    return ChurnInputs(db, domains, fresh, sessions, rng)


def default_capacities() -> Dict[str, int]:
    """The serving caches' default capacities, read off the program's
    own constructor defaults."""
    service = inspect.signature(QueryService).parameters
    server = inspect.signature(QueryServer).parameters
    return {
        "result_cache": service["max_entries"].default,
        "skeletons": service["max_skeletons"].default,
        "doc_cache": server["doc_cache_entries"].default,
    }
