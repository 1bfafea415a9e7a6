"""Differential tests: the block pair-formation kernel against the nested loop.

The oracle below is the straightforward nested loop final pair formation
used to be: every pair, every 2-var constraint in order, short-circuiting
on the first failure, each check metered as one ``pair_checks`` and
decided by :func:`~repro.constraints.evaluate.evaluate_constraint`.  It
shares no code with :mod:`repro.core.pairs`.  The kernel must agree with
it on the pair list *and order*, on ``pair_checks``, on the existential
survivors and their order, and on the type of any exception raised.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.pairs as pairs_module
from repro.constraints.ast import (
    Agg,
    AttrRef,
    CmpOp,
    Comparison,
    Const,
    Constraint,
    SetComparison,
    SetOp,
    is_onevar,
    is_twovar,
)
from repro.constraints.evaluate import evaluate_constraint
from repro.core.optimizer import CFQOptimizer
from repro.core.pairs import form_valid_pairs, valid_sets_existential
from repro.datagen.workloads import (
    cascade_workload,
    fig8a_workload,
    fig8b_workload,
    jmax_workload,
)
from repro.db.catalog import ItemCatalog
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.errors import ConstraintTypeError

Itemset = Tuple[int, ...]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _oracle_filter(sets, constraints, var, domains, counters):
    survivors = {}
    for itemset, support in sets.items():
        ok = True
        for constraint in constraints:
            counters.pair_checks += 1
            if not evaluate_constraint(constraint, {var: itemset}, {var: domains[var]}):
                ok = False
                break
        if ok:
            survivors[itemset] = support
    return survivors


def _oracle_split(constraints, var):
    own = [c for c in constraints if is_onevar(c) and c.variables() == {var}]
    return own, [c for c in constraints if is_twovar(c)]


def oracle_pairs(
    s_sets, t_sets, constraints, domains, s_var, t_var, counters, limit=None
) -> List[Tuple[Itemset, Itemset]]:
    if limit == 0:
        return []
    s_own, twovar = _oracle_split(constraints, s_var)
    t_own, _ = _oracle_split(constraints, t_var)
    s_survivors = _oracle_filter(s_sets, s_own, s_var, domains, counters)
    t_survivors = _oracle_filter(t_sets, t_own, t_var, domains, counters)
    pairs = []
    for s0 in s_survivors:
        for t0 in t_survivors:
            ok = True
            for constraint in twovar:
                counters.pair_checks += 1
                if not evaluate_constraint(constraint, {s_var: s0, t_var: t0}, domains):
                    ok = False
                    break
            if ok:
                pairs.append((s0, t0))
                if limit is not None and len(pairs) >= limit:
                    return pairs
    return pairs


def oracle_existential(
    sets, other_sets, constraints, var, other_var, domains, counters
) -> Dict[Itemset, int]:
    own_cs, twovar = _oracle_split(constraints, var)
    other_cs, _ = _oracle_split(constraints, other_var)
    own = _oracle_filter(sets, own_cs, var, domains, counters)
    partners = _oracle_filter(other_sets, other_cs, other_var, domains, counters)
    if not twovar:
        return own
    survivors = {}
    for candidate, support in own.items():
        for partner in partners:
            ok = True
            for constraint in twovar:
                counters.pair_checks += 1
                if not evaluate_constraint(
                    constraint, {var: candidate, other_var: partner}, domains
                ):
                    ok = False
                    break
            if ok:
                survivors[candidate] = support
                break
    return survivors


def _outcome(fn, *args, **kwargs):
    """``(result or exception type, pair_checks)`` of one call; dicts are
    compared as item lists so their order counts."""
    counters = OpCounters()
    try:
        result = fn(*args, counters=counters, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), counters.pair_checks
    if isinstance(result, dict):
        result = list(result.items())
    return result, counters.pair_checks


def assert_kernel_matches_oracle(s_sets, t_sets, constraints, domains, limit=None):
    expected = _outcome(
        oracle_pairs, s_sets, t_sets, constraints, domains, "S", "T", limit=limit
    )
    actual = _outcome(
        form_valid_pairs, s_sets, t_sets, constraints, domains, "S", "T", limit=limit
    )
    assert actual == expected
    for var, other, own, partners in (("S", "T", s_sets, t_sets), ("T", "S", t_sets, s_sets)):
        expected = _outcome(
            oracle_existential, own, partners, constraints, var, other, domains
        )
        actual = _outcome(
            valid_sets_existential, own, partners, constraints, var, other, domains
        )
        assert actual == expected


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------
ITEMS = tuple(range(1, 8))
BIG = 2 ** 53

CATALOG = ItemCatalog(
    {
        "I": {1: -3, 2: 0, 3: 2, 4: 2, 5: 5, 6: -1, 7: 4},
        "F": {1: 0.5, 2: -1.25, 3: 2.0, 4: 2.0, 5: 1e300, 6: -0.0, 7: 3.75},
        "B": {1: BIG + 1, 2: BIG + 2, 3: BIG - 1, 4: -BIG - 5, 5: BIG + 1,
              6: 3, 7: 2 ** 80},
        "N": {1: "apple", 2: "pear", 3: "fig", 4: "apple", 5: "kiwi",
              6: "date", 7: "lime"},
        "Type": {1: "x", 2: "y", 3: "x", 4: "z", 5: "y", 6: "w", 7: "x"},
        # mixed types: comparisons across them raise TypeError
        "M": {1: 1, 2: "a", 3: 2, 4: "b", 5: 3, 6: 4, 7: "c"},
    }
)
DOMAIN = Domain.items(CATALOG)
DOMAINS = {"S": DOMAIN, "T": DOMAIN}

SCALAR_ATTRS = ("I", "F", "B", "N", "M")
SET_ATTRS = ("I", "F", "B", "N", "Type", None)

itemsets = st.lists(st.sampled_from(ITEMS), max_size=4).map(
    lambda xs: tuple(sorted(set(xs)))
)
set_maps = st.lists(itemsets, max_size=7, unique=True).map(
    lambda sets: {s: 1 for s in sets}
)


@st.composite
def twovar_constraints(draw) -> Constraint:
    left_var, right_var = draw(st.sampled_from([("S", "T"), ("T", "S")]))
    if draw(st.booleans()):
        # Mostly same-typed operands; sometimes not, to reach the
        # ConstraintTypeError (sum/avg of strings) and TypeError paths.
        group = draw(st.sampled_from([("I", "F", "B"), ("N",), SCALAR_ATTRS]))
        return Comparison(
            Agg(draw(st.sampled_from(["min", "max", "sum", "avg", "count"])),
                AttrRef(left_var, draw(st.sampled_from(group)))),
            draw(st.sampled_from(list(CmpOp))),
            Agg(draw(st.sampled_from(["min", "max", "sum", "avg", "count"])),
                AttrRef(right_var, draw(st.sampled_from(group)))),
        )
    return SetComparison(
        AttrRef(left_var, draw(st.sampled_from(SET_ATTRS))),
        draw(st.sampled_from(list(SetOp))),
        AttrRef(right_var, draw(st.sampled_from(SET_ATTRS))),
    )


onevar_constraints = st.sampled_from(
    [Comparison(Agg("count", AttrRef(var, "Type")), CmpOp.LE, Const(2)) for var in ("S", "T")]
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    s_sets=set_maps,
    t_sets=set_maps,
    twovar=st.lists(twovar_constraints(), min_size=1, max_size=3),
    onevar=st.lists(onevar_constraints, max_size=1),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    budget=st.sampled_from([1 << 18, 1, 2, 3, 5]),
)
def test_kernel_matches_nested_loop(s_sets, t_sets, twovar, onevar, limit, budget):
    with mock.patch.object(pairs_module, "_CELL_BUDGET", budget):
        assert_kernel_matches_oracle(s_sets, t_sets, onevar + twovar, DOMAINS, limit)


@pytest.mark.parametrize("op", list(CmpOp))
@pytest.mark.parametrize("orientation", [("S", "T"), ("T", "S")])
@pytest.mark.parametrize("attr", ["I", "F", "B", "N"])
def test_every_scalar_operator(op, orientation, attr):
    sets = {s: 1 for s in [(), (1,), (2, 3), (4,), (5, 7), (1, 2, 6), (3, 4)]}
    left, right = orientation
    constraint = Comparison(
        Agg("max", AttrRef(left, attr)), op, Agg("min", AttrRef(right, attr))
    )
    for limit in (None, 0, 1, 5, 1000):
        assert_kernel_matches_oracle(sets, sets, [constraint], DOMAINS, limit)


@pytest.mark.parametrize("op", list(SetOp))
@pytest.mark.parametrize("orientation", [("S", "T"), ("T", "S")])
def test_every_set_operator(op, orientation):
    sets = {s: 1 for s in [(), (1,), (1, 3), (2, 5), (4,), (1, 2, 3, 4), (6, 7)]}
    left, right = orientation
    constraint = SetComparison(AttrRef(left, "Type"), op, AttrRef(right, "Type"))
    for limit in (None, 0, 1, 5, 1000):
        assert_kernel_matches_oracle(sets, sets, [constraint], DOMAINS, limit)


def test_wide_value_universe_uses_several_words():
    # 150 distinct values: set masks span three uint64 words
    catalog = ItemCatalog({"V": {i: i * 7 for i in range(150)}})
    domain = Domain.items(catalog)
    domains = {"S": domain, "T": domain}
    sets = {tuple(range(lo, lo + w)): 1 for lo in range(0, 150, 13) for w in (1, 40, 90)}
    sets = {s: 1 for s in sets if s[-1] < 150}
    for op in SetOp:
        constraint = SetComparison(AttrRef("S", "V"), op, AttrRef("T", "V"))
        assert_kernel_matches_oracle(sets, sets, [constraint], domains)


def test_stacked_constraints_meter_short_circuit():
    sets = {s: 1 for s in itertools.combinations(ITEMS, 2)}
    constraints = [
        Comparison(Agg("max", AttrRef("S", "I")), CmpOp.LE, Agg("min", AttrRef("T", "I"))),
        SetComparison(AttrRef("S", "Type"), SetOp.DISJOINT, AttrRef("T", "Type")),
        Comparison(Agg("sum", AttrRef("T", "F")), CmpOp.GT, Agg("sum", AttrRef("S", "F"))),
    ]
    assert_kernel_matches_oracle(sets, sets, constraints, DOMAINS)
    counters = OpCounters()
    form_valid_pairs(sets, sets, constraints, DOMAINS, counters=counters)
    # more than one check per pair (short-circuit) but fewer than all three
    assert len(sets) ** 2 < counters.pair_checks < 3 * len(sets) ** 2


def test_sum_over_non_numeric_raises_the_same_type():
    sets = {(1,): 1, (2, 3): 1}
    constraint = Comparison(
        Agg("sum", AttrRef("T", "N")), CmpOp.LE, Agg("sum", AttrRef("S", "I"))
    )
    with pytest.raises(ConstraintTypeError):
        form_valid_pairs(sets, sets, [constraint], DOMAINS)
    assert_kernel_matches_oracle(sets, sets, [constraint], DOMAINS)


def test_empty_sides():
    constraint = Comparison(
        Agg("max", AttrRef("S", "I")), CmpOp.LE, Agg("min", AttrRef("T", "I"))
    )
    full = {(1,): 1, (2,): 1}
    for s_sets, t_sets in (({}, full), (full, {}), ({}, {})):
        for limit in (None, 0, 1):
            assert_kernel_matches_oracle(s_sets, t_sets, [constraint], DOMAINS, limit)


def test_limit_zero_returns_nothing_and_checks_nothing():
    sets = {(1,): 1, (2,): 1}
    counters = OpCounters()
    assert form_valid_pairs(sets, sets, [], DOMAINS, counters=counters, limit=0) == []
    assert counters.pair_checks == 0
    with pytest.raises(ValueError):
        form_valid_pairs(sets, sets, [], DOMAINS, limit=-1)


def test_large_cross_product_stays_within_the_block_budget():
    catalog = ItemCatalog({"P": {i: i % 97 for i in range(1200)}})
    domain = Domain.items(catalog)
    domains = {"S": domain, "T": domain}
    s_sets = {(i,): 1 for i in range(600)}
    t_sets = {(i,): 1 for i in range(600, 1200)}
    constraint = Comparison(
        Agg("max", AttrRef("S", "P")), CmpOp.LT, Agg("min", AttrRef("T", "P"))
    )
    shapes = []
    evaluate = pairs_module._PairGrid.evaluate

    def spy(self, r0, r1, c0, c1):
        shapes.append((r1 - r0) * (c1 - c0))
        return evaluate(self, r0, r1, c0, c1)

    budget = 4096
    with mock.patch.object(pairs_module, "_CELL_BUDGET", budget), \
            mock.patch.object(pairs_module._PairGrid, "evaluate", spy):
        counters = OpCounters()
        pairs = form_valid_pairs(s_sets, t_sets, [constraint], domains, counters=counters)
    assert max(shapes) <= budget
    assert sum(shapes) == 600 * 600
    assert counters.pair_checks == 600 * 600
    expected = [
        (s, t) for s in s_sets for t in t_sets
        if s[0] % 97 < t[0] % 97
    ]
    assert pairs == expected


# ----------------------------------------------------------------------
# Workload-level checks
# ----------------------------------------------------------------------
WORKLOADS = {
    "fig8a": lambda: fig8a_workload(60.0, n_items=120, n_transactions=600, minsup=0.02),
    "fig8b": lambda: fig8b_workload(60.0, n_items=120, n_transactions=600, minsup=0.02),
    "jmax": lambda: jmax_workload(700.0, n_transactions=300),
    "cascade": lambda: cascade_workload(n_group=30, n_transactions=600, minsup=0.02),
}


@pytest.mark.parametrize("family", sorted(WORKLOADS))
def test_workload_answers_match_nested_loop(family):
    workload = WORKLOADS[family]()
    cfq = workload.cfq()
    result = CFQOptimizer(cfq).execute(workload.db)
    s_var, t_var = cfq.variables
    s_sets = result.frequent_valid(s_var)
    t_sets = result.frequent_valid(t_var)
    assert s_sets and t_sets
    for limit in (None, 1, 7):
        expected = _outcome(
            oracle_pairs, s_sets, t_sets, cfq.parsed, cfq.domains, s_var, t_var,
            limit=limit,
        )
        actual = _outcome(
            form_valid_pairs, s_sets, t_sets, cfq.parsed, cfq.domains, s_var, t_var,
            limit=limit,
        )
        assert actual == expected
    assert expected[0], "the workload instance should have valid pairs"
    for var, other in ((s_var, t_var), (t_var, s_var)):
        own, partners = result.frequent_valid(var), result.frequent_valid(other)
        assert _outcome(
            valid_sets_existential, own, partners, cfq.parsed, var, other, cfq.domains
        ) == _outcome(
            oracle_existential, own, partners, cfq.parsed, var, other, cfq.domains
        )
