"""Final pair formation: the last box of Figure 7.

Once the frequent valid S- and T-sets are computed, the answer to the CFQ
is the set of pairs ``(S0, T0)`` jointly satisfying every constraint.
The paper treats this step as comparatively trivial ("typically many
orders of magnitude" cheaper than the lattice computation); the checks
performed here are metered (``pair_checks``) so the ccc audit can confirm
that claim on real runs.

Operands and blocks
-------------------
1-var constraints are applied to each side once, set by set.  Every
2-var constraint compares an operand of S0 with an operand of T0
(``max(S.Price)``, ``T.Type``, ...), and each operand depends on one set
only — so it is computed once per surviving set, through the same
:func:`~repro.constraints.evaluate._scalar_side` /
:func:`~repro.constraints.evaluate._set_side` functions
:func:`~repro.constraints.evaluate.evaluate_constraint` uses (undefined
``min``/``max``/``avg`` of an empty projection, COUNT DISTINCT and
:class:`~repro.errors.ConstraintTypeError` keep their meaning by
construction), and the constraint is then checked for a whole block of
S rows × T columns at once with numpy:

* scalar comparisons run as float64 ufuncs when every operand of the
  block is a float or an int within ±2**53 (where float64 is exact), and
  on object arrays — Python's own comparison — otherwise; undefined
  operands mask their cells to false;
* ``=`` / ``≠`` between sets compare interned integer codes of the
  frozensets; subset, superset, disjoint and overlap test packed uint64
  bitmasks over the values observed so far.

Constraint *j*'s operands are computed only for the rows and columns
that still hold a live cell after constraints ``0..j-1``, so exactly the
sets the nested loop would have evaluated are evaluated.  A failing
operand or comparison is recorded on its cells instead of raised; the
exception of the first failing cell in row-major order is raised only
if the nested loop would have reached it (before ``limit``, before a
row's first passing partner), so the same inputs raise the same
exception type.  Rows are processed in blocks of at most
:data:`_CELL_BUDGET` cells (one row split into column runs when it is
wider), which keeps memory flat for huge cross products; pairs are read
out of each block in row-major order, the nested loop's order.

Metering
--------
``pair_checks`` keeps the paper's short-circuit accounting: a pair costs
one check per 2-var constraint it is tested against, i.e. up to and
including the first one it fails.  The kernel counts, per cell, the
constraints the cell was still live before, and adds exactly the cells
the nested loop would have visited — up to the pair that reaches
``limit``, or a row's first passing partner for
:func:`valid_sets_existential` — so every counter, and the ccc audit
built on them, is unchanged.

Computing both operands afresh for every check made this step cost more
than the lattice computation: on the ``mine-cold`` benchmark (seed 1,
2-core VM) it took 0.22 s per query against 0.19 s of engine self time,
and 0.65–0.97 s on the high-overlap fig8b queries.  The block kernel
takes 0.004 s per query on the same run, with identical pairs, order
and ``pair_checks``.

Also provided: phase-2 rule generation ``S => T`` with support and
confidence for same-domain variables — the second phase of the
exploratory architecture the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.ast import (
    Agg,
    CmpOp,
    Comparison,
    Constraint,
    SetOp,
    is_onevar,
    is_twovar,
)
from repro.constraints.evaluate import (
    _UNDEFINED,
    _scalar_side,
    _set_side,
    evaluate_constraint,
)
from repro.db.domain import Domain
from repro.db.stats import OpCounters
from repro.db.transactions import TransactionDatabase
from repro.errors import ConstraintTypeError
from repro.itemsets import Itemset, canonical

#: Most S × T cells evaluated in one block.
_CELL_BUDGET = 1 << 18

#: Ints of at most this magnitude convert to float64 exactly.
_FLOAT_EXACT = 2 ** 53

_WORD = (1 << 64) - 1

_CMP_UFUNCS = {
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.GE: np.greater_equal,
    CmpOp.GT: np.greater,
}


def split_constraints(
    constraints: Sequence[Constraint],
) -> Tuple[Dict[str, List[Constraint]], List[Constraint]]:
    """Split a conjunction into per-variable 1-var lists and 2-var list —
    the purely syntactic first step of the Figure 7 optimizer."""
    onevar: Dict[str, List[Constraint]] = {}
    twovar: List[Constraint] = []
    for constraint in constraints:
        if is_onevar(constraint):
            (var,) = constraint.variables()
            onevar.setdefault(var, []).append(constraint)
        elif is_twovar(constraint):
            twovar.append(constraint)
    return onevar, twovar


def form_valid_pairs(
    s_sets: Mapping[Itemset, int],
    t_sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    domains: Mapping[str, Domain],
    s_var: str = "S",
    t_var: str = "T",
    counters: Optional[OpCounters] = None,
    limit: Optional[int] = None,
) -> List[Tuple[Itemset, Itemset]]:
    """Enumerate the frequent valid pairs, S-major in input order.

    1-var constraints are applied to each side once (not per pair);
    2-var constraints are then checked on the surviving cross product.
    ``limit`` truncates the output (useful for exploration); ``limit=0``
    returns no pairs and checks nothing.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit == 0:
        return []
    onevar, twovar = split_constraints(constraints)
    s_list = list(_filter_onevar(s_sets, onevar.get(s_var, []), s_var, domains, counters))
    t_list = list(_filter_onevar(t_sets, onevar.get(t_var, []), t_var, domains, counters))
    grid = _PairGrid(s_list, t_list, twovar, s_var, t_var, domains)
    pairs: List[Tuple[Itemset, Itemset]] = []
    checks = 0
    try:
        for r0, r1, c0, c1 in _blocks(len(s_list), len(t_list)):
            passed, n_eval, failures = grid.evaluate(r0, r1, c0, c1)
            hits = np.flatnonzero(passed)
            stop = None
            error = None
            if failures:
                stop = int(np.flatnonzero(_union(failures))[0])
                hits = hits[hits < stop]
                error = stop
            if limit is not None and len(pairs) + len(hits) >= limit:
                hits = hits[: limit - len(pairs)]
                stop = int(hits[-1])
                error = None
            flat_eval = n_eval.ravel()
            checks += int(flat_eval.sum() if stop is None else flat_eval[: stop + 1].sum())
            width = c1 - c0
            rows, cols = np.divmod(hits, width)
            pairs.extend(
                (s_list[r], t_list[c])
                for r, c in zip((rows + r0).tolist(), (cols + c0).tolist())
            )
            if error is not None:
                raise grid.failure(failures, *divmod(error, width), r0, c0)
            if stop is not None:
                break
    finally:
        if counters is not None:
            counters.pair_checks += checks
    return pairs


def valid_sets_existential(
    sets: Mapping[Itemset, int],
    other_sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    var: str,
    other_var: str,
    domains: Mapping[str, Domain],
    counters: Optional[OpCounters] = None,
) -> Dict[Itemset, int]:
    """Frequent sets of ``var`` that participate in at least one valid pair.

    This is the joint-existential strengthening of Definition 3: a set
    survives iff it satisfies its own 1-var constraints and some frequent
    set of the other variable (satisfying *its* 1-var constraints) makes
    every 2-var constraint true simultaneously.  Each candidate is
    checked against partners in order up to its first valid one.
    """
    onevar, twovar = split_constraints(constraints)
    own = _filter_onevar(sets, onevar.get(var, []), var, domains, counters)
    partners = list(
        _filter_onevar(other_sets, onevar.get(other_var, []), other_var, domains, counters)
    )
    if not twovar:
        return own
    candidates = list(own.items())
    grid = _PairGrid([c for c, _ in candidates], partners, twovar, var, other_var, domains)
    found = np.zeros(len(candidates), dtype=bool)
    checks = 0
    try:
        for r0, r1, c0, c1 in _blocks(len(candidates), len(partners)):
            if r1 - r0 == 1 and found[r0]:
                continue  # a wide row already met its partner in an earlier run
            passed, n_eval, failures = grid.evaluate(r0, r1, c0, c1)
            width = c1 - c0
            has_pass = passed.any(axis=1)
            stop = np.where(has_pass, passed.argmax(axis=1), width - 1)
            visited = np.cumsum(n_eval, axis=1)
            row_checks = visited[np.arange(r1 - r0), stop]
            if failures:
                reached = _union(failures) & (np.arange(width) <= stop[:, None])
                if reached.any():
                    row, col = divmod(int(np.flatnonzero(reached)[0]), width)
                    checks += int(row_checks[:row].sum()) + int(visited[row, col])
                    raise grid.failure(failures, row, col, r0, c0)
            checks += int(row_checks.sum())
            found[r0:r1] |= has_pass
    finally:
        if counters is not None:
            counters.pair_checks += checks
    return {
        candidate: support
        for (candidate, support), ok in zip(candidates, found.tolist())
        if ok
    }


def _filter_onevar(
    sets: Mapping[Itemset, int],
    constraints: Sequence[Constraint],
    var: str,
    domains: Mapping[str, Domain],
    counters: Optional[OpCounters],
) -> Dict[Itemset, int]:
    if not constraints:
        return dict(sets)
    survivors: Dict[Itemset, int] = {}
    for itemset, support in sets.items():
        ok = True
        for constraint in constraints:
            if counters is not None:
                counters.pair_checks += 1
            if not evaluate_constraint(constraint, {var: itemset}, {var: domains[var]}):
                ok = False
                break
        if ok:
            survivors[itemset] = support
    return survivors


# ----------------------------------------------------------------------
# The block kernel
# ----------------------------------------------------------------------
def _blocks(n_rows: int, n_cols: int) -> Iterator[Tuple[int, int, int, int]]:
    """``(r0, r1, c0, c1)`` blocks of at most :data:`_CELL_BUDGET` cells
    covering the grid in row-major order."""
    if n_cols >= _CELL_BUDGET:
        for r in range(n_rows):
            for c0 in range(0, n_cols, _CELL_BUDGET):
                yield r, r + 1, c0, min(c0 + _CELL_BUDGET, n_cols)
        return
    if n_cols == 0:
        return
    step = _CELL_BUDGET // n_cols
    for r0 in range(0, n_rows, step):
        yield r0, min(r0 + step, n_rows), 0, n_cols


def _union(failures) -> np.ndarray:
    return np.logical_or.reduce([failed for _, failed in failures])


class _Operands:
    """One side of a 2-var constraint over one variable's sets, each
    operand computed at most once and only when first asked for."""

    def __init__(self, expr, var: str, sets: Sequence[Itemset], domains, scalar: bool):
        self.expr = expr
        self.var = var
        self.sets = sets
        self.domains = domains
        self.compute = _scalar_side if scalar else _set_side
        n = len(sets)
        self.values = np.empty(n, dtype=object)
        self.done = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.errors: Dict[int, Exception] = {}
        # scalar encoding: defined (not undefined, not failed) operands,
        # and which of them float64 holds exactly
        self.defined = np.zeros(n, dtype=bool)
        self.exact = np.zeros(n, dtype=bool)
        self.f64 = np.zeros(n, dtype=np.float64)
        # set encodings: interned frozenset codes, or value bitmasks
        self.codes = np.full(n, -1, dtype=np.int64)
        self.words = np.zeros((n, 0), dtype=np.uint64)

    def ensure(self, idx: np.ndarray) -> List[int]:
        """Compute the operands of sets ``idx`` not yet computed and return
        the indices of those that did not raise: a raising operand is
        recorded, not raised."""
        todo = idx[~self.done[idx]].tolist()
        for i in todo:
            try:
                self.values[i] = self.compute(
                    self.expr, {self.var: self.sets[i]}, self.domains
                )
            except Exception as exc:
                self.failed[i] = True
                self.errors[i] = exc
        self.done[todo] = True
        return [i for i in todo if not self.failed[i]]

    def grow(self, width: int) -> None:
        """Widen the bitmasks to ``width`` words; a set's bits never move
        when the value universe grows, so the new words are zero."""
        if self.words.shape[1] < width:
            grown = np.zeros((len(self.sets), width), dtype=np.uint64)
            grown[:, : self.words.shape[1]] = self.words
            self.words = grown


class _Check:
    """One 2-var constraint evaluated over blocks of the S × T grid."""

    def __init__(self, constraint: Constraint, s_list, t_list, s_var, t_var, domains):
        self.constraint = constraint
        self.unbound = None
        missing = constraint.variables() - {s_var, t_var}
        if missing:
            self.unbound = ConstraintTypeError(
                f"constraint {constraint} mentions unbound variables {sorted(missing)}"
            )
            return
        self.scalar = isinstance(constraint, Comparison)
        left, right = constraint.left, constraint.right
        self.left_is_s = _operand_var(left) == s_var
        s_expr, t_expr = (left, right) if self.left_is_s else (right, left)
        self.s = _Operands(s_expr, s_var, s_list, domains, self.scalar)
        self.t = _Operands(t_expr, t_var, t_list, domains, self.scalar)
        # frozenset -> code for set =/≠; value -> bit for the other set relations
        self.interned: Dict = {}
        self.cmp_errors: Dict[Tuple[int, int], Exception] = {}

    def evaluate(self, live: np.ndarray, r0: int, c0: int):
        """``(passed, failed)`` over the live cells of the block at
        ``(r0, c0)``; ``failed`` is ``None`` when no live cell raised."""
        if self.unbound is not None:
            return np.zeros_like(live), live
        rows = np.flatnonzero(live.any(axis=1))
        cols = np.flatnonzero(live.any(axis=0))
        whole = len(rows) == live.shape[0] and len(cols) == live.shape[1]
        sub_live = live if whole else live[np.ix_(rows, cols)]
        s_idx, t_idx = rows + r0, cols + c0
        self._encode(self.s, self.s.ensure(s_idx))
        self._encode(self.t, self.t.ensure(t_idx))
        if self.scalar:
            ok, failed = self._scalar_block(s_idx, t_idx, sub_live)
        else:
            ok, failed = self._set_block(s_idx, t_idx), False
        failed = failed | self.s.failed[s_idx][:, None] | self.t.failed[t_idx][None, :]
        failed &= sub_live
        passed = ok & sub_live & ~failed
        if not whole:
            passed = _scatter(passed, rows, cols, live.shape)
            failed = _scatter(failed, rows, cols, live.shape)
        return passed, (failed if failed.any() else None)

    def error(self, s_i: int, t_i: int) -> Exception:
        """The exception the nested loop raises checking pair ``(s_i, t_i)``:
        the left operand's, else the right's, else the comparison's."""
        if self.unbound is not None:
            return self.unbound
        sides = [(self.s, s_i), (self.t, t_i)]
        if not self.left_is_s:
            sides.reverse()
        for side, i in sides:
            if side.failed[i]:
                return side.errors[i]
        return self.cmp_errors[(s_i, t_i)]

    # -- encodings ------------------------------------------------------
    def _encode(self, side: _Operands, new: List[int]) -> None:
        if not new:
            return
        op = self.constraint.op
        if self.scalar:
            for i in new:
                value = side.values[i]
                if value is _UNDEFINED:
                    continue
                side.defined[i] = True
                if isinstance(value, float) or (
                    isinstance(value, int) and -_FLOAT_EXACT <= value <= _FLOAT_EXACT
                ):
                    side.exact[i] = True
                    side.f64[i] = value
        elif op in (SetOp.SETEQ, SetOp.SETNEQ):
            interned = self.interned
            for i in new:
                side.codes[i] = interned.setdefault(side.values[i], len(interned))
        else:
            bits = self.interned
            masks = []
            for i in new:
                mask = 0
                for value in side.values[i]:
                    mask |= 1 << bits.setdefault(value, len(bits))
                masks.append(mask)
            width = _width(bits)
            side.grow(width)
            for i, mask in zip(new, masks):
                side.words[i] = [(mask >> (64 * k)) & _WORD for k in range(width)]

    # -- blocks ---------------------------------------------------------
    def _set_block(self, s_idx, t_idx) -> np.ndarray:
        """The set relation for rows ``s_idx`` × columns ``t_idx``."""
        s, t = self.s, self.t
        op = self.constraint.op
        if op in (SetOp.SETEQ, SetOp.SETNEQ):
            equal = s.codes[s_idx][:, None] == t.codes[t_idx][None, :]
            return equal if op is SetOp.SETEQ else ~equal
        width = _width(self.interned)
        s.grow(width)
        t.grow(width)
        s_words, t_words = s.words[s_idx], t.words[t_idx]
        left, right = (s_words, t_words) if self.left_is_s else (t_words, s_words)
        left_axis = 0 if self.left_is_s else 1
        if op in (SetOp.SUPERSET, SetOp.NOT_SUPERSET):
            left, right = right, left
            left_axis = 1 - left_axis
        hit = np.zeros((len(s_idx), len(t_idx)), dtype=bool)
        for k in range(width):
            a = _broadcast(left[:, k], left_axis)
            b = _broadcast(right[:, k], 1 - left_axis)
            if op in (SetOp.DISJOINT, SetOp.OVERLAPS):
                hit |= (a & b) != 0  # a shared value
            else:
                hit |= (a & ~b) != 0  # a value of a outside b
        if op in (SetOp.OVERLAPS, SetOp.NOT_SUBSET, SetOp.NOT_SUPERSET):
            return hit
        return ~hit

    def _scalar_block(self, s_idx, t_idx, sub_live):
        """``(ok, failed)`` for rows ``s_idx`` × columns ``t_idx``;
        ``failed`` marks live cells whose comparison raised (or is
        ``False`` when none did)."""
        s, t = self.s, self.t
        op = self.constraint.op
        ufunc = _CMP_UFUNCS[op]
        shape = (len(s_idx), len(t_idx))
        s_def = s.defined[s_idx]
        t_def = t.defined[t_idx]
        if s.exact[s_idx][s_def].all() and t.exact[t_idx][t_def].all():
            a = s.f64[s_idx][:, None]
            b = t.f64[t_idx][None, :]
            ok = ufunc(a, b) if self.left_is_s else ufunc(b, a)
            return ok & s_def[:, None] & t_def[None, :], False
        # Exact Python comparison on the defined sub-block.
        rows = np.flatnonzero(s_def)
        cols = np.flatnonzero(t_def)
        a = s.values[s_idx[rows]][:, None]
        b = t.values[t_idx[cols]][None, :]
        failed = False
        try:
            sub = ufunc(a, b) if self.left_is_s else ufunc(b, a)
        except Exception:
            # Some pair is incomparable: compare the live cells one by
            # one and record which raise, and with what.
            failed = np.zeros(shape, dtype=bool)
            sub = np.zeros((len(rows), len(cols)), dtype=bool)
            live = sub_live[np.ix_(rows, cols)]
            for i, j in zip(*np.nonzero(live)):
                s_val, t_val = a[i, 0], b[0, j]
                pair = (s_val, t_val) if self.left_is_s else (t_val, s_val)
                try:
                    sub[i, j] = op.apply(*pair)
                except Exception as exc:
                    self.cmp_errors[(int(s_idx[rows[i]]), int(t_idx[cols[j]]))] = exc
                    failed[rows[i], cols[j]] = True
        return _scatter(np.asarray(sub, dtype=bool), rows, cols, shape), failed


class _PairGrid:
    """The surviving S × T cross product under a conjunction of 2-var
    constraints, evaluated block by block."""

    def __init__(self, s_list, t_list, twovar, s_var, t_var, domains):
        self.checks = [
            _Check(constraint, s_list, t_list, s_var, t_var, domains)
            for constraint in twovar
        ]

    def evaluate(self, r0: int, r1: int, c0: int, c1: int):
        """``(passed, n_eval, failures)`` for one block: the cells passing
        every constraint, the number of constraints each cell was checked
        against, and ``(check, failed cells)`` for every check that
        raised on a live cell."""
        shape = (r1 - r0, c1 - c0)
        live = np.ones(shape, dtype=bool)
        n_eval = np.zeros(shape, dtype=np.int32)
        failures = []
        for check in self.checks:
            if not live.any():
                break
            n_eval += live
            live, failed = check.evaluate(live, r0, c0)
            if failed is not None:
                failures.append((check, failed))
        return live, n_eval, failures

    @staticmethod
    def failure(failures, row: int, col: int, r0: int, c0: int) -> Exception:
        """The exception raised at block cell ``(row, col)``."""
        for check, failed in failures:
            if failed[row, col]:
                return check.error(r0 + row, c0 + col)
        raise AssertionError("no failure recorded at this cell")


def _operand_var(expr) -> str:
    return expr.arg.var if isinstance(expr, Agg) else expr.var


def _width(bits: Dict) -> int:
    """uint64 words needed for one bit per interned value."""
    return (len(bits) + 63) // 64


def _broadcast(column: np.ndarray, axis: int) -> np.ndarray:
    return column[:, None] if axis == 0 else column[None, :]


def _scatter(sub: np.ndarray, rows, cols, shape) -> np.ndarray:
    full = np.zeros(shape, dtype=bool)
    full[np.ix_(rows, cols)] = sub
    return full


# ----------------------------------------------------------------------
# Phase 2: rule formation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """An association rule ``S => T`` with its quality measures."""

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float

    def __str__(self) -> str:
        return (
            f"{set(self.antecedent)} => {set(self.consequent)} "
            f"(sup={self.support:.3f}, conf={self.confidence:.3f})"
        )


def rules_from_pairs(
    pairs: Sequence[Tuple[Itemset, Itemset]],
    db: TransactionDatabase,
    min_confidence: float = 0.0,
) -> List[Rule]:
    """Form ``S => T`` rules from valid pairs over a shared item domain.

    Requires one extra pass per distinct union to count joint supports
    (the paper's phase-2 computation).  Pairs with overlapping antecedent
    and consequent are skipped, as the rule reading makes no sense there.
    """
    n = len(db)
    if n == 0:
        return []
    support_cache: Dict[Itemset, int] = {}
    rules: List[Rule] = []
    for antecedent, consequent in pairs:
        if set(antecedent) & set(consequent):
            continue
        union = canonical(set(antecedent) | set(consequent))
        if union not in support_cache:
            support_cache[union] = db.support(union)
        if antecedent not in support_cache:
            support_cache[antecedent] = db.support(antecedent)
        joint = support_cache[union]
        ante = support_cache[antecedent]
        confidence = joint / ante if ante else 0.0
        if confidence >= min_confidence:
            rules.append(Rule(antecedent, consequent, joint / n, confidence))
    return rules
