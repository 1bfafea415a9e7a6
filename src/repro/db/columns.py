"""Columnar (CSR) layout of a transaction list.

Every counting, projection and trimming pass used to walk the
transaction list as Python tuples.  :class:`TransactionColumns` stores
the same list as a handful of numpy arrays so those passes become array
operations:

* ``codes`` — one entry per (transaction, item) occurrence: the item's
  dense code, its index into ``vocab``;
* ``vocab`` — the sorted distinct item ids (int64); item ids are mapped
  to codes once, with ``numpy.unique``, so negative ids and sparse ids
  far beyond any dense lookup table need no second path;
* ``offsets`` — row ``r``'s entries are ``codes[offsets[r]:offsets[r+1]]``;
* ``rows`` — the row id of every entry (the CSR row index expanded),
  derived from ``offsets`` on first use: a database's own layout, which
  lives as long as the database, then holds only codes and offsets.

Rows are canonical, exactly as :class:`~repro.db.transactions.
TransactionDatabase` stores transactions: item ids strictly increasing
within a row (so no duplicates).  Input that is not canonical is
normalized on construction.

The object is an immutable ``Sequence[Tuple[int, ...]]`` — ``len``,
iteration, integer indexing and slicing — so every consumer written
against tuple lists (:func:`~repro.db.digest.transactions_digest`, the
test oracles) reads it unchanged.  Contiguous slices are CSR views
sharing ``vocab``.  Derived layouts (:meth:`restrict`, :meth:`relabel`)
are new objects; the packed bitmap of a layout, which
:func:`~repro.mining.counting.count_candidates` ANDs and popcounts, is
built on first use and cached on the object, so it lives exactly as
long as the layout it describes.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

#: Bytes a dense boolean (item x transaction) block may occupy while
#: the packed bitmap is built; the block is packed and dropped before
#: the next one is allocated.
PACK_BLOCK_BYTES = 1 << 18


def _index_dtype(bound: int):
    """The narrowest of int32/int64 holding every value below ``bound``."""
    return np.int32 if bound < (1 << 31) else np.int64


def _offsets_from_lengths(lengths) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


class TransactionColumns(Sequence):
    """A transaction list in CSR form (see the module docstring).

    Build one with :meth:`from_transactions` or :func:`as_columns`; the
    constructor takes already-canonical arrays.
    """

    __slots__ = ("vocab", "codes", "offsets", "_rows", "_bitmap")

    def __init__(self, vocab, codes, offsets, rows=None):
        self.vocab: np.ndarray = vocab
        self.codes: np.ndarray = codes
        self.offsets: np.ndarray = offsets
        self._rows: Optional[np.ndarray] = rows
        self._bitmap: Optional[np.ndarray] = None

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Sequence[int]]
    ) -> "TransactionColumns":
        """Lay out a list of item-id collections (normalizing rows that
        are unsorted or hold duplicates)."""
        transactions = list(transactions)
        n = len(transactions)
        lengths = np.fromiter(map(len, transactions), dtype=np.int64, count=n)
        offsets = _offsets_from_lengths(lengths)
        items = np.fromiter(
            chain.from_iterable(transactions), dtype=np.int64,
            count=int(offsets[-1]),
        )
        starts = np.zeros(len(items), dtype=bool)
        starts[offsets[:-1][lengths > 0]] = True
        if ((items[1:] <= items[:-1]) & ~starts[1:]).any():
            rows = np.repeat(np.arange(n, dtype=_index_dtype(n)), lengths)
            order = np.lexsort((items, rows))
            items, rows = items[order], rows[order]
            keep = np.ones(len(items), dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (items[1:] != items[:-1])
            items, rows = items[keep], rows[keep]
            offsets = _offsets_from_lengths(np.bincount(rows, minlength=n))
        vocab, codes = np.unique(items, return_inverse=True)
        return cls(vocab, codes.astype(_index_dtype(len(vocab))), offsets)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return TransactionColumns.from_transactions(
                    self[i] for i in range(start, stop, step)
                )
            stop = max(start, stop)
            lo, hi = int(self.offsets[start]), int(self.offsets[stop])
            rows = self._rows
            if rows is not None:
                rows = rows[lo:hi] - rows.dtype.type(start)
            return TransactionColumns(
                self.vocab,
                self.codes[lo:hi],
                self.offsets[start:stop + 1] - lo,
                rows,
            )
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("transaction index out of range")
        lo, hi = self.offsets[index], self.offsets[index + 1]
        return tuple(self.vocab[self.codes[lo:hi]].tolist())

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        items = self.items.tolist()
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield tuple(items[lo:hi])

    def __reduce__(self):
        # The cached bitmap is derived state: a pickled layout carries
        # only its arrays.
        return (TransactionColumns,
                (self.vocab, self.codes, self.offsets, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionColumns({len(self)} transactions, "
            f"{self.n_entries} entries, {len(self.vocab)} items)"
        )

    # ------------------------------------------------------------------
    # Derived arrays
    # ------------------------------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        """Per-entry row ids, expanded from the offsets on first use."""
        if self._rows is None:
            n = len(self)
            self._rows = np.repeat(
                np.arange(n, dtype=_index_dtype(n)), np.diff(self.offsets)
            )
        return self._rows

    @property
    def items(self) -> np.ndarray:
        """Per-entry item ids (int64), decoded from the codes."""
        return self.vocab[self.codes]

    @property
    def n_entries(self) -> int:
        """Total item occurrences: ``sum(len(t) for t in self)``."""
        return len(self.codes)

    def lengths(self) -> np.ndarray:
        """Per-transaction lengths."""
        return np.diff(self.offsets)

    def code_of(self, item_ids) -> np.ndarray:
        """Codes of ``item_ids`` (any int64 values); ``-1`` for ids
        outside ``vocab``."""
        ids = np.asarray(item_ids, dtype=np.int64)
        if not len(self.vocab):
            return np.full(ids.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.vocab, ids)
        np.minimum(pos, len(self.vocab) - 1, out=pos)
        return np.where(self.vocab[pos] == ids, pos, -1)

    def vocab_mask(self, item_ids: Iterable[int]) -> np.ndarray:
        """Boolean mask over ``vocab``: which codes' ids are in
        ``item_ids``."""
        ids = np.fromiter(item_ids, dtype=np.int64)
        return np.isin(self.vocab, ids)

    # ------------------------------------------------------------------
    # Derived layouts
    # ------------------------------------------------------------------
    def restrict(self, keep) -> "TransactionColumns":
        """Drop every item whose code ``keep`` (a boolean mask over
        ``vocab``) rejects; row order and count are unchanged.

        This is both an item domain's projection and lattice trimming.
        """
        keep = np.asarray(keep, dtype=bool)
        # Index arrays rather than boolean masks: take() on the kept
        # positions is several times faster than masked selection.
        kept = np.flatnonzero(keep.take(self.codes))
        # Row r now starts at the number of kept entries before its old start.
        offsets = np.searchsorted(kept, self.offsets)
        remap = (np.cumsum(keep) - 1).astype(self.codes.dtype)
        codes = remap.take(self.codes.take(kept))
        return TransactionColumns(self.vocab[keep], codes, offsets)

    def relabel(self, element_of_code, mapped) -> "TransactionColumns":
        """Map every item through ``element_of_code`` (an int64 array
        over codes; entries whose ``mapped`` flag is false are dropped),
        then sort and deduplicate each row — a derived domain's
        projection."""
        mapped = np.asarray(mapped, dtype=bool)
        vocab, inverse = np.unique(
            np.asarray(element_of_code, dtype=np.int64)[mapped],
            return_inverse=True,
        )
        code_map = np.full(len(self.vocab), -1, dtype=np.int64)
        code_map[mapped] = inverse
        kept = np.flatnonzero(mapped.take(self.codes))
        width = max(len(vocab), 1)
        rows = np.searchsorted(self.offsets, kept, side="right") - 1
        keys = np.unique(rows * width + code_map.take(self.codes.take(kept)))
        rows = (keys // width).astype(_index_dtype(len(self)))
        offsets = _offsets_from_lengths(np.bincount(rows, minlength=len(self)))
        codes = (keys % width).astype(_index_dtype(width))
        return TransactionColumns(vocab, codes, offsets, rows)

    # ------------------------------------------------------------------
    # Packed bitmap (vertical uint64 layout)
    # ------------------------------------------------------------------
    @property
    def n_words(self) -> int:
        """uint64 words per bitmap row: ``ceil(len(self) / 64)``."""
        return (len(self) + 63) >> 6

    def bitmap(self) -> np.ndarray:
        """The ``(len(vocab) + 1) x n_words`` uint64 membership matrix.

        Row ``code + 1`` holds that item's transaction bits, little-endian
        within each word; row 0 is all-zero, so an absent item (code
        ``-1``) resolves to support 0.  Built on first call and cached on
        this object.  Rows are packed a block of transactions at a time
        (a dense boolean block of at most :data:`PACK_BLOCK_BYTES`, then
        ``numpy.packbits``), so building never holds more than the
        matrix plus one block.
        """
        if self._bitmap is None:
            self._bitmap = self._pack()
        return self._bitmap

    def _pack(self) -> np.ndarray:
        n_rows = len(self.vocab) + 1
        n_words = self.n_words
        matrix = np.zeros((n_rows, n_words), dtype=np.uint64)
        span = max(64, (PACK_BLOCK_BYTES // n_rows) // 64 * 64)
        n = len(self)
        for start in range(0, n, span):
            stop = min(start + span, n)
            lo, hi = int(self.offsets[start]), int(self.offsets[stop])
            width = ((stop - start + 63) >> 6) << 6
            dense = np.zeros((n_rows, width), dtype=bool)
            dense[self.codes[lo:hi] + 1, self.rows[lo:hi] - start] = True
            packed = np.packbits(dense, axis=1, bitorder="little")
            matrix[:, start >> 6:(start >> 6) + (width >> 6)] = (
                packed.view("<u8")
            )
        return matrix


def as_columns(transactions) -> TransactionColumns:
    """``transactions`` as a :class:`TransactionColumns` (itself when it
    already is one; otherwise laid out once)."""
    if isinstance(transactions, TransactionColumns):
        return transactions
    return TransactionColumns.from_transactions(transactions)
