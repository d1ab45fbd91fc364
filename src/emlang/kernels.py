"""Array kernels: sort integer keys, then read the runs of equal keys.

Every grouping step of the pipeline is made of these, each written once as a
pure function over numpy arrays; this module imports no other of the package.
"""

from __future__ import annotations

import numpy as np


def run_starts(*ordered: np.ndarray) -> np.ndarray:
    """Whether each row of the co-sorted, equally long arrays ``ordered``
    starts a run of equal rows: differs from the row before it in any of
    them, or is the first."""
    starts = np.zeros(len(ordered[0]), dtype=bool)
    starts[:1] = True
    for key in ordered:
        starts[1:] |= key[1:] != key[:-1]
    return starts


def first_of_max(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per run of equal entries of the sorted ``groups``, in run order, the
    first index whose entry of ``values`` is the run's largest.  No sort:
    each run's maximum is spread over it, and the first entry equal to it taken."""
    starts = np.flatnonzero(run_starts(groups))
    best = np.repeat(np.maximum.reduceat(values, starts), np.diff(starts, append=len(groups)))
    at = np.flatnonzero(values == best)
    return at[run_starts(groups[at])]


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, by one sort."""
    keys = np.sort(keys)
    return keys[run_starts(keys)]


def token_keys(messages: np.ndarray, vocab_size: int) -> list[np.ndarray]:
    """Int64 keys, most significant first, that sort the rows as their token
    sequences sort: each packs as many consecutive tokens below
    ``vocab_size`` as fit in 63 bits, so there are fewer keys than tokens."""
    width = max(1, (vocab_size - 1).bit_length())
    per_key = 63 // width
    keys = []
    for start in range(0, messages.shape[1], per_key):
        key = np.zeros(len(messages), dtype=np.int64)
        for column in messages.T[start : start + per_key]:
            key <<= width
            key |= column
        keys.append(key)
    return keys


def narrowest(top: int) -> type:
    """The narrowest signed integer type that holds 0 to ``top``."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


def column_major(table: np.ndarray) -> np.ndarray:
    """The columns of ``table``, whose entries are non-negative, as the rows
    of a C-contiguous array of the narrowest signed integer type that holds
    them: each column then gathers from one short contiguous row."""
    return np.ascontiguousarray(table.T, dtype=narrowest(int(table.max(initial=0))))


def find_rows(table: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """For each of ``rows``, the index of the equal row of ``table``, whose
    rows are distinct, or -1; values lie below ``size``.

    Rows compare as their packed int64 keys.  Each key in turn folds into a
    rank among the table's sorted entries, (rank so far, rank of the key),
    so the ranks stay below ``len(table)``**2 however many keys there are."""
    if not table.shape[1]:  # the empty pattern matches every row
        return np.zeros(len(rows), dtype=np.int64)
    table_keys, row_keys = token_keys(table, size), token_keys(rows, size)
    table_rank, row_rank, found = _ranks(table_keys[0], row_keys[0])
    size = len(table)
    for table_key, row_key in zip(table_keys[1:], row_keys[1:]):
        table_next, row_next, hit = _ranks(table_key, row_key)
        table_rank, row_rank, same = _ranks(
            table_rank * size + table_next, row_rank * size + row_next
        )
        found &= hit & same
    index = np.empty(size, dtype=np.int64)
    index[table_rank] = np.arange(size)  # distinct rows end with distinct ranks
    return np.where(found, index[row_rank], -1)


def _ranks(table_key: np.ndarray, key: np.ndarray):
    """Rank of each table entry and of each key among the sorted table
    entries (equal entries share a rank), and whether the key is an entry."""
    ordered = np.sort(table_key)
    rank = np.searchsorted(ordered, key).clip(max=len(ordered) - 1)
    return np.searchsorted(ordered, table_key), rank, ordered[rank] == key
