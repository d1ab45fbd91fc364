"""Array kernels: sort integer keys, then read the runs of equal keys; and
the one seeded stream every random draw of the package comes from.

Every grouping step of the pipeline is made of these, each written once as a
pure function over numpy arrays; this module imports no other of the package.

:class:`Stream` is counter-based (Salmon et al. 2011, "Parallel random
numbers: as easy as 1, 2, 3"): word c of key K is ``mix64(K + (c + 1) *
0x9E3779B97F4A7C15)``, with the SplitMix64 finaliser (Steele, Lea & Flood
2014).  It needs only uint64 array arithmetic, so no command loads numpy's
random module, and its words depend on nothing but the key and the order of
the draws, not on any library's sampling algorithms.
"""

from __future__ import annotations

import operator

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


_GAMMA = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, SplitMix64's increment
_MASK = 2**64 - 1
_WORD_BLOCK = 1 << 15  # 256 KB of words


def _mix64(z):
    """SplitMix64's finaliser: of a Python int below 2**64, masked (numpy's
    uint64 scalars would warn on overflow), or in place of a uint64 array,
    which wraps."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


class Stream:
    """A keyed, counter-mode SplitMix64 stream of uint64 words.

    The key folds in each of the integers ``key`` (numpy's included) in
    turn, reduced modulo 2**63, as ``K = mix64((K ^ p) + gamma)`` from 0, so
    any integer seed keys a stream and keys (s, i, j) and (s, j, i) differ;
    word c is ``mix64(K + (c + 1) * gamma)``, and each draw reads the words
    after the last one read.
    """

    def __init__(self, *key: int) -> None:
        self.key, self.used = 0, 0
        for part in key:
            self.key = _mix64(((self.key ^ (operator.index(part) % 2**63)) + _GAMMA) & _MASK)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words, mixed ``_WORD_BLOCK`` at a time in place,
        so the temporaries stay small enough for the cache."""
        words = np.arange(self.used + 1, self.used + count + 1, dtype=np.uint64)
        self.used += count
        for start in range(0, count, _WORD_BLOCK):
            block = words[start : start + _WORD_BLOCK]
            block *= _GAMMA
            block += self.key
            _mix64(block)
        return words

    def below(self, high, shape) -> np.ndarray:
        """Uniform int64 draws from 0 .. high - 1, of ``shape``; ``high``, from 1
        to 2**63, is an integer or an array that broadcasts to ``shape``.  A word
        under 2**64 % high is drawn again, so the rest reduce ``% high`` evenly."""
        high = np.asarray(high, dtype=np.uint64)
        floor = np.broadcast_to((_MASK - high + 1) % high, shape)
        words = self.words(floor.size).reshape(floor.shape)
        redo = words < floor
        while redo.any():
            words[redo] = self.words(np.count_nonzero(redo))
            redo &= words < floor
        words %= high
        return words.view(np.int64)

    def subset(self, total: int, count: int) -> np.ndarray:
        """The sorted indices of a uniform ``count``-subset of 0 .. total - 1,
        ``total`` at least 1: the first ``count`` distinct values of uniform
        draws, read in rounds of exactly the deficit.  The values new after
        the first round are few; they are kept apart, and merged into the
        first round's once.  Over half of ``total``, the complement of a
        subset of the rest, so a draw is new at least half the time."""
        if 2 * count > total:
            keep = np.ones(total, dtype=bool)
            keep[self.subset(total, total - count)] = False
            return np.flatnonzero(keep)
        held = self.below(total, count)
        held.sort()  # in place: the draws are this call's own
        held = held[run_starts(held)]
        later = held[:0]
        while len(held) + len(later) < count:
            drawn = self.below(total, count - len(held) - len(later))
            later = distinct_keys(np.concatenate([later, drawn]))
            later = later[held[np.searchsorted(held, later).clip(max=len(held) - 1)] != later]
        return np.insert(held, np.searchsorted(held, later), later)
