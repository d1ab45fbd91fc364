"""Distance measures, rank correlation, TopSim, and accuracy aggregation.

TopSim here is the Spearman correlation between pairwise attribute edit
distances (number of attributes on which two samples differ) and pairwise
Levenshtein distances between the samples' representative messages.  Pairs
are enumerated in sample-id order, so results never depend on scheduling;
above ``max_pairs`` the pair list is a uniform subset drawn from the
counter-based :class:`~emlang.kernels.Stream` keyed by the mandatory ``seed``.

Both distance sequences are small non-negative integers, and every TopSim
array is kept at the narrowest integer type that holds it: attribute codes
(one contiguous column per attribute), message tokens (as dense ids, which
``topsim`` renumbers once per call; ``pairwise_levenshtein`` compares the
tokens it is given), and the distances themselves.  Pairs are handled
``_CHUNK`` at a time, unranked from sorted indices, so only the two distance
sequences and their ranks grow with the pair count.  Levenshtein walks each
block's DP grids together, bit-sliced and one anti-diagonal at a time.
Integer distances are ranked by counting, with no sort, and give the same
ranks, bit for bit, as the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, config_int
from .errors import CapacityError, ConfigError, LengthMismatch, ZeroVariance
from .kernels import Stream, column_major, first_of_max

# Exact enumeration for up to 2000 samples; seeded sampling beyond.
DEFAULT_MAX_PAIRS = 2000 * 1999 // 2
# Most pairs topsim compares, checked before any array is built.  A pair
# takes 18.4 bytes in exact mode (its two narrow distances and two float64
# ranks) and 26 to 31 in sampled mode, which also holds its int64 index
# (ru_maxrss growth per pair, 3 to 16 million pairs), so the bound keeps the
# working memory below about 0.85 GB.
MAX_PAIRS = 28_000_000


@dataclass(frozen=True)
class TopSimReport:
    rho: float
    pair_count: int
    sampled: bool = False
    seed: int | None = None


@dataclass(frozen=True)
class AccuracyMatrix:
    """Speaker-by-listener hit fractions, one cell per evaluated pair."""

    values: tuple[tuple[float, ...], ...]
    episodes_per_cell: int


def average_ranks(values) -> np.ndarray:
    """1-based float ranks; ties receive the mean of their rank range.

    Integers in ``0..len(values)`` are ranked by counting: ``np.bincount``
    gives each value's tie group, with no sort and at most one bin more than
    there are values.  Any other input is ranked through ``np.unique``, on a
    float copy unless it is bool, integer or float, so integers past 2**53
    stay apart.  Both paths apply the same formula to the same counts, so
    integer input ranks bit-identically to an exact float copy.
    """
    arr = np.asarray(values)
    # bincount takes integers that cast to intp; bools would index as a mask
    integers = arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.intp) and arr.ndim == 1
    if integers and 0 <= arr.min(initial=0) and arr.max(initial=0) <= len(arr):
        inverse, counts = arr, np.bincount(arr)
    else:
        if arr.dtype.kind not in "biuf":
            arr = arr.astype(float)
        _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    # a tie group ending at rank r shares ranks r - count + 1 .. r
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked sequences.

    The sequences keep their own dtype, so integer distances are ranked by
    counting (see :func:`average_ranks`).  Each rank array is centred in
    place, so at most two float arrays of the sequence length are alive.

    Raises ZeroVariance when either sequence is constant (the correlation is
    undefined there, and a constant distance list usually signals a
    degenerate language rather than "no correlation").
    """
    x, y = np.asarray(x), np.asarray(y)
    if len(x) != len(y):
        raise LengthMismatch(f"sequences of length {len(x)} and {len(y)}")
    if len(x) < 2:
        raise LengthMismatch("need at least two observations")
    dx = average_ranks(x)
    dx -= dx.mean()
    dy = average_ranks(y)
    dy -= dy.mean()
    sxx, syy = np.dot(dx, dx), np.dot(dy, dy)
    # a constant sequence ranks every item (n + 1) / 2, so its centred ranks are exactly 0
    if sxx == 0 or syy == 0:
        raise ZeroVariance("a sequence is constant; rank correlation is undefined")
    return float(np.dot(dx, dy) / math.sqrt(sxx * syy))


def _row_of(index: int, n: int) -> int:
    """The row of a linear pair index: the largest i whose row start
    i*n - i*(i+1)//2 is at most ``index``, from the smaller root of that
    quadratic in exact integers (isqrt can put it one row too far)."""
    i = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * index)) // 2
    return i - (i * n - i * (i + 1) // 2 > index)


def _pairs(indices: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices into the (i, j), i < j, pair enumeration to pairs.

    The indices must be sorted ascending and not empty.  Each row's pairs are
    then one run, so only the rows between the first and the last index are
    looked at: one ``searchsorted`` counts each row's run, and ``np.repeat``
    spreads the row and its start over it.
    """
    first, last = _row_of(int(indices[0]), n), _row_of(int(indices[-1]), n)
    rows = np.arange(first, last + 1, dtype=np.int64)
    # row i holds (i, i+1) .. (i, n-1) and starts after the n-1 + ... + n-i earlier pairs
    starts = rows * n - rows * (rows + 1) // 2
    runs = np.diff(np.searchsorted(indices, starts), append=len(indices))
    # stored column by column, so each side of the pairs is one contiguous row
    return np.stack([np.repeat(rows, runs), indices - np.repeat(starts - rows - 1, runs)]).T


_CHUNK = 1 << 16


def pairwise_levenshtein(messages: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Levenshtein for many equal-length message pairs at once.

    Equivalent to calling :func:`~emlang.distance.levenshtein` per pair.
    All pairs walk the (length x length) DP grid in lockstep, bit-sliced:
    pair k of a block is bit k of each ``uint64`` word, so one bitwise
    operation advances 64 pairs.

    A cell does not hold its distance D[i, j] but the deltas into it, the
    vertical D[i, j] - D[i-1, j] and the horizontal D[i, j] - D[i, j-1].
    Adjacent DP cells differ by at most 1, so each delta is -1, 0 or +1 and
    two bit-planes hold it: P for +1, M for -1, neither for 0.  A cell's
    output deltas are a Boolean function of its two input deltas and of
    Eq = (a[i] == b[j]) (Myers 1999, JACM 46(3); Hyyrö 2003, whose
    Eq/X/P/M names this follows)::

        Xv = Eq | Mv            Xh = Eq | Mh
        Pv' = Mh | ~(Xv | Ph)   Mv' = Ph & Xv
        Ph' = Mv | ~(Xh | Pv)   Mh' = Pv & Xh

    No bit reads another, so the function needs no carries or shifts and
    puts no limit on message length.  Row 0 has horizontal deltas +1
    (D[0, j] = j) and column 0 vertical deltas +1 (D[i, 0] = i); the
    distance is D[L, 0] = L plus the bottom row's horizontal deltas.

    The grid is walked by anti-diagonal: cell (i, j) reads only the vertical
    delta of row i and the horizontal delta of column j, written on diagonal
    i + j - 1, so the cells of one diagonal are independent.  Row-indexed
    planes (a's positions, vertical deltas) and column-indexed planes stored
    reversed (b's positions, horizontal deltas) make each diagonal one
    contiguous slice of every plane, advanced by one call per operation.

    Tokens are compared as given, in any integer dtype; :func:`topsim`
    renumbers its messages to narrow dense ids first.
    """
    count, length = messages.shape
    if len(pairs) and not -count <= pairs.min() <= pairs.max() < count:
        raise IndexError(f"pair indices must lie in -{count}..{count - 1}")
    columns = np.ascontiguousarray(messages.T)
    reversed_columns = columns[::-1]
    ones = ~np.uint64(0)
    out = np.empty(len(pairs), dtype=np.int64)
    for start in range(0, len(pairs), _CHUNK):
        first, second = np.ascontiguousarray(pairs[start : start + _CHUNK].T)
        size, width = len(first), -(-len(first) // 64) * 64
        # one 1-D take per position, far cheaper than one take along axis 1;
        # "wrap" (the indices are in range) skips the copy "raise" makes of out
        a = np.empty((length, width), dtype=columns.dtype)
        b = np.empty_like(a)  # row r holds position length-1-r
        for position in range(length):
            np.take(columns[position], first, out=a[position, :size], mode="wrap")
            np.take(reversed_columns[position], second, out=b[position, :size], mode="wrap")
        # whole words only: padding pairs compare equal tokens
        a[:, size:] = b[:, size:] = 0
        same = np.empty((length, width), dtype=bool)  # every diagonal's token compares
        words = width // 64
        pv, ph = np.full((2, length, words), ones)
        mv, mh = np.zeros((2, length, words), dtype=np.uint64)
        for d in range(2 * length - 1):
            # cells (i, d - i) for i in rows; column d - i is reversed row length-1-d+i
            rows = slice(max(0, d - length + 1), min(d, length - 1) + 1)
            cols = slice(rows.start + length - 1 - d, rows.stop + length - 1 - d)
            equal = np.equal(a[rows], b[cols], out=same[: rows.stop - rows.start])
            eq = np.packbits(equal, axis=1, bitorder="little").view(np.uint64)
            xv, xh = eq | mv[rows], eq | mh[cols]
            pv[rows], mv[rows], ph[cols], mh[cols] = (
                mh[cols] | ~(xv | ph[cols]),
                ph[cols] & xv,
                mv[rows] | ~(xh | pv[rows]),
                pv[rows] & xh,
            )
        # at most length deltas per pair, so the sums fit a type that holds length;
        # one row at a time, so no (length x pairs) array is unpacked at once
        plus, minus = np.zeros((2, width), dtype=np.min_scalar_type(length))
        for column in range(length):
            plus += np.unpackbits(ph[column].view(np.uint8), bitorder="little")
            minus += np.unpackbits(mh[column].view(np.uint8), bitorder="little")
        np.subtract(plus[:size], minus[:size], out=out[start : start + size], dtype=np.int64)
        out[start : start + size] += length
    return out


def topsim(
    corpus: AnnotatedCorpus,
    max_pairs: int | None = None,
    seed: int | None = None,
) -> TopSimReport:
    """Correlation between sample-space and message-space distances.

    Messages enter through each sample's representative (highest-count)
    message.  When the unordered pair count exceeds ``max_pairs`` the pairs
    are a uniform subset drawn by :meth:`~emlang.kernels.Stream.subset` from
    the stream keyed by ``seed``; the seed is then required, and any
    integer seed is accepted.  It needs at least three samples, because the
    one pair of two cannot be ranked, and ``max_pairs`` of at least 2.  A
    seed or ``max_pairs`` given is an integer, numpy's included and bool
    not; else ConfigError.  More than ``MAX_PAIRS`` pairs to compare is a
    CapacityError, raised before any pair is drawn or array built.
    """
    n = len(corpus.sample_ids)
    if n < 3:
        raise ConfigError("topsim needs at least three samples")
    limit = DEFAULT_MAX_PAIRS if max_pairs is None else config_int(max_pairs, "max_pairs")
    seed = None if seed is None else config_int(seed, "seed")
    if limit < 2:
        raise ConfigError("max_pairs must be at least 2")
    total_pairs = n * (n - 1) // 2

    sampled = total_pairs > limit
    if sampled and seed is None:
        raise ConfigError("sampling pairs requires a seed")
    count = limit if sampled else total_pairs
    if count > MAX_PAIRS:
        raise CapacityError(f"{count} pairs exceed the topsim bound of {MAX_PAIRS} pairs")
    if sampled:
        indices = Stream(seed).subset(total_pairs, limit)

    codes = corpus.attribute_codes  # differing code <=> differing value
    attribute_count = codes.shape[1]
    columns = column_major(codes)
    # Levenshtein reads tokens only through equality: dense ids of the narrowest type
    # each sample's highest-count row; ties go to the smallest, the smallest message
    reps = corpus.messages[first_of_max(corpus.owners, corpus.counts)]
    distinct, dense = np.unique(reps, return_inverse=True)
    reps = dense.reshape(reps.shape).astype(np.min_scalar_type(len(distinct)))
    # distances lie in 0..attribute_count and 0..message_length
    attr_dist = np.zeros(count, dtype=np.min_scalar_type(attribute_count))
    msg_dist = np.empty(count, dtype=np.min_scalar_type(corpus.message_length))
    # one block of pairs at a time, so per-pair gathers never span every pair
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        pairs = _pairs(indices[start:stop] if sampled else np.arange(start, stop), n)
        for column in columns:
            attr_dist[start:stop] += column[pairs[:, 0]] != column[pairs[:, 1]]
        msg_dist[start:stop] = pairwise_levenshtein(reps, pairs)
    rho = spearman(attr_dist, msg_dist)
    return TopSimReport(
        rho=rho,
        pair_count=count,
        sampled=sampled,
        seed=seed if sampled else None,
    )


def accuracy_per_speaker(matrix: AccuracyMatrix) -> tuple[float, ...]:
    """Row means: the average accuracy listeners reach with each speaker."""
    return tuple(float(np.mean(row)) for row in matrix.values)
