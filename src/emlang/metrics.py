"""Distance measures, rank correlation, TopSim, and accuracy aggregation.

TopSim here is the Spearman correlation between pairwise attribute edit
distances (number of attributes on which two samples differ) and pairwise
Levenshtein distances between the samples' representative messages.  Pairs
are enumerated in sample-id order, so results never depend on scheduling;
above ``max_pairs`` the pair list is subsampled from a numpy stream seeded by
the mandatory ``seed``.

Both distance sequences are small non-negative integers, and every TopSim
array is kept at the narrowest integer type that holds it: attribute codes,
message tokens (as dense ids), and the distances themselves.  Pairs are
handled ``_CHUNK`` at a time, so only the two distance sequences and their
ranks grow with the pair count.  Integer distances are ranked by counting,
with no sort, and give the same ranks, bit for bit, as the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, Message, representative_of
from .errors import ConfigError, LengthMismatch, ZeroVariance
from .schema import AttributeSchema, Sample, property_codes

# Exact enumeration for up to 2000 samples; seeded sampling beyond.
DEFAULT_MAX_PAIRS = 2000 * 1999 // 2


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


def levenshtein(a: Message, b: Message) -> int:
    """Minimal number of token insertions, deletions, and substitutions."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, token_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, token_b in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (token_a != token_b),
            )
        previous = current
    return previous[len(b)]


def attribute_edit_distance(s1: Sample, s2: Sample, schema: AttributeSchema) -> int:
    """Number of attributes (hyperattributes excluded) with differing values."""
    codes = property_codes(schema, [s1, s2])[:, : len(schema.attributes)]
    return int((codes[0] != codes[1]).sum())


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


def _pairs(indices: np.ndarray, n: int) -> np.ndarray:
    """Map linear indices into the (i, j), i < j, pair enumeration to pairs."""
    rows = np.arange(n - 1, dtype=np.int64)
    # row i holds (i, i+1) .. (i, n-1) and starts after the n-1 + ... + n-i earlier pairs
    starts = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(starts, indices, side="right") - 1
    return np.column_stack([i, indices - starts[i] + i + 1])


_CHUNK = 1 << 16


def pairwise_levenshtein(messages: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Levenshtein for many equal-length message pairs at once.

    Equivalent to calling :func:`levenshtein` per pair.  All pairs walk the
    (length x length) DP grid in lockstep, bit-sliced: pair k of a block is
    bit k of each ``uint64`` word, so one bitwise operation advances 64 pairs.

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

    The DP reads tokens only through Eq, so the messages are first renumbered
    to dense ids of the narrowest unsigned type that holds them.
    """
    length = messages.shape[1]
    distinct, dense = np.unique(messages, return_inverse=True)
    dense = dense.reshape(messages.shape).astype(np.min_scalar_type(len(distinct)))
    columns = np.ascontiguousarray(dense.T)
    ones = ~np.uint64(0)
    out = np.empty(len(pairs), dtype=np.int64)
    for start in range(0, len(pairs), _CHUNK):
        block = pairs[start : start + _CHUNK]
        # whole words only: padding pairs compare message 0 with itself
        index = np.zeros((2, -(-len(block) // 64) * 64), dtype=np.int64)
        index[:, : len(block)] = block.T
        a = np.take(columns, index[0], axis=1)
        b = np.take(columns, index[1], axis=1)
        words = index.shape[1] // 64
        ph = np.full((length, words), ones)
        mh = np.zeros((length, words), dtype=np.uint64)
        for i in range(length):
            eq = np.packbits(a[i] == b, axis=1, bitorder="little").view(np.uint64)
            pv, mv = np.full(words, ones), np.zeros(words, dtype=np.uint64)
            for j in range(length):
                xv = eq[j] | mv
                xh = eq[j] | mh[j]
                pv, mv, ph[j], mh[j] = mh[j] | ~(xv | ph[j]), ph[j] & xv, mv | ~(xh | pv), pv & xh
        bottom = np.unpackbits(np.stack([ph, mh]).view(np.uint8), axis=2, bitorder="little")
        plus, minus = bottom.sum(axis=1, dtype=np.int64)
        out[start : start + len(block)] = (length + plus - minus)[: len(block)]
    return out


def topsim(
    corpus: AnnotatedCorpus,
    max_pairs: int | None = None,
    seed: int | None = None,
) -> TopSimReport:
    """Correlation between sample-space and message-space distances.

    Messages enter through each sample's representative (highest-count)
    message.  When the unordered pair count exceeds ``max_pairs`` the pairs
    are drawn uniformly without replacement from a numpy stream seeded by
    ``seed``, which is then required; any integer seed is accepted.  It
    needs at least three samples, because the one pair of two cannot be
    ranked, and ``max_pairs`` of at least 2.
    """
    n = len(corpus.samples)
    if n < 3:
        raise ConfigError("topsim needs at least three samples")
    limit = DEFAULT_MAX_PAIRS if max_pairs is None else max_pairs
    if limit < 2:
        raise ConfigError("max_pairs must be at least 2")
    total_pairs = n * (n - 1) // 2

    sampled = total_pairs > limit
    if sampled:
        if seed is None:
            raise ConfigError("sampling pairs requires a seed")
        rng = np.random.default_rng(np.random.SeedSequence(seed % (2**63)))
        indices = np.sort(rng.choice(total_pairs, limit, replace=False, shuffle=False))
    count = limit if sampled else total_pairs

    # attribute columns lead the code matrix; differing code <=> differing value
    attribute_count = len(corpus.schema.attributes)
    codes = corpus.codes[:, :attribute_count]
    codes = codes.astype(np.min_scalar_type(codes.max(initial=0)))
    reps = corpus.messages[representative_of(corpus)]
    # distances lie in 0..attribute_count and 0..message_length
    attr_dist = np.empty(count, dtype=np.min_scalar_type(attribute_count))
    msg_dist = np.empty(count, dtype=np.min_scalar_type(corpus.message_length))
    # one block of pairs at a time, so per-pair gathers never span every pair
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        pairs = _pairs(indices[start:stop] if sampled else np.arange(start, stop), n)
        attr_dist[start:stop] = (codes[pairs[:, 0]] != codes[pairs[:, 1]]).sum(axis=1)
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
