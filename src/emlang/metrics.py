"""Distance measures, rank correlation, TopSim, and accuracy aggregation.

TopSim here is the Spearman correlation between pairwise attribute edit
distances (number of attributes on which two samples differ) and pairwise
Levenshtein distances between the samples' representative messages.  Pairs
are enumerated in sample-id order, so results never depend on scheduling;
above ``max_pairs`` the pair list is subsampled from a numpy stream seeded by
the mandatory ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, Message, representative_of
from .errors import AttributeMismatch, ConfigError, LengthMismatch, ZeroVariance
from .schema import AttributeSchema, Sample

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
    names = schema.attribute_names
    for sample in (s1, s2):
        if set(sample.values) != set(names):
            raise AttributeMismatch(f"sample {sample.id!r} does not conform to the schema")
    return sum(s1.values[name] != s2.values[name] for name in names)


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties receive the mean of their rank range."""
    arr = np.asarray(values, dtype=float)
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    # a tie group ending at rank r shares ranks r - count + 1 .. r
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked sequences.

    Raises ZeroVariance when either sequence is constant (the correlation is
    undefined there, and a constant distance list usually signals a
    degenerate language rather than "no correlation").
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise LengthMismatch(f"sequences of length {len(x)} and {len(y)}")
    if len(x) < 2:
        raise LengthMismatch("need at least two observations")
    dx, dy = (ranks - ranks.mean() for ranks in (average_ranks(x), average_ranks(y)))
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


_CHUNK = 1 << 18


def pairwise_levenshtein(messages: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Levenshtein for many equal-length message pairs at once.

    Equivalent to calling :func:`levenshtein` per pair; the DP runs over the
    fixed (length x length) grid with all pairs advancing in lockstep.
    """
    length = messages.shape[1]
    out = np.empty(len(pairs), dtype=np.int64)
    for start in range(0, len(pairs), _CHUNK):
        block = pairs[start : start + _CHUNK]
        a = messages[block[:, 0]]
        b = messages[block[:, 1]]
        previous = np.tile(np.arange(length + 1, dtype=np.int32), (len(block), 1))
        current = np.empty_like(previous)
        for i in range(1, length + 1):
            current[:, 0] = i
            mismatch = a[:, i - 1, None] != b
            for j in range(1, length + 1):
                current[:, j] = np.minimum(
                    np.minimum(previous[:, j] + 1, current[:, j - 1] + 1),
                    previous[:, j - 1] + mismatch[:, j - 1],
                )
            previous, current = current, previous
        out[start : start + len(block)] = previous[:, length]
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
    ``seed``, which is then required; any integer seed is accepted.
    """
    n = len(corpus.entries)
    if n < 2:
        raise ConfigError("topsim needs at least two samples")
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
    else:
        indices = np.arange(total_pairs)
    pairs = _pairs(indices, n)

    # attribute columns lead the code matrix; differing code <=> differing value
    codes = corpus.codes[:, : len(corpus.schema.attributes)]
    attr_dist = (codes[pairs[:, 0]] != codes[pairs[:, 1]]).sum(axis=1)
    reps = np.array([representative_of(entry) for entry in corpus.entries], dtype=np.int64)
    msg_dist = pairwise_levenshtein(reps, pairs)
    rho = spearman(attr_dist, msg_dist)
    return TopSimReport(
        rho=rho,
        pair_count=len(pairs),
        sampled=sampled,
        seed=seed if sampled else None,
    )


def accuracy_per_speaker(matrix: AccuracyMatrix) -> tuple[float, ...]:
    """Row means: the average accuracy listeners reach with each speaker."""
    return tuple(float(np.mean(row)) for row in matrix.values)
