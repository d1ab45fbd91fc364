from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.corpus import build_corpus
from emlang.errors import AttributeMismatch, ConfigError, LengthMismatch, ZeroVariance
from emlang.metrics import (
    AccuracyMatrix,
    _pairs,
    accuracy_per_speaker,
    attribute_edit_distance,
    average_ranks,
    levenshtein,
    pairwise_levenshtein,
    spearman,
    topsim,
)
from emlang.schema import validate_sample
from emlang.synth import all_combinations, gen_compositional, gen_holistic

from oracles import brute_levenshtein, brute_spearman, hamming

messages = st.lists(st.integers(0, 5), min_size=0, max_size=8).map(tuple)


# ---------------------------------------------------------------------------
# Levenshtein
# ---------------------------------------------------------------------------

def test_levenshtein_examples():
    assert levenshtein((1, 2, 3), (1, 2, 3)) == 0
    assert levenshtein((1, 2, 3), (1, 3, 3)) == 1
    assert brute_levenshtein((1, 2, 3, 4), (2, 3, 4, 1)) == 2
    assert levenshtein((1, 2, 3, 4), (2, 3, 4, 1)) == 2
    assert levenshtein((), (1, 2)) == 2


@settings(max_examples=150, deadline=None)
@given(messages, messages)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein(a, b) == brute_levenshtein(a, b)


@settings(max_examples=100, deadline=None)
@given(messages, messages, messages)
def test_levenshtein_metric_axioms(a, b, c):
    assert levenshtein(a, b) >= 0
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_levenshtein_bounded_by_hamming(n, data):
    a = tuple(data.draw(st.integers(0, 5)) for _ in range(n))
    b = tuple(data.draw(st.integers(0, 5)) for _ in range(n))
    assert levenshtein(a, b) <= hamming(a, b)


# ---------------------------------------------------------------------------
# Attribute edit distance
# ---------------------------------------------------------------------------

def test_attribute_edit_distance(moprd):
    def s(s1, s2, rel):
        return validate_sample(moprd, "x", {"shape1": s1, "shape2": s2, "relationship": rel})

    assert attribute_edit_distance(s("○", "○", "→"), s("○", "●", "→"), moprd) == 1
    assert attribute_edit_distance(s("○", "○", "→"), s("○", "○", "→"), moprd) == 0
    assert attribute_edit_distance(s("○", "○", "→"), s("■", "●", "↑"), moprd) == 3


def test_attribute_edit_distance_rejects_foreign_samples(moprd):
    from emlang.schema import Sample

    good = validate_sample(moprd, "x", {"shape1": "○", "shape2": "○", "relationship": "→"})
    bad = Sample(id="y", values={"shape1": "○"})
    with pytest.raises(AttributeMismatch):
        attribute_edit_distance(good, bad, moprd)


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------

def test_spearman_reference_points():
    assert spearman([1, 2, 3], [1, 2, 3]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0
    # average ranks for x: [1, 2.5, 2.5, 4]; hand-checked rank-then-Pearson
    expected = brute_spearman([1, 2, 2, 4], [1, 3, 2, 4])
    assert expected == pytest.approx(0.9486832980505138, abs=1e-15)
    assert spearman([1, 2, 2, 4], [1, 3, 2, 4]) == pytest.approx(expected, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ZeroVariance):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        spearman([1, 2, 3], [5, 5, 5])
    with pytest.raises(LengthMismatch):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        spearman([1], [2])


def test_average_ranks_with_ties():
    assert list(average_ranks([1, 2, 2, 4])) == [1.0, 2.5, 2.5, 4.0]
    assert list(average_ranks([3, 3, 3])) == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("seed", range(30))
def test_spearman_matches_brute_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    while True:
        x = [rng.randint(0, 4) for _ in range(n)]
        y = [rng.randint(0, 4) for _ in range(n)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            break
    assert spearman(x, y) == pytest.approx(brute_spearman(x, y), abs=1e-12)


def test_spearman_invariant_under_monotone_transforms():
    x = [1, 5, 2, 2, 9, 4]
    y = [2, 1, 7, 3, 3, 8]
    base = spearman(x, y)
    assert spearman([2 * v + 1 for v in x], y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, [v**3 for v in y]) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# TopSim
# ---------------------------------------------------------------------------

def test_topsim_compositional_is_one(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, 7)
    report = topsim(corpus)
    assert report.rho == pytest.approx(1.0, abs=1e-12)
    assert report.pair_count == 100 * 99 // 2
    assert not report.sampled and report.seed is None


def test_topsim_identical_messages_zero_variance(moprd):
    records = [
        (f"{i:02d}", combo, (1, 1, 1), 1)
        for i, combo in enumerate(all_combinations(moprd))
    ]
    corpus = build_corpus(moprd, 4, 3, records)
    with pytest.raises(ZeroVariance):
        topsim(corpus)


def test_topsim_token_relabelling_invariance(moprd):
    corpus = gen_holistic(moprd, 10, 20, 99)
    base = topsim(corpus).rho
    permutation = list(range(20))
    random.Random(3).shuffle(permutation)
    relabelled = build_corpus(
        moprd,
        20,
        10,
        [
            (e.sample.id, e.sample.values, tuple(permutation[t] for t in m), c)
            for e in corpus.entries
            for m, c in e.messages
        ],
    )
    assert topsim(relabelled).rho == base


def test_topsim_sampling_reproducible(moprd):
    corpus = gen_holistic(moprd, 10, 20, 5)
    a = topsim(corpus, max_pairs=500, seed=11)
    b = topsim(corpus, max_pairs=500, seed=11)
    assert a == b
    assert a.sampled and a.seed == 11 and a.pair_count == 500
    c = topsim(corpus, max_pairs=500, seed=12)
    assert c.rho != a.rho  # different draw; equality would be a seed plumbing bug
    with pytest.raises(ConfigError):
        topsim(corpus, max_pairs=500)


def test_topsim_needs_two_samples(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, 0)
    single = build_corpus(
        moprd,
        20,
        10,
        [
            (e.sample.id, e.sample.values, m, c)
            for e in corpus.entries[:1]
            for m, c in e.messages
        ],
    )
    with pytest.raises(ConfigError):
        topsim(single)


def test_pairs_match_enumeration():
    for n in (2, 3, 5, 8):
        direct = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert _pairs(np.arange(len(direct)), n).tolist() == [list(p) for p in direct]
    # every row boundary of n = 100000: row i runs from (i, i+1) to (i, n-1)
    n = 100_000
    rows = np.arange(n - 1)
    firsts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 1, -1))])
    lasts = np.append(firsts[1:] - 1, n * (n - 1) // 2 - 1)
    assert _pairs(np.array([0, lasts[-1]]), n).tolist() == [[0, 1], [n - 2, n - 1]]
    assert (_pairs(firsts, n) == np.column_stack([rows, rows + 1])).all()
    assert (_pairs(lasts, n) == np.column_stack([rows, np.full(n - 1, n - 1)])).all()


# ---------------------------------------------------------------------------
# Accuracy aggregation
# ---------------------------------------------------------------------------

def test_accuracy_per_speaker():
    assert accuracy_per_speaker(AccuracyMatrix(values=((0.8,),), episodes_per_cell=10)) == (0.8,)
    means = accuracy_per_speaker(
        AccuracyMatrix(values=((1.0, 0.5), (0.0, 0.5)), episodes_per_cell=10)
    )
    assert means == (0.75, 0.25)
    ones = AccuracyMatrix(values=tuple((1.0,) * 10 for _ in range(10)), episodes_per_cell=5)
    assert accuracy_per_speaker(ones) == (1.0,) * 10


def test_topsim_uses_majority_messages(moprd):
    """Minority synonyms never move the metric: distances use the
    highest-count message of each sample."""
    from emlang.corpus import AnnotatedCorpus, CorpusEntry
    from emlang.synth import gen_noisy

    base, _ = gen_compositional(moprd, 10, 20, seed=2)
    base = AnnotatedCorpus(
        schema=base.schema,
        vocab_size=base.vocab_size,
        message_length=base.message_length,
        entries=tuple(
            CorpusEntry(sample=e.sample, messages=tuple((m, 36) for m, _ in e.messages))
            for e in base.entries
        ),
    )
    noisy = gen_noisy(base, synonym_count=1, minority_share=0.10, seed=3)
    assert topsim(noisy) == topsim(base)


@pytest.mark.parametrize("seed", range(5))
def test_pairwise_levenshtein_matches_scalar(seed):
    rng = random.Random(seed)
    count = rng.randint(2, 40)
    length = rng.randint(1, 10)
    msgs = np.array([[rng.randrange(5) for _ in range(length)] for _ in range(count)])
    pairs = np.array([(i, j) for i in range(count) for j in range(i + 1, count)])
    batched = pairwise_levenshtein(msgs, pairs)
    assert [levenshtein(tuple(msgs[i]), tuple(msgs[j])) for i, j in pairs] == list(batched)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=12))
def test_spearman_self_correlation_is_one(x):
    if len(set(x)) < 2:
        x = x + [max(x) + 1]
    assert spearman(x, x) == 1.0
