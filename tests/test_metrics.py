from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emlang import metrics
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
from emlang.schema import Attribute, AttributeSchema, validate_sample
from emlang.synth import all_combinations, gen_compositional, gen_holistic, gen_noisy

from oracles import brute_levenshtein, brute_spearman, hamming, rows_by_sample

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
    foreign = Sample(id="z", values={"shape1": "pentagon", "shape2": "○", "relationship": "→"})
    with pytest.raises(AttributeMismatch, match="value 'pentagon' not in domain of 'shape1'"):
        attribute_edit_distance(good, foreign, moprd)


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


def test_average_ranks_keep_large_integers_apart():
    """Integers that one float cannot tell apart still rank by their order."""
    assert list(average_ranks([2**60 + 1, 2**60, 5])) == [3.0, 2.0, 1.0]
    assert list(average_ranks(np.array([2**63 - 1, 2**63 - 2], dtype=np.int64))) == [2.0, 1.0]
    assert list(average_ranks(np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64))) == [2.0, 1.0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 40).flatmap(lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)),
    st.sampled_from([np.uint8, np.int16, np.uint32, np.int64]),
)
@example([], np.int64)
@example([0], np.uint8)
@example([3, 3, 3], np.int64)
@example([0, 4, 4, 1], np.int16)  # max == len
def test_counted_ranks_equal_float_ranks(values, dtype):
    """Integers in 0..len rank by counting, bit for bit as their float copy."""
    counted = average_ranks(np.array(values, dtype=dtype))
    ranked = average_ranks(np.array(values, dtype=dtype).astype(float))
    assert counted.dtype == ranked.dtype == np.float64
    assert counted.tobytes() == ranked.tobytes()


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
            (sample.id, sample.values, tuple(permutation[t] for t in m), c)
            for sample, messages in zip(corpus.samples, rows_by_sample(corpus).values())
            for m, c in messages
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


def test_topsim_needs_three_samples(moprd):
    """Two samples give one pair, which cannot be ranked."""
    corpus, _ = gen_compositional(moprd, 10, 20, 0)

    def corpus_of(*indices):
        samples = [corpus.samples[i] for i in indices]
        records = [(s.id, s.values, m, c) for s in samples for m, c in rows_by_sample(corpus)[s.id]]
        return build_corpus(moprd, 20, 10, records)

    for indices in ((0,), (0, 1)):
        with pytest.raises(ConfigError, match="at least three samples"):
            topsim(corpus_of(*indices))
    assert topsim(corpus_of(0, 1, 5)).pair_count == 3  # attribute distances 1, 2, 1


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
    from emlang.synth import gen_noisy

    base, _ = gen_compositional(moprd, 10, 20, seed=2)
    base = replace(base, counts=np.full_like(base.counts, 36))
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


# the extreme tokens corpus.VOCAB_LIMIT allows, and one between
EDGE_TOKENS = np.array([0, 2**62, 2**63 - 1], dtype=np.int64)


def _edge_messages(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """Random messages over EDGE_TOKENS, each followed by a copy rotated one step."""
    msgs = rng.choice(EDGE_TOKENS, size=(count, length))
    return np.concatenate([msgs, np.roll(msgs, 1, axis=1)])


def _check_against_oracle(msgs: np.ndarray, pairs: np.ndarray) -> None:
    batched = pairwise_levenshtein(msgs, pairs)
    assert batched.dtype == np.int64
    assert batched.tolist() == [brute_levenshtein(msgs[i], msgs[j]) for i, j in pairs]


@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_pairwise_levenshtein_at_word_edges(count):
    rng = np.random.default_rng(count)
    msgs = _edge_messages(rng, 12, 7)
    _check_against_oracle(msgs, rng.integers(0, len(msgs), size=(count, 2)))


@pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 130])
def test_pairwise_levenshtein_at_length_edges(length):
    rng = np.random.default_rng(length)
    msgs = _edge_messages(rng, 2, length)
    pairs = np.array([(i, j) for i in range(len(msgs)) for j in range(len(msgs))])
    _check_against_oracle(msgs, pairs)


def test_pairwise_levenshtein_across_chunks(monkeypatch, moprd):
    rng = np.random.default_rng(0)
    msgs = _edge_messages(rng, 10, 9)
    pairs = rng.integers(0, len(msgs), size=(250, 2))
    corpus = gen_holistic(moprd, 10, 20, 4)
    whole = topsim(corpus)
    sampled = topsim(corpus, max_pairs=1234, seed=5)
    monkeypatch.setattr(metrics, "_CHUNK", 100)  # blocks of 100, 100 and 50 pairs
    _check_against_oracle(msgs, pairs)
    assert topsim(corpus) == whole
    assert topsim(corpus, max_pairs=1234, seed=5) == sampled


def test_pairwise_levenshtein_of_no_pairs():
    result = pairwise_levenshtein(np.zeros((3, 4), np.int64), np.empty((0, 2), np.int64))
    assert result.dtype == np.int64 and result.shape == (0,)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pairwise_levenshtein_equals_scalar_pair_by_pair(data):
    length = data.draw(st.integers(1, 40))
    token = st.sampled_from([0, 1, 2, 2**63 - 1])
    rows = st.lists(token, min_size=length, max_size=length)
    msgs = np.array(data.draw(st.lists(rows, min_size=1, max_size=8)), dtype=np.int64)
    index = st.integers(0, len(msgs) - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=130)))
    scalar = {
        (i, j): levenshtein(tuple(msgs[i]), tuple(msgs[j])) for i, j in set(map(tuple, pairs))
    }
    assert pairwise_levenshtein(msgs, pairs).tolist() == [scalar[i, j] for i, j in pairs]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=12))
def test_spearman_self_correlation_is_one(x):
    if len(set(x)) < 2:
        x = x + [max(x) + 1]
    assert spearman(x, x) == 1.0


# repr(rho) of exact and sampled topsim, as computed before distances became
# narrow integers and ranks were counted: the change must not move one bit
GOLDEN_RHO = {
    "holistic-0": ("holistic", 0, "-0.016905549659464912", "-0.01416275198690063"),
    "holistic-1": ("holistic", 1, "0.010472363639471901", "-0.009813319633055135"),
    "holistic-2": ("holistic", 2, "0.025039222020334238", "0.06958072203080849"),
    "noisy-1": ("noisy", 1, "0.7737387098121787", "0.7732399635129307"),
}


@pytest.mark.parametrize(("kind", "seed", "exact", "sampled"), GOLDEN_RHO.values(),
                         ids=GOLDEN_RHO.keys())
def test_topsim_golden_rho(moprd, kind, seed, exact, sampled):
    if kind == "holistic":
        corpus, max_pairs = gen_holistic(moprd, 10, 20, seed), 1000
    else:
        base, _ = gen_compositional(moprd, 10, 20, seed)
        corpus, max_pairs = gen_noisy(base, 1, 0.2, seed=seed), 777
    assert repr(topsim(corpus).rho) == exact
    assert repr(topsim(corpus, max_pairs=max_pairs, seed=seed).rho) == sampled


def test_exact_topsim_memory_per_pair():
    """Distances as narrow integers and counted ranks: about 20 traced bytes
    per pair (two one-byte distances and two float rank arrays), where float
    distances and sorted ranks took 130."""
    schema = AttributeSchema(
        attributes=tuple(Attribute(name=f"a{i}", domain=tuple("pqrs")) for i in range(5))
    )
    corpus = gen_holistic(schema, 8, 6, 0)  # 4**5 = 1024 samples
    tracemalloc.start()
    try:
        report = topsim(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pair_count == 1024 * 1023 // 2
    assert peak / report.pair_count < 40
