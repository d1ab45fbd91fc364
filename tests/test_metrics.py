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
from emlang.distance import levenshtein
from emlang.errors import (
    AttributeMismatch,
    CapacityError,
    ConfigError,
    LengthMismatch,
    ZeroVariance,
)
from emlang.metrics import (
    AccuracyMatrix,
    _pairs,
    accuracy_per_speaker,
    average_ranks,
    pairwise_levenshtein,
    spearman,
    topsim,
)
from emlang.schema import Attribute, AttributeSchema
from emlang.synth import gen_compositional, gen_holistic, gen_noisy

from oracles import (
    attribute_product,
    attribute_values,
    brute_levenshtein,
    brute_spearman,
    hamming,
    naive_eval,
    rows_by_sample,
)

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

def moprd_corpus(moprd, samples: dict[str, tuple[tuple[str, str, str], tuple[int, ...]]]):
    """One record per sample id: its (shape1, shape2, relationship) and message."""
    records = [
        (sample_id, dict(zip(moprd.attribute_names, values)), message, 1)
        for sample_id, (values, message) in samples.items()
    ]
    return build_corpus(moprd, 2, 3, records)


def test_attribute_edit_distance(moprd):
    """TopSim's attribute distance counts the attributes whose values differ,
    hyperattributes excluded: pairs (a, b) .. (c, d) lie 2, 1, 1, 2, 3, 2
    apart.  Counting moprd's hyperattributes too would give another rho."""
    corpus = moprd_corpus(moprd, {
        "a": (("○", "○", "→"), (0, 0, 0)),
        "b": (("□", "×", "→"), (1, 1, 0)),
        "c": (("●", "○", "→"), (0, 0, 1)),
        "d": (("○", "○", "↗"), (0, 1, 0)),
    })
    values, rows = attribute_values(corpus), rows_by_sample(corpus)
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    msg = [brute_levenshtein(rows[x][0][0], rows[y][0][0]) for x, y in pairs]
    every_property = [
        sum(naive_eval(moprd, values[x], p) != naive_eval(moprd, values[y], p)
            for p in moprd.property_names)
        for x, y in pairs
    ]
    rho = topsim(corpus).rho
    assert rho == pytest.approx(brute_spearman([2, 1, 1, 2, 3, 2], msg), abs=1e-12)
    assert rho != pytest.approx(brute_spearman(every_property, msg), abs=1e-3)


def test_attribute_edit_distance_rejects_foreign_samples(moprd):
    """The distance reads only attribute codes the corpus checked: a sample
    missing an attribute, or with a value or code outside its domain, makes
    no corpus."""
    corpus = moprd_corpus(moprd, {
        "x": (("○", "○", "→"), (0, 0, 0)),
        "y": (("●", "○", "→"), (1, 0, 0)),
    })
    good = ("x", {"shape1": "○", "shape2": "○", "relationship": "→"}, (0, 0, 0), 1)
    with pytest.raises(AttributeMismatch, match="sample 'y' must assign exactly"):
        build_corpus(moprd, 2, 3, [good, ("y", {"shape1": "○"}, (1, 0, 0), 1)])
    foreign = {"shape1": "pentagon", "shape2": "○", "relationship": "→"}
    with pytest.raises(AttributeMismatch, match="value 'pentagon' not in domain of 'shape1'"):
        build_corpus(moprd, 2, 3, [good, ("z", foreign, (1, 0, 0), 1)])
    with pytest.raises(AttributeMismatch, match="sample 'y': code 5 outside the domain of 'shape1'"):
        replace(corpus, attribute_codes=[[1, 1, 0], [5, 1, 0]])


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
        for i, combo in enumerate(attribute_product(moprd))
    ]
    corpus = build_corpus(moprd, 4, 3, records)
    with pytest.raises(ZeroVariance):
        topsim(corpus)


def test_topsim_token_relabelling_invariance(moprd):
    corpus = gen_holistic(moprd, 10, 20, 99)
    base = topsim(corpus).rho
    permutation = list(range(20))
    random.Random(3).shuffle(permutation)
    values = attribute_values(corpus)
    relabelled = build_corpus(
        moprd,
        20,
        10,
        [
            (sample_id, values[sample_id], tuple(permutation[t] for t in m), c)
            for sample_id, messages in rows_by_sample(corpus).items()
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


def test_topsim_refuses_ill_typed_numbers(moprd):
    """A seed or max_pairs that is not an integer, numpy's included and bool
    not, is a ConfigError; a numpy integer seed gives the int seed's rho."""
    corpus = gen_holistic(moprd, 10, 20, 1)
    for keywords in [
        {"seed": 2.5}, {"seed": "3"}, {"seed": True},
        {"seed": 3, "max_pairs": 2.5}, {"seed": 3, "max_pairs": "100"},
        {"seed": 3, "max_pairs": np.float64(100)},
    ]:
        with pytest.raises(ConfigError, match="must be an integer"):
            topsim(corpus, **{"max_pairs": 100, **keywords})
    sampled = topsim(corpus, max_pairs=100, seed=3)
    assert topsim(corpus, max_pairs=np.int32(100), seed=np.int64(3)) == sampled
    assert type(topsim(corpus, max_pairs=100, seed=np.uint8(3)).seed) is int


def test_pair_bound_is_inclusive_and_checked_before_any_draw(monkeypatch, moprd):
    """moprd's 100 samples make 4950 pairs.  The bound counts the pairs
    compared, in either mode, and refuses before a pair is drawn."""
    corpus = gen_holistic(moprd, 10, 20, 1)
    monkeypatch.setattr(metrics, "MAX_PAIRS", 4950)
    assert topsim(corpus, max_pairs=10**9).pair_count == 4950
    monkeypatch.setattr(metrics, "MAX_PAIRS", 4949)
    assert topsim(corpus, max_pairs=4949, seed=1).pair_count == 4949

    def no_draw(*args):
        raise AssertionError("pairs drawn past the bound")

    monkeypatch.setattr(metrics.Stream, "subset", no_draw)
    with pytest.raises(CapacityError, match="^4950 pairs exceed the topsim bound of 4949 pairs$"):
        topsim(corpus, max_pairs=10**9)
    monkeypatch.setattr(metrics, "MAX_PAIRS", 4000)
    with pytest.raises(CapacityError, match="^4001 pairs exceed the topsim bound of 4000 pairs$"):
        topsim(corpus, max_pairs=4001, seed=1)


def test_topsim_needs_three_samples(moprd):
    """Two samples give one pair, which cannot be ranked."""
    corpus, _ = gen_compositional(moprd, 10, 20, 0)

    values, rows = attribute_values(corpus), rows_by_sample(corpus)

    def corpus_of(*indices):
        ids = [corpus.sample_ids[i] for i in indices]
        records = [(i, values[i], m, c) for i in ids for m, c in rows[i]]
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


def test_pairs_find_the_rows_of_any_indices():
    """Row i's first and last pair, and the next row's first, for n up to
    where a float square root could no longer tell the rows apart."""
    rng = random.Random(0)
    for n in (3, 4, 7, 100_000, 3_000_000_000):
        for _ in range(300):
            i = rng.randrange(n - 2)
            first = i * n - i * (i + 1) // 2
            last = first + n - i - 2
            assert _pairs(np.array([first, last, last + 1]), n).tolist() == [
                [i, i + 1], [i, n - 1], [i + 1, i + 2],
            ]


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


@pytest.mark.parametrize(("dtype", "tokens"), [
    (np.int64, [-(2**63), -(2**32), -1, 0, 1, 2**32, 2**32 + 1, 2**63 - 1]),
    # 2**64 - 2 and 2**64 - 1 are one float64: a float compare would merge them
    (np.uint64, [0, 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]),
])
def test_pairwise_levenshtein_compares_tokens_as_given(dtype, tokens):
    """Tokens that agree in their low bits, or in float64, stay apart."""
    rng = np.random.default_rng(len(tokens))
    msgs = np.array(tokens, dtype=dtype)[rng.integers(0, len(tokens), size=(40, 9))]
    pairs = rng.integers(0, len(msgs), size=(500, 2))
    rows = [tuple(row) for row in msgs.tolist()]
    assert pairwise_levenshtein(msgs, pairs).tolist() == [
        levenshtein(rows[i], rows[j]) for i, j in pairs
    ]


def test_pairwise_levenshtein_rejects_pairs_out_of_range():
    msgs = np.zeros((3, 4), np.int64)
    assert pairwise_levenshtein(msgs, np.array([[-3, 2]])).tolist() == [0]
    for bad in ([[0, 3]], [[-4, 0]]):
        with pytest.raises(IndexError):
            pairwise_levenshtein(msgs, np.array(bad))


def _micro_corpus(rng: random.Random, length: int):
    """A few samples over nine attributes, one with 300 values (codes 259
    and 299 share their low byte with 3 and 43), each sample with a majority
    message and sometimes a rarer synonym."""
    wide = tuple(f"w{k}" for k in range(300))
    attributes = [Attribute(name="wide", domain=wide)]
    attributes += [Attribute(name=f"a{k}", domain=("p", "q", "r")[: 2 + k % 2]) for k in range(8)]
    schema = AttributeSchema(attributes=tuple(attributes))
    combos, count = set(), rng.randint(4, 8)
    while len(combos) < count:
        values = {"wide": rng.choice(("w3", "w259", "w43", "w299"))}
        values |= {a.name: rng.choice(a.domain) for a in attributes[1:]}
        combos.add(tuple(sorted(values.items())))
    vocab = rng.choice((2, 3, 300))
    records = []
    for number, combo in enumerate(sorted(combos)):
        message = tuple(rng.randrange(vocab) for _ in range(length))
        records.append((f"s{number}", dict(combo), message, 5))
        synonym = tuple(rng.randrange(vocab) for _ in range(length))
        if synonym != message and rng.random() < 0.5:
            records.append((f"s{number}", dict(combo), synonym, rng.randint(1, 4)))
    return schema, vocab, records


@pytest.mark.parametrize("length", [1, 2, 7, 64, 65, 130])
@pytest.mark.parametrize("seed", range(3))
def test_topsim_matches_brute_oracle(length, seed):
    """Exact topsim equals Spearman over naive attribute distances and
    recursive Levenshtein distances of the majority messages."""
    rng = random.Random(f"{length}:{seed}")
    while True:
        schema, vocab, records = _micro_corpus(rng, length)
        majority = {r[0]: r for r in records if r[3] == 5}
        ids = sorted(majority)
        pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1 :]]
        attr = [sum(majority[a][1][k] != majority[b][1][k] for k in majority[a][1])
                for a, b in pairs]
        msg = [brute_levenshtein(majority[a][2], majority[b][2]) for a, b in pairs]
        if len(set(attr)) > 1 and len(set(msg)) > 1:
            break
    corpus = build_corpus(schema, vocab, length, records)
    report = topsim(corpus)
    assert report.pair_count == len(pairs)
    assert report.rho == pytest.approx(brute_spearman(attr, msg), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=12))
def test_spearman_self_correlation_is_one(x):
    if len(set(x)) < 2:
        x = x + [max(x) + 1]
    assert spearman(x, x) == 1.0


# repr(rho) of exact and sampled topsim, as computed when the generators
# first drew from the counter-based stream (pairs and synonyms already did):
# no refactoring may move one bit
GOLDEN_RHO = {
    "holistic-0": ("holistic", 0, "0.011305800260922157", "0.014078066037857525"),
    "holistic-1": ("holistic", 1, "0.018258694921129925", "0.0063550018694684875"),
    "holistic-2": ("holistic", 2, "-0.002691836157204171", "0.0007347283165914897"),
    "noisy-1": ("noisy", 1, "0.6477262433742664", "0.6435861583820335"),
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


# repr(rho) of exact and sampled topsim on noisy 625-sample corpora, as
# computed when the compositional bases first came from the counter-based
# stream: 195,000 exact and at least 140,000 sampled pairs run more than two
# _CHUNK blocks each
GRID_GOLDEN_RHO = {
    "len12-seed1": (12, 20, 1, 0.2, 1, 150_000, "0.7188027783249542", "0.7193554742477022"),
    "len12-seed2": (12, 20, 1, 0.2, 2, 150_000, "0.694817456770894", "0.6939383782911774"),
    "len17-seed4": (17, 30, 2, 0.3, 4, 140_000, "0.707675864964232", "0.7065749133481746"),
}


@pytest.mark.parametrize(
    ("msg_len", "vocab", "synonyms", "share", "seed", "max_pairs", "exact", "sampled"),
    GRID_GOLDEN_RHO.values(),
    ids=GRID_GOLDEN_RHO.keys(),
)
def test_topsim_golden_rho_over_many_blocks(msg_len, vocab, synonyms, share, seed, max_pairs,
                                            exact, sampled):
    schema = AttributeSchema(
        attributes=tuple(Attribute(name=f"a{i}", domain=tuple("pqrst")) for i in range(4))
    )
    base, _ = gen_compositional(schema, msg_len, vocab, seed)
    corpus = gen_noisy(base, synonyms, share, seed=seed)
    n = len(corpus.sample_ids)
    assert 2 * metrics._CHUNK < max_pairs < n * (n - 1) // 2
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
