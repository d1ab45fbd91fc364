from __future__ import annotations

import itertools
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.corpus import (
    AnnotatedCorpus,
    build_corpus,
    filter_by_frequency,
    serialize_blocks,
    serialize_corpus,
)
from emlang.errors import CapacityError, ConfigError, DocumentSyntaxError
from emlang.rules import Pattern, extract_rules
from emlang.schema import (
    AttributeSchema,
    Attribute,
    HyperattributeDef,
    ValueMap,
    code_attributes,
    extend_codes,
    parse_expression,
)
from emlang.synth import (
    MAX_COMBINATIONS,
    MAX_MESSAGE_CELLS,
    MAX_SYNONYM_CELLS,
    Codebook,
    combination_codes,
    combination_count,
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
    _distinct,
)
from emlang.kernels import Stream

from conftest import assert_uniform, run_bounded
from oracles import hamming, naive_extract_rules, rows_by_sample

TWO_BY_TWO = AttributeSchema(
    attributes=(
        Attribute(name="a", domain=("a0", "a1")),
        Attribute(name="b", domain=("b0", "b1")),
    )
)


def test_moprd_schema_shape(moprd):
    assert len(combination_codes(moprd)) == 5 * 5 * 4
    assert moprd.domain("aligned") == ("F", "T")
    values = {"shape1": "■", "shape2": "○", "relationship": "→"}
    attributes = code_attributes(moprd, ["s"], [values])
    fill1 = extend_codes(moprd, attributes)[0, moprd.column("fill1")]
    assert moprd.domain("fill1")[fill1] == "T"


# ---------------------------------------------------------------------------
# Compositional generator
# ---------------------------------------------------------------------------

def test_compositional_two_by_two():
    corpus, truth = gen_compositional(TWO_BY_TWO, 2, 3, seed=123)
    messages = corpus.messages.tolist()
    assert len(set(map(tuple, messages))) == 4
    assert truth.rule_count == 4
    for rule in truth.rules:
        assert len(rule.pattern.cells) == 1
        assert len(rule.evidence) == 1


def test_compositional_deterministic():
    first = gen_compositional(TWO_BY_TWO, 2, 3, seed=9)
    second = gen_compositional(TWO_BY_TWO, 2, 3, seed=9)
    assert first == second
    assert first != gen_compositional(TWO_BY_TWO, 2, 3, seed=10)


@pytest.mark.parametrize(("total", "count"), [(4, 2), (5, 3)])
def test_distinct_draws_every_ordered_sample_equally_often(total, count):
    stream, trials = Stream(total, count), 15_000
    samples = {sample: k for k, sample in enumerate(itertools.permutations(range(total), count))}
    drawn = [samples[tuple(_distinct(stream, total, count).tolist())] for _ in range(trials)]
    assert_uniform(np.bincount(drawn, minlength=len(samples)), len(samples))


def test_compositional_outcomes_are_equally_likely():
    """One two-valued attribute, length 2, vocabulary 4: the attribute's
    position (2), its ordered pair of distinct codes (12) and the filler,
    one of the two tokens left (2), make 48 equally likely outcomes."""
    schema = AttributeSchema(attributes=(Attribute(name="a", domain=("x", "y")),))
    outcomes = Counter()
    for seed in range(6000):
        first, second = gen_compositional(schema, 2, 4, seed)[0].messages.tolist()
        at = int(first[0] == second[0])  # the cell the two values share is the filler
        outcomes[at, first[at], second[at], first[1 - at]] += 1
    assert all(len({*outcome[1:]}) == 3 for outcome in outcomes)
    assert_uniform(list(outcomes.values()) + [0] * (48 - len(outcomes)), 48)


def test_compositional_moprd_recovered_exactly(moprd):
    corpus, truth = gen_compositional(moprd, 10, 20, seed=4)
    assert len(np.unique(corpus.messages, axis=0)) == 100
    assert naive_extract_rules(corpus, 0.15) == truth
    assert extract_rules(corpus, threshold=0.15) == truth


def test_compositional_capacity_errors(moprd):
    for length, vocab, reason in [
        (2, 20, "message length 2 cannot host 3 attributes"),
        (10, 5, "vocabulary of 5 too small for a domain of 5"),  # a domain of 5 needs 6 tokens
    ]:
        with pytest.raises(CapacityError) as caught:
            gen_compositional(moprd, length, vocab, seed=0)
        assert str(caught.value) == reason


def test_compositional_at_the_vocabulary_limit(moprd):
    corpus, truth = gen_compositional(moprd, 10, 2**63, seed=1)
    assert corpus.vocab_size == 2**63
    assert extract_rules(corpus, threshold=0.15) == truth


@pytest.mark.parametrize("vocab", [40, 2**63])
def test_ground_truth_matches_extraction_on_4096_combinations(vocab):
    """Twelve two-valued attributes make 2**12 combinations; the hyperattributes
    group them across attributes, so some groups keep several cells."""
    schema = AttributeSchema(
        attributes=tuple(Attribute(name=f"b{i}", domain=("0", "1")) for i in range(12)),
        hyperattributes=(
            HyperattributeDef(name="both", body=parse_expression("b0 == 1 and b1 == 1")),
            HyperattributeDef(name="pair", body=ValueMap("b2", (("0", "x"), ("1", "y")))),
        ),
    )
    corpus, truth = gen_compositional(schema, 14, vocab, seed=4)
    assert len(corpus.sample_ids) == 2**12
    assert extract_rules(corpus, threshold=0.15) == truth
    assert naive_extract_rules(corpus, 0.15) == truth  # shares no code with the kernel
    assert any(len(rule.pattern.cells) == 2 for rule in truth.rules)


@pytest.mark.parametrize("generate", [gen_compositional, gen_holistic])
@pytest.mark.parametrize(("length", "vocab"), [(10, 2**63 + 1), (10, 10**30), (2**16 + 1, 20)])
def test_generators_check_corpus_bounds_first(moprd, generate, length, vocab):
    with pytest.raises(DocumentSyntaxError) as raised:
        generate(moprd, length, vocab, seed=1)
    assert raised.value.code == "SyntaxError"


@pytest.mark.parametrize("generate", [gen_compositional, gen_holistic])
def test_generators_refuse_too_many_combinations_before_enumerating(monkeypatch, generate):
    """64 two-valued attributes make 2**64 combinations: the count alone refuses them."""
    def enumerate_nothing(sizes):
        raise AssertionError("combinations enumerated")

    monkeypatch.setattr("emlang.synth.np.indices", enumerate_nothing)
    wide = AttributeSchema(
        attributes=tuple(Attribute(name=f"a{i}", domain=("0", "1")) for i in range(64))
    )
    with pytest.raises(CapacityError, match=f"{2**64} attribute combinations exceed"):
        generate(wide, 64, 20, seed=1)


def test_combination_bound_is_inclusive():
    assert combination_count(concept_schema(MAX_COMBINATIONS)) == MAX_COMBINATIONS
    with pytest.raises(CapacityError) as caught:
        combination_count(concept_schema(MAX_COMBINATIONS + 1))
    reason = f"{MAX_COMBINATIONS + 1} attribute combinations exceed the generator bound of {MAX_COMBINATIONS}"
    assert str(caught.value) == reason


# 18 two-valued attributes: 2**18 combinations, at MAX_COMBINATIONS, which
# at message length 2**16 make 2**34 message cells, a 128 GiB int64 matrix.
BINARY_18 = {"attributes": [{"name": f"a{i}", "values": ["0", "1"]} for i in range(18)]}
TOO_MANY_CELLS = (
    "262144 combinations x message length 65536 exceed "
    f"the generator bound of {MAX_MESSAGE_CELLS} message cells"
)


@pytest.mark.parametrize("kind", ["compositional", "holistic"])
def test_generators_refuse_too_many_message_cells(kind):
    """Combinations and message length each within their bound, their
    product past MAX_MESSAGE_CELLS: a CapacityError before any draw or
    allocation, in a child capped at 3 GiB and 60 s."""
    code = (
        "import json, sys\n"
        "from emlang.errors import CapacityError\n"
        "from emlang.schema import parse_schema\n"
        f"from emlang.synth import gen_{kind}\n"
        f"schema = parse_schema({json.dumps(BINARY_18)!r})\n"
        "try:\n"
        f"    gen_{kind}(schema, 65536, 20, seed=1)\n"
        "except CapacityError as exc:\n"
        "    sys.exit(f'CapacityError: {exc}')\n"
    )
    result = run_bounded("-c", code)
    assert (result.returncode, result.stderr) == (1, f"CapacityError: {TOO_MANY_CELLS}\n")


@pytest.mark.parametrize("kind", ["compositional", "holistic"])
def test_synth_refuses_too_many_message_cells(tmp_path, kind):
    schema, out = tmp_path / "schema.json", tmp_path / "out.jsonl"
    schema.write_text(json.dumps(BINARY_18))
    result = run_bounded(
        "-m", "emlang", "synth", "--kind", kind, "--schema", str(schema),
        "--msg-len", "65536", "--seed", "1", "--out", str(out),
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"CapacityError: {TOO_MANY_CELLS}\n"
    assert not out.exists()


@pytest.mark.parametrize("generate", [gen_compositional, gen_holistic])
def test_message_cell_bound_is_inclusive(monkeypatch, moprd, generate):
    """moprd's 100 combinations at length 10 make 1000 cells, at a bound of 1000."""
    monkeypatch.setattr("emlang.synth.MAX_MESSAGE_CELLS", 1000)
    corpus = generate(moprd, 10, 20, seed=1)
    corpus = corpus[0] if isinstance(corpus, tuple) else corpus
    assert corpus.messages.shape == (100, 10)
    with pytest.raises(CapacityError, match="^100 combinations x message length 11 exceed"):
        generate(moprd, 11, 20, seed=1)


# ---------------------------------------------------------------------------
# Holistic generator
# ---------------------------------------------------------------------------

def test_holistic_unique_messages_with_shared_prefix(moprd):
    corpus = gen_holistic(moprd, 10, 20, seed=77)
    messages = corpus.messages.tolist()
    assert len(messages) == 100
    assert len(set(map(tuple, messages))) == 100
    prefix = messages[0][:2]
    assert all(m[:2] == prefix for m in messages)


def test_holistic_deterministic(moprd):
    assert gen_holistic(moprd, 10, 20, seed=3) == gen_holistic(moprd, 10, 20, seed=3)


def test_holistic_capacity():
    schema = concept_schema(100)
    with pytest.raises(CapacityError, match=r"^2\^3 messages cannot cover 100 combinations$"):
        gen_holistic(schema, 5, 2, seed=0)
    with pytest.raises(CapacityError, match="^need at least one variable position$"):
        gen_holistic(schema, 2, 20, seed=0)
    # a one-token vocabulary makes one message at any length
    with pytest.raises(CapacityError, match=r"^1\^8 messages cannot cover 100 combinations$"):
        gen_holistic(schema, 10, 1, seed=0)
    assert len(gen_holistic(concept_schema(1), 10, 1, seed=0).messages) == 1
    # 2^7 = 128 messages cover exactly 128 combinations, and not 129
    assert len(gen_holistic(concept_schema(128), 9, 2, seed=0).messages) == 128
    with pytest.raises(CapacityError, match=r"^2\^7 messages cannot cover 129 combinations$"):
        gen_holistic(concept_schema(129), 9, 2, seed=0)


def test_concept_schema_rules_are_full_width_combinations():
    corpus = gen_holistic(concept_schema(100), 10, 20, seed=6)
    table = extract_rules(corpus, threshold=0.15)
    assert table.rule_count == 100
    assert set(table.global_constants.positions) == {0, 1}
    for rule in table.rules:
        assert rule.pattern.positions == tuple(range(2, 10))
        assert rule.support == 1


# ---------------------------------------------------------------------------
# Noisy generator and the frequency-filter law
# ---------------------------------------------------------------------------

def with_counts(corpus: AnnotatedCorpus, count: int) -> AnnotatedCorpus:
    return replace(corpus, counts=np.full_like(corpus.counts, count))


def base_corpus(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=2)
    # 36 divides by both 9 and 4, so 10% and 20% minority shares are exact
    return with_counts(corpus, 36)


def test_minority_below_threshold_filters_back_to_base(moprd):
    base = base_corpus(moprd)
    noisy = gen_noisy(base, synonym_count=1, minority_share=0.10, seed=15)
    assert noisy != base
    for messages in rows_by_sample(noisy).values():
        assert sum(count for _, count in messages) == 40  # 36 base + 4 synonym
    assert filter_by_frequency(noisy, 0.15) == base


def test_minority_at_threshold_survives(moprd):
    base = base_corpus(moprd)
    noisy = gen_noisy(base, synonym_count=1, minority_share=0.20, seed=15)
    for messages in rows_by_sample(noisy).values():
        assert sum(count for _, count in messages) == 45  # 36 base + 9 synonym
    assert filter_by_frequency(noisy, 0.15) == noisy


def test_noisy_deterministic_and_distinct(moprd):
    base = base_corpus(moprd)
    first = gen_noisy(base, 2, 0.25, seed=8)
    assert first == gen_noisy(base, 2, 0.25, seed=8)
    for messages in rows_by_sample(first).values():
        assert len(messages) == 3  # original + two distinct synonyms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_noisy_laws_over_random_bases(data):
    """Base rows keep their counts; each sample gains ``k`` new rows, each one
    substitution from its first canonical row, with counts split evenly and
    summing to ``max(k, round(share/(1-share) * total))``; a sample with
    fewer than ``k`` free one-substitution neighbours raises."""
    length = data.draw(st.integers(1, 4), label="length")
    vocab = data.draw(st.integers(2, 5), label="vocab")
    message = st.tuples(*[st.integers(0, vocab - 1)] * length)
    bases = data.draw(
        st.lists(st.dictionaries(message, st.integers(1, 50), min_size=1, max_size=4),
                 min_size=1, max_size=4),
        label="bases",
    )
    k = data.draw(st.integers(1, 4), label="synonym_count")
    share = data.draw(st.floats(0.01, 0.9), label="share")
    seed = data.draw(
        st.integers() | st.integers(max_value=-1) | st.integers(min_value=2**64), label="seed"
    )
    schema = concept_schema(len(bases))
    records = [
        (f"s{i}", {"concept": value}, msg, count)
        for i, (value, rows) in enumerate(zip(schema.domain("concept"), bases))
        for msg, count in rows.items()
    ]
    base = build_corpus(schema, vocab, length, records)
    templates = {f"s{i}": min(rows) for i, rows in enumerate(bases)}
    room = min(
        (vocab - 1) * length - sum(hamming(m, templates[f"s{i}"]) == 1 for m in rows)
        for i, rows in enumerate(bases)
    )
    if room < k:
        with pytest.raises(CapacityError, match="could not find a distinct synonym message"):
            gen_noisy(base, k, share, seed)
        return
    noisy = gen_noisy(base, k, share, seed)
    assert noisy == gen_noisy(base, k, share, seed)
    for i, (sample_id, messages) in enumerate(rows_by_sample(noisy).items()):
        held = dict(messages)
        original = bases[i]
        assert {m: held.get(m) for m in original} == original
        new = {m: c for m, c in held.items() if m not in original}
        assert len(new) == k and len(held) == len(original) + k
        assert all(hamming(m, templates[sample_id]) == 1 for m in new)
        target = max(k, round(share / (1.0 - share) * sum(original.values())))
        assert sum(new.values()) == target
        assert max(new.values()) - min(new.values()) <= 1


def test_noisy_needs_two_tokens():
    base = build_corpus(concept_schema(1), 1, 2, [("s", {"concept": "c0"}, (0, 0), 1)])
    with pytest.raises(CapacityError, match="^cannot perturb messages over a one-token vocabulary$"):
        gen_noisy(base, 1, 0.1, seed=1)


def test_noisy_saturated_sample_raises():
    """Over two tokens and one position both messages are taken: no synonym fits."""
    records = [("s", {"concept": "c0"}, (0,), 1), ("s", {"concept": "c0"}, (1,), 1)]
    base = build_corpus(concept_schema(1), 2, 1, records)
    with pytest.raises(CapacityError, match="could not find a distinct synonym message"):
        gen_noisy(base, 1, 0.1, seed=1)


def test_noisy_total_past_the_count_limit_is_reported_exactly(moprd):
    """Synonym totals past 2**63 stay exact up to the corpus bound's error."""
    corpus, _ = gen_compositional(moprd, 10, 20, seed=2)
    base = with_counts(corpus, 10000)
    message = "message counts sum to 9007199254740991361600, at least 2**53"
    with pytest.raises(DocumentSyntaxError, match=re.escape(message)):
        gen_noisy(base, 1, 0.9999999999999999, seed=1)


@pytest.mark.parametrize(("count", "total"), [(2**52 - 1, 2**53 - 2), (2**52, 2**53)])
def test_noisy_count_total_bound_is_exact(count, total):
    """At share 0.5 the synonym total equals the base total, so the corpus
    total is twice the base count: 2**53 - 2 passes, 2**53 is refused."""
    base = build_corpus(concept_schema(1), 4, 2, [("s", {"concept": "c0"}, (0, 0), count)])
    if total < 2**53:
        counts = gen_noisy(base, 3, 0.5, seed=1).counts.tolist()
        assert sorted(counts) == [count // 3] * 3 + [count] and sum(counts) == total
        return
    with pytest.raises(DocumentSyntaxError, match=re.escape(f"message counts sum to {total}, at least 2**53")):
        gen_noisy(base, 3, 0.5, seed=1)


def test_noisy_rejects_bad_share(moprd):
    base = base_corpus(moprd)
    for count, share, reason in [
        (1, 0.0, "minority share must lie in (0, 1), got 0.0"),
        (1, 1, "minority share must lie in (0, 1), got 1"),
        (0, 0.5, "need at least one synonym"),
    ]:
        with pytest.raises(CapacityError) as caught:
            gen_noisy(base, count, share, seed=1)
        assert str(caught.value) == reason


@pytest.mark.parametrize(("arguments", "message"), [
    ((2.5, 0.1, 1), "synonym count must be an integer, got 2.5"),
    ((True, 0.1, 1), "synonym count must be an integer, got True"),
    ((1, "0.1", 1), "minority share must be a number, got '0.1'"),
    ((1, True, 1), "minority share must be a number, got True"),
    ((1, None, 1), "minority share must be a number, got None"),
    ((1, 0.1, 1.5), "seed must be an integer, got 1.5"),
    ((1, 0.1, True), "seed must be an integer, got True"),
    ((1, 0.1, "1"), "seed must be an integer, got '1'"),
    # the type comes first, then the range
    ((0.0, 0.0, 1), "synonym count must be an integer, got 0.0"),
])
def test_noisy_arguments_are_checked_by_type(moprd, arguments, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        gen_noisy(base_corpus(moprd), *arguments)


def test_noisy_takes_numpy_numbers_as_their_values(moprd):
    base = base_corpus(moprd)
    expected = gen_noisy(base, 2, 0.25, seed=-8)
    assert gen_noisy(base, np.int64(2), np.float32(0.25), seed=np.int64(-8)) == expected
    assert gen_noisy(base, np.uint8(2), 0.25, seed=np.int8(-8)) == expected
    assert gen_noisy(base, 2, 0.25, seed=2**64 - 8) == gen_noisy(base, 2, 0.25, seed=np.uint64(2**64 - 8))


@pytest.mark.parametrize("generate", [gen_compositional, gen_holistic])
@pytest.mark.parametrize(("arguments", "message"), [
    ((10.0, 20, 1), "message length must be an integer, got 10.0"),
    ((True, 20, 1), "message length must be an integer, got True"),
    ((10, 20.0, 1), "vocabulary size must be an integer, got 20.0"),
    ((10, "20", 1), "vocabulary size must be an integer, got '20'"),
    ((10, 20, 1.5), "seed must be an integer, got 1.5"),
    ((10, 20, True), "seed must be an integer, got True"),
    ((10, 20, "1"), "seed must be an integer, got '1'"),
    # the type comes first, then the bounds
    ((0.0, 20, 1), "message length must be an integer, got 0.0"),
])
def test_generator_arguments_are_checked_by_type(moprd, generate, arguments, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        generate(moprd, *arguments)


@pytest.mark.parametrize("generate", [gen_compositional, gen_holistic])
def test_generators_take_numpy_integers_as_their_values(moprd, generate):
    expected = generate(moprd, 10, 20, 3)
    given = generate(moprd, np.int64(10), np.uint16(20), np.int32(3))
    if generate is gen_compositional:
        (expected, truth), (given, given_truth) = expected, given
        assert given_truth == truth
    assert given == expected
    assert type(given.message_length) is int and type(given.vocab_size) is int


def test_noisy_refuses_too_many_synonym_cells_before_building_any(moprd):
    """Just past the bound on a large-vocabulary base, where every sample has
    room for the synonyms: refused by the count, with nothing allocated."""
    base, _ = gen_compositional(moprd, 10, 2**62, seed=1)
    synonyms = MAX_SYNONYM_CELLS // (100 * 15) + 1
    message = (f"100 samples x {synonyms} synonyms of length 10 need {100 * synonyms * 15} "
               f"working cells, past the bound of {MAX_SYNONYM_CELLS}")
    with pytest.raises(CapacityError, match=re.escape(message)):
        gen_noisy(base, synonyms, 0.1, seed=1)


def test_synonym_cell_bound_counts_the_message_length():
    """At message length 2**16 a few hundred synonym rows reach the bound."""
    base, _ = gen_compositional(concept_schema(2), 2**16, 2**62, seed=1)
    synonyms = MAX_SYNONYM_CELLS // (2 * (2**16 + 5)) + 1
    assert synonyms == 256
    message = (f"2 samples x 256 synonyms of length 65536 need {2 * 256 * (2**16 + 5)} "
               f"working cells, past the bound of {MAX_SYNONYM_CELLS}")
    with pytest.raises(CapacityError, match=re.escape(message)):
        gen_noisy(base, synonyms, 0.1, seed=1)


def test_synonym_cell_bound_is_inclusive(monkeypatch, moprd):
    monkeypatch.setattr("emlang.synth.MAX_SYNONYM_CELLS", 100 * 3 * 15)
    base, _ = gen_compositional(moprd, 10, 20, seed=1)
    assert len(gen_noisy(base, 3, 0.1, seed=1).counts) == 100 + 300
    with pytest.raises(CapacityError, match="100 samples x 4 synonyms of length 10 need 6000 working"):
        gen_noisy(base, 4, 0.1, seed=1)


def test_codebook_from_per_value_encoders_is_the_same_codebook(moprd):
    fixed = Pattern.from_dict({1: 7, 4: 8, 5: 9})
    positions, tokens = (3, 0, 2), ((10, 11, 12, 13, 14), (15, 16, 17, 18, 19), (20, 21, 22, 23))
    encoders = {
        name: {value: ((pos,), (tok,)) for value, tok in zip(moprd.domain(name), toks)}
        for name, pos, toks in zip(moprd.attribute_names, positions, tokens)
    }
    assert Codebook(moprd, 6, fixed, encoders=encoders) == Codebook(moprd, 6, fixed, positions, tokens)
    # a cell neither fixed nor an attribute's holds 0
    messages = Codebook(moprd, 7, fixed, positions, tokens).encode(combination_codes(moprd))
    assert messages[:, 6].tolist() == [0] * 100
    assert messages[:, 1:2].tolist() == [[7]] * 100


# gen_noisy's tracemalloc peak stays below this many times the bytes of its
# result's arrays: it holds the rows it builds, unsorted, and the
# constructor's sorted gather of them, with little beside (2.30 on the base
# below).
NOISY_PEAK_BOUND = 2.5


@pytest.fixture(scope="module")
def grid_base():
    """3125 samples of five five-valued attributes sending one message each,
    18 times; gen_noisy has run once, so no first call's one-off costs are
    traced."""
    schema = AttributeSchema(attributes=tuple(
        Attribute(name=f"a{i}", domain=tuple(f"v{j}" for j in range(5))) for i in range(5)
    ))
    corpus, _ = gen_compositional(schema, 12, 40, seed=1)
    base = with_counts(corpus, 18)
    gen_noisy(base, 1, 0.1, seed=1)
    return base


def traced_peak(run) -> int:
    """The most memory tracemalloc saw ``run()`` hold at once above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_noisy_peak_memory_is_a_small_multiple_of_its_result(grid_base):
    noisy = gen_noisy(grid_base, 8, 0.1, seed=5)
    result = noisy.messages.nbytes + noisy.owners.nbytes + noisy.counts.nbytes
    assert result == 28125 * (12 + 2) * 8
    peak = traced_peak(lambda: gen_noisy(grid_base, 8, 0.1, seed=5))
    assert peak < NOISY_PEAK_BOUND * result


def test_streaming_the_serialized_blocks_never_holds_the_document(grid_base):
    noisy = gen_noisy(grid_base, 8, 0.1, seed=5)
    size = len(serialize_corpus(noisy))  # 4.4 MB of ASCII text
    peak = traced_peak(lambda: sum(map(len, serialize_blocks(noisy))))
    assert peak < size / 2
