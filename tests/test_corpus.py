from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.corpus import (
    build_corpus,
    filter_by_frequency,
    load_corpus,
    representative_message,
    serialize_corpus,
)
from emlang.errors import (
    AttributeMismatch,
    ConfigError,
    DocumentSyntaxError,
    EmptySample,
    LengthMismatch,
    TokenOutOfRange,
    UnknownSample,
)
from emlang.schema import parse_schema
from emlang.synth import all_combinations

TINY = parse_schema('{"attributes": [{"name": "a", "values": ["x", "y"]}]}')

HEADER = '{"meta": {"vocab_size": 4, "msg_len": 2}}'


def record(sample, value, msg, count=None):
    suffix = f', "count": {count}' if count is not None else ""
    return f'{{"sample": "{sample}", "attrs": {{"a": "{value}"}}, "msg": {list(msg)}{suffix}}}'


def tiny_corpus(lines):
    return load_corpus("\n".join([HEADER] + lines) + "\n", TINY)


def test_merge_by_sum():
    corpus = tiny_corpus([record("s", "x", [1, 2], 3), record("s", "x", [1, 2], 4)])
    assert corpus.entries[0].messages == (((1, 2), 7),)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        tiny_corpus([record("s", "x", [1, 2, 3])])


def test_moprd_shaped_file(moprd):
    lines = ['{"meta": {"vocab_size": 20, "msg_len": 10}}']
    import json

    for index, combo in enumerate(all_combinations(moprd)):
        lines.append(
            json.dumps(
                {"sample": f"{index:02d}", "attrs": combo, "msg": [index % 20] * 10},
                ensure_ascii=False,
            )
        )
    corpus = load_corpus("\n".join(lines), moprd)
    assert len(corpus.entries) == 100
    assert corpus.message_length == 10


def test_load_rejections():
    with pytest.raises(TokenOutOfRange):
        tiny_corpus([record("s", "x", [4, 0])])
    with pytest.raises(AttributeMismatch):
        tiny_corpus([record("s", "z", [1, 2])])
    with pytest.raises(AttributeMismatch):
        tiny_corpus([record("s", "x", [1, 2]), record("s", "y", [1, 2])])
    with pytest.raises(DocumentSyntaxError):
        tiny_corpus([record("s", "x", [1, 2], 0)])
    with pytest.raises(DocumentSyntaxError):
        load_corpus(record("s", "x", [1, 2]) + "\n", TINY)  # header missing
    with pytest.raises(DocumentSyntaxError):
        load_corpus(HEADER + "\n{broken\n", TINY)
    with pytest.raises(DocumentSyntaxError):
        load_corpus("", TINY)


def test_vocab_size_bound_keeps_every_token_in_int64():
    edge = build_corpus(TINY, 2**63, 2, [("s", {"a": "x"}, (2**63 - 1, 0), 1)])
    assert edge.messages.tolist() == [[2**63 - 1, 0]]
    with pytest.raises(DocumentSyntaxError):
        build_corpus(TINY, 2**63 + 1, 2, [("s", {"a": "x"}, (2**63, 0), 1)])


def share_corpus(counts: dict[tuple[int, ...], int]):
    records = [("s", {"a": "x"}, msg, count) for msg, count in counts.items()]
    return build_corpus(TINY, 4, 2, records)


def test_filter_keeps_messages_at_or_above_threshold():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    kept = filter_by_frequency(corpus, 0.15).entries[0].messages
    assert kept == (((0, 0), 60), ((0, 1), 25))


def test_filter_zero_threshold_is_identity():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    assert filter_by_frequency(corpus, 0.0) == corpus


def test_filter_keeps_equal_shares():
    corpus = share_corpus({(0, 0): 50, (0, 1): 50})
    assert len(filter_by_frequency(corpus, 0.15).entries[0].messages) == 2


def test_filter_keeps_every_share_exactly_at_threshold():
    """Share k/n survives threshold k/n for every n <= 100, even where
    ``k/n * n`` rounds above k (for example 7/100 at 0.07)."""
    for n in range(1, 101):
        for k in range(1, n + 1):
            counts = {(0, 0): k} if k == n else {(0, 0): k, (1, 1): n - k}
            kept = filter_by_frequency(share_corpus(counts), k / n).entries[0].messages
            assert ((0, 0), k) in kept, (k, n)


def test_filter_empty_sample_reported():
    corpus = share_corpus({(0, 0): 50, (0, 1): 50})
    with pytest.raises(EmptySample):
        filter_by_frequency(corpus, 0.6)
    with pytest.raises(ConfigError):
        filter_by_frequency(corpus, 1.5)


def random_share_corpus(rng: random.Random):
    records = []
    for sid in range(rng.randint(1, 4)):
        value = rng.choice(["x", "y"])
        for _ in range(rng.randint(1, 5)):
            msg = (rng.randrange(4), rng.randrange(4))
            records.append((f"s{sid}", {"a": value}, msg, rng.randint(1, 40)))
    return build_corpus(TINY, 4, 2, records)


@pytest.mark.parametrize("seed", range(25))
def test_filter_idempotent_monotone_and_share_bound(seed):
    rng = random.Random(seed)
    corpus = random_share_corpus(rng)
    low, high = sorted([rng.random() * 0.4, rng.random() * 0.4])
    try:
        filtered = filter_by_frequency(corpus, high)
    except EmptySample:
        return
    assert filter_by_frequency(filtered, high) == filtered
    loose = filter_by_frequency(corpus, low)
    for entry, entry_loose in zip(filtered.entries, loose.entries):
        kept = set(m for m, _ in entry.messages)
        kept_loose = set(m for m, _ in entry_loose.messages)
        assert kept <= kept_loose
        # shares are judged against the totals at filter time
        original = corpus.entry(entry.sample.id).total_count()
        for _, count in entry.messages:
            assert count >= high * original


def test_every_retained_share_meets_threshold():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    filtered = filter_by_frequency(corpus, 0.15)
    for entry in filtered.entries:
        original_total = corpus.entry(entry.sample.id).total_count()
        for _, count in entry.messages:
            assert count >= 0.15 * original_total


def test_representative_message():
    corpus = share_corpus({(1, 2): 5, (1, 3): 2})
    assert representative_message(corpus, "s") == (1, 2)
    tie = share_corpus({(2, 1): 3, (1, 3): 3})
    assert representative_message(tie, "s") == (1, 3)
    single = share_corpus({(0, 3): 1})
    assert representative_message(single, "s") == (0, 3)
    with pytest.raises(UnknownSample):
        representative_message(single, "nope")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_serialize_load_round_trip(data):
    entries = data.draw(
        st.dictionaries(
            st.sampled_from(["s0", "s1", "s2"]),
            st.tuples(
                st.sampled_from(["x", "y"]),
                st.dictionaries(
                    st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.integers(1, 9),
                    min_size=1,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    records = [
        (sid, {"a": value}, msg, count)
        for sid, (value, counts) in entries.items()
        for msg, count in counts.items()
    ]
    corpus = build_corpus(TINY, 4, 2, records)
    assert load_corpus(serialize_corpus(corpus), TINY) == corpus


def test_moprd_round_trip(reference_corpus, moprd):
    text = serialize_corpus(reference_corpus)
    assert load_corpus(text, moprd) == reference_corpus
