from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from emlang.corpus import (
    MAX_MESSAGE_LENGTH,
    AnnotatedCorpus,
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
    EmlangError,
    EmptySample,
    LengthMismatch,
    TokenOutOfRange,
    UnknownSample,
)
from emlang.schema import Sample, parse_schema
from emlang.synth import all_combinations, concept_schema

from conftest import mutate
from oracles import naive_load_corpus, naive_serialize_corpus, rows_by_sample

TINY = parse_schema('{"attributes": [{"name": "a", "values": ["x", "y"]}]}')

HEADER = '{"meta": {"vocab_size": 4, "msg_len": 2}}'


def record(sample, value, msg, count=None):
    suffix = f', "count": {count}' if count is not None else ""
    return f'{{"sample": "{sample}", "attrs": {{"a": "{value}"}}, "msg": {list(msg)}{suffix}}}'


def tiny_corpus(lines):
    return load_corpus("\n".join([HEADER] + lines) + "\n", TINY)


def test_merge_by_sum():
    corpus = tiny_corpus([record("s", "x", [1, 2], 3), record("s", "x", [1, 2], 4)])
    assert rows_by_sample(corpus) == {"s": (((1, 2), 7),)}


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
    assert len(corpus.samples) == 100
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
    with pytest.raises(DocumentSyntaxError, match="line 2: invalid JSON"):
        tiny_corpus([record("s", "x", [1, 2]).replace("[1,", f"[{'9' * 5000},")])
    with pytest.raises(DocumentSyntaxError, match="line 3: invalid JSON"):
        tiny_corpus([record("s", "x", [1, 2]), "[" * 100_000 + "]" * 100_000])
    with pytest.raises(DocumentSyntaxError):
        load_corpus("", TINY)


def test_vocab_size_bound_keeps_every_token_in_int64():
    edge = build_corpus(TINY, 2**63, 2, [("s", {"a": "x"}, (2**63 - 1, 0), 1)])
    assert edge.messages.tolist() == [[2**63 - 1, 0]]
    with pytest.raises(DocumentSyntaxError):
        build_corpus(TINY, 2**63 + 1, 2, [("s", {"a": "x"}, (2**63, 0), 1)])


def test_array_construction_checks():
    x, y = Sample("s", {"a": "x"}), Sample("t", {"a": "y"})
    good = dict(samples=(x, y), messages=[[1, 2], [0, 3]], owners=[0, 1], counts=[2, 1])
    corpus = AnnotatedCorpus(TINY, 4, 2, **good)
    records = [("t", {"a": "y"}, (0, 3), 1), ("s", {"a": "x"}, (1, 2), 2)]
    assert corpus == build_corpus(TINY, 4, 2, records)
    assert rows_by_sample(corpus)["t"] == (((0, 3), 1),)
    with pytest.raises(ValueError):
        corpus.counts[0] = 5  # stored arrays are read-only
    swapped = AnnotatedCorpus(TINY, 4, 2, **{**good, "samples": (y, x)})  # owners follow samples
    records = [("t", {"a": "y"}, (1, 2), 2), ("s", {"a": "x"}, (0, 3), 1)]
    assert swapped == build_corpus(TINY, 4, 2, records)
    for token in (4, 2**64):  # sample t owns no messages, whatever the other rows hold
        with pytest.raises(DocumentSyntaxError, match="sample 't' owns no messages"):
            AnnotatedCorpus(TINY, 4, 2, **{**good, "owners": [0, 0], "messages": [[1, 2], [0, token]]})
    for change, error in [
        ({"samples": (x, x)}, DocumentSyntaxError),  # duplicate id
        ({"owners": [0, 2]}, DocumentSyntaxError),  # owner outside the samples
        ({"owners": [0, 0]}, DocumentSyntaxError),  # sample t owns no messages
        ({"counts": [1]}, DocumentSyntaxError),  # one count for two rows
        ({"messages": [[1, 2, 0], [0, 3, 0]]}, LengthMismatch),
        ({"messages": [[1, 2], [0, 4]]}, TokenOutOfRange),
        ({"counts": [2, 0]}, DocumentSyntaxError),
        ({"counts": [2**52, 2**52]}, DocumentSyntaxError),  # total 2**53
    ]:
        with pytest.raises(error):
            AnnotatedCorpus(TINY, 4, 2, **{**good, **change})


def test_construction_checks_samples_against_the_schema():
    """Constructed and replaced corpora check their samples as loaded ones do,
    before the header and rows, and store the samples' codes in id order."""
    x, y = Sample("s", {"a": "x"}), Sample("t", {"a": "y"})
    corpus = AnnotatedCorpus(TINY, 4, 2, (y, x), [[1, 2], [0, 3]], [0, 1], [1, 1])
    assert corpus.codes.tolist() == [[0], [1]]
    with pytest.raises(ValueError):
        corpus.codes[0, 0] = 1  # stored read-only, like the rows
    for values, reason in [
        ({"a": "zzz"}, "value 'zzz' not in domain of 'a'"),
        ({"a": ["x"]}, "value ['x'] not in domain of 'a'"),
        ({}, "must assign exactly the attributes ['a']"),
        ({"a": "x", "b": "x"}, "must assign exactly the attributes ['a']"),
    ]:
        bad = Sample("u", values)
        expected = re.escape("sample 'u'") + ".*" + re.escape(reason)
        with pytest.raises(AttributeMismatch, match=expected):
            AnnotatedCorpus(TINY, 0, 2, (x, bad), [[1, 2], [0, 3]], [0, 1], [1, 1])
        with pytest.raises(AttributeMismatch, match=expected):
            replace(corpus, samples=(x, bad))
    # the first non-conforming sample in the given order, not in id order
    with pytest.raises(AttributeMismatch, match="sample 'v'"):
        replace(corpus, samples=(Sample("v", {"a": "q"}), Sample("u", {})))


def test_a_non_conforming_sample_comes_before_a_conflict():
    """As in a record-by-record build: a sample whose first record fails the
    schema wins over a later conflicting annotation, and not the reverse."""
    records = [
        ("t", {"a": "z"}, (0, 0), 1),
        ("s", {"a": "x"}, (0, 0), 1),
        ("s", {"a": "y"}, (0, 0), 1),
    ]
    with pytest.raises(AttributeMismatch, match="sample 't': value 'z' not in domain"):
        build_corpus(TINY, 4, 2, records)
    with pytest.raises(AttributeMismatch, match="sample 's' annotated with conflicting"):
        build_corpus(TINY, 4, 2, records[1:] + records[:1])


def test_build_corpus_copies_the_attribute_dicts():
    values = {"a": "x"}
    corpus = build_corpus(TINY, 4, 2, [("s", values, (0, 0), 1)])
    values["a"] = "y"
    values["b"] = "x"
    assert corpus.samples[0].values == {"a": "x"}
    assert corpus == build_corpus(TINY, 4, 2, [("s", {"a": "x"}, (0, 0), 1)])


def test_construction_makes_every_corpus_canonical():
    """Rows out of order, a (sample, message) split over two rows, and samples
    out of id order give the corpus that build_corpus gives."""
    records = [
        ("t", {"a": "y"}, (2, 2), 1),
        ("s", {"a": "x"}, (1, 2), 2),
        ("u", {"a": "x"}, (3, 0), 4),
        ("s", {"a": "x"}, (0, 3), 5),
    ]
    expected = build_corpus(TINY, 4, 2, records)
    s, t, u = expected.samples
    reversed_rows = replace(
        expected,
        messages=expected.messages[::-1],
        owners=expected.owners[::-1],
        counts=expected.counts[::-1],
    )
    split = AnnotatedCorpus(
        TINY, 4, 2, (s, t, u),
        messages=[[0, 3], [1, 2], [2, 2], [0, 3], [3, 0]],
        owners=[0, 0, 1, 0, 2],
        counts=[2, 2, 1, 3, 4],
    )
    out_of_id_order = AnnotatedCorpus(
        TINY, 4, 2, (u, t, s),
        messages=[[1, 2], [3, 0], [2, 2], [0, 3]],
        owners=[2, 0, 1, 2],
        counts=[2, 4, 1, 5],
    )
    for corpus in (reversed_rows, split, out_of_id_order):
        assert corpus == expected
    with pytest.raises(DocumentSyntaxError, match="duplicate sample id"):
        replace(expected, samples=(s, u, s))
    # split counts merge as Python integers, so their sum cannot wrap around int64
    one_row = share_corpus({(0, 0): 1})
    for counts in ([2**62, 2**62], [2**42] * 2**11, [2**53], [2**63 - 1, 2**63 - 2]):
        with pytest.raises(DocumentSyntaxError, match=f"sum to {sum(counts)}, at least 2"):
            replace(
                one_row,
                messages=[[0, 0]] * len(counts),
                owners=[0] * len(counts),
                counts=np.array(counts),
            )
    edge = share_corpus({(0, 0): 2**52, (0, 1): 2**52 - 1})
    assert replace(one_row, counts=[2**53 - 1]).totals.tolist() == [2**53 - 1]
    assert edge.totals.tolist() == [2**53 - 1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_construction_sorts_nearly_sorted_rows(data):
    """Canonical rows with one swap under an owner, one swap across owners, or
    one row split into equal adjacent rows give the build_corpus corpus."""
    rows = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 3), st.integers(0, 3))),
            st.integers(2, 9),
            min_size=2,
            max_size=12,
        )
    )
    records = [(f"s{o}", {"a": "xy"[o % 2]}, msg, count) for (o, msg), count in rows.items()]
    expected = build_corpus(TINY, 4, 2, records)
    messages, owners, counts = (
        a.copy() for a in (expected.messages, expected.owners, expected.counts)
    )
    edit = data.draw(st.sampled_from(["within", "across", "split"]))
    if edit == "split":
        i = data.draw(st.integers(0, len(owners) - 1))
        part = data.draw(st.integers(1, counts[i] - 1))
        messages = np.insert(messages, i, messages[i], axis=0)
        owners = np.insert(owners, i, owners[i])
        counts = np.insert(counts, i, part)
        counts[i + 1] -= part
    else:
        pairs = [
            (i, j)
            for i in range(len(owners))
            for j in range(i + 1, len(owners))
            if (owners[i] == owners[j]) == (edit == "within")
        ]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        for array in (messages, owners, counts):
            array[[i, j]] = array[[j, i]]
    corpus = AnnotatedCorpus(TINY, 4, 2, expected.samples, messages, owners, counts)
    assert corpus == expected


def test_message_length_bound():
    edge = build_corpus(TINY, 2, MAX_MESSAGE_LENGTH, [("s", {"a": "x"}, (1,) * 2**16, 1)])
    assert edge.messages.shape == (1, 2**16)
    for length in (0, 2**16 + 1):
        with pytest.raises(DocumentSyntaxError):
            build_corpus(TINY, 2, length, [("s", {"a": "x"}, (1,) * length, 1)])


def test_load_validates_a_large_domain():
    """20,000 concepts, one sample each, records in reverse id order."""
    schema = concept_schema(20_000)
    values = schema.domain("concept")
    lines = [json.dumps({"meta": {"vocab_size": 2, "msg_len": 1}})] + [
        json.dumps({"sample": f"s{i:05d}", "attrs": {"concept": value}, "msg": [i % 2]})
        for i, value in reversed(list(enumerate(values)))
    ]
    corpus = load_corpus("\n".join(lines), schema)
    assert corpus.sample_ids[:2] == ("s00000", "s00001")
    assert corpus.codes[:, 0].tolist() == list(range(20_000))
    assert corpus.messages[:, 0].tolist() == [i % 2 for i in range(20_000)]


def share_corpus(counts: dict[tuple[int, ...], int]):
    records = [("s", {"a": "x"}, msg, count) for msg, count in counts.items()]
    return build_corpus(TINY, 4, 2, records)


def test_filter_keeps_messages_at_or_above_threshold():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    kept = rows_by_sample(filter_by_frequency(corpus, 0.15))["s"]
    assert kept == (((0, 0), 60), ((0, 1), 25))


def test_filter_zero_threshold_is_identity():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    assert filter_by_frequency(corpus, 0.0) == corpus


def test_filter_keeps_equal_shares():
    corpus = share_corpus({(0, 0): 50, (0, 1): 50})
    assert len(rows_by_sample(filter_by_frequency(corpus, 0.15))["s"]) == 2


def test_filter_keeps_every_share_exactly_at_threshold():
    """Share k/n survives threshold k/n for every n <= 100, even where
    ``k/n * n`` rounds above k (for example 7/100 at 0.07)."""
    for n in range(1, 101):
        for k in range(1, n + 1):
            counts = {(0, 0): k} if k == n else {(0, 0): k, (1, 1): n - k}
            kept = rows_by_sample(filter_by_frequency(share_corpus(counts), k / n))["s"]
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
    original_totals = {
        sample_id: sum(count for _, count in messages)
        for sample_id, messages in rows_by_sample(corpus).items()
    }
    loose_rows = rows_by_sample(loose)
    for sample_id, messages in rows_by_sample(filtered).items():
        kept = set(m for m, _ in messages)
        kept_loose = set(m for m, _ in loose_rows[sample_id])
        assert kept <= kept_loose
        # shares are judged against the totals at filter time
        for _, count in messages:
            assert count >= high * original_totals[sample_id]


def test_every_retained_share_meets_threshold():
    corpus = share_corpus({(0, 0): 60, (0, 1): 25, (1, 0): 10, (1, 1): 5})
    filtered = filter_by_frequency(corpus, 0.15)
    (original_total,) = corpus.totals.tolist()
    for messages in rows_by_sample(filtered).values():
        for _, count in messages:
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


# Attribute order b, a differs from key order, so records must follow the schema.
TWO = parse_schema(
    '{"attributes": [{"name": "b", "values": ["x", "y"]}, {"name": "a", "values": ["u", "v"]}]}'
)
IDS = ["s0", "s1", "\u00e9", 'q"t']
ANNOTATIONS = [{"b": "x", "a": "u"}, {"a": "v", "b": "y"}, {"b": "y", "a": "u"}]


def outcome(load, text):
    """The corpus, or the error class and the line number its message names."""
    try:
        return load(text, TWO)
    except EmlangError as exc:
        line = re.match(r"line (\d+):", str(exc))
        return type(exc), line and int(line.group(1))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loader_matches_record_by_record_oracle(data):
    """Valid and damaged documents: the same corpus, or the same error class at
    the same line, as a reader that parses and checks one record at a time."""
    draw = data.draw
    length, vocab = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rare = (
        st.booleans() | st.integers() | st.integers(min_value=2**63 - 1)
        | st.integers(-2, 0) | st.just(vocab)
    )

    def value(common):
        return draw(rare) if draw(st.integers(0, 14)) == 0 else draw(common)

    annotation = {sample_id: draw(st.sampled_from(ANNOTATIONS)) for sample_id in IDS}
    records = []
    for _ in range(draw(st.integers(0, 8))):
        if records and draw(st.integers(0, 4)) == 0:
            records.append(dict(draw(st.sampled_from(records))))  # a repeated record
            continue
        sample_id = draw(st.sampled_from(IDS))
        size = length if draw(st.integers(0, 14)) else draw(st.integers(0, 4))
        record = {
            "sample": sample_id,
            "attrs": dict(annotation[sample_id]),
            "msg": [value(st.integers(0, vocab - 1)) for _ in range(size)],
        }
        if draw(st.integers(0, 14)) == 0:
            record["attrs"] = dict(draw(st.sampled_from(ANNOTATIONS)))  # may conflict
        if draw(st.booleans()):
            record["count"] = value(st.integers(1, 5))
        records.append(record)
    documents = [{"meta": {"vocab_size": vocab, "msg_len": length}}, *records]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        mutate(documents, data)
    lines = [json.dumps(doc, ensure_ascii=draw(st.booleans())) for doc in documents]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["crlf", "spaces", "blank", "split", "join"]))
        if edit == "crlf":
            lines[i] += "\r"
        elif edit == "spaces":
            lines[i] = " \t" + lines[i] + "  "
        elif edit == "blank":
            lines.insert(i, "  ")
        elif edit == "split":  # one record over two lines
            cut = draw(st.integers(1, max(1, len(lines[i]) - 1)))
            lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif i + 1 < len(lines):  # two records on one line
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))

    expected = outcome(naive_load_corpus, text)
    event(expected[0].__name__ if isinstance(expected, tuple) else "corpus")
    assert outcome(load_corpus, text) == expected
    if not isinstance(expected, tuple):
        assert serialize_corpus(expected) == naive_serialize_corpus(expected)
        assert load_corpus(serialize_corpus(expected), TWO) == expected
