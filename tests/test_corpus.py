from __future__ import annotations

import copy
import json
import random
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import emlang.corpus
from emlang.corpus import (
    MAX_MESSAGE_LENGTH,
    _SERIALIZE_BLOCK,
    AnnotatedCorpus,
    _blocks,
    build_corpus,
    filter_by_frequency,
    load_corpus,
    serialize_blocks,
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
)
from emlang.kernels import first_of_max
from emlang.schema import (
    Attribute,
    AttributeSchema,
    code_attributes,
    extend_codes,
    parse_schema,
)
from emlang.synth import concept_schema, gen_holistic, gen_noisy

from conftest import mutate
from oracles import (
    attribute_product,
    attribute_values,
    naive_build_corpus,
    naive_load_corpus,
    naive_serialize_corpus,
    rows_by_sample,
)

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

    for index, combo in enumerate(attribute_product(moprd)):
        lines.append(
            json.dumps(
                {"sample": f"{index:02d}", "attrs": combo, "msg": [index % 20] * 10},
                ensure_ascii=False,
            )
        )
    corpus = load_corpus("\n".join(lines), moprd)
    assert len(corpus.sample_ids) == 100
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
    for text, reason in [
        (record("s", "x", [1, 2]) + "\n",  # header missing
         'first line must be a header {"meta": {"vocab_size": n, "msg_len": T}}'),
        ("[1]\n" + record("s", "x", [1, 2]) + "\n", "line 1: expected a JSON object"),
    ]:
        with pytest.raises(DocumentSyntaxError) as caught:
            load_corpus(text, TINY)
        assert str(caught.value) == reason
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


NOTED = '{"sample": "s", "attrs": {"a": "x"}, "msg": [1, 2], "note": "\\ud800"}'
SURROGATE_ATTRIBUTE = '{"sample": "s", "attrs": {"a": "\\ud800"}, "msg": [1, 2]}'
SURROGATE_CASES = {
    "ignored-field-then-broken-line": ([HEADER, NOTED, "{broken"], (DocumentSyntaxError, 3)),
    "attribute-then-broken-line": ([HEADER, SURROGATE_ATTRIBUTE, "{broken"], (DocumentSyntaxError, 3)),
    "ignored-field": ([HEADER, NOTED, record("t", "y", [0, 1])], None),
    "ignored-header-field": (
        [HEADER[:-1] + ', "note": "\\ud800"}', record("s", "x", [1, 2]), record("t", "y", [0, 1])],
        None,
    ),
    "attribute": ([HEADER, SURROGATE_ATTRIBUTE, record("t", "y", [0, 1])], (AttributeMismatch, None)),
    "record-as-header": ([NOTED], (DocumentSyntaxError, None)),  # no header
}


@pytest.mark.parametrize(("lines", "error"), SURROGATE_CASES.values(), ids=SURROGATE_CASES.keys())
def test_lone_surrogate_follows_one_rule_on_both_paths(lines, error):
    """A lone surrogate outside the sample id is no syntax error: a field the
    reader ignores loads, and an attribute is outside the schema, wherever a
    malformed line is."""
    text = "\n".join(lines) + "\n"
    loaded = outcome(load_corpus, text, TINY)
    assert loaded == outcome(naive_load_corpus, text, TINY)
    if error is None:
        assert rows_by_sample(loaded) == {"s": (((1, 2), 1),), "t": (((0, 1), 1),)}
    else:
        assert loaded == error


def test_array_construction_checks():
    good = dict(
        sample_ids=("s", "t"), attribute_codes=[[0], [1]],
        messages=[[1, 2], [0, 3]], owners=[0, 1], counts=[2, 1],
    )
    corpus = AnnotatedCorpus(TINY, 4, 2, **good)
    records = [("t", {"a": "y"}, (0, 3), 1), ("s", {"a": "x"}, (1, 2), 2)]
    assert corpus == build_corpus(TINY, 4, 2, records)
    assert rows_by_sample(corpus)["t"] == (((0, 3), 1),)
    with pytest.raises(ValueError):
        corpus.counts[0] = 5  # stored arrays are read-only
    # owners follow the ids, and codes follow them too
    swapped = AnnotatedCorpus(
        TINY, 4, 2, **{**good, "sample_ids": ("t", "s"), "attribute_codes": [[1], [0]]}
    )
    records = [("t", {"a": "y"}, (1, 2), 2), ("s", {"a": "x"}, (0, 3), 1)]
    assert swapped == build_corpus(TINY, 4, 2, records)
    for token in (4, 2**64):  # sample t owns no messages, whatever the other rows hold
        with pytest.raises(DocumentSyntaxError, match="sample 't' owns no messages"):
            AnnotatedCorpus(TINY, 4, 2, **{**good, "owners": [0, 0], "messages": [[1, 2], [0, token]]})
    for change, error in [
        ({"sample_ids": ("s", "s")}, DocumentSyntaxError),  # duplicate id
        ({"sample_ids": ("s", 1)}, DocumentSyntaxError),  # an id that is not a string
        ({"sample_ids": ("s", "\ud800")}, DocumentSyntaxError),  # lone surrogate
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
    with pytest.raises(LengthMismatch) as caught:
        AnnotatedCorpus(TINY, 4, 2, **{**good, "messages": [1, 2]})  # one flat message
    assert str(caught.value) == "messages of shape (2,), expected rows of length 2"


@pytest.mark.parametrize(("change", "message"), [
    ({"owners": [0, 2**64]}, "a message owner lies outside the samples"),
    ({"owners": [0, -(2**64)]}, "a message owner lies outside the samples"),
    ({"counts": [[1, 2], [3]]}, "messages, owners and counts need one entry per row"),
    ({"owners": 0}, "messages, owners and counts need one entry per row"),
    ({"owners": None}, "message owner None is not an integer"),
    ({"messages": 5}, "messages, owners and counts need one entry per row"),
    ({"messages": None}, "messages, owners and counts need one entry per row"),
    ({"messages": (m for m in [[1, 2], [0, 3]])}, "messages, owners and counts need one entry per row"),
    ({"owners": (o for o in [0, 1])}, "messages, owners and counts need one entry per row"),
    ({"owners": {0: 0, 1: 1}}, "messages, owners and counts need one entry per row"),
    ({"messages": {0: [1, 2], 1: [0, 3]}}, "messages, owners and counts need one entry per row"),
    ({"messages": [[1, 2], 5]}, "message row 1 is not a list of tokens"),
    ({"messages": [[1, 2], None]}, "message row 1 is not a list of tokens"),
    ({"messages": [{1, 2}, {0, 3}]}, "message row 0 is not a list of tokens"),
    ({"messages": [[1, 2], {2, 1}]}, "message row 1 is not a list of tokens"),
    ({"messages": [[1, 2], {3: 0, 1: 0}]}, "message row 1 is not a list of tokens"),
    ({"messages": [[0, 3], b"\x01\x02"]}, "message row 1 is not a list of tokens"),
    ({"messages": [[1, 2], range(2)]}, "message row 1 is not a list of tokens"),
    ({"messages": [[1, 2], "03"]}, "message token '0' is not an integer"),
], ids=[
    "owner-past-int64", "owner-below-int64", "ragged-counts", "scalar-owners", "no-owners",
    "scalar-messages", "no-messages", "message-generator", "owner-generator", "owner-dict",
    "message-dict", "int-row", "none-row", "set-rows", "set-row", "dict-row", "bytes-row",
    "range-row", "string-row",
])
def test_rows_numpy_cannot_hold_are_syntax_errors(change, message):
    """Rows that make no int64 entry per row, come in a container without
    one entry per row, or are not a list, tuple or array of tokens (a set or
    a dict has no order) are refused in the words of the row checks, not by
    a raw OverflowError, ValueError or TypeError, and not read as tokens."""
    good = dict(
        sample_ids=("s", "t"), attribute_codes=[[0], [1]],
        messages=[[1, 2], [0, 3]], owners=[0, 1], counts=[2, 1],
    )
    with pytest.raises(DocumentSyntaxError) as caught:
        AnnotatedCorpus(TINY, 4, 2, **{**good, **change})
    assert str(caught.value) == message


def test_derived_corpora_never_call_property_codes(monkeypatch, reference_corpus):
    """Only records are coded, by the attribute coder alone: the frequency
    filter, the noisy generator and ``replace`` build their corpora from ids
    and codes, and only the constructor derives the hyperattribute columns."""
    calls, extended = [], []

    def counted(schema, ids, values):
        calls.append(len(values))
        return code_attributes(schema, ids, values)

    def counted_extend(schema, attribute_codes):
        extended.append(len(attribute_codes))
        return extend_codes(schema, attribute_codes)

    monkeypatch.setattr("emlang.corpus.code_attributes", counted)
    monkeypatch.setattr("emlang.corpus.extend_codes", counted_extend)
    values = attribute_values(reference_corpus)
    records = [
        (sample_id, values[sample_id], tuple(message), 10 * count)
        for sample_id, rows in rows_by_sample(reference_corpus).items()
        for message, count in rows
    ]
    reference = reference_corpus
    base = build_corpus(reference.schema, reference.vocab_size, reference.message_length, records)
    assert calls == extended == [len(base.sample_ids)]  # records are coded once
    noisy = gen_noisy(base, 2, 0.1, seed=1)
    filtered = filter_by_frequency(noisy, 0.5)
    assert filtered == base
    for derived in (noisy, filtered):
        fresh = replace(derived, schema=copy.deepcopy(derived.schema))
        assert fresh == derived and np.array_equal(fresh.codes, derived.codes)
    assert calls == [len(base.sample_ids)]
    with pytest.raises(TokenOutOfRange):  # rows are checked on every construction
        replace(base, messages=base.messages + base.vocab_size)


def test_construction_checks_samples_against_the_schema():
    """Records are checked against the schema as loaded ones are, before the
    header and rows; given codes are checked before the header too, and
    every corpus stores its codes read-only, in id order."""
    corpus = AnnotatedCorpus(TINY, 4, 2, ("t", "s"), [[1], [0]], [[1, 2], [0, 3]], [0, 1], [1, 1])
    assert corpus.sample_ids == ("s", "t")
    assert corpus.codes.tolist() == [[0], [1]]
    with pytest.raises(ValueError):
        corpus.codes[0, 0] = 1  # stored read-only, like the rows
    with pytest.raises(ValueError):
        corpus.attribute_codes[0, 0] = 1
    x = ("s", {"a": "x"}, (1, 2), 1)
    for values, reason in [
        ({"a": "zzz"}, "value 'zzz' not in domain of 'a'"),
        ({"a": ["x"]}, "value ['x'] not in domain of 'a'"),
        ({}, "must assign exactly the attributes ['a']"),
        ({"a": "x", "b": "x"}, "must assign exactly the attributes ['a']"),
        (["x"], "must assign exactly the attributes ['a']"),  # attrs that are no mapping
        ("x", "must assign exactly the attributes ['a']"),
        (None, "must assign exactly the attributes ['a']"),
    ]:
        expected = re.escape("sample 'u'") + ".*" + re.escape(reason)
        with pytest.raises(AttributeMismatch, match=expected):
            build_corpus(TINY, 0, 2, [x, ("u", values, (0, 3), 1)])
    # the first non-conforming sample in the given order, not in id order
    with pytest.raises(AttributeMismatch, match="sample 'v'"):
        build_corpus(TINY, 4, 2, [("v", {"a": "q"}, (0, 0), 1), ("u", {}, (0, 0), 1)])
    for codes, reason in [
        ([[0], [2]], "sample 't': code 2 outside the domain of 'a'"),
        ([[-1], [2]], "sample 's': code -1 outside the domain of 'a'"),
        ([[0], [1.0]], "attribute codes must be integers of shape (2, 1)"),
        ([[False], [True]], "attribute codes must be integers of shape (2, 1)"),
        ([[0], [0, 1]], "attribute codes must be integers of shape (2, 1)"),  # ragged
        ([[0, 0], [1, 1]], "attribute codes must be integers of shape (2, 1)"),
        ([0, 1], "attribute codes must be integers of shape (2, 1)"),
    ]:
        with pytest.raises(AttributeMismatch, match=re.escape(reason)):
            AnnotatedCorpus(TINY, 0, 2, ("s", "t"), codes, [[1, 2], [0, 3]], [0, 1], [1, 1])
        with pytest.raises(AttributeMismatch, match=re.escape(reason)):
            replace(corpus, sample_ids=("s", "t"), attribute_codes=codes)
    # codes are named in the given order: sample 'u' comes before 's'
    with pytest.raises(AttributeMismatch, match="sample 'u'"):
        replace(corpus, sample_ids=("u", "s"), attribute_codes=[[5], [7]])


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


def test_an_unhashable_sample_id_is_a_syntax_error():
    """Worded as a non-string id is, after the attributes of the records
    before it and its own."""
    x = ("s", {"a": "x"}, (1, 2), 1)
    with pytest.raises(DocumentSyntaxError, match=re.escape("sample id ['x'] is not a string")):
        build_corpus(TINY, 4, 2, [x, (["x"], {"a": "x"}, (0, 3), 1)])
    with pytest.raises(AttributeMismatch, match=re.escape("sample ['x']: value 'z'")):
        build_corpus(TINY, 4, 2, [x, (["x"], {"a": "z"}, (0, 3), 1)])
    with pytest.raises(AttributeMismatch, match="sample 's': value 'z'"):
        build_corpus(TINY, 4, 2, [("s", {"a": "z"}, (1, 2), 1), (["x"], {"a": "x"}, (0, 3), 1)])


def test_non_integer_tokens_and_counts_are_refused():
    """A float, bool or other non-integer token or count is a syntax error,
    as it is in a corpus file, not truncated by a cast; integer arrays of any
    width and numpy integer entries are taken, and an integer array is not
    read entry by entry."""
    corpus = build_corpus(TINY, 4, 2, [("s", {"a": "x"}, (0, 1), 2)])
    for message, count, bad in [
        ((0.7, 1.9), 1, "message token 0.7"),
        ((True, 1), 1, "message token True"),
        ((0, "1"), 1, "message token '1'"),
        ((0, 1), 2.9, "message count 2.9"),
        ((0, 1), True, "message count True"),
        ((0, 1), None, "message count None"),
    ]:
        with pytest.raises(DocumentSyntaxError, match=re.escape(f"{bad} is not an integer")):
            build_corpus(TINY, 4, 2, [("s", {"a": "x"}, message, count)])
    for change in [
        {"counts": np.array([2.9])},
        {"counts": np.array([True])},
        {"messages": np.array([[0.0, 1.0]])},
        {"messages": np.ones((1, 2), dtype=bool)},
    ]:
        with pytest.raises(DocumentSyntaxError, match="is not an integer"):
            replace(corpus, **change)
    numpy_entries = [("s", {"a": "x"}, (np.int8(0), np.uint64(1)), np.int32(2))]
    assert build_corpus(TINY, 4, 2, numpy_entries) == corpus
    narrow = replace(corpus, messages=corpus.messages.astype(np.uint8), counts=np.array([2], np.int16))
    assert narrow == corpus

    class Unread(np.ndarray):
        def __iter__(self):
            raise AssertionError("an integer array was read entry by entry")

    unread = corpus.messages.view(Unread), corpus.counts.view(Unread)
    assert replace(corpus, messages=unread[0], counts=unread[1]) == corpus


def test_non_integer_owners_are_refused():
    """Owners are checked as tokens and counts are, before any cast: a float
    or bool owner is a syntax error, and an integer array is not read."""
    corpus = build_corpus(TINY, 4, 2, [("s", {"a": "x"}, (0, 1), 2), ("t", {"a": "y"}, (1, 0), 1)])
    for owners in [corpus.owners + 0.3, np.array([False, True]), [0, 1.0]]:
        with pytest.raises(DocumentSyntaxError, match="message owner .+ is not an integer"):
            replace(corpus, owners=owners)

    class Unread(np.ndarray):
        def __iter__(self):
            raise AssertionError("an integer array was read entry by entry")

    assert replace(corpus, owners=corpus.owners.view(Unread)) == corpus
    assert replace(corpus, owners=corpus.owners.astype(np.uint8)) == corpus


@pytest.mark.parametrize(("vocab_size", "message_length", "builds"), [
    (2.5, 3, False),
    (np.int64(3), 3, True),
    ("3", 3, False),
    (3, np.int64(3), True),
    (3, 3.0, False),
    (True, 3, False),
    (3, True, False),
])
def test_header_numbers_must_be_integers(vocab_size, message_length, builds):
    """The vocabulary size and message length are integers, numpy's included
    and bool not, as in a corpus file: anything else is refused with the
    reader's error, and a numpy integer is stored as an int, so the corpus
    writes a document that loads back to it."""
    records = [("s", {"a": "x"}, (0, 1, 2), 1)]
    if not builds:
        with pytest.raises(DocumentSyntaxError, match="^vocab_size and msg_len must be integers$"):
            build_corpus(TINY, vocab_size, message_length, records)
        return
    corpus = build_corpus(TINY, vocab_size, message_length, records)
    assert type(corpus.vocab_size) is type(corpus.message_length) is int
    assert load_corpus(serialize_corpus(corpus), TINY) == corpus


def test_threshold_must_be_a_number():
    corpus = build_corpus(TINY, 4, 2, [("s", {"a": "x"}, (0, 1), 2)])
    for threshold in ["0.1", None, True]:
        with pytest.raises(ConfigError, match="threshold must be a number"):
            filter_by_frequency(corpus, threshold)
    assert filter_by_frequency(corpus, np.float32(0.5)) == filter_by_frequency(corpus, 1) == corpus


def test_build_corpus_copies_the_attribute_dicts():
    values = {"a": "x"}
    corpus = build_corpus(TINY, 4, 2, [("s", values, (0, 0), 1)])
    values["a"] = "y"
    values["b"] = "x"
    assert attribute_values(corpus) == {"s": {"a": "x"}}
    assert corpus.attribute_codes.tolist() == [[0]]
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
    reversed_rows = replace(
        expected,
        messages=expected.messages[::-1],
        owners=expected.owners[::-1],
        counts=expected.counts[::-1],
    )
    split = AnnotatedCorpus(
        TINY, 4, 2, ("s", "t", "u"), [[0], [1], [0]],
        messages=[[0, 3], [1, 2], [2, 2], [0, 3], [3, 0]],
        owners=[0, 0, 1, 0, 2],
        counts=[2, 2, 1, 3, 4],
    )
    out_of_id_order = AnnotatedCorpus(
        TINY, 4, 2, ("u", "t", "s"), [[0], [1], [0]],
        messages=[[1, 2], [3, 0], [2, 2], [0, 3]],
        owners=[2, 0, 1, 2],
        counts=[2, 4, 1, 5],
    )
    for corpus in (reversed_rows, split, out_of_id_order):
        assert corpus == expected
    with pytest.raises(DocumentSyntaxError, match="duplicate sample id"):
        replace(expected, sample_ids=("s", "u", "s"))
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
    corpus = AnnotatedCorpus(
        TINY, 4, 2, expected.sample_ids, expected.attribute_codes, messages, owners, counts
    )
    assert corpus == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_construction_is_blind_to_row_order_and_splits(data):
    """Any permutation of a corpus's rows, with rows split into repeated
    (owner, message) rows, builds the record-by-record corpus, whatever the
    vocabulary size and message length.  Canonical rows are kept as given,
    but stored as read-only copies, never as the caller's arrays."""
    vocab = data.draw(st.sampled_from([1, 2, 3, 5, 2**21, 2**21 + 1, 2**31 + 1, 2**62, 2**63]))
    length = data.draw(st.sampled_from([1, 2, 3, 4, 64, 70]))
    tokens = st.integers(0, min(3, vocab - 1)) | st.integers(0, vocab - 1) | st.just(vocab - 1)
    message = st.lists(tokens, min_size=length, max_size=length).map(tuple)
    rows = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), message), st.integers(1, 9), min_size=1, max_size=12
        )
    )
    records = [(f"s{o}", {"a": "xy"[o % 2]}, msg, count) for (o, msg), count in rows.items()]
    expected = naive_build_corpus(TINY, vocab, length, records)
    canonical = [a.copy() for a in (expected.messages, expected.owners, expected.counts)]
    columns = expected.sample_ids, expected.attribute_codes
    same = AnnotatedCorpus(TINY, vocab, length, *columns, *canonical)
    assert same == expected
    for given, stored in zip(canonical, (same.messages, same.owners, same.counts)):
        assert given.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(given, stored)
    parts = []
    for msg, owner, count in zip(*(a.tolist() for a in canonical)):
        cuts = []
        if count > 1:
            cuts = data.draw(st.lists(st.integers(1, count - 1), max_size=2, unique=True))
        bounds = [0, *sorted(cuts), count]
        parts += [(msg, owner, high - low) for low, high in zip(bounds, bounds[1:])]
    messages, owners, counts = zip(*data.draw(st.permutations(parts)))
    shuffled = AnnotatedCorpus(TINY, vocab, length, *columns, messages, owners, counts)
    assert shuffled == expected


@pytest.mark.parametrize(("vocab", "length"), [(2, 130), (2**63, 4)])
def test_merge_reads_every_packed_key(vocab, length):
    """Unsorted rows with repeated (owner, message) pairs that differ only in
    a middle or the last packed token key merge as the record-by-record
    build merges them: vocabulary 2 at length 130 packs into 3 keys, and
    vocabulary 2**63 into one key per token."""
    rng = random.Random(length)
    base = [rng.randrange(vocab) for _ in range(length)]
    messages = []
    for position in (0, length // 2, length - 1):  # in the first, a middle and the last key
        for token in (0, vocab - 1):
            message = list(base)
            message[position] = token
            messages.append(tuple(message))
    records = [
        (f"s{owner}", {"a": "xy"[owner % 2]}, message, rng.randrange(1, 5))
        for owner in range(3)
        for message in messages * 2
    ]
    rng.shuffle(records)
    built = build_corpus(TINY, vocab, length, records)
    assert built == naive_build_corpus(TINY, vocab, length, records)
    assert len(built.counts) == 3 * len(set(messages)) < len(records)


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
    with pytest.raises(EmptySample, match="^threshold 0.6 drops every message of sample 's'$"):
        filter_by_frequency(corpus, 0.6)
    with pytest.raises(ConfigError) as caught:
        filter_by_frequency(corpus, 1.5)
    assert str(caught.value) == "threshold must lie in [0, 1], got 1.5"


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
    """Each sample's highest-count message; a tie goes to the smallest message."""

    def representative(corpus):
        return corpus.messages[first_of_max(corpus.owners, corpus.counts)].tolist()

    assert representative(share_corpus({(1, 2): 5, (1, 3): 2})) == [[1, 2]]
    assert representative(share_corpus({(2, 1): 3, (1, 3): 3})) == [[1, 3]]
    assert representative(share_corpus({(0, 3): 1})) == [[0, 3]]
    two = build_corpus(TINY, 4, 2, [("t", {"a": "y"}, (3, 3), 2), ("t", {"a": "y"}, (0, 1), 1),
                                    ("s", {"a": "x"}, (2, 2), 1), ("s", {"a": "x"}, (1, 1), 1)])
    assert representative(two) == [[1, 1], [3, 3]]


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


# Text that JSON escapes or writes through: quotes, backslashes, '%', NUL and
# other control characters, U+2028 and non-BMP characters.
hostile_chars = st.sampled_from('"\\%\x00\x01\n\x1f\x7f\u2028\u00e9\U0001f600')
# Sample ids hold no surrogate: the constructor refuses a lone one.
hostile_texts = st.text(hostile_chars | st.characters(codec="utf-8"), max_size=4)
# A Python-built schema may also hold lone surrogates, which UTF-8 cannot encode.
schema_texts = st.text(hostile_chars | st.characters(), max_size=4) | st.integers(
    0xD800, 0xDFFF
).map(chr)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_serializer_matches_one_json_dumps_per_record(data):
    """Hostile names and values, tokens up to 2**63 - 1, counts up to
    2**53 - 1, long and short messages, blocks of any size and no rows."""
    draw = data.draw
    names = draw(st.lists(schema_texts, min_size=1, max_size=3, unique=True))
    domains = [draw(st.lists(schema_texts, min_size=1, max_size=3, unique=True)) for _ in names]
    schema = AttributeSchema(tuple(map(Attribute, names, map(tuple, domains))))
    length = draw(st.sampled_from([1, 2, 3, 65, 70]))
    vocab = draw(st.sampled_from([1, 3, 2**16 + 1, 2**16 + 2, 2**63]))
    tokens = st.integers(0, vocab - 1) | st.just(vocab - 1)
    ids = draw(st.lists(hostile_texts, max_size=4, unique=True))
    codes, rows = np.zeros((len(ids), len(names)), dtype=np.int64), []
    for owner in range(len(ids)):
        codes[owner] = [draw(st.integers(0, len(domain) - 1)) for domain in domains]
        for _ in range(draw(st.integers(1, 3))):
            rows.append((owner, [draw(tokens) for _ in range(length)], draw(st.integers(1, 9))))
    if rows and draw(st.booleans()):  # one count as large as the total allows
        owner, message, _ = rows[0]
        rows[0] = owner, message, 2**53 - 1 - sum(count for _, _, count in rows[1:])
    owners, messages, counts = zip(*rows) if rows else ((), np.empty((0, length)), ())
    corpus = AnnotatedCorpus(schema, vocab, length, ids, codes, messages, owners, counts)
    block = draw(st.sampled_from([1, 2, 5, 4096]))
    width = draw(st.sampled_from([1, 300, 2**22]))  # 1: a block per row
    with patch.multiple("emlang.corpus", _SERIALIZE_BLOCK=block, _SERIALIZE_BYTES=width):
        text = serialize_corpus(corpus)
    assert text == naive_serialize_corpus(corpus)
    assert load_corpus(text, schema) == corpus


def test_serializer_crosses_the_block_size():
    corpus = gen_holistic(concept_schema(_SERIALIZE_BLOCK + 5), 6, 40, seed=1)
    assert serialize_corpus(corpus) == naive_serialize_corpus(corpus)


def test_serialized_blocks_are_whole_lines_of_the_document():
    """The header line, then one block of records per row block; joined,
    they are the document, also for a corpus without rows."""
    corpus = gen_holistic(concept_schema(3 * _SERIALIZE_BLOCK + 5), 6, 40, seed=1)
    blocks = list(serialize_blocks(corpus))
    assert len(blocks) == 1 + 4
    assert blocks[0] == '{"meta": {"vocab_size": 40, "msg_len": 6}}\n'
    assert [block.count("\n") for block in blocks[1:]] == [_SERIALIZE_BLOCK] * 3 + [5]
    assert "".join(blocks) == serialize_corpus(corpus) == naive_serialize_corpus(corpus)
    empty = AnnotatedCorpus(TINY, 3, 2, [], np.zeros((0, 1), dtype=np.int64), np.zeros((0, 2)), [], [])
    assert list(serialize_blocks(empty)) == ['{"meta": {"vocab_size": 3, "msg_len": 2}}\n']


def test_serializer_blocks_bound_the_padded_matrix(monkeypatch):
    """A block's rows times its widest row stay within the byte bound, so one
    long sample id or message cannot pad thousands of rows to its width."""
    monkeypatch.setattr("emlang.corpus._SERIALIZE_BLOCK", 4)
    monkeypatch.setattr("emlang.corpus._SERIALIZE_BYTES", 100)
    widths = np.array([10, 10, 10, 10, 10, 60, 10, 200, 10, 10])
    assert list(_blocks(widths)) == [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 10)]


# Attribute order b, a differs from key order, so records must follow the schema.
TWO = parse_schema(
    '{"attributes": [{"name": "b", "values": ["x", "y"]}, {"name": "a", "values": ["u", "v"]}]}'
)
IDS = ["s0", "s1", "\u00e9", 'q"t']
ANNOTATIONS = [{"b": "x", "a": "u"}, {"a": "v", "b": "y"}, {"b": "y", "a": "u"}]


# strings holding exactly one surrogate code point, which is therefore lone
lone_surrogate_texts = st.tuples(
    st.text(max_size=2), st.integers(0xD800, 0xDFFF).map(chr), st.text(max_size=2)
).map("".join)


def outcome(load, text, schema=TWO):
    """The corpus, or the error class and the line number its message names."""
    try:
        return load(text, schema)
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
        if draw(st.integers(0, 9)) == 0:  # a lone surrogate, ignored or as an attribute
            text = draw(lone_surrogate_texts)
            where = draw(st.sampled_from(["note", "key", "value"]))
            if where == "note":
                record["note"] = text
            elif where == "key":
                record["attrs"][text] = "x"
            else:
                record["attrs"][draw(st.sampled_from(sorted(record["attrs"])))] = text
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


WIDE = '{"meta": {"vocab_size": 9223372036854775808, "msg_len": 2}}'
FIRST = '{"sample": "s0", "attrs": {"b": "x", "a": "u"}, "msg": [1, 2], "count": 3}'
SECOND = '{"sample": "s1", "attrs": {"b": "y", "a": "v"}, "msg": [0, 3], "count": 1}'


def respelt(old, new, header=HEADER):
    """Two records, the first with ``old`` respelt as ``new``."""
    assert old in FIRST
    return "\n".join([header, FIRST.replace(old, new, 1), SECOND]) + "\n"


def document(*lines):
    return "\n".join(lines) + "\n"


# Respellings at the edge of the spelling the bulk lexer reads, each with
# whether the lexer reads the document (True) or the per-line reader does.
LEXER_EDGES = {
    "canonical": (respelt("", ""), True),
    # numbers
    "leading-zero": (respelt("[1, 2]", "[01, 2]"), False),
    "minus-zero": (respelt("[1, 2]", "[-0, 2]"), False),
    "fraction": (respelt("[1, 2]", "[1.0, 2]"), False),
    "exponent": (respelt("[1, 2]", "[1e2, 2]"), False),
    "zero-count": (respelt('"count": 3', '"count": 0'), True),
    "count-leading-zero": (respelt('"count": 3', '"count": 03'), False),
    "count-total-2**53": (respelt('"count": 3', f'"count": {2**53 - 1}'), True),
    "18-digits": (respelt("[1, 2]", f"[{10**18 - 1}, 2]", WIDE), True),
    "18-digits-outside-vocabulary": (respelt("[1, 2]", f"[{10**18 - 1}, 2]"), True),
    "19-digits": (respelt("[1, 2]", f"[{10**18}, 2]", WIDE), False),
    "2**63-1": (respelt("[1, 2]", f"[{2**63 - 1}, 2]", WIDE), False),
    "2**63": (respelt("[1, 2]", f"[{2**63}, 2]", WIDE), False),
    "19-digit-count": (respelt('"count": 3', f'"count": {10**18}'), False),
    "short-message": (respelt("[1, 2]", "[1]"), False),
    "long-message": (respelt("[1, 2]", "[1, 2, 3]"), False),
    # strings
    "escaped-quote-in-id": (respelt('"s0"', r'"s\"0"'), False),
    "escaped-accent-in-id": (respelt('"s0"', r'"\u00e9"'), False),
    "accent-in-id": (respelt('"s0"', '"é"'), True),
    "braces-in-id": (respelt('"s0"', '"{s}, {"'), True),
    "raw-quote-in-id": (respelt('"s0"', '"s"0"'), False),
    "control-character-in-id": (respelt('"s0"', '"s\x010"'), False),
    "brace-in-value": (respelt('"x"', '"x}"'), True),
    "raw-quote-in-value": (respelt('"x"', '"x"y"'), False),
    "escaped-value": (respelt('"x"', r'"\u0078"'), False),
    "empty-attrs": (respelt('{"b": "x", "a": "u"}', "{}"), True),
    # layout
    "swapped-keys": (respelt('"sample": "s0", "attrs": {"b": "x", "a": "u"}',
                             '"attrs": {"b": "x", "a": "u"}, "sample": "s0"'), False),
    "swapped-attrs": (respelt('{"b": "x", "a": "u"}', '{"a": "u", "b": "x"}'), True),
    "duplicate-attrs-key": (respelt('{"b": "x"', '{"b": "y", "b": "x"'), True),
    "no-count": (respelt(', "count": 3', ""), False),
    "extra-key": (respelt('"count": 3', '"count": 3, "note": 1'), False),
    "no-space-after-comma": (respelt("[1, 2]", "[1,2]"), False),
    "tab": (respelt('"msg": ', '"msg":\t'), False),
    "crlf": (respelt('"count": 3}', '"count": 3}\r'), False),
    "no-final-newline": (respelt("", "")[:-1], True),
    "blank-lines": (document("  ", HEADER, "", FIRST, " \t", SECOND, "\x1c"), True),
    "repeated-record": (document(HEADER, FIRST, SECOND, FIRST), True),
    "id-with-two-spellings": (
        document(HEADER, FIRST, SECOND, FIRST.replace('"b": "x", "a": "u"', '"a": "u", "b": "x"')),
        False,
    ),
    "conflicting-annotations": (
        document(HEADER, FIRST, SECOND, FIRST.replace('"x"', '"y"')), False
    ),
    "two-records-on-one-line": (document(HEADER, FIRST + " " + SECOND), False),
    "header-only": (document(HEADER), False),
}


@pytest.mark.parametrize(("text", "lexed"), LEXER_EDGES.values(), ids=LEXER_EDGES.keys())
def test_lexer_edges_match_record_by_record_oracle(monkeypatch, text, lexed):
    """At the edge of the lexer's spelling, the same corpus, or the same error
    class at the same line, as a reader that parses one record at a time."""
    scanned = []
    scan = emlang.corpus._scan_records
    monkeypatch.setattr(
        "emlang.corpus._scan_records", lambda lines: scanned.append(1) or scan(lines)
    )
    assert outcome(load_corpus, text) == outcome(naive_load_corpus, text)
    assert scanned == ([] if lexed else [1])


@pytest.mark.parametrize("count", [0, -2])
def test_repeated_record_counts_are_checked_after_the_merge(count):
    """A record whose count is below 1 loads when a repeat of it brings the
    sum to at least 1: both readers and the oracle give the summed count."""
    first = FIRST.replace('"count": 3', f'"count": {count}')
    for text in (document(HEADER, first, SECOND, FIRST), spelt_apart(first, SECOND, FIRST)):
        corpus = load_corpus(text, TWO)
        assert corpus == naive_load_corpus(text, TWO)
        assert rows_by_sample(corpus)["s0"] == (((1, 2), count + 3),)


def spelt_apart(*records):
    """A document of ``records`` after the header, each with ``"msg":[``
    spelt as the bulk lexer never reads it, so the per-line reader does."""
    return document(HEADER, *(record.replace('"msg": [', '"msg":[') for record in records))


# Each kind of record error the per-line reader words, with its full text.
RECORD_ERRORS = {
    "invalid-json": (
        spelt_apart(" \t" + FIRST[:-1], SECOND),
        "line 2: invalid JSON (Expecting ',' delimiter: line 1 column 75 (char 74))",
    ),
    "not-an-object": (spelt_apart("[1, 2]", SECOND), "line 2: expected a JSON object"),
    "missing-attrs": (
        spelt_apart(FIRST, '{"sample": "s1", "msg": [0, 3]}'),
        "line 3: record needs 'sample', 'attrs', 'msg'",
    ),
    "sample-not-a-string": (
        spelt_apart(FIRST.replace('"s0"', "0"), SECOND), "line 2: 'sample' must be a string"
    ),
    "float-token": (
        spelt_apart(FIRST.replace("[1, 2]", "[1.0, 2]"), SECOND),
        "line 2: 'msg' must be a list of integers",
    ),
    "bool-token": (
        spelt_apart(FIRST, SECOND.replace("[0, 3]", "[0, true]")),
        "line 3: 'msg' must be a list of integers",
    ),
    "count-not-an-integer": (
        spelt_apart(FIRST.replace('"count": 3', '"count": "3"'), SECOND),
        "line 2: 'count' must be an integer",
    ),
    "attrs-not-an-object": (
        spelt_apart(FIRST.replace('{"b": "x", "a": "u"}', '["x", "u"]'), SECOND),
        "line 2: 'attrs' must be an object",
    ),
    # two faults on one line: the check that comes first words it
    "keys-before-sample": (
        spelt_apart(FIRST, '{"sample": 0, "msg": [0, 3]}'),
        "line 3: record needs 'sample', 'attrs', 'msg'",
    ),
    "sample-before-msg": (
        spelt_apart(FIRST.replace('"s0"', "0").replace("[1, 2]", "[1.0, 2]"), SECOND),
        "line 2: 'sample' must be a string",
    ),
    "msg-before-count": (
        spelt_apart(FIRST.replace("[1, 2]", "[1.0, 2]").replace('"count": 3', '"count": "3"')),
        "line 2: 'msg' must be a list of integers",
    ),
    "count-before-attrs": (
        spelt_apart(FIRST.replace('"count": 3', '"count": "3"').replace('{"b": "x", "a": "u"}', "[]")),
        "line 2: 'count' must be an integer",
    ),
    "first-bad-line-wins": (
        spelt_apart(FIRST, SECOND.replace('"count": 1', '"count": null'), FIRST, "{"),
        "line 3: 'count' must be an integer",
    ),
}


@pytest.mark.parametrize(("text", "message"), RECORD_ERRORS.values(), ids=RECORD_ERRORS.keys())
def test_per_line_reader_words_record_errors(monkeypatch, text, message):
    """The per-line reader's full error text for each kind of bad record, the
    first bad line winning whatever its kind."""
    scanned = []
    scan = emlang.corpus._scan_records
    monkeypatch.setattr(
        "emlang.corpus._scan_records", lambda lines: scanned.append(1) or scan(lines)
    )
    with pytest.raises(DocumentSyntaxError) as caught:
        load_corpus(text, TWO)
    assert str(caught.value) == message
    assert scanned == [1]


def test_serialized_corpora_load_without_the_per_line_reader(monkeypatch, reference_corpus):
    """Every document serialize_corpus writes is lexed in bulk."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the per-line reader ran")

    corpora = [
        reference_corpus,  # non-ASCII attribute values
        gen_holistic(concept_schema(300), 7, 50, seed=3),
        gen_noisy(reference_corpus, 3, 0.2, seed=1),  # counts above 1
    ]
    texts = [serialize_corpus(corpus) for corpus in corpora]
    monkeypatch.setattr("emlang.corpus._scan_records", unreachable)
    for corpus, text in zip(corpora, texts):
        assert load_corpus(text, corpus.schema) == corpus


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructor_arguments_raise_emlang_errors_only(data):
    """Sample ids and attribute codes, as given: valid ones in any sample
    order rebuild the build_corpus corpus and its samples; codes that are
    negative, past their domain, float, bool or misshapen are an
    AttributeMismatch, and ids that are not strings, repeated or hold a lone
    surrogate a DocumentSyntaxError."""
    draw = data.draw
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    annotation = {sample_id: draw(st.sampled_from(ANNOTATIONS)) for sample_id in ids}
    message = st.tuples(st.integers(0, 3), st.integers(0, 3))
    records = [
        (sample_id, annotation[sample_id], draw(message), draw(st.integers(1, 5)))
        for sample_id in ids
        for _ in range(draw(st.integers(1, 2)))
    ]
    corpus = build_corpus(TWO, 4, 2, records)
    rows = corpus.messages, corpus.owners, corpus.counts
    rebuilt = AnnotatedCorpus(TWO, 4, 2, corpus.sample_ids, corpus.attribute_codes, *rows)
    assert rebuilt == corpus
    spelt = attribute_values(rebuilt)
    assert spelt == attribute_values(corpus) == {i: annotation[i] for i in ids}
    assert list(spelt) == sorted(ids)
    order = np.array(draw(st.permutations(range(len(ids)))))
    rank = np.argsort(order)  # new position of each sample
    sample_ids = [corpus.sample_ids[k] for k in order]
    codes = corpus.attribute_codes[order]
    rows = corpus.messages, rank[corpus.owners], corpus.counts
    assert AnnotatedCorpus(TWO, 4, 2, sample_ids, codes, *rows) == corpus

    kind = draw(st.sampled_from(
        ["negative", "past-domain", "float", "bool", "shape", "not-str", "repeated", "surrogate"]
    ))
    codes, sample_ids = codes.copy(), list(sample_ids)
    row, column = draw(st.integers(0, len(ids) - 1)), draw(st.integers(0, 1))
    if kind == "negative":
        codes[row, column] = draw(st.integers(-(2**63), -1))
    elif kind == "past-domain":
        codes[row, column] = draw(st.integers(2, 2**63 - 1))  # both domains hold two values
    elif kind == "float":
        codes = codes.astype(draw(st.sampled_from([np.float64, np.float32])))
    elif kind == "bool":
        codes = codes.astype(bool)
    elif kind == "shape":
        misshapen = [codes[:, :1], codes[1:], codes.T[:1], codes.ravel(), codes[None]]
        codes = draw(st.sampled_from(misshapen))
    elif kind == "not-str":
        sample_ids[row] = draw(st.sampled_from([None, 1, b"s0", ("s0",)]))
    elif kind == "repeated":
        assume(len(ids) > 1)
        sample_ids[row] = sample_ids[row - 1]
    else:
        sample_ids[row] = draw(lone_surrogate_texts)
    codes_kinds = ("negative", "past-domain", "float", "bool", "shape")
    with pytest.raises(AttributeMismatch if kind in codes_kinds else DocumentSyntaxError):
        AnnotatedCorpus(TWO, 4, 2, sample_ids, codes, *rows)
