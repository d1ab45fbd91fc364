"""Annotated message corpora: loading, validation, frequency filtering.

A corpus ties fixed-length token messages to annotated samples.  The file
format is line-oriented JSON (UTF-8, LF): a header line
``{"meta": {"vocab_size": n, "msg_len": T}}`` followed by one record per
line, ``{"sample": id, "attrs": {...}, "msg": [ints], "count": k}`` with
``count`` defaulting to 1.  Sample ids are strings without lone
surrogates (UTF-8 cannot encode them), ``vocab_size`` is at most 2**63,
``msg_len`` at most ``MAX_MESSAGE_LENGTH`` = 2**16, and the counts of a
corpus sum to less than 2**53.  Records repeating the same
(sample, message) merge by summing counts.

In memory a corpus is columnar.  ``samples`` holds one :class:`Sample` per
distinct id, sorted by id.  Row r of ``messages`` (``int64[rows x
message_length]``) is a message that sample ``samples[owners[r]]`` sent
``counts[r]`` times.  Every corpus is canonical: one row per distinct
(sample, message), sorted by sample, then by token sequence.  The
constructor puts its samples and rows in that order and merges repeated
rows, so ``dataclasses.replace(corpus, ...)`` re-canonicalises.

Samples and rows are each checked in one place.  The samples' attribute
values are coded once, by :func:`~emlang.schema.property_codes`, which is
also the one check that they conform to the schema; the result is the
corpus's ``codes`` matrix, one row per sample.  Rows that are valid as
given (int64 tokens inside the vocabulary, counts of at least 1, a total
below 2**53) are sorted and merged as arrays; any other input is merged in
Python integers, and that path alone reports the first invalid row in
canonical order.

Corpora are immutable after construction; filtering returns a new corpus.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    AttributeMismatch,
    ConfigError,
    DocumentSyntaxError,
    EmptySample,
    LengthMismatch,
    TokenOutOfRange,
    UnknownSample,
    has_lone_surrogate,
    parse_json,
)
from .schema import AttributeSchema, Sample, property_codes

Message = tuple[int, ...]

# Below this corpus-wide count total, int64 sums and float64 shares of counts
# equal their exact Python values.
COUNT_LIMIT = 2**53
# Up to this vocabulary size every token fits an int64.
VOCAB_LIMIT = 2**63
# Longest message a corpus may hold.  Rule tables share the bound, because
# their markdown and CSV renderings hold one column per position.
MAX_MESSAGE_LENGTH = 2**16
# Rows that serialize_corpus turns into Python objects at once.
_SERIALIZE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class AnnotatedCorpus:
    """Samples sorted by id, and one row per (sample, message) with its count.

    Row r says that ``samples[owners[r]]`` sent ``messages[r]`` ``counts[r]``
    times, and ``codes[k]`` is the ``property_codes`` row of ``samples[k]``.
    Construction checks its input, samples first, and makes it canonical:
    samples sorted by id (``owners`` renumbered to match), rows sorted by
    owner and then tokens, and rows repeating an (owner, message) merged by
    summing their counts.  Input whose rows are all valid as given is sorted
    and merged as int64 arrays; anything else is merged in Python integers by
    the one check that reports a row error.  The arrays, ``codes``
    included, are stored as fresh read-only int64 arrays, never as the
    caller's.
    """

    schema: AttributeSchema
    vocab_size: int
    message_length: int
    samples: tuple[Sample, ...]
    messages: np.ndarray
    owners: np.ndarray
    counts: np.ndarray
    codes: np.ndarray = field(init=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        codes = property_codes(self.schema, self.samples)
        _check_shape(self.vocab_size, self.message_length)
        by_id = sorted(range(len(self.samples)), key=lambda k: self.samples[k].id)
        samples = tuple(self.samples[k] for k in by_id)
        ids = [sample.id for sample in samples]
        for before, after in zip(ids, ids[1:]):
            if before == after:
                raise DocumentSyntaxError(f"duplicate sample id {after!r}")
        if has_lone_surrogate("".join(ids)):
            bad = next(i for i in ids if has_lone_surrogate(i))
            raise DocumentSyntaxError(f"sample id {bad!r} holds a lone surrogate")
        owners = np.asarray(self.owners, dtype=np.int64)
        if not owners.shape == np.shape(self.counts) == (len(self.messages),):
            raise DocumentSyntaxError("messages, owners and counts need one entry per row")
        if len(owners) and not 0 <= owners.min() <= owners.max() < len(ids):
            raise DocumentSyntaxError("a message owner lies outside the samples")
        rank = np.empty(len(ids), dtype=np.int64)
        rank[by_id] = np.arange(len(ids))
        owners = rank[owners]
        empty = np.flatnonzero(np.bincount(owners, minlength=len(ids)) == 0)
        if len(empty):
            raise DocumentSyntaxError(f"sample {ids[empty[0]]!r} owns no messages")
        rows = _int64_rows(owners, self.messages, self.counts, self.vocab_size, self.message_length)
        if rows is None:
            rows = _exact_rows(
                samples, self.vocab_size, self.message_length, owners, self.messages, self.counts
            )
        object.__setattr__(self, "samples", samples)
        for name, array in zip(("codes", "messages", "owners", "counts"), (codes[by_id], *rows)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, AnnotatedCorpus):
            return NotImplemented
        return (
            (self.schema, self.vocab_size, self.message_length, self.samples)
            == (other.schema, other.vocab_size, other.message_length, other.samples)
            and np.array_equal(self.messages, other.messages)
            and np.array_equal(self.owners, other.owners)
            and np.array_equal(self.counts, other.counts)
        )

    @cached_property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(sample.id for sample in self.samples)

    @cached_property
    def totals(self) -> np.ndarray:
        """Count total of each sample."""
        # every partial sum stays below 2**53, so the float accumulation is exact
        weighted = np.bincount(self.owners, weights=self.counts, minlength=len(self.samples))
        return weighted.astype(np.int64)


def _check_shape(vocab_size: int, message_length: int) -> None:
    if not 1 <= message_length <= MAX_MESSAGE_LENGTH:
        raise DocumentSyntaxError(f"message length must lie in 1..{MAX_MESSAGE_LENGTH}")
    if not 1 <= vocab_size <= VOCAB_LIMIT:
        raise DocumentSyntaxError("vocabulary size must lie in 1..2**63")


def build_corpus(
    schema: AttributeSchema,
    vocab_size: int,
    message_length: int,
    records: list[tuple[str, dict[str, str], Message, int]],
) -> AnnotatedCorpus:
    """Assemble a corpus from (sample_id, attrs, message, count) records.

    Duplicate (sample, message) records merge by summing counts; a sample id
    reappearing with different attributes is an AttributeMismatch.
    """
    columns = list(zip(*records)) or [(), (), (), ()]
    return _corpus_of_records(schema, vocab_size, message_length, *columns)


def _corpus_of_records(schema, vocab_size, message_length, ids, attrs, msgs, counts):
    """The corpus of records given as parallel sequences, in record order.

    Errors come in the order of a record-by-record build: attributes in
    record order, then the header, then rows in canonical order.
    """
    first: dict[str, int] = {}  # sample id -> index into samples
    samples: list[Sample] = []
    owners = []
    for sample_id, values in zip(ids, attrs):
        k = first.setdefault(sample_id, len(first))
        if k == len(samples):
            samples.append(Sample(sample_id, dict(values)))
        elif samples[k].values != values:
            property_codes(schema, samples)  # an earlier non-conforming sample comes first
            raise AttributeMismatch(
                f"sample {sample_id!r} annotated with conflicting attribute values"
            )
        owners.append(k)
    return AnnotatedCorpus(schema, vocab_size, message_length, tuple(samples), msgs, owners, counts)


def _int64_rows(owners, msgs, counts, vocab_size, message_length):
    """The rows as fresh int64 arrays sorted by owner, then tokens, repeated
    (owner, message) rows merged, when every row is valid as given: each
    message of ``message_length`` tokens in [0, vocab_size), each count at
    least 1, and the counts summing below COUNT_LIMIT.  None for anything
    else, which :func:`_exact_rows` merges and reports on."""
    if not len(owners):
        return np.empty((0, message_length), dtype=np.int64), owners, np.empty(0, dtype=np.int64)
    try:
        messages = np.asarray(msgs, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if messages.ndim != 2:
        raise LengthMismatch(
            f"messages of shape {messages.shape}, expected rows of length {message_length}"
        )
    # a float64 sum of positive counts reaches 2**53 exactly when the exact sum
    # does: rounding is monotone and 2**53 is a float
    if not (
        messages.shape[1] == message_length
        and 0 <= messages.min()
        and messages.max() <= vocab_size - 1
        and counts.min() >= 1
        and counts.sum(dtype=np.float64) < COUNT_LIMIT
    ):
        return None
    order = np.lexsort((*messages.T[::-1], owners))
    messages, owners, counts = messages[order], owners[order], counts[order]
    starts = np.ones(len(owners), dtype=bool)
    starts[1:] = (owners[1:] != owners[:-1]) | (messages[1:] != messages[:-1]).any(axis=1)
    starts = np.flatnonzero(starts)
    return messages[starts], owners[starts], np.add.reduceat(counts, starts)


def _exact_rows(samples, vocab_size, message_length, owners, msgs, counts):
    """The merged canonical rows, merged in Python integers so that sums
    cannot wrap, or the error of the first invalid row in canonical order.
    The only code that words a row error."""
    if isinstance(msgs, np.ndarray):
        msgs = msgs.tolist()
    merged: dict[tuple[int, Message], int] = {}
    for owner, message, count in zip(owners.tolist(), map(tuple, msgs), np.asarray(counts).tolist()):
        merged[owner, message] = merged.get((owner, message), 0) + count
    rows = sorted(merged.items())
    total = 0
    for (owner, message), count in rows:
        sample_id = samples[owner].id
        if len(message) != message_length:
            raise LengthMismatch(
                f"sample {sample_id!r}: message of length {len(message)}, "
                f"expected {message_length}"
            )
        if any(t < 0 or t >= vocab_size for t in message):
            raise TokenOutOfRange(f"sample {sample_id!r}: token outside [0, {vocab_size})")
        if count < 1:
            raise DocumentSyntaxError(f"sample {sample_id!r}: message count must be >= 1")
        total += count
    if total >= COUNT_LIMIT:
        raise DocumentSyntaxError(f"message counts sum to {total}, at least 2**53")
    messages = np.array([message for (_, message), _ in rows], dtype=np.int64)
    return (
        messages.reshape(len(rows), message_length),
        np.array([owner for (owner, _), _ in rows], dtype=np.int64),
        np.array([count for _, count in rows], dtype=np.int64),
    )


def _is_int(value) -> bool:
    return type(value) is int  # bool is an int subclass; reject it


def load_corpus(text: str, schema: AttributeSchema) -> AnnotatedCorpus:
    """Parse a corpus document against a validated schema.

    Line numbers count non-blank lines.  Errors come in the order of a
    line-by-line reader: record syntax in line order, then attributes in
    record order, then content (header bounds, rows in canonical order).
    """
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise DocumentSyntaxError("corpus document is empty")
    header = _parse_json_line(lines[0], 1)
    if not isinstance(header, dict):
        raise DocumentSyntaxError("line 1: expected a JSON object")
    meta = header.get("meta")
    if not isinstance(meta, dict) or "vocab_size" not in meta or "msg_len" not in meta:
        raise DocumentSyntaxError(
            "first line must be a header {\"meta\": {\"vocab_size\": n, \"msg_len\": T}}"
        )
    vocab_size, message_length = meta["vocab_size"], meta["msg_len"]
    if not _is_int(vocab_size) or not _is_int(message_length):
        raise DocumentSyntaxError("vocab_size and msg_len must be integers")

    scan = json.JSONDecoder().scan_once
    ids, attrs, msgs, counts = [], [], [], []
    for line in lines[1:]:
        line = line.strip(" \t\r")  # JSON whitespace; lines hold no newline
        try:
            record, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(line):  # not one JSON value: report the first bad record
            _check_records(lines[1:])
        # only the fields stay alive; a missing one reads None, which the type checks reject
        get = record.get if type(record) is dict else {}.get
        ids.append(get("sample"))
        attrs.append(get("attrs"))
        msgs.append(get("msg"))
        counts.append(get("count", 1))
    if not (
        set(map(type, ids)) <= {str}
        and set(map(type, attrs)) <= {dict}
        and set(map(type, counts)) <= {int}
        and set(map(type, msgs)) <= {list}
        and set(map(type, chain.from_iterable(msgs))) <= {int}
    ):
        _check_records(lines[1:])
    del lines  # only error reports read the lines; the arrays built next need the memory
    return _corpus_of_records(schema, vocab_size, message_length, ids, attrs, msgs, counts)


def _parse_json_line(line: str, lineno: int):
    return parse_json(line, f"line {lineno}: invalid JSON ({{}})")


def _check_records(lines: list[str]) -> None:
    """Raise for the first invalid or malformed record, numbering lines from line 2."""
    for lineno, line in enumerate(lines, start=2):
        record = _parse_json_line(line, lineno)
        if not isinstance(record, dict):
            raise DocumentSyntaxError(f"line {lineno}: expected a JSON object")
        if "sample" not in record or "attrs" not in record or "msg" not in record:
            raise DocumentSyntaxError(f"line {lineno}: record needs 'sample', 'attrs', 'msg'")
        if not isinstance(record["sample"], str):
            raise DocumentSyntaxError(f"line {lineno}: 'sample' must be a string")
        msg = record["msg"]
        if not isinstance(msg, list) or not all(_is_int(t) for t in msg):
            raise DocumentSyntaxError(f"line {lineno}: 'msg' must be a list of integers")
        if not _is_int(record.get("count", 1)):
            raise DocumentSyntaxError(f"line {lineno}: 'count' must be an integer")
        if not isinstance(record["attrs"], dict):
            raise DocumentSyntaxError(f"line {lineno}: 'attrs' must be an object")


def serialize_corpus(corpus: AnnotatedCorpus) -> str:
    """Canonical corpus document; ``load_corpus(serialize_corpus(c)) == c``."""
    header = {"meta": {"vocab_size": corpus.vocab_size, "msg_len": corpus.message_length}}
    names = corpus.schema.attribute_names
    # each sample's record text up to its first token: '{"sample": ..., "msg": ['
    prefixes = [
        json.dumps(
            {"sample": sample.id, "attrs": {n: sample.values[n] for n in names}, "msg": []},
            ensure_ascii=False,
        )[:-2]
        for sample in corpus.samples
    ]
    # %d formats an int exactly as json.dumps does
    record = "%s" + ", ".join(["%d"] * corpus.message_length) + '], "count": %d}'
    lines = [json.dumps(header, ensure_ascii=False)]
    # rows become Python lists one block at a time, so their objects never all coexist
    for start in range(0, len(corpus.owners), _SERIALIZE_BLOCK):
        block = slice(start, start + _SERIALIZE_BLOCK)
        rows = zip(
            corpus.owners[block].tolist(),
            corpus.messages[block].tolist(),
            corpus.counts[block].tolist(),
        )
        lines.extend(record % (prefixes[owner], *message, count) for owner, message, count in rows)
    lines.append("")  # a final newline, without copying the joined document
    return "\n".join(lines)


def filter_by_frequency(corpus: AnnotatedCorpus, threshold: float) -> AnnotatedCorpus:
    """Drop, per sample, messages whose count share falls below ``threshold``.

    A message survives iff ``count / totals[sample] >= threshold``, so
    threshold 0 is the identity.  Samples are never dropped: a sample left
    without messages (threshold above its maximum share) raises EmptySample.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    # counts and totals lie below 2**53, so the float division is the exact share rounded once
    kept = corpus.counts / corpus.totals[corpus.owners] >= threshold
    emptied = np.flatnonzero(np.bincount(corpus.owners[kept], minlength=len(corpus.samples)) == 0)
    if len(emptied):
        raise EmptySample(
            f"threshold {threshold} drops every message of sample "
            f"{corpus.samples[emptied[0]].id!r}"
        )
    return replace(
        corpus,
        messages=corpus.messages[kept],
        owners=corpus.owners[kept],
        counts=corpus.counts[kept],
    )


def representative_of(corpus: AnnotatedCorpus) -> np.ndarray:
    """Row of each sample's highest-count message, ties going to the smallest
    row, which holds the lexicographically smallest message."""
    order = np.lexsort((-corpus.counts, corpus.owners))  # stable: equal counts keep row order
    owners = corpus.owners[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = owners[1:] != owners[:-1]
    return order[first]


def representative_message(corpus: AnnotatedCorpus, sample_id: str) -> Message:
    k = bisect_left(corpus.sample_ids, sample_id)
    if k == len(corpus.sample_ids) or corpus.sample_ids[k] != sample_id:
        raise UnknownSample(f"no sample {sample_id!r} in corpus")
    return tuple(corpus.messages[representative_of(corpus)[k]].tolist())
