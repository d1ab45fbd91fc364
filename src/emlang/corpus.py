"""Annotated message corpora: loading, validation, frequency filtering.

A corpus ties fixed-length token messages to annotated samples.  The file
format is line-oriented JSON (UTF-8, LF): a header line
``{"meta": {"vocab_size": n, "msg_len": T}}`` followed by one record per
line, ``{"sample": id, "attrs": {...}, "msg": [ints], "count": k}`` with
``count`` defaulting to 1.  Sample ids are strings, ``vocab_size`` is at
most 2**63, and the counts of a corpus sum to less than 2**53.  Records
repeating the same (sample, message) merge by summing counts.

Corpora are immutable after construction; filtering returns a new corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AttributeMismatch,
    ConfigError,
    DocumentSyntaxError,
    EmptySample,
    LengthMismatch,
    TokenOutOfRange,
    UnknownSample,
)
from .schema import AttributeSchema, Sample, property_codes, validate_sample

Message = tuple[int, ...]

# Below this corpus-wide count total, int64 sums and float64 shares of counts
# equal their exact Python values.
COUNT_LIMIT = 2**53
# Up to this vocabulary size every token fits an int64.
VOCAB_LIMIT = 2**63


@dataclass(frozen=True)
class CorpusEntry:
    """One sample together with its message multiset (message -> count)."""

    sample: Sample
    messages: tuple[tuple[Message, int], ...]

    __hash__ = None

    def total_count(self) -> int:
        return sum(count for _, count in self.messages)


@dataclass(frozen=True)
class AnnotatedCorpus:
    schema: AttributeSchema
    vocab_size: int
    message_length: int
    entries: tuple[CorpusEntry, ...]

    __hash__ = None

    def __post_init__(self):
        if self.message_length < 1:
            raise DocumentSyntaxError("message length must be >= 1")
        if not 1 <= self.vocab_size <= VOCAB_LIMIT:
            raise DocumentSyntaxError("vocabulary size must lie in 1..2**63")
        seen_ids: set[str] = set()
        total = 0
        for entry in self.entries:
            if entry.sample.id in seen_ids:
                raise DocumentSyntaxError(f"duplicate sample id {entry.sample.id!r}")
            seen_ids.add(entry.sample.id)
            if not entry.messages:
                raise DocumentSyntaxError(f"sample {entry.sample.id!r} owns no messages")
            for message, count in entry.messages:
                if len(message) != self.message_length:
                    raise LengthMismatch(
                        f"sample {entry.sample.id!r}: message of length {len(message)}, "
                        f"expected {self.message_length}"
                    )
                if any(t < 0 or t >= self.vocab_size for t in message):
                    raise TokenOutOfRange(
                        f"sample {entry.sample.id!r}: token outside [0, {self.vocab_size})"
                    )
                if count < 1:
                    raise DocumentSyntaxError(
                        f"sample {entry.sample.id!r}: message count must be >= 1"
                    )
                total += count
        if total >= COUNT_LIMIT:
            raise DocumentSyntaxError(f"message counts sum to {total}, at least 2**53")

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return tuple(entry.sample.id for entry in self.entries)

    def entry(self, sample_id: str) -> CorpusEntry:
        for e in self.entries:
            if e.sample.id == sample_id:
                return e
        raise UnknownSample(f"no sample {sample_id!r} in corpus")

    def all_messages(self) -> list[Message]:
        """Every retained message of every sample (distinct per sample)."""
        return [m for entry in self.entries for m, _ in entry.messages]

    @cached_property
    def codes(self) -> np.ndarray:
        """``property_codes`` of the samples: one row per entry."""
        return property_codes(self.schema, [entry.sample.values for entry in self.entries])

    @cached_property
    def messages(self) -> np.ndarray:
        """``all_messages()`` as one ``int64[messages x message_length]`` array."""
        return np.array(self.all_messages(), dtype=np.int64).reshape(-1, self.message_length)

    @cached_property
    def counts(self) -> np.ndarray:
        """Count of each row of ``messages``."""
        return np.array(
            [count for entry in self.entries for _, count in entry.messages], dtype=np.int64
        )

    @cached_property
    def owners(self) -> np.ndarray:
        """Entry index of each row of ``messages``."""
        return np.array(
            [i for i, entry in enumerate(self.entries) for _ in entry.messages], dtype=np.int64
        )


def build_corpus(
    schema: AttributeSchema,
    vocab_size: int,
    message_length: int,
    records: list[tuple[str, dict[str, str], Message, int]],
) -> AnnotatedCorpus:
    """Assemble a corpus from (sample_id, attrs, message, count) records.

    Canonical ordering is imposed here: entries sorted by sample id,
    messages by token sequence.  Duplicate (sample, message) records merge
    by summing counts; a sample id reappearing with different attributes is
    an AttributeMismatch.
    """
    samples: dict[str, Sample] = {}
    counts: dict[str, dict[Message, int]] = {}
    for sample_id, attrs, message, count in records:
        sample = validate_sample(schema, sample_id, attrs)
        if sample_id in samples:
            if samples[sample_id].values != sample.values:
                raise AttributeMismatch(
                    f"sample {sample_id!r} annotated with conflicting attribute values"
                )
        else:
            samples[sample_id] = sample
            counts[sample_id] = {}
        counts[sample_id][message] = counts[sample_id].get(message, 0) + count
    entries = tuple(
        CorpusEntry(
            sample=samples[sid],
            messages=tuple(sorted(counts[sid].items())),
        )
        for sid in sorted(samples)
    )
    return AnnotatedCorpus(
        schema=schema,
        vocab_size=vocab_size,
        message_length=message_length,
        entries=entries,
    )


def _is_int(value) -> bool:
    return type(value) is int  # bool is an int subclass; reject it


def load_corpus(text: str, schema: AttributeSchema) -> AnnotatedCorpus:
    """Parse a corpus document against a validated schema."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise DocumentSyntaxError("corpus document is empty")
    header = _parse_json_line(lines[0], 1)
    meta = header.get("meta")
    if not isinstance(meta, dict) or "vocab_size" not in meta or "msg_len" not in meta:
        raise DocumentSyntaxError(
            "first line must be a header {\"meta\": {\"vocab_size\": n, \"msg_len\": T}}"
        )
    vocab_size, message_length = meta["vocab_size"], meta["msg_len"]
    if not _is_int(vocab_size) or not _is_int(message_length):
        raise DocumentSyntaxError("vocab_size and msg_len must be integers")

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _parse_json_line(line, lineno)
        if "sample" not in obj or "attrs" not in obj or "msg" not in obj:
            raise DocumentSyntaxError(f"line {lineno}: record needs 'sample', 'attrs', 'msg'")
        sample_id = obj["sample"]
        if not isinstance(sample_id, str):
            raise DocumentSyntaxError(f"line {lineno}: 'sample' must be a string")
        msg = obj["msg"]
        if not isinstance(msg, list) or not all(_is_int(t) for t in msg):
            raise DocumentSyntaxError(f"line {lineno}: 'msg' must be a list of integers")
        count = obj.get("count", 1)
        if not _is_int(count):
            raise DocumentSyntaxError(f"line {lineno}: 'count' must be an integer")
        attrs = obj["attrs"]
        if not isinstance(attrs, dict):
            raise DocumentSyntaxError(f"line {lineno}: 'attrs' must be an object")
        records.append((sample_id, attrs, tuple(msg), count))
    return build_corpus(schema, vocab_size, message_length, records)


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {lineno}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"line {lineno}: expected a JSON object")
    return obj


def serialize_corpus(corpus: AnnotatedCorpus) -> str:
    """Canonical corpus document; ``load_corpus(serialize_corpus(c)) == c``."""
    lines = [
        json.dumps(
            {"meta": {"vocab_size": corpus.vocab_size, "msg_len": corpus.message_length}},
            ensure_ascii=False,
        )
    ]
    for entry in corpus.entries:
        attrs = {name: entry.sample.values[name] for name in corpus.schema.attribute_names}
        for message, count in entry.messages:
            lines.append(
                json.dumps(
                    {
                        "sample": entry.sample.id,
                        "attrs": attrs,
                        "msg": list(message),
                        "count": count,
                    },
                    ensure_ascii=False,
                )
            )
    return "\n".join(lines) + "\n"


def filter_by_frequency(corpus: AnnotatedCorpus, threshold: float) -> AnnotatedCorpus:
    """Drop, per sample, messages whose count share falls below ``threshold``.

    A message survives iff ``count / total_count(sample) >= threshold``, so
    threshold 0 is the identity.  Samples are never dropped: a sample left
    without messages (threshold above its maximum share) raises EmptySample.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    entries = []
    for entry in corpus.entries:
        total = entry.total_count()
        kept = tuple(
            (message, count)
            for message, count in entry.messages
            if count / total >= threshold
        )
        if not kept:
            raise EmptySample(
                f"threshold {threshold} drops every message of sample {entry.sample.id!r}"
            )
        entries.append(CorpusEntry(sample=entry.sample, messages=kept))
    return AnnotatedCorpus(
        schema=corpus.schema,
        vocab_size=corpus.vocab_size,
        message_length=corpus.message_length,
        entries=tuple(entries),
    )


def representative_of(entry: CorpusEntry) -> Message:
    """The entry's highest-count message; ties go to the lexicographically
    smallest token sequence (messages are stored in sorted order)."""
    best_message, best_count = entry.messages[0]
    for message, count in entry.messages[1:]:
        if count > best_count:
            best_message, best_count = message, count
    return best_message


def representative_message(corpus: AnnotatedCorpus, sample_id: str) -> Message:
    return representative_of(corpus.entry(sample_id))
