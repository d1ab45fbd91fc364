"""Annotated message corpora: loading, validation, frequency filtering.

A corpus ties fixed-length token messages to annotated samples.  The file
format is line-oriented JSON (UTF-8, LF): a header line
``{"meta": {"vocab_size": n, "msg_len": T}}`` followed by one record per
line, ``{"sample": id, "attrs": {...}, "msg": [ints], "count": k}`` with
``count`` defaulting to 1.  Sample ids are strings without lone
surrogates (UTF-8 cannot encode them); a lone surrogate elsewhere is no
syntax error, so it loads in a field the reader ignores and is an
AttributeMismatch in ``attrs``.  ``vocab_size`` is at most 2**63,
``msg_len`` at most ``MAX_MESSAGE_LENGTH`` = 2**16, and the counts of a
corpus sum to less than 2**53.  Records repeating the same
(sample, message) merge by summing counts.

:func:`load_corpus` has two readers with one result.  A document whose
record lines all hold the spelling :func:`serialize_corpus` writes, as
``json.dumps`` does (the keys in that order, ``", "`` and ``": "``
separators, strings without escapes or control characters, integers of at
most 18 digits without sign or leading zero), is read by one regular
expression over the whole text, provided no sample id comes with two attrs
spellings.  Any other document is read one JSON value per line, each
line's error worded in the pass that reads it.  Both give the same corpus,
or the same error class, message and line.

In memory a corpus is columnar, its attributes dictionary-encoded: sorted
``sample_ids``, their ``attribute_codes`` (domain indices), and rows, row r
of ``messages`` being a message that sample ``owners[r]`` sent ``counts[r]``
times.  Every corpus is immutable and canonical, one row per distinct
(sample, message), sorted by sample and tokens: every construction checks
its codes, ids and rows and sorts them, so ``dataclasses.replace`` re-sorts.
Construction is the only code that sorts and merges rows, so readers and
generators hand it theirs in any order: every row set is sorted by one
lexsort of owners and packed token keys (:func:`emlang.kernels.token_keys`),
then gathered once per array.
Attribute dicts are coded, and checked, only where records become a corpus,
by :func:`~emlang.schema.code_attributes`; every stage of the pipeline reads
the codes, and ``schema.domain`` spells a code back as its value.  The
header, integer and count checks are public, as the generators, the game
and the renderers share them.

:func:`serialize_corpus` writes each record as ``json.dumps(record,
ensure_ascii=False)`` would, without Python work per row or per token.  Its
text holds no raw NUL, because JSON escapes U+0000 as ``\\u0000``, and it
passes a lone surrogate in the names or values of a Python-built schema
through unchanged, as ``json.dumps`` does.  :func:`serialize_blocks` gives
that text as blocks of whole lines, each made when it is asked for, so a
writer that takes the blocks as they come never holds the whole document;
``serialize_corpus`` is their join.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring  # what json.dumps(..., ensure_ascii=False) calls

import numpy as np

from .errors import (
    AttributeMismatch,
    ConfigError,
    DocumentSyntaxError,
    EmptySample,
    LengthMismatch,
    TokenOutOfRange,
    has_lone_surrogate,
)
from .kernels import run_starts, token_keys
from .schema import AttributeSchema, code_attributes, extend_codes

Message = tuple[int, ...]

# Below this corpus-wide count total, int64 sums and float64 shares of counts
# equal their exact Python values.
COUNT_LIMIT = 2**53
# Up to this vocabulary size every token fits an int64.
VOCAB_LIMIT = 2**63
# Longest message a corpus may hold.  Rule tables share the bound, because
# their markdown and CSV renderings hold one column per position.
MAX_MESSAGE_LENGTH = 2**16
# serialize_corpus assembles at most this many rows at once, in a byte matrix
# of at most _SERIALIZE_BYTES unless a single row is wider.  Small blocks keep
# its temporaries small: on the synth-noisy benchmark, 512-row blocks run as
# fast as 4096-row ones, and the peak RSS stays steady instead of rising by
# about 4 MB in some runs.
_SERIALIZE_BLOCK = 512
_SERIALIZE_BYTES = 2**20
# Up to this maximum, serialize_corpus indexes its digit tables by value.
_DIRECT_DIGITS = 2**16


@dataclass(frozen=True, eq=False)
class AnnotatedCorpus:
    """Sorted sample ids, their attribute codes, and one row per (sample,
    message) with its count.

    Row k of ``attribute_codes`` holds the domain index of each attribute of
    sample k, and ``codes`` adds the hyperattribute columns.  Row r says that
    sample ``owners[r]`` sent ``messages[r]`` ``counts[r]`` times.
    Construction checks the attribute codes, the header, the ids and the
    rows, in that order, then sorts samples by id (renumbering ``owners``)
    and rows by owner and tokens, merging repeated rows: as int64 arrays
    when all rows are valid, else in Python integers by the one check that
    words a row error.  A header number, token or count that is not an
    integer is refused, not cast; a numpy integer header number is stored
    as an int.  Arrays are stored fresh and read-only.
    """

    schema: AttributeSchema
    vocab_size: int
    message_length: int
    sample_ids: tuple[str, ...]
    attribute_codes: np.ndarray
    messages: np.ndarray
    owners: np.ndarray
    counts: np.ndarray
    codes: np.ndarray = field(init=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        ids = tuple(self.sample_ids)
        attribute_codes = _checked_codes(self.schema, ids, self.attribute_codes)
        vocab_size, message_length = check_shape(self.vocab_size, self.message_length)
        try:
            joined = "".join(ids)
        except TypeError:
            bad = next(i for i in ids if not isinstance(i, str))
            raise DocumentSyntaxError(f"sample id {bad!r} is not a string") from None
        ids, given = tuple(sorted(ids)), ids
        by_id = None if ids == given else sorted(range(len(ids)), key=given.__getitem__)
        if len(set(ids)) != len(ids):
            repeated = next(after for before, after in zip(ids, ids[1:]) if before == after)
            raise DocumentSyntaxError(f"duplicate sample id {repeated!r}")
        if has_lone_surrogate(joined):
            bad = next(i for i in ids if has_lone_surrogate(i))
            raise DocumentSyntaxError(f"sample id {bad!r} holds a lone surrogate")
        _check_integers((self.owners, "owner"))
        try:
            owners = np.asarray(self.owners, dtype=np.int64)
        except OverflowError:  # an owner past int64: kept as an int, refused by the bounds check
            owners = np.asarray(self.owners, dtype=object)
        try:
            one_per_row = owners.shape == np.shape(self.counts) == (len(self.messages),)
        except ValueError:  # ragged counts
            one_per_row = False
        if not one_per_row:
            raise DocumentSyntaxError("messages, owners and counts need one entry per row")
        if len(owners) and not 0 <= owners.min() <= owners.max() < len(ids):
            raise DocumentSyntaxError("a message owner lies outside the samples")
        if by_id is not None:
            rank = np.empty(len(ids), dtype=np.int64)
            rank[by_id] = np.arange(len(ids))
            owners, attribute_codes = rank[owners], attribute_codes[by_id]
        empty = np.flatnonzero(np.bincount(owners, minlength=len(ids)) == 0)
        if len(empty):
            raise DocumentSyntaxError(f"sample {ids[empty[0]]!r} owns no messages")
        _check_integers((self.messages, "token"), (self.counts, "count"))
        rows = _int64_rows(owners, self.messages, self.counts, vocab_size, message_length)
        if rows is None:
            rows = _exact_rows(ids, vocab_size, message_length, owners, self.messages, self.counts)
        codes = extend_codes(self.schema, attribute_codes)
        object.__setattr__(self, "vocab_size", vocab_size)
        object.__setattr__(self, "message_length", message_length)
        object.__setattr__(self, "sample_ids", ids)
        arrays = (codes, codes[:, : len(self.schema.attributes)], *rows)
        for name, array in zip(("codes", "attribute_codes", "messages", "owners", "counts"), arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, AnnotatedCorpus):
            return NotImplemented
        return (
            (self.schema, self.vocab_size, self.message_length, self.sample_ids)
            == (other.schema, other.vocab_size, other.message_length, other.sample_ids)
            and np.array_equal(self.attribute_codes, other.attribute_codes)
            and np.array_equal(self.messages, other.messages)
            and np.array_equal(self.owners, other.owners)
            and np.array_equal(self.counts, other.counts)
        )

    @cached_property
    def totals(self) -> np.ndarray:
        """Count total of each sample."""
        # every partial sum stays below 2**53, so the float accumulation is exact
        weighted = np.bincount(self.owners, weights=self.counts, minlength=len(self.sample_ids))
        return weighted.astype(np.int64)


def _checked_codes(schema: AttributeSchema, ids: tuple, attribute_codes) -> np.ndarray:
    """The codes, integers with a row per id and a column per attribute, each
    inside its domain; else AttributeMismatch, naming the first bad sample."""
    names = schema.attribute_names
    try:
        codes = np.asarray(attribute_codes)
    except (ValueError, TypeError):  # ragged rows, for one
        codes = np.asarray(None)
    shape = (len(ids), len(names))
    if codes.dtype.kind not in "iu" or codes.shape != shape:  # no bool, float or object codes
        raise AttributeMismatch(f"attribute codes must be integers of shape {shape}")
    outside = (codes < 0) | (codes >= [len(schema.domain(name)) for name in names])
    if outside.any():
        row, column = np.argwhere(outside)[0]
        code, name = codes[row, column], names[column]
        raise AttributeMismatch(f"sample {ids[row]!r}: code {code} outside the domain of {name!r}")
    return codes


def _check_integers(*named) -> None:
    """DocumentSyntaxError for an entry that is not an integer, such as a
    float or a bool, which a cast to int64 would truncate; ``named`` holds
    (entries, what) pairs, and the entries of a "token" pair are rows.  An
    integer array is not read; the entries of anything else are, by type."""
    for entries, what in named:
        if isinstance(entries, np.ndarray) and entries.dtype.kind in "iu":
            continue
        if not np.iterable(entries):  # one entry: the shape check refuses it if an integer
            entries = (entries,)
        if what == "token":
            try:
                entries = list(chain.from_iterable(entries))
            except TypeError:  # not rows of tokens: the shape check words it
                continue
        bad = [t for t in set(map(type, entries)) if t is not int and not issubclass(t, np.integer)]
        if bad:
            value = next(value for value in entries if type(value) in bad)
            raise DocumentSyntaxError(f"message {what} {value!r} is not an integer")


def config_int(value, name: str) -> int:
    """``value`` as an int; ConfigError unless it is an int or a numpy
    integer (a bool is neither)."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_number(value, name: str) -> None:
    """ConfigError unless ``value`` is an int or a float, numpy's included
    (a bool is neither)."""
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def check_shape(vocab_size, message_length) -> tuple[int, int]:
    """A corpus header as ints; DocumentSyntaxError unless both are integers,
    numpy's included and bool not, inside their bounds."""
    if not all(type(n) is int or isinstance(n, np.integer) for n in (vocab_size, message_length)):
        raise DocumentSyntaxError("vocab_size and msg_len must be integers")
    vocab_size, message_length = int(vocab_size), int(message_length)
    if not 1 <= message_length <= MAX_MESSAGE_LENGTH:
        raise DocumentSyntaxError(f"message length must lie in 1..{MAX_MESSAGE_LENGTH}")
    if not 1 <= vocab_size <= VOCAB_LIMIT:
        raise DocumentSyntaxError("vocabulary size must lie in 1..2**63")
    return vocab_size, message_length


def build_corpus(
    schema: AttributeSchema,
    vocab_size: int,
    message_length: int,
    records: list[tuple[str, dict[str, str], Message, int]],
) -> AnnotatedCorpus:
    """Assemble a corpus from (sample_id, attrs, message, count) records.

    Duplicate (sample, message) records merge by summing counts; a sample id
    reappearing with different attributes is an AttributeMismatch.  Errors
    come in the order of a record-by-record build: attributes in record
    order, then the header, then rows in canonical order.
    """
    ids, attrs, msgs, counts = list(zip(*records)) or [(), (), (), ()]
    first: dict[str, int] = {}  # sample id -> index into values, its first attribute dict
    values, owners = [], []
    for sample_id, assigned in zip(ids, attrs):
        try:
            k = first.setdefault(sample_id, len(first))
        except TypeError:  # unhashable, such as a JSON list; attributes up to here come first
            code_attributes(schema, [*first, sample_id], [*values, assigned])
            raise DocumentSyntaxError(f"sample id {sample_id!r} is not a string") from None
        if k == len(values):
            values.append(assigned)
        elif values[k] != assigned:  # an earlier non-conforming sample comes first
            code_attributes(schema, list(first), values)
            conflict = f"sample {sample_id!r} annotated with conflicting attribute values"
            raise AttributeMismatch(conflict)
        owners.append(k)
    codes = code_attributes(schema, list(first), values)
    return AnnotatedCorpus(schema, vocab_size, message_length, first, codes, msgs, owners, counts)


def _int64_rows(owners, msgs, counts, vocab_size, message_length):
    """The rows as fresh int64 arrays sorted by owner, then tokens, repeated
    (owner, message) rows merged, when every row is valid as given: each
    message of ``message_length`` tokens in [0, vocab_size), each count at
    least 1, and the counts summing below COUNT_LIMIT.  None for anything
    else, which :func:`_exact_rows` merges and reports on.

    The rows, canonical or not, are lexsorted by owner and packed token
    keys; the runs of equal rows start where the sorted owners or a sorted
    key change, and each array is gathered once, at the run starts, with the
    counts summed over each run.  On canonical rows the order is the
    identity."""
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
    keys = token_keys(messages, vocab_size)
    order = np.lexsort((*keys[::-1], owners))
    # a row starts a run of equal (owner, message) rows where its owner or a key changes
    starts = np.flatnonzero(run_starts(owners[order], *(key[order] for key in keys)))
    del keys  # the gathers below need the memory
    counts = np.add.reduceat(counts[order], starts)
    first = order[starts]
    return np.take(messages, first, axis=0), owners[first], counts


def _exact_rows(sample_ids, vocab_size, message_length, owners, msgs, counts):
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
        sample_id = sample_ids[owner]
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
    check_count_total(total)
    messages = np.array([message for (_, message), _ in rows], dtype=np.int64)
    return (
        messages.reshape(len(rows), message_length),
        np.array([owner for (owner, _), _ in rows], dtype=np.int64),
        np.array([count for _, count in rows], dtype=np.int64),
    )


def check_count_total(total: int) -> None:
    """DocumentSyntaxError when a corpus's exact count total reaches COUNT_LIMIT."""
    if total >= COUNT_LIMIT:
        raise DocumentSyntaxError(f"message counts sum to {total}, at least 2**53")


def is_int(value) -> bool:
    return type(value) is int  # bool is an int subclass; reject it


def load_corpus(text: str, schema: AttributeSchema) -> AnnotatedCorpus:
    """Parse a corpus document against a validated schema.

    Line numbers count non-blank lines.  Errors come in the order of a
    line-by-line reader: record syntax in line order, then attributes in
    record order, then content (header bounds, rows in canonical order).
    Records in the spelling :func:`serialize_corpus` writes are read in one
    regular-expression pass (:func:`_lex_records`); any other document is
    read one JSON value per line (:func:`_scan_records`).  Both give the
    same corpus or the same error.
    """
    lines = _lines(text)
    if not lines:
        raise DocumentSyntaxError("corpus document is empty")
    header, records = _parse_json_line(lines[0], 1), len(lines) - 1
    del lines  # the lexer reads the text; its columns need the memory
    if not isinstance(header, dict):
        raise DocumentSyntaxError("line 1: expected a JSON object")
    meta = header.get("meta")
    if not isinstance(meta, dict) or "vocab_size" not in meta or "msg_len" not in meta:
        raise DocumentSyntaxError(
            "first line must be a header {\"meta\": {\"vocab_size\": n, \"msg_len\": T}}"
        )
    vocab_size, message_length = meta["vocab_size"], meta["msg_len"]
    if not is_int(vocab_size) or not is_int(message_length):
        raise DocumentSyntaxError("vocab_size and msg_len must be integers")
    lexed = _lex_records(text, records, schema, message_length)
    if lexed is not None:
        return AnnotatedCorpus(schema, vocab_size, message_length, *lexed)
    return build_corpus(schema, vocab_size, message_length, _scan_records(_lines(text)[1:]))


def _lines(text: str) -> list[str]:
    """The non-blank lines of a corpus document, which line numbers count."""
    return [line for line in text.split("\n") if line.strip()]


# The text between the quotes of a JSON string without escapes or control
# characters, which is the string's value; and a JSON number written as
# serialize_corpus writes it, without sign, fraction or exponent, in at most
# 18 digits so that it fits int64.
_PLAIN_TEXT = r'[^"\\\x00-\x1f]*'
_PLAIN_NUMBER = r"(?:0|[1-9][0-9]{0,17})"
_PLAIN_PAIR = f'"{_PLAIN_TEXT}": "{_PLAIN_TEXT}"'


def _record_pattern(message_length: int) -> re.Pattern:
    """A whole line holding one record as serialize_corpus spells it, with
    ``message_length`` tokens; the groups are the sample id without its
    quotes, the attrs object, the tokens and the count."""
    return re.compile(
        rf'^\{{"sample": "({_PLAIN_TEXT})", '
        rf'"attrs": (\{{(?:{_PLAIN_PAIR}(?:, {_PLAIN_PAIR})*)?\}}), '
        rf'"msg": \[({_PLAIN_NUMBER}(?:, {_PLAIN_NUMBER}){{{message_length - 1}}})\], '
        rf'"count": ({_PLAIN_NUMBER})\}}$',
        re.MULTILINE,
    )


def _lex_records(text: str, records: int, schema: AttributeSchema, message_length):
    """``(sample_ids, attribute_codes, messages, owners, counts)`` of the
    ``records`` record lines of ``text`` when every one of them is spelt as
    serialize_corpus spells it and no sample id comes with two attrs
    spellings; else None.

    A match is one whole line and no header or blank line matches, so as
    many matches as record lines means that every record line matched.
    Each matched line is a JSON object whose values are the groups' plain
    texts, so the columns, their codes and errors equal the per-line reader's.
    """
    if not records or not 1 <= message_length <= MAX_MESSAGE_LENGTH:
        return None
    found = _record_pattern(message_length).findall(text)
    if len(found) != records:
        return None
    ids, attrs, msgs, counts = zip(*found)
    del found
    spellings = dict.fromkeys(zip(ids, attrs))  # distinct (id, attrs text), first seen first
    index = {sample_id: k for k, (sample_id, _) in enumerate(spellings)}
    if len(index) != len(spellings):  # an id with two attrs spellings: the scan words it
        return None
    # each attrs text is one whole JSON object, so the joined texts are one JSON array
    values = json.loads("[" + ", ".join(spelling for _, spelling in spellings) + "]")
    codes = code_attributes(schema, list(index), values)
    owners = np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=records)
    messages = np.fromstring(", ".join(msgs), dtype=np.int64, sep=",")
    counts = np.fromstring(" ".join(counts), dtype=np.int64, sep=" ")
    return tuple(index), codes, messages.reshape(records, message_length), owners, counts


def _scan_records(lines: list[str]) -> list[tuple[str, dict, list[int], int]]:
    """The ``(sample, attrs, msg, count)`` record of each record line, one
    JSON value per line, lines numbered from 2; the first bad line raises.

    Each line is checked as it is read: its JSON, then that it is an object
    holding 'sample', 'attrs' and 'msg', then the types of the sample, the
    tokens, the count and the attrs, in that order."""
    scan, ints = json.JSONDecoder().scan_once, frozenset({int})
    records = []
    for lineno, line in enumerate(lines, start=2):
        stripped = line.strip(" \t\r")  # JSON whitespace; lines hold no newline
        try:
            record, end = scan(stripped, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(stripped):  # not one JSON value: json.loads words the error
            record = _parse_json_line(line, lineno)
        if type(record) is not dict:
            raise DocumentSyntaxError(f"line {lineno}: expected a JSON object")
        if "sample" not in record or "attrs" not in record or "msg" not in record:
            raise DocumentSyntaxError(f"line {lineno}: record needs 'sample', 'attrs', 'msg'")
        sample, attrs, msg = record["sample"], record["attrs"], record["msg"]
        count = record.get("count", 1)
        if type(sample) is not str:
            raise DocumentSyntaxError(f"line {lineno}: 'sample' must be a string")
        if type(msg) is not list or not ints.issuperset(map(type, msg)):
            raise DocumentSyntaxError(f"line {lineno}: 'msg' must be a list of integers")
        if type(count) is not int:
            raise DocumentSyntaxError(f"line {lineno}: 'count' must be an integer")
        if type(attrs) is not dict:
            raise DocumentSyntaxError(f"line {lineno}: 'attrs' must be an object")
        records.append((sample, attrs, msg, count))  # only the fields stay alive
    return records


def _parse_json_line(line: str, lineno: int):
    """The JSON value of one line, or its decoder error, whose columns count
    the line's leading whitespace.  Unlike :func:`~emlang.errors.parse_json`,
    this takes a lone surrogate, as ``scan_once`` does: only a sample id or
    an attribute holding one is rejected, by the content checks."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DocumentSyntaxError(f"line {lineno}: invalid JSON ({exc})") from None


def serialize_corpus(corpus: AnnotatedCorpus) -> str:
    """Canonical corpus document; ``load_corpus(serialize_corpus(c)) == c``.

    Each record line is the ``json.dumps(..., ensure_ascii=False)`` text of
    ``{"sample", "attrs", "msg", "count"}``, attributes in schema order.  The
    text holds no raw NUL, since JSON writes U+0000 as ``\\u0000``, and a lone
    surrogate in the names or values of a Python-built schema passes through
    unchanged.  It is the join of :func:`serialize_blocks`.
    """
    return "".join(serialize_blocks(corpus))


def serialize_blocks(corpus: AnnotatedCorpus) -> Iterator[str]:
    """The text of :func:`serialize_corpus` in blocks of whole lines: the
    header line, then the records of one row block after another.  Each
    block is assembled as a byte matrix when it is asked for, with no Python
    work per row or per token, so a writer that takes the blocks as they
    come never holds the whole document."""
    header = json.dumps(
        {"meta": {"vocab_size": corpus.vocab_size, "msg_len": corpus.message_length}},
        ensure_ascii=False,
    )
    yield header + "\n"
    prefixes = _record_prefixes(corpus)
    token_index, token_table = _digit_table(corpus.messages, b", ")
    count_index, count_table = _digit_table(corpus.counts, b"}\n")
    middle = np.frombuffer(b'], "count": ', dtype=np.uint8)
    # the padded width of a row after its prefix
    tail = corpus.message_length * token_table.shape[1] - 2 + len(middle) + count_table.shape[1]
    lengths = np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes))
    for start, stop in _blocks(lengths[corpus.owners] + tail):
        owners = corpus.owners[start:stop]
        first = owners[0]  # rows are sorted by owner
        # the prefixes of this block's samples only, NUL-padded to the
        # longest, so that one long sample id widens no other block
        table = np.array(prefixes[first : owners[-1] + 1], dtype=bytes)
        table = table.view(np.uint8).reshape(len(table), -1)
        # np.take gathers whole rows much faster than fancy indexing does
        tokens = np.take(token_table, token_index[start:stop], axis=0).reshape(stop - start, -1)
        rows = np.concatenate(
            [
                np.take(table, owners - first, axis=0),
                tokens[:, :-2],  # the last token is followed by '], "count": ', not ', '
                np.broadcast_to(middle, (stop - start, len(middle))),
                np.take(count_table, count_index[start:stop], axis=0),
            ],
            axis=1,
        )
        # JSON escapes U+0000 as \u0000, so every NUL byte is padding
        yield rows[rows != 0].tobytes().decode("utf-8", "surrogatepass")


def _record_prefixes(corpus: AnnotatedCorpus) -> list[bytes]:
    """Each sample's record text up to its first token, '{"sample": ..., "msg": [',
    in UTF-8; ``surrogatepass`` keeps a lone surrogate of a Python-built schema."""
    names = corpus.schema.attribute_names
    entries = []  # each attribute's '"name": "value"' texts, by domain index
    for name in names:
        key = encode_basestring(name)
        values = map(encode_basestring, corpus.schema.domain(name))
        entries.append([f"{key}: {value}" for value in values])
    prefix = '{"sample": %s, "attrs": {%s}, "msg": ['
    return [  # map(list.__getitem__, ...) picks entries[i][codes[i]] for each attribute i
        (prefix % (encode_basestring(sample_id), ", ".join(map(list.__getitem__, entries, codes))))
        .encode("utf-8", "surrogatepass")
        for sample_id, codes in zip(corpus.sample_ids, corpus.attribute_codes.tolist())
    ]


def _digit_table(values: np.ndarray, suffix: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(index, table)`` such that ``table[index]`` is, for each of the
    non-negative ``values``, its decimal digits NUL-padded on the left and
    followed by ``suffix``, as uint8 rows.  The table covers ``0..max``
    when the maximum is small, else only the distinct values."""
    top = int(values.max(initial=0))
    if top <= _DIRECT_DIGITS:
        distinct, index = np.arange(top + 1), values
    else:
        distinct, index = np.unique(values, return_inverse=True)
        index = index.reshape(values.shape)
    width = len(str(top))
    table = np.empty((len(distinct), width + len(suffix)), dtype=np.uint8)
    table[:, width:] = np.frombuffer(suffix, dtype=np.uint8)
    # one digit position at a time, so that no int64 temporary has width columns
    for column in range(width):
        power = 10 ** (width - 1 - column)
        digits = distinct // power
        digits %= 10
        digits += ord("0")
        if column < width - 1:  # 0 keeps its one digit
            digits[distinct < power] = 0  # a leading zero
        table[:, column] = digits
    return index, table


def _blocks(widths: np.ndarray):
    """``(start, stop)`` row ranges of at most ``_SERIALIZE_BLOCK`` rows whose
    padded matrix, rows times the widest of their ``widths``, fits in
    ``_SERIALIZE_BYTES``; a row too wide for that makes a block of its own."""
    start = 0
    while start < len(widths):
        widest = np.maximum.accumulate(widths[start : start + _SERIALIZE_BLOCK])
        fits = widest * np.arange(1, len(widest) + 1) <= _SERIALIZE_BYTES  # True, then False
        stop = start + max(1, int(np.count_nonzero(fits)))
        yield start, stop
        start = stop


def filter_by_frequency(corpus: AnnotatedCorpus, threshold: float) -> AnnotatedCorpus:
    """Drop, per sample, messages whose count share falls below ``threshold``.

    A message survives iff ``count / totals[sample] >= threshold``, so
    threshold 0 is the identity.  Samples are never dropped: a sample left
    without messages (threshold above its maximum share) raises EmptySample.
    """
    check_number(threshold, "threshold")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    # counts and totals lie below 2**53, so the float division is the exact share rounded once
    kept = corpus.counts / corpus.totals[corpus.owners] >= threshold
    ids = corpus.sample_ids
    emptied = np.flatnonzero(np.bincount(corpus.owners[kept], minlength=len(ids)) == 0)
    if len(emptied):
        sample_id = ids[emptied[0]]
        raise EmptySample(f"threshold {threshold} drops every message of sample {sample_id!r}")
    return replace(
        corpus,
        messages=corpus.messages[kept],
        owners=corpus.owners[kept],
        counts=corpus.counts[kept],
    )
