"""Ground-truth language generators.

Each generator is a pure function of its arguments and seed and returns a
corpus in the standard format.  The compositional generator also returns the
exact rule table the detector must recover, built from the codebook's
semantics alone (it never scans the emitted messages), so it can serve as an
oracle for the extraction pipeline.  Every generator draws, a few arrays at
a time, from the counter-based :class:`~emlang.kernels.Stream` of its seed.

The compositional and holistic generators emit one sample per attribute
combination, enumerated once by :func:`combination_codes`; more than
``MAX_COMBINATIONS`` = 2**18 combinations (the product of the domain sizes),
or more than ``MAX_MESSAGE_CELLS`` = 2**25 message cells (combinations times
message length), is a ``CapacityError``, raised before any combination is
built or any token drawn.  Lengths, vocabulary sizes, synonym counts and
seeds are integers, numpy's included and bool not, and the minority share is
a number; anything else is a ``ConfigError``, raised before any other check.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np

from .corpus import (
    AnnotatedCorpus,
    Message,
    check_count_total,
    check_number,
    check_shape,
    config_int,
)
from .errors import CapacityError
from .kernels import Stream, narrowest, run_starts
from .schema import Attribute, AttributeSchema, extend_codes

# Leading positions that every message of a holistic language shares.
HOLISTIC_PREFIX_LENGTH = 2
# Most attribute combinations a generator enumerates; each becomes a sample in
# memory (gen_compositional over 65,536 combinations of 16 two-valued
# attributes peaks at about 85 MB RSS, the interpreter and numpy included).
MAX_COMBINATIONS = 2**18
# Most message cells (combinations times message length) a generator builds:
# gen_compositional's message matrix then holds at most 256 MB of int64.
MAX_MESSAGE_CELLS = 2**25
# Most working cells gen_noisy may take for its synonyms, checked before any is
# built.  A synonym row takes its message length plus 5 cells (its owner,
# count, position, token and sort key), 25 bytes a cell at lengths 1 and 2 and
# 19 at lengths 10 and 100 (ru_maxrss growth per row, 20,000 against 80,000 to
# 1,400,000 rows), so the bound keeps the working memory below about 0.85 GB.
MAX_SYNONYM_CELLS = 2**25


def concept_schema(value_count: int) -> AttributeSchema:
    """Single-attribute schema whose values enumerate standalone concepts.

    Models languages in which every message names one concept: each property
    value then groups exactly one sample.
    """
    width = len(str(value_count - 1)) if value_count > 1 else 1
    values = tuple(f"c{i:0{width}d}" for i in range(value_count))
    return AttributeSchema(attributes=(Attribute(name="concept", domain=values),))


def combination_count(schema: AttributeSchema) -> int:
    """The number of attribute assignments; ``CapacityError`` past ``MAX_COMBINATIONS``."""
    count = math.prod(len(schema.domain(n)) for n in schema.attribute_names)
    if count > MAX_COMBINATIONS:
        raise CapacityError(
            f"{count} attribute combinations exceed the generator bound of {MAX_COMBINATIONS}"
        )
    return count


def _check_cells(count: int, message_length: int) -> None:
    """``CapacityError`` if ``count`` messages of ``message_length`` pass ``MAX_MESSAGE_CELLS``."""
    if count * message_length > MAX_MESSAGE_CELLS:
        raise CapacityError(
            f"{count} combinations x message length {message_length} exceed "
            f"the generator bound of {MAX_MESSAGE_CELLS} message cells"
        )


def combination_codes(schema: AttributeSchema) -> np.ndarray:
    """Every attribute assignment as a row of domain indices, in the
    attribute-major order of ``itertools.product`` over the domains; the count
    is checked against ``MAX_COMBINATIONS`` before any is built."""
    count = combination_count(schema)
    sizes = [len(schema.domain(n)) for n in schema.attribute_names]
    return np.indices(sizes).reshape(len(sizes), count).T


@dataclass(frozen=True)
class Codebook:
    """Sample-to-message map: fixed filler cells plus one cell per attribute.

    Attribute ``a`` writes ``tokens[a][v]`` at ``positions[a]`` for its value
    of code ``v``; the positions are distinct and apart from the fixed cells.
    """

    schema: AttributeSchema
    message_length: int
    fixed: Pattern
    positions: tuple[int, ...] = ()
    tokens: tuple[tuple[int, ...], ...] = ()
    # the same map per value, {attribute: {value: ((position,), (token,))}}; it
    # sets positions and tokens from each encoder's first cell and is not kept
    encoders: InitVar[dict | None] = None

    def __post_init__(self, encoders) -> None:
        if encoders is not None:
            pairs = [[encoders[n][v] for v in self.schema.domain(n)] for n in self.schema.attribute_names]
            object.__setattr__(self, "positions", tuple(p[0][0][0] for p in pairs))
            object.__setattr__(self, "tokens", tuple(tuple(tok[0] for _, tok in p) for p in pairs))

    def encode(self, codes: np.ndarray) -> np.ndarray:
        """The message of each row of attribute codes."""
        messages = np.zeros((len(codes), self.message_length), dtype=np.int64)
        for pos, tok in self.fixed.cells:
            messages[:, pos] = tok
        for column, (pos, tokens) in enumerate(zip(self.positions, self.tokens)):
            messages[:, pos] = np.array(tokens, dtype=np.int64)[codes[:, column]]
        return messages


def _shape_and_seed(message_length, vocab_size, seed) -> tuple[int, int, int]:
    """The three as ints, ConfigError unless each is an integer (numpy's
    included, bool not), then checked as a corpus header is."""
    message_length = config_int(message_length, "message length")
    vocab_size = config_int(vocab_size, "vocabulary size")
    seed = config_int(seed, "seed")
    check_shape(vocab_size, message_length)
    return message_length, vocab_size, seed


def _one_sample_each(schema, vocab_size, message_length, codes, messages) -> AnnotatedCorpus:
    """Sample i, its id i zero-padded to one width, sends ``messages[i]`` once."""
    count, width = len(codes), len(str(len(codes) - 1))
    ids = [str(i).zfill(width) for i in range(count)]
    owners, counts = np.arange(count), np.ones(count, dtype=np.int64)
    return AnnotatedCorpus(schema, vocab_size, message_length, ids, codes, messages, owners, counts)


def gen_compositional(
    schema: AttributeSchema,
    message_length: int,
    vocab_size: int,
    seed: int,
) -> tuple[AnnotatedCorpus, RuleTable]:
    """One dedicated position per attribute, injective token codes.

    Emits one message per attribute combination and the exact rule table the
    detector must find.  When the vocabulary is large enough the value codes
    are drawn disjointly across attributes and kept apart from the filler
    tokens, which makes the Levenshtein distance between any two messages
    equal their attribute edit distance.  The stream draws the positions,
    then the value codes, then the filler tokens by ascending position.
    """
    from .rules import Pattern  # imported here, so gen_noisy loads no rule extraction

    message_length, vocab_size, seed = _shape_and_seed(message_length, vocab_size, seed)
    names = schema.attribute_names
    if message_length < len(names):
        raise CapacityError(
            f"message length {message_length} cannot host {len(names)} attributes"
        )
    max_domain = max(len(schema.domain(n)) for n in names)
    if vocab_size < max_domain + 1:
        raise CapacityError(
            f"vocabulary of {vocab_size} too small for a domain of {max_domain}"
        )
    count = combination_count(schema)
    _check_cells(count, message_length)

    stream = Stream(seed)
    positions = _distinct(stream, message_length, len(names))
    sizes = [len(schema.domain(n)) for n in names]
    if vocab_size >= sum(sizes) + 1:  # every code apart, and a free filler token
        tokens = np.split(_distinct(stream, vocab_size, sum(sizes)), np.cumsum(sizes)[:-1])
        taken = np.sort(np.concatenate(tokens))
    else:
        tokens = [_distinct(stream, vocab_size, size) for size in sizes]
        taken = np.empty(0, dtype=np.int64)
    # filler tokens are uniform over the free tokens (those outside ``taken``);
    # the r-th free token is r plus the number of taken tokens that have at
    # most r free tokens below them
    free = np.ones(message_length, dtype=bool)
    free[positions] = False
    free = np.flatnonzero(free)
    fill = stream.below(vocab_size - len(taken), len(free))
    fill += np.searchsorted(taken - np.arange(len(taken)), fill, side="right")
    fixed = Pattern(tuple(zip(free.tolist(), fill.tolist())))  # free ascends, as cells must
    tokens = tuple(tuple(t.tolist()) for t in tokens)
    codebook = Codebook(schema, message_length, fixed, tuple(positions.tolist()), tokens)
    codes = combination_codes(schema)
    corpus = _one_sample_each(schema, vocab_size, message_length, codes, codebook.encode(codes))
    return corpus, ground_truth_table(codebook)


def _distinct(stream: Stream, total: int, count: int) -> np.ndarray:
    """``count`` distinct uniform draws from 0 .. total - 1, in uniform order:
    a uniform subset, shuffled by sorting one word per member; two words tie,
    and bias the order, with chance below count**2 / 2**65."""
    return stream.subset(total, count)[np.argsort(stream.words(count))]


def ground_truth_table(codebook: Codebook) -> RuleTable:
    """Rule table implied by a single-position-per-attribute codebook.

    Works purely on the codebook's semantics over the full combination
    space: the rule kernel groups the combinations' attribute codes, so a
    group's pattern fixes an attribute's cell exactly when every combination
    in the group shares that attribute's value, and a pattern covers exactly
    the combinations carrying its constrained values (token codes are
    injective, so cell and value constraints coincide).  Attributes with
    one-value domains are globally constant and belong to the skeleton.
    """
    from .rules import Pattern, RuleTable, semantic_rules

    schema = codebook.schema
    codes = extend_codes(schema, combination_codes(schema))  # attributes first
    positions, tokens = codebook.positions, codebook.tokens
    global_cells = dict(codebook.fixed.cells)
    global_cells.update({positions[a]: toks[0] for a, toks in enumerate(tokens) if len(toks) == 1})
    # many-valued attributes' tokens by position, column-major and narrow
    varying = sorted((positions[a], a) for a, toks in enumerate(tokens) if len(toks) > 1)
    narrow = narrowest(max((max(tokens[a]) for _, a in varying), default=0))
    values = np.empty((len(varying), len(codes)), dtype=narrow).T
    for column, (_, a) in enumerate(varying):
        np.take(np.array(tokens[a], dtype=narrow), codes[:, a], out=values[:, column])
    rules = semantic_rules(
        schema, values, np.arange(len(codes)), codes, [pos for pos, _ in varying]
    )
    return RuleTable(
        message_length=codebook.message_length,
        global_constants=Pattern.from_dict(global_cells),
        rules=rules,
    )


def gen_holistic(
    schema: AttributeSchema,
    message_length: int,
    vocab_size: int,
    seed: int,
) -> AnnotatedCorpus:
    """A unique uniformly drawn message per combination, collision-free.

    The first ``HOLISTIC_PREFIX_LENGTH`` positions form a shared prefix; all
    remaining positions are drawn independently with rejection on repeats,
    so no sub-message structure relates similar combinations.  The stream
    draws the prefix, then bodies in rounds of exactly the number missing.
    """
    message_length, vocab_size, seed = _shape_and_seed(message_length, vocab_size, seed)
    count = combination_count(schema)
    variable = message_length - HOLISTIC_PREFIX_LENGTH
    if variable < 1:
        raise CapacityError("need at least one variable position")
    # at least two tokens over at least count.bit_length() positions make more
    # than count messages, so the power is built only when it is small
    if (vocab_size < 2 or variable < count.bit_length()) and vocab_size**variable < count:
        raise CapacityError(f"{vocab_size}^{variable} messages cannot cover {count} combinations")
    _check_cells(count, message_length)
    codes = combination_codes(schema)
    stream = Stream(seed)
    prefix = stream.below(vocab_size, HOLISTIC_PREFIX_LENGTH)
    bodies: dict[Message, None] = {}  # distinct bodies in draw order; a repeat is drawn again
    while len(bodies) < count:
        # one expression, so a round's draws (up to 2**25 tokens) die with their lists
        deficit = count - len(bodies)
        bodies.update(
            dict.fromkeys(map(tuple, stream.below(vocab_size, (deficit, variable)).tolist()))
        )
    messages = np.empty((len(codes), message_length), dtype=np.int64)
    messages[:, :HOLISTIC_PREFIX_LENGTH] = prefix
    messages[:, HOLISTIC_PREFIX_LENGTH:] = list(bodies)
    return _one_sample_each(schema, vocab_size, message_length, codes, messages)


def gen_noisy(
    base: AnnotatedCorpus,
    synonym_count: int,
    minority_share: float,
    seed: int,
) -> AnnotatedCorpus:
    """Add low-frequency synonym messages to every sample.

    Base messages keep their counts; the synonyms' combined count comes as
    close to ``minority_share`` of the enlarged sample total as integer
    counts allow (exact whenever ``share/(1-share) * total`` divides
    evenly), split as evenly as possible across synonyms.  Each synonym is
    one substitution away from the sample's first message in canonical
    order, distinct from everything the sample already holds.
    The synonym count and seed are integers and the share a number, numpy's
    included and bool not, else ConfigError.  More than ``MAX_SYNONYM_CELLS``
    working cells is a ``CapacityError``.
    """
    synonym_count, seed = config_int(synonym_count, "synonym count"), config_int(seed, "seed")
    check_number(minority_share, "minority share")
    if not 0.0 < minority_share < 1.0:
        raise CapacityError(f"minority share must lie in (0, 1), got {minority_share}")
    if synonym_count < 1:
        raise CapacityError("need at least one synonym")
    sample_count, length, vocab_size = len(base.sample_ids), base.message_length, base.vocab_size
    if sample_count and vocab_size < 2:
        raise CapacityError("cannot perturb messages over a one-token vocabulary")
    if sample_count and synonym_count > (vocab_size - 1) * length:
        # a template has (vocab_size - 1) * length neighbours, too few to draw from
        raise CapacityError("could not find a distinct synonym message")
    working = sample_count * synonym_count * (length + 5)
    if working > MAX_SYNONYM_CELLS:
        raise CapacityError(
            f"{sample_count} samples x {synonym_count} synonyms of length {length} need "
            f"{working} working cells, past the bound of {MAX_SYNONYM_CELLS}"
        )
    # the constructor sorts the rows, once the working arrays are gone
    return replace(base, **_noisy_rows(base, synonym_count, minority_share, seed))


def _synonym_cells(base: AnnotatedCorpus, first, synonym_owners, seed: int):
    """``(positions, tokens)``: the one cell where each synonym differs from
    its template, row ``first[owner]`` of ``base``, drawn by rejection until
    no sample holds a message twice."""
    sample_count, length, vocab_size = len(first), base.message_length, base.vocab_size
    templates = base.messages[first]
    # A synonym is a cell (owner, position, token) where it differs from its
    # template.  The only base rows it can equal are those one substitution
    # from their template, so the columns of ``cells`` hold those rows' cells
    # first, then one cell per synonym.
    differs = base.messages != templates[base.owners]
    near = np.flatnonzero(differs.sum(axis=1) == 1)
    near_positions = differs[near].argmax(axis=1)
    cells = np.zeros((3, len(near) + len(synonym_owners)), dtype=np.int64)
    cells[:, : len(near)] = base.owners[near], near_positions, base.messages[near, near_positions]
    cells[0, len(near) :] = synonym_owners

    stream = Stream(seed)
    pending = np.arange(len(near), cells.shape[1])
    drawn = np.zeros(cells.shape[1], dtype=bool)  # True on the columns of pending
    for _ in range(1000):
        owners = cells[0, pending]
        positions = stream.below(length, len(pending))
        tokens = stream.below(vocab_size - 1, len(pending))
        tokens += tokens >= templates[owners, positions]  # skip the template's own token
        cells[1:, pending] = positions, tokens
        # re-check the samples that drew; among equal cells the base rows and
        # the synonyms kept from earlier rounds sort first, then earlier draws
        drew = np.zeros(sample_count, dtype=bool)
        drew[owners] = True
        checked = np.flatnonzero(drew[cells[0]])
        drawn[pending] = True
        order = np.lexsort((drawn[checked], *cells[:, checked]))
        drawn[pending] = False
        repeats = ~run_starts(*cells[:, checked[order]])
        pending = np.sort(checked[order[repeats]])
        if not len(pending):
            return cells[1, len(near) :].copy(), cells[2, len(near) :].copy()
    raise CapacityError("could not find a distinct synonym message")


def _synonym_counts(base: AnnotatedCorpus, synonym_count: int, minority_share) -> np.ndarray:
    """Each synonym's count, samples in order and each sample's synonyms
    after one another: ``max(synonym_count, round(share / (1 - share) *
    total))`` per sample, split as evenly as possible, the larger counts
    first.  A corpus count total of 2**53 or more is refused exactly."""
    ratio = minority_share / (1.0 - minority_share)
    rounded = np.maximum(synonym_count, np.rint(ratio * base.totals))
    # a sample's synonym total can pass 2**63, so the corpus total is
    # checked in Python integers before the totals become int64
    check_count_total(int(base.counts.sum()) + sum(map(int, rounded.tolist())))
    totals = rounded.astype(np.int64)
    per_synonym, leftover = totals // synonym_count, totals % synonym_count
    rank = np.tile(np.arange(synonym_count), len(totals))
    return np.repeat(per_synonym, synonym_count) + (rank < np.repeat(leftover, synonym_count))


def _noisy_rows(base: AnnotatedCorpus, synonym_count: int, minority_share, seed: int) -> dict:
    """The ``messages``, ``owners`` and ``counts`` of the noisy corpus: the
    base rows, then each sample's synonyms, samples in order.  A synonym's
    row is its template's with one token changed, and it differs from every
    message its sample holds, so sorting the rows merges none of them."""
    first = np.searchsorted(base.owners, np.arange(len(base.sample_ids)))  # each template's row
    synonym_owners = np.repeat(np.arange(len(first)), synonym_count)
    positions, tokens = _synonym_cells(base, first, synonym_owners, seed)
    counts = _synonym_counts(base, synonym_count, minority_share)
    rows = len(base.owners)
    source = np.concatenate([np.arange(rows), first[synonym_owners]])
    messages = np.take(base.messages, source, axis=0)  # faster than fancy indexing
    messages[np.arange(rows, len(source)), positions] = tokens
    return {
        "messages": messages,
        "owners": np.concatenate([base.owners, synonym_owners]),
        "counts": np.concatenate([base.counts, counts]),
    }
