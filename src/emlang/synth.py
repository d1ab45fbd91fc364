"""Ground-truth language generators.

Each generator is a pure function of its arguments and seed and returns a
corpus in the standard format.  The compositional generator also returns the
exact rule table the detector must recover, built from the codebook's
semantics alone (it never scans the emitted messages), so it can serve as an
oracle for the extraction pipeline.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .corpus import AnnotatedCorpus, Message, _check_shape, build_corpus
from .errors import CapacityError
from .rules import Pattern, RuleTable, SemanticRule, canonical_evidence, rule_sort_key
from .schema import Attribute, AttributeSchema, Sample, observed_values, parse_schema, property_codes

# Leading positions that every message of a holistic language shares.
HOLISTIC_PREFIX_LENGTH = 2

MOPRD_SCHEMA_DOCUMENT = """\
{
  "attributes": [
    {"name": "shape1", "values": ["□", "○", "■", "●", "×"]},
    {"name": "shape2", "values": ["□", "○", "■", "●", "×"]},
    {"name": "relationship", "values": ["→", "↗", "↑", "↖"]}
  ],
  "hyperattributes": [
    {"name": "fill1", "expr": "shape1 in {■, ●}"},
    {"name": "fill2", "expr": "shape2 in {■, ●}"},
    {"name": "all_fill", "expr": "fill1 and fill2"},
    {"name": "all_empty", "expr": "not fill1 and not fill2"},
    {"name": "aligned", "expr": "relationship in {→, ↑}"}
  ]
}
"""


def moprd_schema() -> AttributeSchema:
    """Two-shapes-plus-relationship schema (5 x 5 x 4 = 100 combinations)."""
    return parse_schema(MOPRD_SCHEMA_DOCUMENT)


def concept_schema(value_count: int) -> AttributeSchema:
    """Single-attribute schema whose values enumerate standalone concepts.

    Models languages in which every message names one concept: each property
    value then groups exactly one sample.
    """
    width = len(str(value_count - 1)) if value_count > 1 else 1
    values = tuple(f"c{i:0{width}d}" for i in range(value_count))
    return AttributeSchema(attributes=(Attribute(name="concept", domain=values),))


def all_combinations(schema: AttributeSchema) -> list[dict[str, str]]:
    """Every attribute assignment, in attribute-major domain order."""
    names = schema.attribute_names
    domains = [schema.domain(n) for n in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*domains)]


def combination_ids(schema: AttributeSchema) -> list[str]:
    count = math.prod(len(schema.domain(n)) for n in schema.attribute_names)
    width = len(str(count - 1)) if count > 1 else 1
    return [f"{i:0{width}d}" for i in range(count)]


@dataclass(frozen=True)
class Codebook:
    """Sample-to-message map: fixed filler cells plus per-attribute encoders.

    ``encoders[attr][value]`` is a (positions, tokens) pair; encoder position
    blocks are pairwise disjoint and disjoint from the fixed cells.
    """

    schema: AttributeSchema
    message_length: int
    fixed: Pattern
    encoders: dict[str, dict[str, tuple[tuple[int, ...], tuple[int, ...]]]]

    __hash__ = None

    def encode(self, values: dict[str, str]) -> Message:
        message = [0] * self.message_length
        for pos, tok in self.fixed.cells:
            message[pos] = tok
        for attr, value in values.items():
            positions, tokens = self.encoders[attr][value]
            for pos, tok in zip(positions, tokens):
                message[pos] = tok
        return tuple(message)


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
    equal their attribute edit distance.
    """
    _check_shape(vocab_size, message_length)
    rng = random.Random(seed)
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

    positions = rng.sample(range(message_length), len(names))
    total_values = sum(len(schema.domain(n)) for n in names)
    disjoint = vocab_size >= total_values + 1

    taken: set[int] = set()  # every code, when codes are disjoint
    encoders: dict[str, dict[str, tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for name, pos in zip(names, positions):
        domain = schema.domain(name)
        codes = _distinct_tokens(rng, vocab_size, len(domain), taken if disjoint else set())
        encoders[name] = {v: ((pos,), (code,)) for v, code in zip(domain, codes)}
    # filler tokens are uniform over the free tokens (those outside ``taken``);
    # the r-th free token is r plus the number of taken tokens that have at
    # most r free tokens below them
    free_below = [token - k for k, token in enumerate(sorted(taken))]
    cells = {}
    for pos in range(message_length):
        if pos not in positions:
            r = rng.randrange(vocab_size - len(taken))
            cells[pos] = r + bisect_right(free_below, r)
    fixed = Pattern.from_dict(cells)
    codebook = Codebook(
        schema=schema, message_length=message_length, fixed=fixed, encoders=encoders
    )

    combos = all_combinations(schema)
    records = [
        (sample_id, combo, codebook.encode(combo), 1)
        for sample_id, combo in zip(combination_ids(schema), combos)
    ]
    corpus = build_corpus(schema, vocab_size, message_length, records)
    return corpus, ground_truth_table(codebook)


def _distinct_tokens(
    rng: random.Random, vocab_size: int, count: int, taken: set[int]
) -> list[int]:
    """``count`` different tokens drawn from [0, vocab_size) outside ``taken``,
    which they join; the vocabulary itself is never built."""
    tokens = []
    while len(tokens) < count:
        token = rng.randrange(vocab_size)
        if token not in taken:
            taken.add(token)
            tokens.append(token)
    return tokens


def ground_truth_table(codebook: Codebook) -> RuleTable:
    """Rule table implied by a single-position-per-attribute codebook.

    Works purely on the codebook's semantics over the full combination
    space: a group's pattern fixes an attribute's cell exactly when every
    combination in the group shares that attribute's value, and a pattern
    covers exactly the combinations carrying its constrained values (token
    codes are injective, so cell and value constraints coincide).
    Attributes with one-value domains are globally constant and belong to
    the skeleton.
    """
    schema = codebook.schema
    combos = zip(combination_ids(schema), all_combinations(schema))
    codes = property_codes(schema, [Sample(*combo) for combo in combos])
    positions, tokens = [], []  # per attribute: its position, the token of each value
    for name in schema.attribute_names:
        encoder = codebook.encoders[name]
        positions.append(encoder[schema.domain(name)[0]][0][0])
        tokens.append([encoder[value][1][0] for value in schema.domain(name)])
    variable = [a for a, toks in enumerate(tokens) if len(toks) > 1]
    global_cells = dict(codebook.fixed.cells)
    global_cells.update({positions[a]: toks[0] for a, toks in enumerate(tokens) if len(toks) == 1})

    covered_and_evidence: dict[Pattern, tuple[np.ndarray, set[tuple[str, str]]]] = {}
    for p, prop in enumerate(schema.property_names):
        for code, value in enumerate(schema.domain(prop)):
            group = codes[codes[:, p] == code]
            if not len(group):
                continue
            shared = [a for a in variable if (group[:, a] == group[0, a]).all()]
            pattern = Pattern.from_dict({positions[a]: tokens[a][group[0, a]] for a in shared})
            covered = (codes[:, shared] == group[0, shared]).all(axis=1)
            covered_and_evidence.setdefault(pattern, (covered, set()))[1].add((prop, value))

    rules = [
        SemanticRule(
            pattern=pattern,
            evidence=canonical_evidence(schema, evidence),
            coverage=tuple(observed_values(schema, codes[covered]).items()),
            support=int(covered.sum()),
        )
        for pattern, (covered, evidence) in covered_and_evidence.items()
    ]
    return RuleTable(
        message_length=codebook.message_length,
        global_constants=Pattern.from_dict(global_cells),
        rules=tuple(sorted(rules, key=rule_sort_key)),
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
    so no sub-message structure relates similar combinations.
    """
    _check_shape(vocab_size, message_length)
    rng = random.Random(seed)
    combos = all_combinations(schema)
    variable = message_length - HOLISTIC_PREFIX_LENGTH
    if variable < 1:
        raise CapacityError("need at least one variable position")
    if vocab_size**variable < len(combos):
        raise CapacityError(
            f"{vocab_size}^{variable} messages cannot cover {len(combos)} combinations"
        )
    prefix = tuple(rng.randrange(vocab_size) for _ in range(HOLISTIC_PREFIX_LENGTH))
    seen: set[Message] = set()
    records = []
    for sample_id, combo in zip(combination_ids(schema), combos):
        while True:
            body = tuple(rng.randrange(vocab_size) for _ in range(variable))
            if body not in seen:
                seen.add(body)
                break
        records.append((sample_id, combo, prefix + body, 1))
    return build_corpus(schema, vocab_size, message_length, records)


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
    order, distinct from everything the sample already holds.  The draws
    come from ``np.random.default_rng(np.random.SeedSequence(seed % 2**63))``.
    """
    if not 0.0 < minority_share < 1.0:
        raise CapacityError(f"minority share must lie in (0, 1), got {minority_share}")
    if synonym_count < 1:
        raise CapacityError("need at least one synonym")
    sample_count, length, vocab_size = len(base.samples), base.message_length, base.vocab_size
    if sample_count and vocab_size < 2:
        raise CapacityError("cannot perturb messages over a one-token vocabulary")
    if sample_count and synonym_count > (vocab_size - 1) * length:
        # a template has (vocab_size - 1) * length neighbours, too few to draw from
        raise CapacityError("could not find a distinct synonym message")
    templates = base.messages[np.searchsorted(base.owners, np.arange(sample_count))]
    # A synonym is a cell (owner, position, token) where it differs from its
    # template.  The only base rows it can equal are those one substitution
    # from their template, so the columns of ``cells`` hold those rows' cells
    # first, then one cell per synonym.
    differs = base.messages != templates[base.owners]
    near = np.flatnonzero(differs.sum(axis=1) == 1)
    near_positions = differs[near].argmax(axis=1)
    synonym_owners = np.repeat(np.arange(sample_count), synonym_count)
    cells = np.zeros((3, len(near) + len(synonym_owners)), dtype=np.int64)
    cells[:, : len(near)] = base.owners[near], near_positions, base.messages[near, near_positions]
    cells[0, len(near) :] = synonym_owners

    rng = np.random.default_rng(np.random.SeedSequence(seed % 2**63))
    pending = np.arange(len(near), cells.shape[1])
    for _ in range(1000):
        owners = cells[0, pending]
        positions = rng.integers(length, size=len(pending))
        tokens = rng.integers(vocab_size - 1, size=len(pending))
        tokens += tokens >= templates[owners, positions]  # skip the template's own token
        cells[1:, pending] = positions, tokens
        # re-check the samples that drew; among equal cells the base rows and
        # the synonyms kept from earlier rounds sort first, then earlier draws
        drew = np.zeros(sample_count, dtype=bool)
        drew[owners] = True
        checked = np.flatnonzero(drew[cells[0]])
        order = np.lexsort((np.isin(checked, pending), *cells[:, checked]))
        ranked = cells[:, checked[order]]
        repeats = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
        pending = np.sort(checked[order[1:][repeats]])
        if not len(pending):
            break
    else:
        raise CapacityError("could not find a distinct synonym message")
    synonyms = templates[synonym_owners]
    synonyms[np.arange(len(synonym_owners)), cells[1, len(near) :]] = cells[2, len(near) :]

    ratio = minority_share / (1.0 - minority_share)
    rounded = np.maximum(synonym_count, np.rint(ratio * base.totals))
    # Python integers: a sample's synonym total can pass 2**63 before the
    # constructor rejects the corpus total, which its error then states exactly
    synonym_totals = np.frompyfunc(int, 1, 1)(rounded)
    per_synonym, leftover = synonym_totals // synonym_count, synonym_totals % synonym_count
    rank = np.tile(np.arange(synonym_count), sample_count)
    counts = per_synonym[synonym_owners] + (rank < leftover[synonym_owners])
    # the constructor sorts the appended rows into place
    return replace(
        base,
        messages=np.concatenate([base.messages, synonyms]),
        owners=np.concatenate([base.owners, synonym_owners]),
        counts=np.concatenate([base.counts, counts]),
    )
