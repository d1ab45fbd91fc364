"""Golden digests of the generators.

Each compositional or holistic digest covers every (seed, message length,
vocabulary) case of one generator on one schema: the serialized corpus and
the structured rule table of each case that succeeds, and the error class and
text of each that fails.  They were computed when the generators first drew
from the counter-based stream, so any change to a generated corpus, truth
table or error text shows here.  Each noisy digest covers every (seed,
synonym count, share) case of ``gen_noisy`` on one base corpus, so a change
to its random stream shows too; the moprd base is compositional, so its
digest was computed with the others.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from emlang.corpus import build_corpus, serialize_corpus
from emlang.errors import EmlangError
from emlang.report import render_rule_table
from emlang.schema import (
    Attribute,
    AttributeSchema,
    HyperattributeDef,
    ValueMap,
    moprd_schema,
    parse_expression,
)
from emlang.synth import (
    combination_codes,
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
)

SCHEMAS = {
    "moprd": moprd_schema,
    "concept300": lambda: concept_schema(300),
    "binary10": lambda: AttributeSchema(
        attributes=tuple(Attribute(name=f"b{i}", domain=("0", "1")) for i in range(10))
    ),
    # one-value domains are globally constant; the hyperattributes read them
    "singletons": lambda: AttributeSchema(
        attributes=(
            Attribute(name="a", domain=("x",)),
            Attribute(name="b", domain=("p", "q", "r")),
            Attribute(name="c", domain=("only",)),
            Attribute(name="d", domain=("0", "1")),
        ),
        hyperattributes=(
            HyperattributeDef(name="pq", body=ValueMap("b", (("p", "y"), ("q", "y"), ("r", "n")))),
            HyperattributeDef(name="ad", body=parse_expression("a == x and d == 1")),
        ),
    ),
}
SEEDS = (0, 1, -3, 12345, 2**70)
# (message length, vocabulary): a vocabulary of 8 or 4 cannot keep every
# value code apart, 2**63 is the largest, and length 3 is too short for most
SHAPES = ((10, 20), (12, 700), (7, 2**63), (9, 8), (11, 4), (3, 20))

GOLDEN = {
    ("compositional", "moprd"):
        "328cf631e3250451af997ca034836df444ae8cf31d7e77d5393013da59a33be9",
    ("compositional", "concept300"):
        "8cd98d408ae1f692ccd28604e302b1110f09e6aaa31e8985547f8dd193967227",
    ("compositional", "binary10"):
        "2e3c5ced374bcaa48d4d2e0d44f2250c887bc88dabfe806b568caa74630df3e5",
    ("compositional", "singletons"):
        "6ef67d626d60b61184a43f9425c7a7df67c1df5c419e6ba42aad6273f6ebac5b",
    ("holistic", "moprd"):
        "7b3421fa388ed3a75a5d8f65586b2ed3a77108b7edf130040724ca0d2d3465a0",
    ("holistic", "concept300"):
        "5da1137dc5785a514986bd2e381f8d39f39382a8eb6516265d8beceb4cb31112",
    ("holistic", "binary10"):
        "e5fa1c816e6d21ef8fc1d0faae90589438e2a09f1654c3f8079753fccbe7ba8c",
    ("holistic", "singletons"):
        "f5df762af9fb85593e7d695d6391ddc178e11b49ebb0b766cd63ec001ec846c5",
}


def generated_text(kind: str, schema: AttributeSchema, seed: int, length: int, vocab: int) -> str:
    try:
        if kind == "compositional":
            corpus, truth = gen_compositional(schema, length, vocab, seed)
            return serialize_corpus(corpus) + render_rule_table(truth, "structured")
        return serialize_corpus(gen_holistic(schema, length, vocab, seed))
    except EmlangError as error:
        return f"{type(error).__name__}: {error}\n"


@pytest.mark.parametrize(("kind", "name"), GOLDEN.keys(), ids=map("-".join, GOLDEN.keys()))
def test_generators_golden(kind, name):
    schema = SCHEMAS[name]()
    digest = hashlib.sha256()
    for seed, (length, vocab) in itertools.product(SEEDS, SHAPES):
        digest.update(f"{seed} {length} {vocab}\n".encode())
        digest.update(generated_text(kind, schema, seed, length, vocab).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN[kind, name]


@pytest.mark.parametrize("name", SCHEMAS)
def test_all_combinations_is_the_attribute_product(name):
    """``combination_codes`` enumerates every attribute combination once, as
    the domain indices of ``itertools.product`` over the domains, in its order."""
    schema = SCHEMAS[name]()
    indices = [range(len(schema.domain(n))) for n in schema.attribute_names]
    assert combination_codes(schema).tolist() == list(map(list, itertools.product(*indices)))


def _noisy_base(rows, length: int, vocab: int):
    """A corpus over one attribute whose sample k sends the (message, count)
    pairs of ``rows[k]``."""
    schema = AttributeSchema(attributes=(Attribute(name="s", domain=tuple(map(str, range(len(rows))))),))
    records = [(f"s{k}", {"s": str(k)}, message, count)
               for k, pairs in enumerate(rows) for message, count in pairs]
    return build_corpus(schema, vocab, length, records)


NOISY_BASES = {
    "moprd": lambda: gen_compositional(moprd_schema(), 10, 20, seed=3)[0],
    # two positions over three tokens leave each template four neighbours, so
    # the synonyms of a sample draw the same cells again and again; every
    # second sample also owns one of them, at a count tied with its template
    "tied": lambda: _noisy_base(
        [[((k % 3, 0), 2)] + [((k % 3, 1), 2)] * (k % 2 == 0) for k in range(6)], 2, 3
    ),
    # base rows one substitution from their template (the first row), which
    # no synonym may equal, next to rows further away
    "near": lambda: _noisy_base(
        [[((0, k % 4, 1, 2), 5), ((0, k % 4, 1, 3), 1), ((1, k % 4, 1, 2), 2), ((3, 3, 0, 0), 4)]
         for k in range(8)], 4, 5
    ),
}
NOISY_CASES = tuple(itertools.product(SEEDS, (1, 3, 7), (0.1, 0.5, 0.9)))

GOLDEN_NOISY = {
    "moprd": "3b63ec89b2871e111e98ac05d9f74be21ac4f6beb5a1522931001ef9549ccc03",
    "tied": "2a2dfbe59f9139aee9a4156fc6afdf71d51d59c0330a8f3e1c90924fa6561fab",
    "near": "4356e00eff4c202138be31fa65cc3efd9cc03bda5c76c11371567395ece69ec1",
}


def noisy_text(base, seed: int, synonyms: int, share: float) -> str:
    try:
        return serialize_corpus(gen_noisy(base, synonyms, share, seed))
    except EmlangError as error:
        return f"{type(error).__name__}: {error}\n"


@pytest.mark.parametrize("name", GOLDEN_NOISY)
def test_noisy_golden(name):
    base = NOISY_BASES[name]()
    digest = hashlib.sha256()
    for seed, synonyms, share in NOISY_CASES:
        digest.update(f"{seed} {synonyms} {share}\n".encode())
        digest.update(noisy_text(base, seed, synonyms, share).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_NOISY[name]
