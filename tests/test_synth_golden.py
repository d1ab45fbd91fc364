"""Golden digests of the generators.

Each compositional or holistic digest covers every (seed, message length,
vocabulary) case of one generator on one schema: the serialized corpus and
the structured rule table of each case that succeeds, and the error class and
text of each that fails.  They were computed before the generators moved to
code matrices, so any change to a generated corpus, truth table or error text
shows here.  Each noisy digest covers every (seed, synonym count, share) case
of ``gen_noisy`` on one base corpus, so a change to its random stream shows
too.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from emlang.corpus import build_corpus, serialize_corpus
from emlang.errors import EmlangError
from emlang.report import render_rule_table
from emlang.schema import Attribute, AttributeSchema, HyperattributeDef, ValueMap, parse_expression
from emlang.synth import (
    combination_codes,
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
    moprd_schema,
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
        "2f7d27253520b70ed101d7ed7fffecd8b57e020ab30cbeddc28675ea9b1eec3e",
    ("compositional", "concept300"):
        "44ae41b4a07a44cbe4be0b99912972e39e6e0d41fe4d404a2df2f37249ae6e60",
    ("compositional", "binary10"):
        "f45db8269cf3224ed4d7f88490c741ac54f093ff8e00be86a0244a6a009a2707",
    ("compositional", "singletons"):
        "0670e7dcfb3f3c19806d092904fd125557f5860a769c00e5c7782803ada124f6",
    ("holistic", "moprd"):
        "93ae45e5b5f7f8b034805007939c72a272496987217cdcfd69eade29ab71a4bc",
    ("holistic", "concept300"):
        "a8055f20ab3e656b641aada3de281522ea75b9cf9c6ec0413ccb1e20a0b29004",
    ("holistic", "binary10"):
        "511011c3a94212439f967a6b267b68f9af66634788c755e8fd93bff4fad70996",
    ("holistic", "singletons"):
        "b9e1de6b65b7f762850524a25cf89f5a199d1d2a0fc425826e37950cc3560b2a",
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
    "moprd": "aa771b862988aa407ee217386ff2222a461555fa5cc9bb0cc9a677f7d058f719",
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
