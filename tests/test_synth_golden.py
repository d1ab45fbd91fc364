"""Golden digests of the compositional and holistic generators.

Each digest covers every (seed, message length, vocabulary) case of one
generator on one schema: the serialized corpus and the structured rule table
of each case that succeeds, and the error class and text of each that fails.
They were computed before the generators moved to code matrices, so any
change to a generated corpus, truth table or error text shows here.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from emlang.corpus import serialize_corpus
from emlang.errors import EmlangError
from emlang.report import render_rule_table
from emlang.schema import Attribute, AttributeSchema, HyperattributeDef, ValueMap, parse_expression
from emlang.synth import all_combinations, concept_schema, gen_compositional, gen_holistic, moprd_schema

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
    schema = SCHEMAS[name]()
    names = schema.attribute_names
    domains = [schema.domain(n) for n in names]
    assert all_combinations(schema) == [dict(zip(names, combo)) for combo in itertools.product(*domains)]
