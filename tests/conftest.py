from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
# CLI tests run ``python -m emlang`` in a child process, which imports the
# package from src/ as pytest's ``pythonpath`` setting lets this process do
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from emlang import build_corpus, moprd_schema
from emlang.errors import EmlangError
from emlang.schema import AttributeSchema, Attribute, HyperattributeDef, parse_expression

FILLED = {"■", "●"}
EMPTY_ORDER = ["□", "○", "×"]


def reference_message(s1: str, s2: str) -> tuple[int, ...]:
    """Handcrafted fill-coding language over the two-shape schema.

    Ten-token messages with seven corpus-wide constant cells; positions 2,
    8, and 9 mark the fill status of the shapes:

    * position 2 drops from 12 to 10 when both shapes are filled;
    * position 8 is 10 except for the two mixed circle/filled-square pairs;
    * position 9 is 10 when any shape is filled; otherwise it alternates
      between 14 and 15 so that no empty-shape row or column is constant.

    The relationship never influences the message.
    """
    both_filled = s1 in FILLED and s2 in FILLED
    x2 = 10 if both_filled else 12
    x8 = 11 if (s1, s2) in {("○", "■"), ("■", "○")} else 10
    if s1 in FILLED or s2 in FILLED:
        x9 = 10
    else:
        x9 = 14 if (EMPTY_ORDER.index(s1) + EMPTY_ORDER.index(s2)) % 2 == 0 else 15
    return (13, 12, x2, 10, 10, 10, 10, 10, x8, x9)


def build_reference_corpus():
    """One sample per combination, each emitting its fill-coding message."""
    schema = moprd_schema()
    records = []
    index = 0
    for s1 in schema.domain("shape1"):
        for s2 in schema.domain("shape2"):
            for rel in schema.domain("relationship"):
                records.append(
                    (
                        f"{index:02d}",
                        {"shape1": s1, "shape2": s2, "relationship": rel},
                        reference_message(s1, s2),
                        1,
                    )
                )
                index += 1
    return build_corpus(schema, 16, 10, records)


@pytest.fixture(scope="session")
def moprd():
    return moprd_schema()


@pytest.fixture(scope="session")
def reference_corpus():
    return build_reference_corpus()


def random_micro_schema(rng: random.Random) -> AttributeSchema:
    """1-3 tiny attributes plus up to two one-liner hyperattributes."""
    attributes = []
    for a in range(rng.randint(1, 3)):
        size = rng.randint(1, 3)
        attributes.append(
            Attribute(name=f"a{a}", domain=tuple(f"v{a}{i}" for i in range(size)))
        )
    hypers = []
    for h in range(rng.randint(0, 2)):
        attr = rng.choice(attributes)
        value = rng.choice(attr.domain)
        text = f"{attr.name} == {value}"
        if rng.random() < 0.4 and len(attr.domain) > 1:
            picks = rng.sample(attr.domain, rng.randint(1, len(attr.domain)))
            text = f"{attr.name} in {{{', '.join(picks)}}}"
        if rng.random() < 0.3:
            text = f"not ({text})"
        hypers.append(HyperattributeDef(name=f"h{h}", body=parse_expression(text)))
    return AttributeSchema(attributes=tuple(attributes), hyperattributes=tuple(hypers))


def random_micro_corpus(rng: random.Random):
    """Up to 5 samples over up to 4 positions and a vocabulary of up to 4."""
    schema = random_micro_schema(rng)
    length = rng.randint(1, 4)
    vocab = rng.randint(1, 4)
    records = []
    for s in range(rng.randint(1, 5)):
        values = {a.name: rng.choice(a.domain) for a in schema.attributes}
        for _ in range(rng.randint(1, 3)):
            message = tuple(rng.randrange(vocab) for _ in range(length))
            records.append((f"s{s}", values, message, rng.randint(1, 5)))
    return build_corpus(schema, vocab, length, records)


def error_codes(cls=EmlangError) -> set[str]:
    """The stable code of ``cls`` and of every subclass."""
    return {cls.code}.union(*(error_codes(sub) for sub in cls.__subclasses__()))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def mutate(node, data, values=json_values) -> None:
    """Replace or delete one node below ``node``, walking down a drawn path;
    a replacement is drawn from ``values``."""
    while node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(values)
            return


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[{status}] {name}", file=sys.stderr)
