from __future__ import annotations

import json
import random
import time
from dataclasses import replace

import pytest

from emlang.corpus import build_corpus, filter_by_frequency
from emlang.errors import EmptyCorpus
from emlang.rules import Pattern, extract_rules, global_constants
from emlang.schema import AttributeSchema, Attribute, parse_schema
from emlang.synth import concept_schema, gen_holistic, gen_noisy

from oracles import (
    attribute_product,
    attribute_values,
    naive_eval,
    naive_extract_rules,
    rows_by_sample,
)


ONE_VALUE = AttributeSchema(attributes=(Attribute(name="a", domain=("x",)),))


def one_sample(*messages):
    """A corpus whose one sample sends each message once."""
    vocab_size = max(map(max, messages)) + 1
    return build_corpus(ONE_VALUE, vocab_size, len(messages[0]),
                        [("s", {"a": "x"}, message, 1) for message in messages])


def test_global_constants_single_message():
    assert global_constants(one_sample((3, 1, 4))) == Pattern.from_dict({0: 3, 1: 1, 2: 4})


def test_global_constants_disagreement():
    assert global_constants(one_sample((1, 2), (1, 3))) == Pattern.from_dict({0: 1})


def test_global_constants_three_messages():
    got = global_constants(one_sample((5, 5, 5), (5, 6, 5), (5, 7, 5)))
    assert got == Pattern.from_dict({0: 5, 2: 5})


def test_global_constants_on_reference_corpus(reference_corpus):
    got = global_constants(reference_corpus)
    assert got == Pattern.from_dict({0: 13, 1: 12, 3: 10, 4: 10, 5: 10, 6: 10, 7: 10})


TWO_BY_TWO = AttributeSchema(
    attributes=(
        Attribute(name="size", domain=("small", "large")),
        Attribute(name="tone", domain=("dark", "light")),
    )
)


def two_by_two_corpus():
    # dedicated positions: size -> 0, tone -> 1; distinct tokens everywhere
    codes = {
        ("small", "dark"): (0, 2),
        ("small", "light"): (0, 3),
        ("large", "dark"): (1, 2),
        ("large", "light"): (1, 3),
    }
    records = [
        (f"{i}", {"size": size, "tone": tone}, msg, 1)
        for i, ((size, tone), msg) in enumerate(sorted(codes.items()))
    ]
    return build_corpus(TWO_BY_TWO, 4, 2, records)


def test_global_constants_identical_and_disjoint_corpora():
    same = build_corpus(TWO_BY_TWO, 4, 2, [
        ("0", {"size": "small", "tone": "dark"}, (1, 2), 1),
        ("1", {"size": "large", "tone": "dark"}, (1, 2), 1),
    ])
    assert global_constants(same) == Pattern.from_dict({0: 1, 1: 2})
    different = build_corpus(TWO_BY_TWO, 4, 2, [
        ("0", {"size": "small", "tone": "dark"}, (1, 2), 1),
        ("1", {"size": "large", "tone": "dark"}, (2, 3), 1),
    ])
    assert global_constants(different) == Pattern.from_dict({})


def test_extract_on_two_by_two():
    """Four single-position rules, one per generating value, no empty rule."""
    table = extract_rules(two_by_two_corpus(), threshold=0.15)
    assert table.global_constants == Pattern.from_dict({})
    assert table.rule_count == 4
    expected = {
        ((0, 0),): ("size", "small"),
        ((0, 1),): ("size", "large"),
        ((1, 2),): ("tone", "dark"),
        ((1, 3),): ("tone", "light"),
    }
    for rule in table.rules:
        assert rule.evidence == (expected[rule.pattern.cells],)
        assert rule.support == 2


def test_fully_invariant_language_collapses_to_one_empty_rule(moprd):
    records = [
        (f"{i:02d}", combo, (7, 7, 7), 1)
        for i, combo in enumerate(attribute_product(moprd))
    ]
    corpus = build_corpus(moprd, 8, 3, records)
    table = extract_rules(corpus, threshold=0.15)
    assert table.rule_count == 1
    (rule,) = table.rules
    assert not rule.pattern.cells
    every_value = {
        (prop, value) for prop in moprd.property_names for value in moprd.domain(prop)
    }
    assert set(rule.evidence) == every_value
    assert table.global_constants == Pattern.from_dict({0: 7, 1: 7, 2: 7})


def test_coverage_summary_cases(reference_corpus, moprd):
    """Hand-computed support and coverage of rules of the reference language."""
    rules = {rule.pattern.cells: rule for rule in extract_rules(reference_corpus).rules}

    def summary(*cells):
        rule = rules[cells]
        return dict(rule.coverage), rule.support

    coverage, support = summary()  # the empty pattern covers every sample
    assert support == 100
    for prop in moprd.property_names:
        assert coverage[prop] == moprd.domain(prop)

    # {2:12, 8:10} matches every sample except both-filled pairs and the two
    # mixed circle/filled-square pairs; only all_fill is pinned.
    coverage, support = summary((2, 12), (8, 10))
    assert support == 76
    assert coverage["all_fill"] == ("F",)
    assert coverage["shape1"] == moprd.domain("shape1")
    assert coverage["shape2"] == moprd.domain("shape2")
    assert coverage["all_empty"] == ("F", "T")

    # position 2 = 10 happens only when both shapes are filled: 2 x 2 x 4 samples
    coverage, support = summary((2, 10), (8, 10), (9, 10))
    assert support == 16
    assert coverage["shape1"] == coverage["shape2"] == ("■", "●")
    assert coverage["all_fill"] == ("T",)
    assert coverage["relationship"] == moprd.domain("relationship")


def test_coverage_single_sample():
    corpus = build_corpus(TWO_BY_TWO, 4, 2, [
        ("0", {"size": "small", "tone": "dark"}, (0, 2), 1),
        ("1", {"size": "large", "tone": "light"}, (1, 3), 1),
    ])
    rules = {rule.pattern.cells: rule for rule in extract_rules(corpus, threshold=0.0).rules}
    rule = rules[(0, 0), (1, 2)]
    assert rule.support == 1
    assert dict(rule.coverage) == {"size": ("small",), "tone": ("dark",)}


def test_extract_empty_corpus():
    empty = build_corpus(TWO_BY_TWO, 4, 2, [])
    with pytest.raises(EmptyCorpus, match="^corpus holds no messages$"):
        global_constants(empty)
    with pytest.raises(EmptyCorpus, match="^corpus holds no messages$"):
        extract_rules(empty)


def test_rule_invariants_hold(reference_corpus):
    """Soundness, global exclusion, completeness, and deduplication."""
    table = extract_rules(reference_corpus, threshold=0.15)
    filtered = filter_by_frequency(reference_corpus, 0.15)
    schema = filtered.schema
    global_pos = set(table.global_constants.positions)
    values = attribute_values(filtered)

    seen_patterns = set()
    evidence_owner: dict[tuple, int] = {}
    for index, rule in enumerate(table.rules):
        assert rule.pattern.cells not in seen_patterns
        seen_patterns.add(rule.pattern.cells)
        assert not (set(rule.pattern.positions) & global_pos)
        assert rule.evidence
        for prop, value in rule.evidence:
            assert (prop, value) not in evidence_owner
            evidence_owner[(prop, value)] = index
            for sample_id, messages in rows_by_sample(filtered).items():
                if naive_eval(schema, values[sample_id], prop) == value:
                    for message, _ in messages:
                        assert all(message[pos] == tok for pos, tok in rule.pattern.cells)

    for prop in schema.property_names:
        for value in schema.domain(prop):
            populated = any(
                naive_eval(schema, attrs, prop) == value for attrs in values.values()
            )
            assert populated == ((prop, value) in evidence_owner)


def test_extract_deterministic(reference_corpus):
    assert extract_rules(reference_corpus) == extract_rules(reference_corpus)


# ---------------------------------------------------------------------------
# Exhaustive-oracle equivalence on random micro-corpora
# ---------------------------------------------------------------------------

from conftest import random_micro_corpus


@pytest.mark.parametrize("seed", range(40))
def test_matches_exhaustive_oracle(seed):
    rng = random.Random(seed * 7919)
    corpus = random_micro_corpus(rng)
    threshold = rng.choice([0.0, 0.15, 0.3])
    try:
        expected = naive_extract_rules(corpus, threshold)
    except AssertionError:
        return  # oracle does not model the EmptySample path
    assert extract_rules(corpus, threshold) == expected


def test_shared_combinations_are_separate_samples():
    """Several samples may carry identical attribute values."""
    records = [
        ("s0", {"size": "small", "tone": "dark"}, (0, 2), 1),
        ("s1", {"size": "small", "tone": "dark"}, (0, 3), 1),
        ("s2", {"size": "large", "tone": "dark"}, (1, 2), 1),
    ]
    corpus = build_corpus(TWO_BY_TWO, 4, 2, records)
    table = extract_rules(corpus, threshold=0.0)
    by_evidence = {rule.evidence: rule for rule in table.rules}
    small = by_evidence[(("size", "small"),)]
    assert small.pattern == Pattern.from_dict({0: 0})
    assert small.support == 2
    assert naive_extract_rules(corpus, 0.0) == table


def test_deep_hyperattribute_chain_is_evaluated_once_per_level():
    """``h_i = h_{i-1} or h_{i-1}``: 200 levels, not 2^200 re-evaluations."""
    hypers = [{"name": "h0", "expr": "flag"}] + [
        {"name": f"h{i}", "expr": f"h{i - 1} or h{i - 1}"} for i in range(1, 201)
    ]
    schema = parse_schema(json.dumps({
        "attributes": [{"name": "flag", "values": ["F", "T"]}],
        "hyperattributes": hypers,
    }))
    start = time.perf_counter()
    corpus = build_corpus(schema, 2, 1, [
        ("0", {"flag": "F"}, (0,), 1),
        ("1", {"flag": "T"}, (1,), 1),
    ])
    assert schema.domain("h200")[corpus.codes[1, schema.column("h200")]] == "T"
    table = extract_rules(corpus, threshold=0.0)
    assert time.perf_counter() - start < 1.0
    assert [rule.pattern for rule in table.rules] == [
        Pattern.from_dict({0: 0}), Pattern.from_dict({0: 1})
    ]
    assert table.rules[1].evidence == tuple((name, "T") for name in schema.property_names)


# ---------------------------------------------------------------------------
# The grouping kernel at scale and past one int64 key
# ---------------------------------------------------------------------------

def test_matches_exhaustive_oracle_on_2000_concepts():
    """Each concept is a group of its own and makes one rule."""
    corpus = gen_holistic(concept_schema(2000), 12, 20, seed=1)
    table = extract_rules(corpus, threshold=0.15)
    assert table.rule_count == 2000
    assert table == naive_extract_rules(corpus, 0.15)


@pytest.mark.parametrize("seed", range(3))
def test_matches_exhaustive_oracle_with_keys_past_one_int64(seed):
    """Tokens below 2**63 take 63 bits each, so a rule's cells among the twelve
    positions after the holistic prefix pack into as many int64 keys.  Each
    concept groups one sample; its synonyms, each one substitution away and
    about 7% of its count, may also vary the prefix, unless the 0.15 filter
    drops them."""
    base = gen_holistic(concept_schema(60), 14, 2**63, seed=seed)
    corpus = gen_noisy(replace(base, counts=base.counts * 10), 2, 0.25, seed=seed)
    for threshold in (0.0, 0.15):
        table = extract_rules(corpus, threshold)
        assert table == naive_extract_rules(corpus, threshold)
        assert max(len(rule.pattern.cells) for rule in table.rules) >= 10


@pytest.mark.parametrize("seed", range(3))
def test_matches_exhaustive_oracle_on_long_messages(seed):
    """Tokens below 3 take 2 bits each, so the 129 or 130 positions that are
    not constant over a corpus of length 130 pack into five int64 keys, and
    each rule holds 127 or 128 of them: long patterns of narrow values, in
    the grouping and in the coverage."""
    corpus = gen_noisy(gen_holistic(concept_schema(60), 130, 3, seed=seed), 2, 0.3, seed=seed)
    for threshold in (0.0, 0.15):
        table = extract_rules(corpus, threshold)
        assert table == naive_extract_rules(corpus, threshold)
        assert min(len(rule.pattern.cells) for rule in table.rules) >= 127


@pytest.mark.parametrize("top", [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1])
def test_matches_exhaustive_oracle_at_integer_type_edges(top):
    """The kernel gathers tokens through the narrowest integer type that holds
    the largest one, so a token at each type's edge must come back intact, in
    the patterns and in the coverage of the rules that hold it: position 0
    carries ``top`` exactly for the small samples, the other three are random."""
    rng = random.Random(top)
    records = []
    for sample in range(12):
        values = {"size": rng.choice(("small", "large")), "tone": rng.choice(("dark", "light"))}
        for _ in range(rng.randint(1, 3)):
            message = tuple(rng.choice((0, 1, top - 1, top)) for _ in range(3))
            first = top if values["size"] == "small" else top - 1
            records.append((str(sample), values, (first, *message), rng.randint(1, 4)))
    corpus = build_corpus(TWO_BY_TWO, top + 1, 4, records)
    for threshold in (0.0, 0.3):
        table = extract_rules(corpus, threshold)
        assert table == naive_extract_rules(corpus, threshold)
        (rule,) = [rule for rule in table.rules if ("size", "small") in rule.evidence]
        assert rule.pattern.cells[0] == (0, top) and dict(rule.coverage)["size"] == ("small",)


def test_rules_come_in_canonical_order_at_its_edges():
    """Position sets order as tuples do, a prefix first: (0,) before (0, 1)
    before (0, 2) before (1,); two token tuples on one set order by tokens;
    the empty pattern comes last.  The domain lists the values backwards, so
    the groups come in the reverse of that order."""
    schema = AttributeSchema(attributes=(Attribute(name="p", domain=("y", "z", "x", "w", "v", "u")),))
    messages = {
        "u": [(1, 1, 1), (1, 2, 2)],  # (0,) = 1
        "v": [(2, 3, 3), (2, 4, 4)],  # (0,) = 2
        "w": [(3, 5, 5), (4, 5, 6)],  # (1,) = 5
        "x": [(5, 6, 7), (5, 6, 8)],  # (0, 1) = (5, 6)
        "z": [(6, 1, 9), (6, 2, 9)],  # (0, 2) = (6, 9)
        "y": [(7, 7, 0), (8, 8, 1)],  # nothing constant
    }
    records = [
        (f"{value}{i}", {"p": value}, message, 1)
        for value, pair in messages.items()
        for i, message in enumerate(pair)
    ]
    corpus = build_corpus(schema, 10, 3, records)
    table = extract_rules(corpus, threshold=0.0)
    assert [rule.pattern.cells for rule in table.rules] == [
        ((0, 1),), ((0, 2),), ((0, 5), (1, 6)), ((0, 6), (2, 9)), ((1, 5),), (),
    ]
    assert [rule.evidence for rule in table.rules] == [
        (("p", value),) for value in ("u", "v", "x", "z", "w", "y")
    ]
    assert table == naive_extract_rules(corpus, 0.0)
