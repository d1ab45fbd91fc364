"""End-to-end acceptance criteria, one test per criterion.

Every expected value here is either forced by construction, verified by
hand, or frozen from an independent oracle run (the oracle implementations
live in ``oracles.py``); seeds are committed alongside the frozen values.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from emlang.corpus import AnnotatedCorpus, filter_by_frequency, serialize_corpus
from emlang.distance import levenshtein
from emlang.errors import ZeroVariance
from emlang.game import run_lewis_game
from emlang.metrics import accuracy_per_speaker, spearman, topsim
from emlang.rules import Pattern, RuleTable, SemanticRule, extract_rules
from emlang.synth import (
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
)
from emlang.corpus import build_corpus

from conftest import random_micro_corpus
from oracles import attribute_product, brute_spearman, hamming, naive_extract_rules

SHAPES = ("□", "○", "■", "●", "×")
RELS = ("→", "↗", "↑", "↖")
FT = ("F", "T")


def rule(cells, evidence, coverage, support):
    return SemanticRule(
        pattern=Pattern.from_dict(cells),
        evidence=tuple(evidence),
        coverage=tuple(coverage),
        support=support,
    )


def coverage_row(shape1, shape2, relationship, fill1, fill2, all_fill, all_empty, aligned):
    return (
        ("shape1", shape1),
        ("shape2", shape2),
        ("relationship", relationship),
        ("fill1", fill1),
        ("fill2", fill2),
        ("all_fill", all_fill),
        ("all_empty", all_empty),
        ("aligned", aligned),
    )


# Hand-verified expectation for the reference fill-coding language: six rules
# over positions 2, 8, 9 and the seven-cell constant skeleton.  Coverage
# values were hand-counted on the 25 shape pairs (relationship never matters)
# and cross-checked against the exhaustive-scan oracle.
EXPECTED_REFERENCE_TABLE = RuleTable(
    message_length=10,
    global_constants=Pattern.from_dict({0: 13, 1: 12, 3: 10, 4: 10, 5: 10, 6: 10, 7: 10}),
    rules=(
        rule(
            {2: 12},
            [("shape1", "○"), ("shape2", "○"), ("fill1", "F"), ("fill2", "F"), ("all_fill", "F")],
            coverage_row(SHAPES, SHAPES, RELS, FT, FT, ("F",), FT, FT),
            84,
        ),
        rule(
            {2: 12, 8: 10},
            [("shape1", "□"), ("shape1", "×"), ("shape2", "□"), ("shape2", "×"), ("all_empty", "T")],
            coverage_row(SHAPES, SHAPES, RELS, FT, FT, ("F",), FT, FT),
            76,
        ),
        rule(
            {2: 10, 8: 10, 9: 10},
            [("all_fill", "T")],
            coverage_row(("■", "●"), ("■", "●"), RELS, ("T",), ("T",), ("T",), ("F",), FT),
            16,
        ),
        rule(
            {8: 10, 9: 10},
            [("shape1", "●"), ("shape2", "●")],
            coverage_row(SHAPES, SHAPES, RELS, FT, FT, FT, ("F",), FT),
            56,
        ),
        rule(
            {9: 10},
            [("shape1", "■"), ("shape2", "■"), ("fill1", "T"), ("fill2", "T"), ("all_empty", "F")],
            coverage_row(SHAPES, SHAPES, RELS, FT, FT, FT, ("F",), FT),
            64,
        ),
        rule(
            {},
            [
                ("relationship", "→"), ("relationship", "↗"),
                ("relationship", "↑"), ("relationship", "↖"),
                ("aligned", "F"), ("aligned", "T"),
            ],
            coverage_row(SHAPES, SHAPES, RELS, FT, FT, FT, FT, FT),
            100,
        ),
    ),
)


def test_criterion_1_reference_table_reconstruction(reference_corpus):
    start = time.perf_counter()
    table = extract_rules(reference_corpus, threshold=0.15)
    elapsed = time.perf_counter() - start
    assert table.rule_count == 6
    assert len(table.global_constants.cells) == 7
    assert table == EXPECTED_REFERENCE_TABLE
    assert elapsed < 1.0


def test_criterion_2_compositional_oracle(moprd):
    start = time.perf_counter()
    for seed in range(20):
        corpus, truth = gen_compositional(moprd, 10, 20, seed)
        found = extract_rules(corpus, threshold=0.15)
        assert found == truth, f"seed {seed}: extracted table differs from ground truth"
    assert time.perf_counter() - start < 5.0


def test_criterion_3_exhaustive_oracle_equivalence():
    rng = random.Random(0xACCE)
    checked = 0
    while checked < 200:
        corpus = random_micro_corpus(rng)
        threshold = rng.choice([0.0, 0.15, 0.3])
        expected = naive_extract_rules(corpus, threshold)
        assert extract_rules(corpus, threshold) == expected
        checked += 1


def test_criterion_4_topsim_exactness(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=7)
    assert topsim(corpus).rho == pytest.approx(1.0, abs=1e-12)

    rng = random.Random(41)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 8)
        x = [rng.randint(0, 3) for _ in range(n)]  # small range forces ties
        y = [rng.randint(0, 3) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(brute_spearman(x, y), abs=1e-12)
        checked += 1

    assert spearman(list(range(1, 9)), list(range(8, 0, -1))) == -1.0


# Frozen from an oracle run (independent distances + brute-force rank-then-
# Pearson) over gen_holistic(moprd_schema(), 10, 20, seed=20240), as drawn
# since the generator reads the counter-based stream.
HOLISTIC_SEED = 20240
HOLISTIC_RHO = -0.0037823744917873706


def test_criterion_5_holistic_signature(moprd):
    scattered = gen_holistic(moprd, 10, 20, seed=HOLISTIC_SEED)
    report = topsim(scattered)
    assert abs(HOLISTIC_RHO) < 0.1
    assert report.rho == pytest.approx(HOLISTIC_RHO, abs=1e-12)

    # multi-attribute combinations leave no per-group constants: the table
    # degenerates to the lone empty rule and the fixed prefix stays global
    table = extract_rules(scattered, threshold=0.15)
    assert set(table.global_constants.positions) == {0, 1}
    assert table.rule_count == 1 and not table.rules[0].pattern.cells

    # one-concept-per-message corpus: every rule is a full combination of
    # the variable positions, and the fixed prefix appears only globally
    concepts = gen_holistic(concept_schema(100), 10, 20, seed=HOLISTIC_SEED)
    concept_table = extract_rules(concepts, threshold=0.15)
    assert set(concept_table.global_constants.positions) == {0, 1}
    assert concept_table.rule_count == 100
    for r in concept_table.rules:
        assert len(r.pattern.positions) >= 2
        assert not (set(r.pattern.positions) & {0, 1})
    with pytest.raises(ZeroVariance):
        topsim(concepts)  # distinct concepts are all equidistant


def scaled_counts(corpus: AnnotatedCorpus, count: int) -> AnnotatedCorpus:
    return replace(corpus, counts=np.full_like(corpus.counts, count))


def test_criterion_6_filter_law(moprd):
    base, _ = gen_compositional(moprd, 10, 20, seed=2)
    base = scaled_counts(base, 36)  # 36 divides by 9 and 4: exact 10% and 20% shares

    below = gen_noisy(base, synonym_count=1, minority_share=0.10, seed=13)
    assert filter_by_frequency(below, 0.15) == base

    at = gen_noisy(base, synonym_count=1, minority_share=0.20, seed=13)
    assert filter_by_frequency(at, 0.15) == at


def test_criterion_7_levenshtein_axioms():
    rng = random.Random(1729)
    for _ in range(10_000):
        n = rng.randint(0, 10)
        m = rng.randint(0, 10)
        a = tuple(rng.randrange(6) for _ in range(n))
        b = tuple(rng.randrange(6) for _ in range(m))
        c = tuple(rng.randrange(6) for _ in range(rng.randint(0, 10)))
        ab = levenshtein(a, b)
        assert ab >= 0
        assert (ab == 0) == (a == b)
        assert ab == levenshtein(b, a)
        assert levenshtein(a, c) <= ab + levenshtein(b, c)
        if n == m:
            assert ab <= hamming(a, b)


def test_criterion_8_game_harness(moprd):
    perfect, _ = gen_compositional(moprd, 10, 20, seed=1)
    matrix = run_lewis_game(perfect, seed=5, candidate_count=20, episodes=400)
    assert matrix.values == ((1.0,),)

    constant = build_corpus(
        moprd,
        20,
        10,
        [(f"{i:02d}", combo, (0,) * 10, 1) for i, combo in enumerate(attribute_product(moprd))],
    )
    chance = run_lewis_game(constant, seed=101, candidate_count=5, episodes=10_000)
    assert 0.17 <= chance.values[0][0] <= 0.23

    population = run_lewis_game(
        perfect,
        seed=7,
        candidate_count=10,
        episodes=50,
        speakers=(perfect,) * 10,
        listeners=(perfect,) * 10,
    )
    assert accuracy_per_speaker(population) == (1.0,) * 10


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "emlang", *args], capture_output=True
    )


def test_criterion_9_cli_determinism(tmp_path, reference_corpus):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(serialize_corpus(reference_corpus), encoding="utf-8")
    synth_out = tmp_path / "lang.jsonl"
    table_out = tmp_path / "table.json"

    invocations = [
        ["extract", "--corpus", str(corpus_path), "--schema", "moprd", "--format", "markdown"],
        ["extract", "--corpus", str(corpus_path), "--schema", "moprd", "--out", str(table_out)],
        ["topsim", "--corpus", str(corpus_path), "--schema", "moprd"],
        ["game", "--corpus", str(corpus_path), "--schema", "moprd",
         "--candidates", "5", "--episodes", "300", "--seed", "11"],
        ["synth", "--kind", "compositional", "--schema", "moprd",
         "--msg-len", "10", "--vocab", "20", "--seed", "3", "--out", str(synth_out)],
        ["synth", "--kind", "holistic", "--schema", "moprd",
         "--msg-len", "10", "--vocab", "20", "--seed", "3"],
        ["synth", "--kind", "noisy", "--schema", "moprd", "--corpus", str(corpus_path),
         "--seed", "3", "--minority-share", "0.2"],
        ["distance", "--a", "1,2,3", "--b", "1,3,3"],
    ]
    for args in invocations:
        first = _run(args)
        file_snapshots = [
            path.read_bytes() for path in (synth_out, table_out) if path.is_file()
        ]
        second = _run(args)
        assert first.returncode == second.returncode == 0, (args, first.stderr)
        assert first.stdout == second.stdout, args
        repeat_snapshots = [
            path.read_bytes() for path in (synth_out, table_out) if path.is_file()
        ]
        assert file_snapshots == repeat_snapshots, args

    # render, fed by the extract --out file above
    render_args = ["render", "--in", str(table_out), "--format", "markdown",
                   "--schema", "moprd"]
    assert _run(render_args).stdout == _run(render_args).stdout
