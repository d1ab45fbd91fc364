from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.corpus import build_corpus
from emlang.errors import ConfigError
from emlang.game import (
    _beaten_by,
    _hit_chances,
    _listener_table,
    run_lewis_game,
)
from emlang.kernels import Stream
from emlang.metrics import accuracy_per_speaker
from emlang.schema import parse_schema
from emlang.synth import gen_compositional, gen_noisy
from oracles import (
    attribute_product,
    attribute_values,
    closed_form_accuracy,
    rows_by_sample,
)


def constant_corpus(moprd):
    records = [
        (f"{i:02d}", combo, (0,) * 10, 1)
        for i, combo in enumerate(attribute_product(moprd))
    ]
    return build_corpus(moprd, 20, 10, records)


def test_perfect_pair_hits_every_episode(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=1)
    matrix = run_lewis_game(corpus, seed=5, candidate_count=20, episodes=400)
    assert matrix.values == ((1.0,),)


def test_constant_speaker_near_chance(moprd):
    matrix = run_lewis_game(constant_corpus(moprd), seed=101, candidate_count=5, episodes=10_000)
    accuracy = matrix.values[0][0]
    assert 0.17 <= accuracy <= 0.23


def test_population_of_perfect_pairs(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=2)
    matrix = run_lewis_game(
        corpus,
        seed=7,
        candidate_count=10,
        episodes=50,
        speakers=(corpus,) * 10,
        listeners=(corpus,) * 10,
    )
    assert matrix.values == tuple((1.0,) * 10 for _ in range(10))
    assert accuracy_per_speaker(matrix) == (1.0,) * 10


def test_cells_independent_of_population_shape(moprd):
    """Cell (i, j) only depends on (seed, i, j), not on the matrix size."""
    corpus, _ = gen_compositional(moprd, 10, 20, seed=3)
    speaker, listener = constant_corpus(moprd), corpus
    small = run_lewis_game(
        corpus,
        seed=9, candidate_count=5, episodes=300, speakers=(speaker,), listeners=(listener,),
    )
    big = run_lewis_game(
        corpus,
        seed=9,
        candidate_count=5,
        episodes=300,
        speakers=(speaker, corpus),
        listeners=(listener, corpus),
    )
    assert big.values[0][0] == small.values[0][0]


def test_same_seed_reproduces(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    config = {"seed": 77, "candidate_count": 5, "episodes": 200}
    assert run_lewis_game(corpus, **config) == run_lewis_game(corpus, **config)


def test_config_validation(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    shorter, _ = gen_compositional(moprd, 9, 20, seed=4)
    for config, reason in [
        ({"candidate_count": 101}, "candidate count 101 exceeds 100 samples"),
        ({"candidate_count": 1}, "candidate sets need at least two samples"),
        ({"candidate_count": 5, "episodes": 0}, "need at least one episode"),
        ({"candidate_count": 5, "speakers": (shorter,)},
         "an agent corpus must hold the game corpus's samples and message length"),
    ]:
        with pytest.raises(ConfigError) as caught:
            run_lewis_game(corpus, seed=1, **config)
        assert str(caught.value) == reason


def test_config_fields_must_be_integers(moprd):
    """A seed, candidate count or episode count that is not an integer, bool
    included, is a ConfigError; numpy integers play the matrix of their value."""
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    noisy = gen_noisy(corpus, 1, 0.4, seed=1)
    for field, value in [
        ("seed", "a"), ("seed", 1.0), ("seed", True), ("seed", None),
        ("candidate_count", 2.5), ("candidate_count", True), ("candidate_count", np.float64(3)),
        ("episodes", 2.5), ("episodes", "5"), ("episodes", True), ("episodes", np.bool_(True)),
    ]:
        config = {"seed": 1, "candidate_count": 5, "episodes": 10, field: value}
        with pytest.raises(ConfigError, match="must be an integer"):
            run_lewis_game(corpus, **config)
    matrix = run_lewis_game(corpus, seed=3, candidate_count=5, episodes=50, speakers=(noisy,))
    assert matrix.episodes_per_cell == 50 and matrix.values[0][0] < 1.0
    numpy_config = {"seed": np.int64(3), "candidate_count": np.int32(5), "episodes": np.uint16(50)}
    assert run_lewis_game(corpus, **numpy_config, speakers=(noisy,)) == matrix


def coarse_corpus(language):
    """Each sample speaks (count 3) the message ``language`` gives the first
    sample sharing its shape1, so listeners see ties; odd samples also speak
    (count 1) the one ``language`` gives the first sample sharing its shape2."""
    first = {}
    values = attribute_values(language)
    for sample_id, messages in rows_by_sample(language).items():
        for prop in ("shape1", "shape2"):
            first.setdefault((prop, values[sample_id][prop]), messages[0][0])
    records = []
    for i, (sample_id, attrs) in enumerate(values.items()):
        records.append((sample_id, attrs, first["shape1", attrs["shape1"]], 3))
        if i % 2:
            records.append((sample_id, attrs, first["shape2", attrs["shape2"]], 1))
    return build_corpus(language.schema, language.vocab_size, language.message_length, records)


def closed_form_population(moprd):
    """A compositional language, a noisy one with ties and a coarse one."""
    compositional, _ = gen_compositional(moprd, 10, 20, seed=8)
    return (
        compositional,
        gen_noisy(compositional, synonym_count=2, minority_share=0.3, seed=8),
        coarse_corpus(compositional),
    )


@pytest.mark.parametrize("k", [2, 5, 20, 100])
def test_every_cell_matches_the_closed_form(moprd, k):
    """Both populations, the second with constant and two-message listeners
    that never heard most messages; k = 100 plays all n samples."""
    for population in (closed_form_population(moprd), ties_population(moprd)):
        compositional = population[0]
        episodes = 20_000
        matrix = run_lewis_game(
            compositional, seed=11, candidate_count=k, episodes=episodes,
            speakers=population, listeners=population,
        )
        for i, speaker in enumerate(population):
            for j, listener in enumerate(population):
                expected = closed_form_accuracy(speaker, listener, k)
                error = math.sqrt(expected * (1 - expected) / episodes)
                observed = matrix.values[i][j]
                if error == 0:
                    assert observed == expected, (i, j)
                else:
                    assert abs(observed - expected) <= 5 * error, (i, j, observed, expected)


def brute_beaten_by(share_of, n, message, target):
    """How many samples beat ``target`` on ``message`` under ``share_of``, a
    {(message, sample): share} dict: a larger share, or the same and a smaller id."""
    own = (share_of.get((message, target), 0.0), -target)
    return sum((share_of.get((message, other), 0.0), -other) > own for other in range(n))


def test_all_samples_as_candidates_hit_exactly_the_unbeaten_targets(moprd):
    """At k = n every sample is a candidate, so an episode hits exactly when no
    sample beats its target on the message spoken, to the last bit.  The speaker
    says one message per sample, so the targets, the first words of the cell's
    stream, fix every message."""
    compositional, _ = gen_compositional(moprd, 10, 20, seed=8)
    listener = coarse_corpus(compositional)
    n, episodes = len(compositional.sample_ids), 5000
    said = list(rows_by_sample(compositional).values())
    assert all(len(messages) == 1 for messages in said)
    share_of = {
        (message, owner): count / sum(c for _, c in messages)
        for owner, messages in enumerate(rows_by_sample(listener).values())
        for message, count in messages
    }
    targets = Stream(3, 0, 0).below(n, episodes).tolist()
    unbeaten = sum(brute_beaten_by(share_of, n, said[t][0][0], t) == 0 for t in targets)
    assert 0 < unbeaten < episodes
    matrix = run_lewis_game(
        compositional, seed=3, candidate_count=n, episodes=episodes, listeners=(listener,)
    )
    assert matrix.values == ((unbeaten / episodes,),)


@pytest.mark.parametrize(("n", "k"), [(2, 2), (6, 2), (6, 4), (6, 6), (7, 3), (100, 20), (100, 100),
                                       (4096, 100)])
def test_hit_chances_are_the_closed_form(n, k):
    """Entry b is 2**53 C(n - 1 - b, k - 1) / C(n - 1, k - 1): exact where a hit
    is certain or impossible, and within 1e-12 of the chance elsewhere."""
    chances = _hit_chances(n, k)
    assert len(chances) == n
    assert chances[0] == 2**53
    assert (chances[n - k + 1 :] == 0).all()
    for b, chance in enumerate(chances.tolist()):
        assert abs(chance / 2**53 - math.comb(n - 1 - b, k - 1) / math.comb(n - 1, k - 1)) <= 1e-12


@pytest.mark.parametrize(("n", "k"), [(6, 2), (6, 4), (6, 6), (7, 3)])
def test_hit_chances_count_uniform_subsets(n, k):
    """Entry b is the share of all (k - 1)-subsets of the n - 1 other samples that
    hold none of the b samples beating the target, each subset counted once."""
    subsets = list(itertools.combinations(range(n - 1), k - 1))
    assert len(subsets) == math.comb(n - 1, k - 1)
    for b, chance in enumerate(_hit_chances(n, k).tolist()):
        missing = sum(min(subset) >= b for subset in subsets)
        assert abs(chance / 2**53 - missing / len(subsets)) <= 1e-12


# repr of the accuracy matrix of closed_form_population at 9000 episodes, as
# computed when its compositional base first came from the counter-based
# stream (each episode draws its hit from the closed-form chance): no value
# may move
GOLDEN_ACCURACY = {
    "k2-seed0": (2, 0, "((1.0, 0.9993333333333333, 0.51), "
                       "(0.6674444444444444, 0.9997777777777778, 0.5127777777777778), "
                       "(0.5221111111111111, 0.514, 0.9122222222222223))"),
    "k2-seed1": (2, 1, "((1.0, 0.9993333333333333, 0.527), "
                       "(0.6682222222222223, 0.9994444444444445, 0.5114444444444445), "
                       "(0.5165555555555555, 0.5218888888888888, 0.9171111111111111))"),
    "k5-seed0": (5, 0, "((1.0, 0.9974444444444445, 0.21811111111111112), "
                       "(0.4653333333333333, 0.9984444444444445, 0.20777777777777778), "
                       "(0.24255555555555555, 0.23877777777777778, 0.7102222222222222))"),
    "k5-seed1": (5, 1, "((1.0, 0.9977777777777778, 0.2288888888888889), "
                       "(0.47733333333333333, 0.9981111111111111, 0.20744444444444443), "
                       "(0.23422222222222222, 0.23055555555555557, 0.7071111111111111))"),
    "k20-seed0": (20, 0, "((1.0, 0.986, 0.08177777777777778), "
                         "(0.36344444444444446, 0.9925555555555555, 0.056), "
                         "(0.09277777777777778, 0.09111111111111111, 0.292))"),
    "k20-seed1": (20, 1, "((1.0, 0.9851111111111112, 0.08633333333333333), "
                         "(0.369, 0.9914444444444445, 0.05988888888888889), "
                         "(0.09266666666666666, 0.08722222222222223, 0.2897777777777778))"),
}


@pytest.mark.parametrize(("k", "seed", "values"), GOLDEN_ACCURACY.values(),
                         ids=GOLDEN_ACCURACY.keys())
def test_game_golden_accuracy(moprd, k, seed, values):
    population = closed_form_population(moprd)
    matrix = run_lewis_game(
        population[0], seed, candidate_count=k, episodes=9000,
        speakers=population, listeners=population,
    )
    assert repr(matrix.values) == values


def two_message_corpus(moprd):
    """Every sample speaks the same two messages once each: every share ties."""
    records = [
        (f"{i:02d}", combo, (token,) * 10, 1)
        for i, combo in enumerate(attribute_product(moprd))
        for token in (0, 1)
    ]
    return build_corpus(moprd, 20, 10, records)


def ties_population(moprd):
    """Compositional, noisy, constant and two-message agents."""
    compositional, _ = gen_compositional(moprd, 10, 20, seed=8)
    noisy = gen_noisy(compositional, synonym_count=2, minority_share=0.3, seed=8)
    return compositional, noisy, constant_corpus(moprd), two_message_corpus(moprd)


# repr of the accuracy matrix of ties_population, as computed when its
# compositional base first came from the counter-based stream.  Constant and
# two-message listeners leave almost no target sure to win and never heard
# most compositional messages; k = 100 plays all n samples; no episode count is a
# multiple of the batch.  No value may move.
GOLDEN_TIES = {
    "k2-seed0": (2, 0, 1000, "((1.0, 0.999, 0.512, 0.481), "
                             "(0.656, 1.0, 0.505, 0.46), "
                             "(0.493, 0.5, 0.495, 0.502), "
                             "(0.482, 0.505, 0.539, 0.486))"),
    "k20-seed1": (20, 1, 3000, "((1.0, 0.9856666666666667, 0.043, 0.054), "
                               "(0.36766666666666664, 0.9946666666666667, 0.050333333333333334, "
                               "0.05733333333333333), "
                               "(0.044333333333333336, 0.04533333333333334, 0.05, 0.049), "
                               "(0.056666666666666664, 0.048666666666666664, 0.056666666666666664, "
                               "0.047))"),
    "k100-seed2": (100, 2, 500, "((1.0, 0.928, 0.008, 0.008), "
                                "(0.312, 0.958, 0.006, 0.01), "
                                "(0.006, 0.012, 0.002, 0.004), "
                                "(0.014, 0.01, 0.012, 0.008))"),
}


@pytest.mark.parametrize(("k", "seed", "episodes", "values"), GOLDEN_TIES.values(),
                         ids=GOLDEN_TIES.keys())
def test_game_golden_ties_and_unheard_messages(moprd, k, seed, episodes, values):
    population = ties_population(moprd)
    matrix = run_lewis_game(
        population[0], seed, candidate_count=k, episodes=episodes,
        speakers=population, listeners=population,
    )
    assert repr(matrix.values) == values


def test_ids_differing_by_a_trailing_nul_are_distinct_samples(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=1)
    rows = rows_by_sample(corpus)
    values = attribute_values(corpus)
    records = [
        (sample_id, values[source], rows[source][0][0], 1)
        for sample_id, source in zip(("a", "a\x00"), corpus.sample_ids)
    ]
    pair = build_corpus(moprd, 20, 10, records)
    matrix = run_lewis_game(pair, seed=1, candidate_count=2, episodes=100)
    assert matrix.values == ((1.0,),)


def test_listener_ignores_the_order_of_its_corpus(moprd):
    """Rows given out of canonical order (samples and messages reversed) make
    the same corpus, which listens the same."""
    compositional, _ = gen_compositional(moprd, 10, 20, seed=8)
    noisy = gen_noisy(compositional, synonym_count=2, minority_share=0.3, seed=8)
    reordered = replace(
        noisy,
        messages=noisy.messages[::-1],
        owners=noisy.owners[::-1],
        counts=noisy.counts[::-1],
    )
    assert reordered == noisy
    values = [
        run_lewis_game(
            compositional,
            seed=2, candidate_count=5, episodes=2000, speakers=(noisy,), listeners=(listener,),
        ).values
        for listener in (noisy, reordered)
    ]
    assert values[0] == values[1]


TOKEN_SCHEMA = parse_schema('{"attributes": [{"name": "a", "values": ["x"]}]}')


def micro_population(data, token, length):
    """One to three canonical corpora over up to five samples, of ``length``
    tokens drawn from ``token``, and the message ids of each in the message
    space of all of them (messages, owners and counts are drawn, so shares tie
    often); each corpus may be given its rows reversed, which makes the same
    corpus.  Returns (corpus, message ids) pairs and the number of messages."""
    row = st.tuples(st.integers(0, 4), st.lists(token, min_size=length, max_size=length),
                    st.integers(1, 3))
    corpora = []
    for rows in data.draw(st.lists(st.lists(row, min_size=1, max_size=12), min_size=1, max_size=3)):
        corpus = build_corpus(
            TOKEN_SCHEMA, 2**63, length,
            [(f"s{owner}", {"a": "x"}, tuple(message), count) for owner, message, count in rows],
        )
        if data.draw(st.booleans()):
            corpus = replace(
                corpus, messages=corpus.messages[::-1], owners=corpus.owners[::-1], counts=corpus.counts[::-1]
            )
        corpora.append(corpus)
    stacked = np.concatenate([corpus.messages for corpus in corpora])
    distinct, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(corpus.messages) for corpus in corpora])[:-1]
    return list(zip(corpora, np.split(message_ids.reshape(-1), bounds))), len(distinct)


def micro_shares(corpus, ids):
    """{(message id, owner): count / total} of every row of ``corpus``."""
    rows = zip(ids.tolist(), corpus.owners.tolist(), corpus.counts.tolist())
    return {(message_id, owner): count / corpus.totals[owner] for message_id, owner, count in rows}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_listener_table_is_message_major(data):
    """Over the messages of a population of corpora, even at tokens near 2**63,
    each listener's keys ``message id * n + owner`` strictly increase and name
    every row once, with the brute-force count of samples that beat that row's
    owner on its message (share descending, then id)."""
    length = data.draw(st.integers(1, 3))
    token = st.integers(0, 3) | st.integers(0, 2**63 - 1) | st.just(2**63 - 1)
    population, _ = micro_population(data, token, length)
    for corpus, ids in population:
        n = len(corpus.sample_ids)
        share_of = micro_shares(corpus, ids)
        keys, beaten = _listener_table(corpus, ids, n)
        assert (np.diff(keys) > 0).all()
        table = zip(keys.tolist(), beaten.tolist())
        assert {(key // n, key % n): count for key, count in table} == {
            (message_id, owner): brute_beaten_by(share_of, n, message_id, owner)
            for message_id, owner in share_of
        }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_beaten_by_counts_every_sample_that_outscores_the_target(data):
    """For every (message id, target) of a population, heard or not, ``_beaten_by``
    is the brute-force count of samples with a larger share of the message under
    the listener, or the same share and a smaller id."""
    population, message_count = micro_population(data, st.integers(0, 3), 1)
    for corpus, ids in population:
        n = len(corpus.sample_ids)
        share_of = micro_shares(corpus, ids)
        pairs = [(message_id, target) for message_id in range(message_count) for target in range(n)]
        messages, targets = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        found = _beaten_by(*_listener_table(corpus, ids, n), n, messages, targets)
        assert found.tolist() == [brute_beaten_by(share_of, n, *pair) for pair in pairs]


def test_agents_must_hold_the_game_samples(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    rows = rows_by_sample(corpus)
    records = [
        (sample_id, attrs, rows[sample_id][0][0], 1)
        for sample_id, attrs in attribute_values(corpus).items()
    ]
    fewer = build_corpus(moprd, 20, 10, records[:50])
    renamed = build_corpus(moprd, 20, 10, [("x" + r[0], *r[1:]) for r in records])
    longer = build_corpus(moprd, 20, 11, [(*r[:2], r[2] + (0,), 1) for r in records])
    for agent in (fewer, renamed, longer):
        for role in ({"speakers": (agent,)}, {"listeners": (agent,)}):
            with pytest.raises(ConfigError):
                run_lewis_game(corpus, seed=1, candidate_count=5, **role)
