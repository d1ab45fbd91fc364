from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.corpus import build_corpus
from emlang.errors import ConfigError
from emlang.game import (
    GameConfig,
    _candidates,
    _listener_table,
    _top_owners,
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
    floyd_candidates,
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
    matrix = run_lewis_game(corpus, GameConfig(seed=5, candidate_count=20, episodes=400))
    assert matrix.values == ((1.0,),)


def test_constant_speaker_near_chance(moprd):
    matrix = run_lewis_game(
        constant_corpus(moprd), GameConfig(seed=101, candidate_count=5, episodes=10_000)
    )
    accuracy = matrix.values[0][0]
    assert 0.17 <= accuracy <= 0.23


def test_population_of_perfect_pairs(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=2)
    config = GameConfig(
        seed=7,
        candidate_count=10,
        episodes=50,
        speakers=(corpus,) * 10,
        listeners=(corpus,) * 10,
    )
    matrix = run_lewis_game(corpus, config)
    assert matrix.values == tuple((1.0,) * 10 for _ in range(10))
    assert accuracy_per_speaker(matrix) == (1.0,) * 10


def test_cells_independent_of_population_shape(moprd):
    """Cell (i, j) only depends on (seed, i, j), not on the matrix size."""
    corpus, _ = gen_compositional(moprd, 10, 20, seed=3)
    speaker, listener = constant_corpus(moprd), corpus
    small = run_lewis_game(
        corpus,
        GameConfig(seed=9, candidate_count=5, episodes=300, speakers=(speaker,), listeners=(listener,)),
    )
    big = run_lewis_game(
        corpus,
        GameConfig(
            seed=9,
            candidate_count=5,
            episodes=300,
            speakers=(speaker, corpus),
            listeners=(listener, corpus),
        ),
    )
    assert big.values[0][0] == small.values[0][0]


def test_same_seed_reproduces(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    config = GameConfig(seed=77, candidate_count=5, episodes=200)
    assert run_lewis_game(corpus, config) == run_lewis_game(corpus, config)


def test_config_validation(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=4)
    with pytest.raises(ConfigError):
        run_lewis_game(corpus, GameConfig(seed=1, candidate_count=101))
    with pytest.raises(ConfigError):
        run_lewis_game(corpus, GameConfig(seed=1, candidate_count=1))
    with pytest.raises(ConfigError):
        run_lewis_game(corpus, GameConfig(seed=1, candidate_count=5, episodes=0))


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
        config = GameConfig(**{"seed": 1, "candidate_count": 5, "episodes": 10, field: value})
        with pytest.raises(ConfigError, match="must be an integer"):
            run_lewis_game(corpus, config)
    config = GameConfig(seed=3, candidate_count=5, episodes=50, speakers=(noisy,))
    matrix = run_lewis_game(corpus, config)
    assert matrix.episodes_per_cell == 50 and matrix.values[0][0] < 1.0
    numpy_config = replace(
        config, seed=np.int64(3), candidate_count=np.int32(5), episodes=np.uint16(50)
    )
    assert run_lewis_game(corpus, numpy_config) == matrix


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


@pytest.mark.parametrize("k", [2, 5])
def test_every_cell_matches_the_closed_form(moprd, k):
    population = closed_form_population(moprd)
    compositional = population[0]
    episodes = 20_000
    config = GameConfig(
        seed=11, candidate_count=k, episodes=episodes, speakers=population, listeners=population
    )
    matrix = run_lewis_game(compositional, config)
    for i, speaker in enumerate(population):
        for j, listener in enumerate(population):
            expected = closed_form_accuracy(speaker, listener, k)
            error = math.sqrt(expected * (1 - expected) / episodes)
            observed = matrix.values[i][j]
            if error == 0:
                assert observed == expected, (i, j)
            else:
                assert abs(observed - expected) <= 5 * error, (i, j, observed, expected)


# repr of the accuracy matrix of closed_form_population at 9000 episodes
# (two batches at k = 2), as computed when the cells first drew from the
# counter-based stream: no value may move
GOLDEN_ACCURACY = {
    "k2-seed0": (2, 0, "((1.0, 0.999, 0.5121111111111111), "
                       "(0.6688888888888889, 0.9996666666666667, 0.5126666666666667), "
                       "(0.5188888888888888, 0.5163333333333333, 0.9152222222222223))"),
    "k2-seed1": (2, 1, "((1.0, 0.9987777777777778, 0.5236666666666666), "
                       "(0.6621111111111111, 0.9993333333333333, 0.5027777777777778), "
                       "(0.5165555555555555, 0.5232222222222223, 0.9108888888888889))"),
    "k5-seed0": (5, 0, "((1.0, 0.9958888888888889, 0.22833333333333333), "
                       "(0.45355555555555555, 0.9984444444444445, 0.20922222222222223), "
                       "(0.23677777777777778, 0.23544444444444446, 0.7122222222222222))"),
    "k5-seed1": (5, 1, "((1.0, 0.9954444444444445, 0.22466666666666665), "
                       "(0.4718888888888889, 0.9982222222222222, 0.20466666666666666), "
                       "(0.23433333333333334, 0.2262222222222222, 0.7016666666666667))"),
    "k20-seed0": (20, 0, "((1.0, 0.9816666666666667, 0.08311111111111111), "
                         "(0.36466666666666664, 0.99, 0.060222222222222226), "
                         "(0.09233333333333334, 0.08711111111111111, 0.29288888888888887))"),
    "k20-seed1": (20, 1, "((1.0, 0.9821111111111112, 0.09111111111111111), "
                         "(0.3751111111111111, 0.9916666666666667, 0.06266666666666666), "
                         "(0.08844444444444445, 0.08888888888888889, 0.29))"),
}


@pytest.mark.parametrize(("k", "seed", "values"), GOLDEN_ACCURACY.values(),
                         ids=GOLDEN_ACCURACY.keys())
def test_game_golden_accuracy(moprd, k, seed, values):
    population = closed_form_population(moprd)
    config = GameConfig(
        seed=seed, candidate_count=k, episodes=9000, speakers=population, listeners=population
    )
    assert repr(run_lewis_game(population[0], config).values) == values


def two_message_corpus(moprd):
    """Every sample speaks the same two messages once each: every share ties."""
    records = [
        (f"{i:02d}", combo, (token,) * 10, 1)
        for i, combo in enumerate(attribute_product(moprd))
        for token in (0, 1)
    ]
    return build_corpus(moprd, 20, 10, records)


# repr of the accuracy matrix of compositional, noisy, constant and two-message
# agents, as computed when the cells first drew from the counter-based stream.
# Constant and two-message listeners leave almost no target sure to win and
# never heard most compositional messages; k = 100 plays all n samples; no
# episode count is a multiple of the batch.  No value may move.
GOLDEN_TIES = {
    "k2-seed0": (2, 0, 1000, "((1.0, 1.0, 0.513, 0.505), (0.65, 0.999, 0.538, 0.501), "
                             "(0.497, 0.487, 0.498, 0.497), (0.494, 0.519, 0.504, 0.513))"),
    "k20-seed1": (20, 1, 3000, "((1.0, 0.9826666666666667, 0.049666666666666665, 0.053), "
                               "(0.36566666666666664, 0.9896666666666667, 0.049, 0.04633333333333333), "
                               "(0.04466666666666667, 0.051333333333333335, 0.04466666666666667, "
                               "0.050666666666666665), "
                               "(0.058666666666666666, 0.051333333333333335, 0.050333333333333334, "
                               "0.052333333333333336))"),
    "k100-seed2": (100, 2, 500, "((1.0, 0.894, 0.01, 0.006), (0.35, 0.95, 0.006, 0.018), "
                                "(0.004, 0.008, 0.008, 0.008), (0.016, 0.018, 0.01, 0.018))"),
}


@pytest.mark.parametrize(("k", "seed", "episodes", "values"), GOLDEN_TIES.values(),
                         ids=GOLDEN_TIES.keys())
def test_game_golden_ties_and_unheard_messages(moprd, k, seed, episodes, values):
    compositional, _ = gen_compositional(moprd, 10, 20, seed=8)
    noisy = gen_noisy(compositional, synonym_count=2, minority_share=0.3, seed=8)
    population = (compositional, noisy, constant_corpus(moprd), two_message_corpus(moprd))
    config = GameConfig(
        seed=seed, candidate_count=k, episodes=episodes, speakers=population, listeners=population
    )
    assert repr(run_lewis_game(compositional, config).values) == values


def floyd_columns(stream, n, k, size):
    """Floyd's draws as the game reads them: one ``(k - 1, size)`` grid whose
    row c is below the c-th bound of ``n - k + 1 .. n - 1``."""
    return stream.below(np.arange(n - k + 1, n)[:, None], (k - 1, size))


@pytest.mark.parametrize(("n", "k"), [(6, 2), (6, 4), (6, 6), (7, 3)])
def test_candidates_are_uniform_subsets(n, k):
    """Every row holds its target and k - 1 distinct others, each subset equally often."""
    stream = Stream(0)
    targets = stream.below(n, 60_000)
    candidates = _candidates(floyd_columns(stream, n, k, len(targets)), targets, n)
    assert (np.diff(candidates, axis=1) > 0).all()
    assert (candidates == targets[:, None]).any(axis=1).all()
    subsets = math.comb(n - 1, k - 1)
    for target in range(n):
        _, counts = np.unique(candidates[targets == target], axis=0, return_counts=True)
        expected = counts.sum() / subsets
        assert len(counts) == subsets
        assert np.abs(counts - expected).max() <= 5 * math.sqrt(expected)


@pytest.mark.parametrize(("n", "k"), [(2, 2), (6, 6), (100, 20), (100, 100), (4096, 100)])
def test_candidates_match_floyd_oracle(n, k):
    """The array sampler is Floyd's algorithm, episode by episode, over the same draws."""
    targets = Stream(n).below(n, 300)
    columns = floyd_columns(Stream(k), n, k, len(targets))
    expected = floyd_candidates(columns.tolist(), targets, n, k)
    assert _candidates(columns, targets, n).tolist() == expected


def test_ids_differing_by_a_trailing_nul_are_distinct_samples(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=1)
    rows = rows_by_sample(corpus)
    values = attribute_values(corpus)
    records = [
        (sample_id, values[source], rows[source][0][0], 1)
        for sample_id, source in zip(("a", "a\x00"), corpus.sample_ids)
    ]
    pair = build_corpus(moprd, 20, 10, records)
    matrix = run_lewis_game(pair, GameConfig(seed=1, candidate_count=2, episodes=100))
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
            GameConfig(seed=2, candidate_count=5, episodes=2000, speakers=(noisy,), listeners=(listener,)),
        ).values
        for listener in (noisy, reordered)
    ]
    assert values[0] == values[1]


TOKEN_SCHEMA = parse_schema('{"attributes": [{"name": "a", "values": ["x"]}]}')


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_listener_table_is_message_major(data):
    """Over the messages of a population of canonical corpora, even at tokens
    near 2**63, each listener's keys ``message id * n + owner`` strictly
    increase and name every row once, with the share count / total of that row."""
    length = data.draw(st.integers(1, 3))
    token = st.integers(0, 3) | st.integers(0, 2**63 - 1) | st.just(2**63 - 1)
    row = st.tuples(st.integers(0, 3), st.lists(token, min_size=length, max_size=length))
    corpora = [
        build_corpus(
            TOKEN_SCHEMA, 2**63, length,
            [(f"s{owner}", {"a": "x"}, tuple(message), 1) for owner, message in rows],
        )
        for rows in data.draw(st.lists(st.lists(row, min_size=1, max_size=10), min_size=1, max_size=3))
    ]
    stacked = np.concatenate([corpus.messages for corpus in corpora])
    _, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(corpus.messages) for corpus in corpora])[:-1]
    for corpus, ids in zip(corpora, np.split(message_ids.reshape(-1), bounds)):
        n = len(corpus.sample_ids)
        keys, shares = _listener_table(corpus, ids, n)
        assert (np.diff(keys) > 0).all()
        rows = zip(ids.tolist(), corpus.owners.tolist(), corpus.counts.tolist())
        share_of = {(message_id, owner): count / corpus.totals[owner] for message_id, owner, count in rows}
        table = zip(keys.tolist(), shares.tolist())
        assert {(key // n, key % n): share for key, share in table} == share_of


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_owner_is_the_pick_among_all_samples(data):
    """Per message id of a population, ``_top_owners`` is the brute-force argmax
    over every sample of the listener (share descending, then id), and -1 for a
    message it never heard; shares tie often, and a listener may be given its
    rows out of canonical order."""
    row = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(1, 3))  # owner, token, count
    corpora = []
    for rows in data.draw(st.lists(st.lists(row, min_size=1, max_size=12), min_size=1, max_size=3)):
        corpus = build_corpus(
            TOKEN_SCHEMA, 4, 1, [(f"s{owner}", {"a": "x"}, (token,), count) for owner, token, count in rows]
        )
        if data.draw(st.booleans()):
            corpus = replace(
                corpus, messages=corpus.messages[::-1], owners=corpus.owners[::-1], counts=corpus.counts[::-1]
            )
        corpora.append(corpus)
    stacked = np.concatenate([corpus.messages for corpus in corpora])
    distinct, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(corpus.messages) for corpus in corpora])[:-1]
    for corpus, ids in zip(corpora, np.split(message_ids.reshape(-1), bounds)):
        n = len(corpus.sample_ids)
        rows = zip(ids.tolist(), corpus.owners.tolist(), corpus.counts.tolist())
        share_of = {(message_id, owner): count / corpus.totals[owner] for message_id, owner, count in rows}
        expected = []
        for message_id in range(len(distinct)):
            share, owner = max((share_of.get((message_id, owner), 0.0), -owner) for owner in range(n))
            expected.append(-owner if share > 0 else -1)
        keys, shares = _listener_table(corpus, ids, n)
        assert _top_owners(keys, shares, n, len(distinct)).tolist() == expected


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
        for config in (
            GameConfig(seed=1, candidate_count=5, speakers=(agent,)),
            GameConfig(seed=1, candidate_count=5, listeners=(agent,)),
        ):
            with pytest.raises(ConfigError):
                run_lewis_game(corpus, config)
