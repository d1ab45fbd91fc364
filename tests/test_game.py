from __future__ import annotations

import numpy as np
import pytest

from emlang.corpus import build_corpus
from emlang.errors import ConfigError
from emlang.game import CorpusListener, CorpusSpeaker, GameConfig, run_lewis_game
from emlang.metrics import accuracy_per_speaker
from emlang.synth import all_combinations, gen_compositional


def constant_corpus(moprd):
    records = [
        (f"{i:02d}", combo, (0,) * 10, 1)
        for i, combo in enumerate(all_combinations(moprd))
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
        speakers=tuple(CorpusSpeaker(corpus) for _ in range(10)),
        listeners=tuple(CorpusListener(corpus) for _ in range(10)),
    )
    matrix = run_lewis_game(corpus, config)
    assert matrix.values == tuple((1.0,) * 10 for _ in range(10))
    assert accuracy_per_speaker(matrix) == (1.0,) * 10


def test_cells_independent_of_population_shape(moprd):
    """Cell (i, j) only depends on (seed, i, j), not on the matrix size."""
    corpus, _ = gen_compositional(moprd, 10, 20, seed=3)
    speaker, listener = CorpusSpeaker(constant_corpus(moprd)), CorpusListener(corpus)
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
            speakers=(speaker, CorpusSpeaker(corpus)),
            listeners=(listener, CorpusListener(corpus)),
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


def test_corpus_listener_decodes_corpus_speaker(moprd):
    corpus, _ = gen_compositional(moprd, 10, 20, seed=6)
    listener = CorpusListener(corpus)
    speaker = CorpusSpeaker(corpus)
    rng = np.random.default_rng(1)
    target = corpus.entries[13].sample.id
    message = speaker.emit(target, rng)
    assert listener.choose(message, list(corpus.sample_ids[:20]) + [target]) == target
