"""Non-neural referential-game harness.

A speaker sees a target sample and describes it with a message; a listener
then has to pick the target out of a candidate set.  Agents are corpora over
the game corpus's samples: a speaker draws the target's message in proportion
to its counts, and a listener scores each candidate by that message's share
of the candidate's messages (0 if none), ties going to the smallest sample id.

Every (speaker, listener) cell owns an independent generator derived from
(seed, speaker index, listener index), so the accuracy matrix is identical
no matter how cells are scheduled.  Episodes are played in array batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus
from .errors import ConfigError
from .metrics import AccuracyMatrix

# Candidates per batch (episodes x k); larger batches cost memory, not time.
_BATCH_KEYS = 2**14


@dataclass(frozen=True)
class GameConfig:
    """Evaluation setup; ``speakers``/``listeners`` default to ``(corpus,)``."""

    seed: int
    candidate_count: int = 20
    episodes: int = 10_000
    speakers: tuple[AnnotatedCorpus, ...] = ()
    listeners: tuple[AnnotatedCorpus, ...] = ()

    __hash__ = None


def _candidates(rng: np.random.Generator, targets: np.ndarray, n: int, k: int) -> np.ndarray:
    """Each target and ``k - 1`` distinct other samples, rows sorted: Floyd's algorithm,
    column by column, so every subset is equally likely at O(k) draws per episode."""
    others = np.empty((len(targets), k - 1), dtype=np.int64)
    for c, j in enumerate(range(n - k, n - 1)):
        drawn = rng.integers(j + 1, size=len(targets))
        others[:, c] = np.where((others[:, :c] == drawn[:, None]).any(axis=1), j, drawn)
    others += others >= targets[:, None]
    return np.sort(np.column_stack((targets, others)), axis=1)


def run_lewis_game(corpus: AnnotatedCorpus, config: GameConfig) -> AccuracyMatrix:
    """Play every (speaker, listener) pair for ``episodes`` rounds each.

    Per episode: draw a target and ``candidate_count - 1`` distractors
    without replacement, let the speaker describe the target, and score a
    hit when the listener picks it.
    """
    n, k = len(corpus.samples), config.candidate_count
    if k < 2:
        raise ConfigError("candidate sets need at least two samples")
    if k > n:
        raise ConfigError(f"candidate count {k} exceeds {n} samples")
    if config.episodes < 1:
        raise ConfigError("need at least one episode")

    speaker_corpora = config.speakers or (corpus,)
    listener_corpora = config.listeners or (corpus,)
    agents = {id(a): a for a in (*speaker_corpora, *listener_corpora)}
    for agent in agents.values():
        # samples are sorted by id, so an agent's owners index the game corpus's samples
        if agent.sample_ids != corpus.sample_ids or agent.message_length != corpus.message_length:
            raise ConfigError(
                "an agent corpus must hold the game corpus's samples and message length"
            )
    # one message id space for the whole population, sorted once
    stacked = np.concatenate([a.messages for a in agents.values()])
    distinct, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(a.messages) for a in agents.values()])[:-1]
    message_ids = dict(zip(agents, np.split(message_ids.reshape(-1), bounds)))
    # rows are canonical, sorted by owner and then tokens, and ``np.unique``
    # numbers messages in the same token order: each agent's keys are sorted
    listeners = [
        (a.owners * len(distinct) + message_ids[id(a)], a.counts / a.totals[a.owners])
        for a in listener_corpora
    ]
    batch = max(1, _BATCH_KEYS // k)

    rows = []
    for i, speaker in enumerate(speaker_corpora):
        spoken, s_totals = message_ids[id(speaker)], speaker.totals
        cumulative = np.cumsum(speaker.counts)
        start = np.cumsum(s_totals) - s_totals
        row = []
        for j, (keys, shares) in enumerate(listeners):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed % (2**63), i, j]))
            hits = 0
            for played in range(0, config.episodes, batch):
                size = min(batch, config.episodes - played)
                targets = rng.integers(n, size=size)
                candidates = _candidates(rng, targets, n, k)
                drawn = start[targets] + rng.integers(s_totals[targets])
                message = spoken[np.searchsorted(cumulative, drawn, side="right")]
                wanted = candidates * len(distinct) + message[:, None]
                at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
                scores = np.where(keys[at] == wanted, shares[at], 0.0)
                chosen = candidates[np.arange(size), np.argmax(scores, axis=1)]
                hits += int(np.count_nonzero(chosen == targets))
            row.append(hits / config.episodes)
        rows.append(tuple(row))
    return AccuracyMatrix(values=tuple(rows), episodes_per_cell=config.episodes)
