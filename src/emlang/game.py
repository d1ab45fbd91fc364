"""Non-neural referential-game harness.

A speaker sees a target sample and describes it with a message; a listener
then has to pick the target out of a candidate set.  Agents are corpora over
the game corpus's samples: a speaker draws the target's message in proportion
to its counts, and a listener scores each candidate by that message's share
of the candidate's messages (0 if none), ties going to the smallest sample id.

Every (speaker, listener) cell owns an independent counter-based stream
(:class:`~emlang.kernels.Stream`) keyed by (seed, speaker index, listener
index), so the accuracy matrix is identical no matter how cells are
scheduled.  Episodes are played in array batches.
Each distinct listener corpus becomes one table of shares, built once and
sorted message-major (by message id, then by owner), so the k lookups of an
episode all fall in the block of the one message spoken.

Episodes whose target is the listener's pick among all samples for the message
spoken are hits whatever the distractors; they still make their draws, so the
stream and every matrix stay those of playing them out, but skip the scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, config_int
from .errors import ConfigError
from .kernels import Stream, first_of_max
from .metrics import AccuracyMatrix

# Candidates per batch (episodes x k).  Each batch reads the cell's stream in one
# order, targets, Floyd's draws, then counts, so a new size changes every matrix.
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


def _candidates(columns: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Each target and the ``k - 1`` others Floyd's algorithm picks from its column of
    draws, rows sorted; row c of ``columns`` holds draws below the c-th of ``n - k + 1
    .. n - 1``.  Resolves ``columns`` (C order) in place, row by earlier row."""
    for c, j in enumerate(range(n - len(columns) - 1, n - 1)):
        columns[c] = np.where((columns[:c] == columns[c]).any(axis=0), j, columns[c])
    columns += columns >= targets
    return np.sort(np.vstack((targets, columns)).T, axis=1)


def _listener_table(
    listener: AnnotatedCorpus, message_ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The listener's rows keyed message-major, ``message id * n + owner``, in key
    order, and each row's share of its owner's messages.  Keys are unique because
    a corpus holds one row per (owner, message)."""
    keys = message_ids * n + listener.owners
    order = np.argsort(keys)
    return keys[order], (listener.counts / listener.totals[listener.owners])[order]


def _top_owners(keys: np.ndarray, shares: np.ndarray, n: int, message_count: int) -> np.ndarray:
    """Per message id, the owner a listener table picks among all samples: the first
    of the largest share in the message's block of keys; -1 if it never heard it."""
    messages = keys // n
    first = first_of_max(messages, shares)
    top = np.full(message_count, -1, dtype=np.int64)
    top[messages[first]] = keys[first] % n
    return top


def run_lewis_game(corpus: AnnotatedCorpus, config: GameConfig) -> AccuracyMatrix:
    """Play every (speaker, listener) pair for ``episodes`` rounds each.

    Per episode: draw a target and ``candidate_count - 1`` distractors
    without replacement, let the speaker describe the target, and score a
    hit when the listener picks it.  The seed, candidate count and episode
    count are integers, numpy's included and bool not; else ConfigError.
    """
    fields = {"seed": config.seed, "candidate count": config.candidate_count,
              "episode count": config.episodes}
    seed, k, episodes = (config_int(value, name) for name, value in fields.items())
    n = len(corpus.sample_ids)
    if k < 2:
        raise ConfigError("candidate sets need at least two samples")
    if k > n:
        raise ConfigError(f"candidate count {k} exceeds {n} samples")
    if episodes < 1:
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
    # one message id space for the whole population
    stacked = np.concatenate([a.messages for a in agents.values()])
    distinct, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(a.messages) for a in agents.values()])[:-1]
    message_ids = dict(zip(agents, np.split(message_ids.reshape(-1), bounds)))
    # one table per distinct listener corpus, however many slots it fills
    listeners = {id(a): a for a in listener_corpora}
    tables = {key: _listener_table(agent, message_ids[key], n) for key, agent in listeners.items()}
    tops = {key: _top_owners(*table, n, len(distinct)) for key, table in tables.items()}
    batch = max(1, _BATCH_KEYS // k)
    floyd_bounds = np.arange(n - k + 1, n)[:, None]

    rows = []
    for i, speaker in enumerate(speaker_corpora):
        spoken, s_totals = message_ids[id(speaker)], speaker.totals
        cumulative = np.cumsum(speaker.counts)
        start = np.cumsum(s_totals) - s_totals
        row = []
        for j, listener in enumerate(listener_corpora):
            keys, shares = tables[id(listener)]
            sure = tops[id(listener)][spoken] == speaker.owners  # rows no distractor can beat
            stream = Stream(seed % 2**63, i, j)
            hits = 0
            for played in range(0, episodes, batch):
                size = min(batch, episodes - played)
                targets = stream.below(n, size)
                columns = stream.below(floyd_bounds, (k - 1, size))
                drawn = start[targets] + stream.below(s_totals[targets], size)
                said = np.searchsorted(cumulative, drawn, side="right")
                open_ = np.flatnonzero(~sure[said])
                hits += size - len(open_)
                targets, said = targets[open_], said[open_]
                # np.take keeps C order; columns[:, open_] is F order, which slows Floyd's rows
                candidates = _candidates(np.take(columns, open_, axis=1), targets, n)
                wanted = spoken[said, None] * n + candidates
                at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
                scores = np.where(keys[at] == wanted, shares[at], 0.0)
                chosen = candidates[np.arange(len(targets)), np.argmax(scores, axis=1)]
                hits += int(np.count_nonzero(chosen == targets))
            row.append(hits / episodes)
        rows.append(tuple(row))
    return AccuracyMatrix(values=tuple(rows), episodes_per_cell=episodes)
