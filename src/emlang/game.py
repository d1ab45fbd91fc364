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

No candidate set is drawn.  If B samples beat the target on the message
spoken, the k - 1 distractors, a uniform subset of the other n - 1 samples,
miss them all with chance C(n - 1 - B, k - 1) / C(n - 1, k - 1) (Lewis 1969,
Skyrms 2010).  An episode hits when a uniform draw below 2**53 lies below
2**53 times that chance, so surely at B = 0.  B is read from one table per
distinct listener corpus, sorted message-major (by message id, then owner).
"""

from __future__ import annotations

import numpy as np

from .corpus import AnnotatedCorpus, config_int
from .errors import ConfigError
from .kernels import Stream
from .metrics import AccuracyMatrix

# Episodes per batch.  Each batch reads the cell's stream in one order, targets,
# counts, then hit draws, so a new size changes every matrix.
_BATCH = 2**14
_SCALE = 2**53  # hit draws are uniform below it, and a float holds each exactly


def _listener_table(
    listener: AnnotatedCorpus, message_ids: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The listener's rows keyed message-major, ``message id * n + owner``, in key
    order, and each row's beaten-by count: its rank in its message's block by share
    descending, then by owner.  Keys are unique because a corpus holds one row per
    (owner, message)."""
    keys = message_ids * n + listener.owners
    shares = listener.counts / listener.totals[listener.owners]
    order = np.argsort(keys)
    ranked = np.lexsort((listener.owners, -shares, message_ids))
    beaten = np.empty(len(keys), dtype=np.int64)
    beaten[ranked] = np.arange(len(keys)) - np.searchsorted(keys[order], message_ids[ranked] * n)
    return keys[order], beaten[order]


def _beaten_by(
    keys: np.ndarray, beaten: np.ndarray, n: int, messages: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per (message id, target), how many samples beat the target on the message
    under a listener table: a larger share, or the same share and a smaller id.  A
    target that never heard the message is beaten by the message's whole block and
    by every sample below it outside the block."""
    wanted = messages * n + targets
    at = np.searchsorted(keys, wanted)
    found = at.clip(max=len(keys) - 1)
    unheard = np.searchsorted(keys, (messages + 1) * n) - at + targets
    return np.where(keys[found] == wanted, beaten[found], unheard)


def _hit_chances(n: int, k: int) -> np.ndarray:
    """``_SCALE`` times C(n - 1 - b, k - 1) / C(n - 1, k - 1) for b = 0 .. n - 1, the
    chance that k - 1 distractors drawn from n - 1 samples miss the b that beat a
    target: exactly ``_SCALE`` at b = 0 and exactly 0 from b = n - k + 1 on."""
    b = np.arange(n - 1)
    return np.cumprod(np.concatenate(([float(_SCALE)], (n - k - b).clip(0) / (n - 1 - b))))


def run_lewis_game(
    corpus: AnnotatedCorpus,
    seed: int,
    *,
    candidate_count: int = 20,
    episodes: int = 10_000,
    speakers: tuple[AnnotatedCorpus, ...] = (),
    listeners: tuple[AnnotatedCorpus, ...] = (),
) -> AccuracyMatrix:
    """Play every (speaker, listener) pair for ``episodes`` rounds each;
    ``speakers`` and ``listeners`` default to ``(corpus,)``.

    Per episode: draw a target, let the speaker describe it, and score a hit
    with the chance that none of ``candidate_count - 1`` distractors, drawn
    without replacement, beats it under the listener.  The seed, candidate
    count and episode count are integers, numpy's included and bool not;
    else ConfigError.
    """
    fields = {"seed": seed, "candidate count": candidate_count, "episode count": episodes}
    seed, k, episodes = (config_int(value, name) for name, value in fields.items())
    n = len(corpus.sample_ids)
    if k < 2:
        raise ConfigError("candidate sets need at least two samples")
    if k > n:
        raise ConfigError(f"candidate count {k} exceeds {n} samples")
    if episodes < 1:
        raise ConfigError("need at least one episode")

    speaker_corpora = speakers or (corpus,)
    listener_corpora = listeners or (corpus,)
    agents = {id(a): a for a in (*speaker_corpora, *listener_corpora)}
    for agent in agents.values():
        # samples are sorted by id, so an agent's owners index the game corpus's samples
        if agent.sample_ids != corpus.sample_ids or agent.message_length != corpus.message_length:
            raise ConfigError(
                "an agent corpus must hold the game corpus's samples and message length"
            )
    # one message id space for the whole population
    stacked = np.concatenate([a.messages for a in agents.values()])
    _, message_ids = np.unique(stacked, axis=0, return_inverse=True)
    bounds = np.cumsum([len(a.messages) for a in agents.values()])[:-1]
    message_ids = dict(zip(agents, np.split(message_ids.reshape(-1), bounds)))
    # one table per distinct listener corpus, however many slots it fills
    listeners = {id(a): a for a in listener_corpora}
    tables = {key: _listener_table(agent, message_ids[key], n) for key, agent in listeners.items()}
    chances = _hit_chances(n, k)

    rows = []
    for i, speaker in enumerate(speaker_corpora):
        spoken, s_totals = message_ids[id(speaker)], speaker.totals
        cumulative = np.cumsum(speaker.counts)
        start = np.cumsum(s_totals) - s_totals
        row = []
        for j, listener in enumerate(listener_corpora):
            # per speaker row, the scaled chance that its episodes hit
            chance = chances[_beaten_by(*tables[id(listener)], n, spoken, speaker.owners)]
            stream = Stream(seed, i, j)
            hits = 0
            for played in range(0, episodes, _BATCH):
                size = min(_BATCH, episodes - played)
                targets = stream.below(n, size)
                drawn = start[targets] + stream.below(s_totals[targets], size)
                said = np.searchsorted(cumulative, drawn, side="right")
                hits += int(np.count_nonzero(stream.below(_SCALE, size) < chance[said]))
            row.append(hits / episodes)
        rows.append(tuple(row))
    return AccuracyMatrix(values=tuple(rows), episodes_per_cell=episodes)
