"""Non-neural referential-game harness.

A speaker sees a target sample and emits a message; a listener then has to
pick the target out of a candidate set.  Speakers sample from the per-sample
message distributions of a corpus; the listener is a Bayes-style decoder
scoring each candidate by the empirical likelihood of the observed message
under that candidate, with ties broken toward the smallest sample id.

Every (speaker, listener) cell owns an independent generator derived from
(seed, speaker index, listener index), so the accuracy matrix is identical
no matter how cells are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, Message
from .errors import ConfigError
from .metrics import AccuracyMatrix


class CorpusSpeaker:
    """Emits messages for a sample proportionally to their corpus counts."""

    def __init__(self, corpus: AnnotatedCorpus):
        self._table: dict[str, tuple[list[Message], np.ndarray]] = {}
        for entry in corpus.entries:
            messages = [m for m, _ in entry.messages]
            counts = np.array([c for _, c in entry.messages], dtype=float)
            self._table[entry.sample.id] = (messages, counts / counts.sum())

    def emit(self, sample_id: str, rng: np.random.Generator) -> Message:
        messages, probs = self._table[sample_id]
        if len(messages) == 1:
            return messages[0]
        return messages[rng.choice(len(messages), p=probs)]


class CorpusListener:
    """Scores candidates by empirical message likelihood; argmax, smallest id first."""

    def __init__(self, corpus: AnnotatedCorpus):
        self._share: dict[str, dict[Message, float]] = {}
        for entry in corpus.entries:
            total = entry.total_count()
            self._share[entry.sample.id] = {m: c / total for m, c in entry.messages}

    def choose(self, message: Message, candidate_ids: list[str]) -> str:
        best_id, best_score = None, -1.0
        for sample_id in sorted(candidate_ids):
            score = self._share.get(sample_id, {}).get(message, 0.0)
            if score > best_score:
                best_id, best_score = sample_id, score
        return best_id


@dataclass(frozen=True)
class GameConfig:
    """Evaluation setup; ``speakers``/``listeners`` default to corpus-backed agents."""

    seed: int
    candidate_count: int = 20
    episodes: int = 10_000
    speakers: tuple = ()
    listeners: tuple = ()

    __hash__ = None


def run_lewis_game(corpus: AnnotatedCorpus, config: GameConfig) -> AccuracyMatrix:
    """Play every (speaker, listener) pair for ``episodes`` rounds each.

    Per episode: draw a target and ``candidate_count - 1`` distractors
    without replacement, let the speaker describe the target, and score a
    hit when the listener picks it.
    """
    sample_ids = list(corpus.sample_ids)
    if config.candidate_count < 2:
        raise ConfigError("candidate sets need at least two samples")
    if config.candidate_count > len(sample_ids):
        raise ConfigError(
            f"candidate count {config.candidate_count} exceeds {len(sample_ids)} samples"
        )
    if config.episodes < 1:
        raise ConfigError("need at least one episode")

    speakers = list(config.speakers) or [CorpusSpeaker(corpus)]
    listeners = list(config.listeners) or [CorpusListener(corpus)]

    rows = []
    for i, speaker in enumerate(speakers):
        row = []
        for j, listener in enumerate(listeners):
            seq = np.random.SeedSequence([config.seed % (2**63), i, j])
            rng = np.random.default_rng(seq)
            hits = 0
            for _ in range(config.episodes):
                picked = rng.choice(len(sample_ids), size=config.candidate_count, replace=False)
                target = sample_ids[picked[0]]
                candidates = [sample_ids[k] for k in picked]
                message = speaker.emit(target, rng)
                if listener.choose(message, candidates) == target:
                    hits += 1
            row.append(hits / config.episodes)
        rows.append(tuple(row))
    return AccuracyMatrix(values=tuple(rows), episodes_per_cell=config.episodes)
