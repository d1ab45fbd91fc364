"""
Referential-game accuracy
=========================

A speaker describes a target sample with a message; a listener must pick the
target out of a candidate set.  Agents are corpora: a speaker samples from
its corpus's per-sample message distributions, and a listener scores
candidates by the share of the message in its corpus.  An unambiguous
language wins every episode; a constant message leaves the listener
guessing at chance level 1/|C|.  A population of speaker and listener
corpora plays every pairing, each cell with its own random stream.
"""

from dataclasses import replace

import numpy as np

from emlang import accuracy_per_speaker, gen_compositional, moprd_schema, run_lewis_game

schema = moprd_schema()
language, _ = gen_compositional(schema, message_length=10, vocab_size=20, seed=1)

perfect = run_lewis_game(language, seed=5, candidate_count=20, episodes=1000)
print("unambiguous language:", perfect.values[0][0])

# The same samples, every one sending the all-zero message.
mute = replace(language, messages=np.zeros_like(language.messages))
chance = run_lewis_game(mute, seed=101, candidate_count=5, episodes=10_000)
print("constant message, |C|=5:", chance.values[0][0], "(chance is 0.2)")

population = run_lewis_game(
    language,
    seed=7,
    candidate_count=10,
    episodes=200,
    speakers=(language, mute),
    listeners=(language, mute),
)
print("population (language, mute) x (language, mute):", population.values)
print("per-speaker means:", accuracy_per_speaker(population))
