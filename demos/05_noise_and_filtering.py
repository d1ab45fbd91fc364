"""
Outlier messages and the frequency filter
=========================================

Real speakers sometimes produce alternative messages for the same sample.  The
corpus filter keeps a message only when its count reaches a share of the
sample's total (15% by default), so rare synonyms vanish while established
variants survive.  The noisy generator lets us stage both cases exactly.
"""

from dataclasses import replace

import numpy as np

from emlang import filter_by_frequency, gen_compositional, gen_noisy, moprd_schema

schema = moprd_schema()
base, _ = gen_compositional(schema, message_length=10, vocab_size=20, seed=2)

# Give every message a count of 36 so 10% and 20% minority shares are exact.
# A corpus is columnar: one row per (sample, message) in base.messages, with
# its count in base.counts.
base = replace(base, counts=np.full_like(base.counts, 36))

quiet = gen_noisy(base, synonym_count=1, minority_share=0.10, seed=13)
print("10% synonyms, filtered at 15% -> base restored:",
      filter_by_frequency(quiet, 0.15) == base)

loud = gen_noisy(base, synonym_count=1, minority_share=0.20, seed=13)
print("20% synonyms, filtered at 15% -> nothing removed:",
      filter_by_frequency(loud, 0.15) == loud)

# the rows of the first sample: its base message and its synonym
rows = loud.owners == 0
print("sample", loud.sample_ids[0], "messages:",
      [(m[:4], c) for m, c in zip(loud.messages[rows].tolist(), loud.counts[rows].tolist())])
