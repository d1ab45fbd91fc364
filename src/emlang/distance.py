"""Edit distance between two messages, in plain Python.

This module imports no numpy, so ``emlang distance`` starts without it;
``metrics.pairwise_levenshtein`` computes the same distance for many pairs
at once.
"""

from __future__ import annotations


def levenshtein(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Minimal number of token insertions, deletions, and substitutions."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, token_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, token_b in enumerate(b, start=1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (token_a != token_b),
            )
        previous = current
    return previous[len(b)]
