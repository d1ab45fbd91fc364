"""Semantic rule extraction from annotated message corpora.

The detector partitions samples by the value of each property, finds message
positions that stay constant inside each group, strips corpus-wide constant
positions, and reports the surviving position-token combinations as rules.
Each rule keeps two views of its meaning:

* evidence — the (property, value) groupings whose constant positions
  produced exactly this pattern;
* coverage — for every property, the set of values observed over the samples
  whose retained messages match the pattern.

Both are read off the corpus arrays: a group is the messages whose owners
share a code in one column of ``AnnotatedCorpus.codes``; coverage is the
distinct codes of the owners of the messages a pattern matches.

All functions are pure over immutable corpora; group computations are
independent and merged in a canonical order, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, Message, filter_by_frequency
from .errors import EmptyCorpus, EmptyInput
from .schema import observed_values


@dataclass(frozen=True)
class Pattern:
    """A partial assignment of tokens to message positions."""

    cells: tuple[tuple[int, int], ...]  # (position, token), sorted by position

    @staticmethod
    def from_dict(assignments: dict[int, int]) -> "Pattern":
        return Pattern(cells=tuple(sorted(assignments.items())))

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.cells)

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(tok for _, tok in self.cells)

    def is_empty(self) -> bool:
        return not self.cells

    def without_positions(self, positions: set[int]) -> "Pattern":
        return Pattern(cells=tuple(c for c in self.cells if c[0] not in positions))


@dataclass(frozen=True)
class SemanticRule:
    pattern: Pattern
    evidence: tuple[tuple[str, str], ...]
    coverage: tuple[tuple[str, tuple[str, ...]], ...]
    support: int


@dataclass(frozen=True)
class RuleTable:
    message_length: int
    global_constants: Pattern
    rules: tuple[SemanticRule, ...]

    @property
    def rule_count(self) -> int:
        return len(self.rules)


def constant_positions(messages: list[Message] | np.ndarray) -> Pattern:
    """Positions (with their shared token) on which all messages agree."""
    if len(messages) == 0:
        raise EmptyInput("cannot intersect an empty message set")
    arr = np.asarray(messages, dtype=np.int64)
    constant = (arr == arr[0]).all(axis=0)
    return Pattern.from_dict(
        {int(pos): int(arr[0, pos]) for pos in np.flatnonzero(constant)}
    )


def global_constants(corpus: AnnotatedCorpus) -> Pattern:
    """Positions constant across every retained message of every sample."""
    if not len(corpus.messages):
        raise EmptyCorpus("corpus holds no messages")
    return constant_positions(corpus.messages)


def coverage_summary(
    corpus: AnnotatedCorpus, pattern: Pattern
) -> tuple[dict[str, tuple[str, ...]], int]:
    """Observed value sets per property, and support, over covered samples.

    A sample is covered when at least one of its retained messages matches
    the pattern; the empty pattern covers every sample.  Value sets come
    back in domain order; an uncovered corpus yields empty sets, support 0.
    """
    matched = (corpus.messages[:, list(pattern.positions)] == pattern.tokens).all(axis=1)
    covered = np.unique(corpus.owners[matched])
    return observed_values(corpus.schema, corpus.codes[covered]), len(covered)


def rule_sort_key(rule: SemanticRule):
    """Canonical rule order: by positions, then tokens; empty pattern last."""
    return (rule.pattern.is_empty(), rule.pattern.positions, rule.pattern.tokens)


def canonical_evidence(
    corpus_schema, pairs: set[tuple[str, str]]
) -> tuple[tuple[str, str], ...]:
    """Order evidence pairs by schema property order, then domain order."""
    return tuple(sorted(
        pairs, key=lambda pv: (corpus_schema.column(pv[0]), corpus_schema.domain_index(*pv))
    ))


def extract_rules(
    corpus: AnnotatedCorpus,
    threshold: float = 0.15,
    properties: list[str] | None = None,
) -> RuleTable:
    """Run the full detection pipeline and return the rule table.

    Steps: frequency-filter the corpus once, up front; compute the global
    constant pattern; for each property value with at least one sample,
    intersect the group's retained messages and strip global positions;
    merge identical patterns (all empty candidates collapse into one rule);
    attach coverage; sort canonically.
    """
    filtered = filter_by_frequency(corpus, threshold)
    schema = filtered.schema
    props = schema.property_names if properties is None else tuple(properties)
    columns = [schema.column(prop) for prop in props]  # an unknown name raises UnknownReference

    globals_ = global_constants(filtered)
    global_pos = set(globals_.positions)

    candidates: dict[Pattern, set[tuple[str, str]]] = {}
    for prop, index in zip(props, columns):
        column = filtered.codes[filtered.owners, index]
        for code, value in enumerate(schema.domain(prop)):
            group = filtered.messages[column == code]
            if not len(group):
                continue
            pattern = constant_positions(group).without_positions(global_pos)
            candidates.setdefault(pattern, set()).add((prop, value))

    rules = []
    for pattern, evidence in candidates.items():
        coverage, support = coverage_summary(filtered, pattern)
        rules.append(
            SemanticRule(
                pattern=pattern,
                evidence=canonical_evidence(schema, evidence),
                coverage=tuple(coverage.items()),
                support=support,
            )
        )
    return RuleTable(
        message_length=filtered.message_length,
        global_constants=globals_,
        rules=tuple(sorted(rules, key=rule_sort_key)),
    )
