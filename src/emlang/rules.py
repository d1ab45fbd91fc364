"""Semantic rule extraction from annotated message corpora.

The detector partitions samples by the value of each property, finds message
positions that stay constant inside each group, apart from the corpus-wide
constant positions, which it never reads, and reports the position-token
combinations it finds as rules.
Each rule keeps two views of its meaning:

* evidence — the (property, value) groupings whose constant positions
  produced exactly this pattern;
* coverage — for every property, the set of values observed over the samples
  whose retained messages match the pattern.

Both are read off the corpus arrays: a group is the messages whose owners
share a code in one column of ``AnnotatedCorpus.codes``; coverage is the
distinct codes of the owners of the messages a pattern matches, which
:func:`observed_by_group` spells as values.  They are computed for all rules
at once, by :func:`semantic_rules`, from the sort-and-run kernels of
:mod:`emlang.kernels`; a pattern's coverage is read off the rule table.

All functions are pure over immutable corpora.  The rules come in canonical
order, by positions, then tokens, the empty pattern last, and that order
comes from the same array sort that merges the groups' equal patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedCorpus, filter_by_frequency
from .errors import EmptyCorpus
from .kernels import column_major, distinct_keys, find_rows, run_starts, token_keys
from .schema import AttributeSchema


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


def global_constants(corpus: AnnotatedCorpus) -> Pattern:
    """Positions, with their shared token, constant across every retained
    message of every sample."""
    messages = corpus.messages
    if not len(messages):
        raise EmptyCorpus("corpus holds no messages")
    constant = np.flatnonzero((messages == messages[0]).all(axis=0))
    return Pattern(tuple(zip(constant.tolist(), messages[0, constant].tolist())))


def semantic_rules(
    schema: AttributeSchema,
    values: np.ndarray,
    owners: np.ndarray,
    codes: np.ndarray,
    positions: list[int],
) -> tuple[SemanticRule, ...]:
    """The rules of a table of rows, in canonical order: the one grouping
    kernel, behind both :func:`extract_rules` and the generators' ground truth.

    Row r of ``values`` holds values at the ascending message ``positions``
    and belongs to sample ``owners[r]``, whose property codes are row
    ``owners[r]`` of ``codes``.  For each property column of ``codes`` and
    each of its codes that some row carries, that group of rows keeps the
    positions whose value is constant over it; groups that keep the same
    (position, value) cells make one rule, whose pattern is those cells and
    whose evidence is their (property, value) pairs.  A rule covers the
    samples that own a row carrying all its cells: its support counts them,
    and its coverage lists, per property, the values they show.

    Each property column is sorted once, and a value column is constant in a
    group iff its minimum over the group equals its maximum.  The order
    inside a group does not matter to either, so the sort need not be stable.
    All value columns are reduced at once: per property column, the work
    array is one copy of ``values``, gathered in that column's order from a
    column-major copy in the narrowest integer type that holds them.  The
    sort that makes the groups' cells distinct gives the canonical order:
    by positions, then values.
    """
    by_column = column_major(values)
    size = int(by_column.max(initial=0)) + 1  # every value lies below it
    group_columns, group_codes, lows, highs = [], [], [], []
    for column in range(codes.shape[1]):  # so the groups come in (column, code) order
        keys = codes[owners, column]
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(run_starts(keys))
        ranked = np.take(by_column, order, axis=1)
        lows.append(np.minimum.reduceat(ranked, starts, axis=1))
        highs.append(np.maximum.reduceat(ranked, starts, axis=1))
        group_columns.append(np.full(len(starts), column))
        group_codes.append(keys[starts])
    del ranked  # a copy of all the values, not to be held through the coverage
    column_of, code_of = np.concatenate(group_columns), np.concatenate(group_codes)
    low, high = np.concatenate(lows, axis=1).T, np.concatenate(highs, axis=1).T
    kept = low == high
    cells = np.where(kept, low, 0)

    # one rule per distinct (kept columns, cells) row, the empty one last; a
    # column counts 1 if kept, 2 if a later one is, else 0, so the counts sort
    # as the kept positions do and the rules of one position set are adjacent
    later = np.logical_or.accumulate(kept[:, ::-1], axis=1)[:, ::-1]
    position_keys = token_keys(np.where(kept, 1, 2 * later), 3)
    pattern_keys = [~kept.any(axis=1), *position_keys, *token_keys(cells, size)]
    order = np.lexsort(pattern_keys[::-1])
    new = run_starts(*(key[order] for key in pattern_keys))
    rule_of = np.empty(len(order), dtype=np.int64)
    rule_of[order] = np.cumsum(new) - 1
    firsts = order[new]
    kept, cells = kept[firsts], cells[firsts]
    # a kept-position set starts wherever a key ahead of the cells' keys breaks
    sets = run_starts(*(key[firsts] for key in pattern_keys[: 1 + len(position_keys)]))
    bounds = np.append(np.flatnonzero(sets), len(firsts))
    supports, coverages = _cover(schema, by_column, size, owners, codes, kept, cells, bounds)

    names = schema.property_names
    domains = [schema.domain(name) for name in names]
    evidence = [[] for _ in firsts]
    # the groups come in schema column order, then domain order, so evidence is canonical
    for rule, column, code in zip(rule_of.tolist(), column_of.tolist(), code_of.tolist()):
        evidence[rule].append((names[column], domains[column][code]))
    rows, at = np.nonzero(kept)
    pairs = tuple(zip(np.asarray(positions)[at].tolist(), cells[rows, at].tolist()))
    bounds = np.searchsorted(rows, np.arange(len(firsts) + 1)).tolist()
    return tuple(
        SemanticRule(Pattern(pairs[start:stop]), tuple(found), tuple(zip(names, coverage)), support)
        for start, stop, found, coverage, support in zip(
            bounds, bounds[1:], evidence, coverages, supports
        )
    )


def _cover(schema, by_column, size, owners, codes, kept, cells, bounds):
    """Support and coverage of each pattern, given as a row of ``kept``
    columns and its ``cells`` values there, over the rows whose values are
    the columns of ``by_column``: the patterns are distinct, and those that
    keep the same columns are adjacent, from each of ``bounds`` to the next.

    The patterns of one column set are matched against every row at once,
    and their covered (pattern, sample) pairs made distinct by one sort.
    So the work grows with the rows times the distinct column sets, which
    are no more than the groups nor the subsets of columns: one set for a
    noise-free concept corpus, where every group keeps the same positions,
    and more as noise breaks different positions in different groups."""
    count = max(1, len(codes))
    by_property = column_major(codes)
    supports, coverages = [], []
    for start, stop in zip(bounds, bounds[1:]):
        at = np.flatnonzero(kept[start])
        found = find_rows(cells[start:stop, at], by_column[at].T, size)
        hit = found >= 0
        pairs = distinct_keys(found[hit] * count + owners[hit])
        pattern, sample = np.divmod(pairs, count)
        supports += np.bincount(pattern, minlength=stop - start).tolist()
        coverages += observed_by_group(schema, by_property, sample, pattern, stop - start)
    return supports, coverages


def observed_by_group(
    schema: AttributeSchema, columns: np.ndarray, rows: np.ndarray, groups: np.ndarray, count: int
) -> list[tuple[tuple[str, ...], ...]]:
    """For each group k below ``count``, per property, the values present in
    the rows ``rows[i]`` with ``groups[i] == k``, in domain order; row
    ``column`` of ``columns`` holds each row's code of that property.

    Each property reads one sorted (group, code) key, so the work grows with
    the rows and the values found, not with the groups times the rows."""
    per_property = []
    for prop, column in zip(schema.property_names, columns):
        domain = schema.domain(prop)
        keys = groups * len(domain) + column[rows]
        group, code = np.divmod(distinct_keys(keys), len(domain))
        values = list(map(domain.__getitem__, code.tolist()))
        bounds = np.searchsorted(group, np.arange(count + 1)).tolist()
        per_property.append([tuple(values[a:b]) for a, b in zip(bounds, bounds[1:])])
    return list(zip(*per_property)) if per_property else [()] * count


def extract_rules(corpus: AnnotatedCorpus, threshold: float = 0.15) -> RuleTable:
    """Run the full detection pipeline and return the rule table.

    Steps: frequency-filter the corpus once, up front; compute the global
    constant pattern; for each property value with at least one sample,
    intersect the group's retained messages at the other positions; merge
    identical patterns (all empty candidates collapse into one rule); attach
    coverage.  The groups, their patterns, coverage and canonical order come
    from :func:`semantic_rules`, which never reads the constant positions.
    """
    filtered = filter_by_frequency(corpus, threshold)
    globals_ = global_constants(filtered)
    constant = set(globals_.positions)
    positions = [p for p in range(filtered.message_length) if p not in constant]
    rules = semantic_rules(
        filtered.schema, filtered.messages[:, positions], filtered.owners, filtered.codes,
        positions,
    )
    return RuleTable(
        message_length=filtered.message_length,
        global_constants=globals_,
        rules=rules,
    )
