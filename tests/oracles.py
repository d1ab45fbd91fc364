"""Independent reference implementations used only to check the library.

Everything here recomputes results from definitions with exhaustive scans
and plain Python arithmetic; none of it shares code paths with the package
beyond the public data types.
"""

from __future__ import annotations

import math
from functools import lru_cache

from emlang.rules import Pattern, RuleTable, SemanticRule
from emlang.schema import And, Equals, Member, Not, Or, Ref, ValueMap


def brute_levenshtein(a, b) -> int:
    """Definitional edit distance via memoized recursion."""

    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        best = solve(i + 1, j + 1) + (a[i] != b[j])
        best = min(best, solve(i + 1, j) + 1)
        best = min(best, solve(i, j + 1) + 1)
        return best

    return solve(0, 0)


def hamming(a, b) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def brute_ranks(values) -> list[float]:
    """Average ranks computed by counting, element by element."""
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # ranks smaller+1 .. smaller+equal share this value; take their mean
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def brute_spearman(x, y) -> float:
    """Rank both sequences, then Pearson by the explicit sum formulas."""
    rx, ry = brute_ranks(x), brute_ranks(y)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return num / math.sqrt(vx * vy)


def naive_eval(schema, values, prop) -> str:
    """Definitional property value of one sample by walking the schema's trees.

    Re-evaluates referenced hyperattributes on every reference, exactly as
    the definitions read; exponential on deep reference chains, so only fit
    for small schemas.
    """
    if prop in schema.attribute_names:
        return values[prop]
    (body,) = [h.body for h in schema.hyperattributes if h.name == prop]
    if isinstance(body, ValueMap):
        return dict(body.cases)[naive_eval(schema, values, body.source)]

    def holds(expr) -> bool:
        if isinstance(expr, Ref):
            return naive_eval(schema, values, expr.name) == "T"
        if isinstance(expr, Equals):
            return naive_eval(schema, values, expr.prop) == expr.value
        if isinstance(expr, Member):
            return naive_eval(schema, values, expr.prop) in expr.values
        if isinstance(expr, Not):
            return not holds(expr.operand)
        if isinstance(expr, And):
            return holds(expr.left) and holds(expr.right)
        assert isinstance(expr, Or)
        return holds(expr.left) or holds(expr.right)

    return "T" if holds(body) else "F"


def naive_extract_rules(corpus, threshold: float, properties=None) -> RuleTable:
    """Exhaustive-scan re-derivation of the whole extraction pipeline."""
    schema = corpus.schema

    # frequency filter, recomputed from scratch
    kept: dict[str, list[tuple[tuple[int, ...], int]]] = {}
    samples = {}
    for entry in corpus.entries:
        samples[entry.sample.id] = entry.sample
        total = 0
        for _, count in entry.messages:
            total += count
        retained = []
        for message, count in entry.messages:
            if count / total >= threshold:
                retained.append((message, count))
        assert retained, "oracle does not model EmptySample"
        kept[entry.sample.id] = retained

    def group_messages(prop, value):
        out = []
        for sid in kept:
            if naive_eval(schema, samples[sid].values, prop) == value:
                for message, _ in kept[sid]:
                    out.append(message)
        return out

    def constant_cells(messages):
        cells = {}
        for pos in range(corpus.message_length):
            tokens = {m[pos] for m in messages}
            if len(tokens) == 1:
                cells[pos] = next(iter(tokens))
        return cells

    all_messages = [m for sid in kept for m, _ in kept[sid]]
    global_cells = constant_cells(all_messages)

    props = list(properties) if properties is not None else list(schema.property_names)
    found: list[tuple[dict, set]] = []
    for prop in props:
        for value in schema.domain(prop):
            group = group_messages(prop, value)
            if not group:
                continue
            cells = {
                pos: tok
                for pos, tok in constant_cells(group).items()
                if pos not in global_cells
            }
            for existing_cells, evidence in found:
                if existing_cells == cells:
                    evidence.add((prop, value))
                    break
            else:
                found.append((cells, {(prop, value)}))

    prop_order = {name: i for i, name in enumerate(schema.property_names)}

    def matches(message, cells):
        return all(message[pos] == tok for pos, tok in cells.items())

    rules = []
    for cells, evidence in found:
        covered = [
            sid for sid in kept if any(matches(m, cells) for m, _ in kept[sid])
        ]
        coverage = []
        for prop in schema.property_names:
            observed = {naive_eval(schema, samples[sid].values, prop) for sid in covered}
            coverage.append(
                (prop, tuple(v for v in schema.domain(prop) if v in observed))
            )
        rules.append(
            SemanticRule(
                pattern=Pattern.from_dict(cells),
                evidence=tuple(
                    sorted(
                        evidence,
                        key=lambda pv: (
                            prop_order[pv[0]],
                            schema.domain(pv[0]).index(pv[1]),
                        ),
                    )
                ),
                coverage=tuple(coverage),
                support=len(covered),
            )
        )

    rules.sort(
        key=lambda r: (
            len(r.pattern.cells) == 0,
            tuple(p for p, _ in r.pattern.cells),
            tuple(t for _, t in r.pattern.cells),
        )
    )
    return RuleTable(
        message_length=corpus.message_length,
        global_constants=Pattern.from_dict(global_cells),
        rules=tuple(rules),
    )


def closed_form_accuracy(speaker, listener, k: int) -> float:
    """Expected referential-game hit rate of corpus ``speaker`` against ``listener``.

    Per target t and message m, spoken with probability p_S(t, m), the
    listener misses exactly when a candidate beats t on m (a larger share of
    its messages under the listener) or ties it with a smaller id.  With B
    such samples among the other n - 1, all k - 1 distractors avoid them with
    probability C(n - 1 - B, k - 1) / C(n - 1, k - 1).
    """

    def shares(corpus):
        out = {}
        for entry in corpus.entries:
            total = sum(count for _, count in entry.messages)
            out[entry.sample.id] = {m: count / total for m, count in entry.messages}
        return out

    spoken, heard = shares(speaker), shares(listener)
    n = len(spoken)
    draws = math.comb(n - 1, k - 1)
    accuracy = 0.0
    for target, messages in spoken.items():
        for message, p in messages.items():
            own = heard[target].get(message, 0.0)
            beaten_by = 0
            for other, theirs in heard.items():
                score = theirs.get(message, 0.0)
                if other != target and (score > own or (score == own and other < target)):
                    beaten_by += 1
            accuracy += p * math.comb(n - 1 - beaten_by, k - 1) / draws
    return accuracy / n
