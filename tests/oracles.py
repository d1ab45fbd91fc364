"""Independent reference implementations used only to check the library.

Everything here recomputes results from definitions with exhaustive scans
and plain Python arithmetic; none of it shares code paths with the package
beyond the public data types.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from emlang.corpus import AnnotatedCorpus
from emlang.errors import AttributeMismatch, DocumentSyntaxError, LengthMismatch, TokenOutOfRange
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


def naive_run_starts(rows: list[tuple]) -> list[bool]:
    """Whether each row differs from the row before it, or is the first."""
    return [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]


def naive_first_of_max(groups: list, values: list) -> list[int]:
    """Per run of equal groups, in run order, the first index of its largest value."""
    firsts, start = [], 0
    for _, run in itertools.groupby(groups):
        stop = start + len(list(run))
        best = max(values[start:stop])
        firsts.append(next(i for i in range(start, stop) if values[i] == best))
        start = stop
    return firsts


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


def attribute_product(schema) -> list[dict[str, str]]:
    """Every attribute dict, in the order of ``itertools.product`` over the domains."""
    names = schema.attribute_names
    domains = [schema.domain(name) for name in names]
    return [dict(zip(names, combo)) for combo in itertools.product(*domains)]


def attribute_values(corpus) -> dict[str, dict[str, str]]:
    """{sample id: {attribute: value}}, samples in ``sample_ids`` order, each
    value spelt from its code through ``schema.domain``."""
    schema = corpus.schema
    return {
        sample_id: {
            name: schema.domain(name)[code]
            for name, code in zip(schema.attribute_names, row)
        }
        for sample_id, row in zip(corpus.sample_ids, corpus.attribute_codes.tolist())
    }


def rows_by_sample(corpus) -> dict[str, tuple[tuple[tuple[int, ...], int], ...]]:
    """{sample id: ((message, count), ...)}, every sample in ``sample_ids``
    order and its rows in row order, read from the arrays one row at a time."""
    ids = list(corpus.sample_ids)
    grouped = {sample_id: [] for sample_id in ids}
    rows = zip(corpus.owners.tolist(), corpus.messages.tolist(), corpus.counts.tolist())
    for owner, message, count in rows:
        grouped[ids[owner]].append((tuple(message), count))
    return {sample_id: tuple(messages) for sample_id, messages in grouped.items()}


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
    samples = attribute_values(corpus)
    for sample_id, messages in rows_by_sample(corpus).items():
        total = 0
        for _, count in messages:
            total += count
        retained = []
        for message, count in messages:
            if count / total >= threshold:
                retained.append((message, count))
        assert retained, "oracle does not model EmptySample"
        kept[sample_id] = retained

    def group_messages(prop, value):
        out = []
        for sid in kept:
            if naive_eval(schema, samples[sid], prop) == value:
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
            observed = {naive_eval(schema, samples[sid], prop) for sid in covered}
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
        for sample_id, messages in rows_by_sample(corpus).items():
            total = sum(count for _, count in messages)
            out[sample_id] = {m: count / total for m, count in messages}
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


def splitmix64_words(key, first: int, count: int) -> list[int]:
    """Words ``first .. first + count - 1`` of the counter-mode SplitMix64
    stream of the integers ``key``, in Python integers: the state starts at
    0 and takes in each key integer p as ``mix((state ^ (p mod 2**63)) +
    gamma)``, and word c is ``mix(state + (c + 1) * gamma)``, all modulo 2**64."""
    gamma, mask = 0x9E3779B97F4A7C15, 2**64 - 1

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    state = 0
    for part in key:
        state = mix(((state ^ (part % 2**63)) + gamma) & mask)
    return [mix((state + (c + 1) * gamma) & mask) for c in range(first, first + count)]


def naive_below(key, high: int, count: int) -> list[int]:
    """``count`` draws below ``high`` from the stream of ``key``: one word per
    draw, then, while any draw's word lies under 2**64 % high, one more word
    for each such draw in order; each draw is its last word % high."""
    words = splitmix64_words(key, 0, count)
    used, redo = count, [i for i, word in enumerate(words) if word < 2**64 % high]
    while redo:
        for i, word in zip(redo, splitmix64_words(key, used, len(redo))):
            words[i] = word
        used += len(redo)
        redo = [i for i in redo if words[i] < 2**64 % high]
    return [word % high for word in words]


def naive_load_corpus(text: str, schema):
    """Record-by-record corpus reader: one ``json.loads`` and one set of
    checks per line, in line order, then :func:`naive_build_corpus`."""
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise DocumentSyntaxError("corpus document is empty")
    header = _naive_json_line(lines[0], 1)
    meta = header.get("meta")
    if not isinstance(meta, dict) or "vocab_size" not in meta or "msg_len" not in meta:
        raise DocumentSyntaxError("first line must be a header")
    vocab_size, message_length = meta["vocab_size"], meta["msg_len"]
    if type(vocab_size) is not int or type(message_length) is not int:
        raise DocumentSyntaxError("vocab_size and msg_len must be integers")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _naive_json_line(line, lineno)
        if "sample" not in obj or "attrs" not in obj or "msg" not in obj:
            raise DocumentSyntaxError(f"line {lineno}: record needs 'sample', 'attrs', 'msg'")
        if not isinstance(obj["sample"], str):
            raise DocumentSyntaxError(f"line {lineno}: 'sample' must be a string")
        msg = obj["msg"]
        if not isinstance(msg, list) or not all(type(t) is int for t in msg):
            raise DocumentSyntaxError(f"line {lineno}: 'msg' must be a list of integers")
        count = obj.get("count", 1)
        if type(count) is not int:
            raise DocumentSyntaxError(f"line {lineno}: 'count' must be an integer")
        if not isinstance(obj["attrs"], dict):
            raise DocumentSyntaxError(f"line {lineno}: 'attrs' must be an object")
        records.append((obj["sample"], obj["attrs"], tuple(msg), count))
    return naive_build_corpus(schema, vocab_size, message_length, records)


def _naive_json_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {lineno}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"line {lineno}: expected a JSON object")
    return obj


def naive_build_corpus(schema, vocab_size: int, message_length: int, records):
    """Record-by-record corpus builder: validate every record's attributes,
    merge repeats in a dict, sort, then check every row and token in Python."""
    names = schema.attribute_names
    samples: dict[str, dict[str, str]] = {}
    merged: dict[str, dict[tuple, int]] = {}
    for sample_id, attrs, message, count in records:
        if sorted(attrs) != sorted(names):
            raise AttributeMismatch(f"sample {sample_id!r} must assign exactly {list(names)}")
        for name in names:
            if attrs[name] not in schema.domain(name):
                raise AttributeMismatch(f"sample {sample_id!r}: {attrs[name]!r} not in {name!r}")
        values = {name: attrs[name] for name in names}
        if sample_id in samples and samples[sample_id] != values:
            raise AttributeMismatch(f"sample {sample_id!r} annotated with conflicting values")
        samples.setdefault(sample_id, values)
        counts = merged.setdefault(sample_id, {})
        counts[message] = counts.get(message, 0) + count
    if not 1 <= message_length <= 2**16:
        raise DocumentSyntaxError("message length must lie in 1..2**16")
    if not 1 <= vocab_size <= 2**63:
        raise DocumentSyntaxError("vocabulary size must lie in 1..2**63")
    ids = sorted(samples)
    rows = [
        (owner, message, count)
        for owner, sample_id in enumerate(ids)
        for message, count in sorted(merged[sample_id].items())
    ]
    total = 0
    for owner, message, count in rows:
        if len(message) != message_length:
            raise LengthMismatch(f"sample {ids[owner]!r}: message of length {len(message)}")
        if any(t < 0 or t >= vocab_size for t in message):
            raise TokenOutOfRange(f"sample {ids[owner]!r}: token outside [0, {vocab_size})")
        if count < 1:
            raise DocumentSyntaxError(f"sample {ids[owner]!r}: message count must be >= 1")
        total += count
    if total >= 2**53:
        raise DocumentSyntaxError(f"message counts sum to {total}, at least 2**53")
    return AnnotatedCorpus(
        schema=schema,
        vocab_size=vocab_size,
        message_length=message_length,
        sample_ids=tuple(ids),
        attribute_codes=np.array(
            [[schema.domain(name).index(samples[i][name]) for name in names] for i in ids],
            dtype=np.int64,
        ).reshape(len(ids), len(names)),
        messages=np.array([message for _, message, _ in rows], dtype=np.int64).reshape(
            len(rows), message_length
        ),
        owners=np.array([owner for owner, _, _ in rows], dtype=np.int64),
        counts=np.array([count for _, _, count in rows], dtype=np.int64),
    )


def naive_serialize_corpus(corpus) -> str:
    """One ``json.dumps`` per record, walking the rows sample by sample."""
    lines = [
        json.dumps(
            {"meta": {"vocab_size": corpus.vocab_size, "msg_len": corpus.message_length}},
            ensure_ascii=False,
        )
    ]
    values = attribute_values(corpus)
    for sample_id, messages in rows_by_sample(corpus).items():
        for message, count in messages:
            record = {"sample": sample_id, "attrs": values[sample_id], "msg": list(message)}
            lines.append(json.dumps({**record, "count": count}, ensure_ascii=False))
    return "\n".join(lines) + "\n"
