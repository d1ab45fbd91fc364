"""Benchmark workloads: seeded inputs, CLI invocations and output checks.

Every input is generated here from the workload seed; the program under test
receives only the files written to the work directory.  Nothing in this
module imports ``emlang``, so the inputs and the checks stay byte-for-byte
the same whichever version of the program is measured.

Each workload is built so that one layer does most of the work:

* ``extract-noisy``: rule extraction with the frequency filter over a
  5-attribute x 5-value schema; the ``rules`` and ``schema`` layers dominate.
* ``topsim-sampled``: sampled TopSim over the same schema's compositional
  corpus; the ``metrics`` layer dominates.
* ``game-population``: a 4 x 4 referential game over a tiny corpus; the
  ``game`` episode loop dominates.
* ``synth-noisy``: the noisy generator over the compositional corpus; the
  ``corpus`` write path dominates.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Message = tuple[int, ...]


class CheckFailed(Exception):
    """The program's output breaks a law the workload guarantees."""


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

LOW = ("v0", "v1", "v2")


@dataclass(frozen=True)
class Hyper:
    """A hyperattribute: its schema entry, domain and a reference evaluator."""

    entry: dict
    domain: tuple[str, ...]
    evaluate: Callable[[dict[str, str]], str]


@dataclass(frozen=True)
class SchemaSpec:
    attributes: tuple[tuple[str, tuple[str, ...]], ...]
    hypers: tuple[Hyper, ...]

    @property
    def domains(self) -> tuple[tuple[str, ...], ...]:
        return tuple(domain for _, domain in self.attributes)

    def document(self) -> str:
        doc = {
            "attributes": [{"name": n, "values": list(d)} for n, d in self.attributes],
            "hyperattributes": [h.entry for h in self.hypers],
        }
        return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

    def attribute_values(self, combo: tuple[int, ...]) -> dict[str, str]:
        """Attribute name -> value for a combination of value indices."""
        return {name: domain[v] for (name, domain), v in zip(self.attributes, combo)}

    def property_values(self, attrs: dict[str, str]) -> dict[str, str]:
        """Every property's value, hyperattributes in declaration order."""
        values = dict(attrs)
        for hyper in self.hypers:
            values[hyper.entry["name"]] = hyper.evaluate(values)
        return values

    def property_domains(self) -> dict[str, tuple[str, ...]]:
        domains = dict(self.attributes)
        for hyper in self.hypers:
            domains[hyper.entry["name"]] = hyper.domain
        return domains


def _flag(condition: bool) -> str:
    return "T" if condition else "F"


def grid_schema(attributes: int, values: int) -> SchemaSpec:
    """``attributes`` attributes of ``values`` values each, four boolean
    hyperattributes (two built on other hyperattributes) and one value map,
    so every group evaluates nested expressions."""
    band = {f"v{k}": ("lo", "mid", "hi")[3 * k // values] for k in range(values)}
    return SchemaSpec(
        attributes=tuple(
            (f"a{i}", tuple(f"v{k}" for k in range(values))) for i in range(attributes)
        ),
        hypers=(
            Hyper({"name": "low0", "expr": "a0 in {v0, v1, v2}"}, ("F", "T"),
                  lambda p: _flag(p["a0"] in LOW)),
            Hyper({"name": "low1", "expr": "a1 in {v0, v1, v2}"}, ("F", "T"),
                  lambda p: _flag(p["a1"] in LOW)),
            Hyper({"name": "both_low", "expr": "low0 and low1"}, ("F", "T"),
                  lambda p: _flag(p["low0"] == "T" and p["low1"] == "T")),
            Hyper({"name": "both_high", "expr": "not low0 and not low1"}, ("F", "T"),
                  lambda p: _flag(p["low0"] == "F" and p["low1"] == "F")),
            Hyper({"name": "band2", "map": {"source": "a2", "cases": band}}, ("lo", "mid", "hi"),
                  lambda p: band[p["a2"]]),
        ),
    )


# 5 attributes x 5 values: 3125 samples
GRID = grid_schema(5, 5)

SHAPES = ("□", "○", "■", "●", "×")
FILLED = ("■", "●")

# The two-shapes-plus-relationship schema (100 combinations).
MOPRD = SchemaSpec(
    attributes=(("shape1", SHAPES), ("shape2", SHAPES), ("relationship", ("→", "↗", "↑", "↖"))),
    hypers=(
        Hyper({"name": "fill1", "expr": "shape1 in {■, ●}"}, ("F", "T"),
              lambda p: _flag(p["shape1"] in FILLED)),
        Hyper({"name": "fill2", "expr": "shape2 in {■, ●}"}, ("F", "T"),
              lambda p: _flag(p["shape2"] in FILLED)),
        Hyper({"name": "all_fill", "expr": "fill1 and fill2"}, ("F", "T"),
              lambda p: _flag(p["fill1"] == "T" and p["fill2"] == "T")),
        Hyper({"name": "all_empty", "expr": "not fill1 and not fill2"}, ("F", "T"),
              lambda p: _flag(p["fill1"] == "F" and p["fill2"] == "F")),
        Hyper({"name": "aligned", "expr": "relationship in {→, ↑}"}, ("F", "T"),
              lambda p: _flag(p["relationship"] in ("→", "↑"))),
    ),
)


# ---------------------------------------------------------------------------
# Compositional languages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Language:
    """One dedicated position per attribute; value codes disjoint from each
    other and from the filler tokens, so message edit distance equals
    attribute edit distance."""

    spec: SchemaSpec
    length: int
    vocab: int
    positions: tuple[int, ...]
    codes: tuple[tuple[int, ...], ...]
    fixed: tuple[tuple[int, int], ...]

    def encode(self, combo: tuple[int, ...]) -> Message:
        message = dict(self.fixed)
        for pos, codes, value in zip(self.positions, self.codes, combo):
            message[pos] = codes[value]
        return tuple(message[p] for p in range(self.length))


def make_language(spec: SchemaSpec, length: int, vocab: int, rng: random.Random) -> Language:
    sizes = [len(d) for d in spec.domains]
    if vocab < sum(sizes) + 1 or length < len(sizes):
        raise ValueError("vocabulary or length too small for disjoint codes")
    positions = rng.sample(range(length), len(sizes))
    pool = list(range(vocab))
    rng.shuffle(pool)
    codes, cursor = [], 0
    for size in sizes:
        codes.append(tuple(pool[cursor : cursor + size]))
        cursor += size
    filler = pool[cursor:]
    fixed = tuple((p, rng.choice(filler)) for p in range(length) if p not in positions)
    return Language(spec, length, vocab, tuple(positions), tuple(codes), fixed)


def combinations(spec: SchemaSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(sample id, value indices) for every combination, attribute-major."""
    combos = list(itertools.product(*(range(len(d)) for d in spec.domains)))
    width = len(str(len(combos) - 1))
    return [(f"{i:0{width}d}", combo) for i, combo in enumerate(combos)]


def perturb(template: Message, vocab: int, existing: set, rng: random.Random) -> Message:
    """A message one substitution away from ``template``, not in ``existing``."""
    while True:
        pos = rng.randrange(len(template))
        token = rng.randrange(vocab - 1)
        if token >= template[pos]:
            token += 1
        candidate = template[:pos] + (token,) + template[pos + 1 :]
        if candidate not in existing:
            return candidate


@dataclass(frozen=True)
class Row:
    sample: str
    attrs: dict[str, str]
    messages: tuple[tuple[Message, int], ...]


def language_rows(
    lang: Language, base_count: int, synonyms: int, rng: random.Random
) -> list[Row]:
    """Each sample's base message at ``base_count`` plus single-count synonyms."""
    rows = []
    for sample, combo in combinations(lang.spec):
        base = lang.encode(combo)
        messages = [(base, base_count)]
        existing = {base}
        for _ in range(synonyms):
            synonym = perturb(base, lang.vocab, existing, rng)
            existing.add(synonym)
            messages.append((synonym, 1))
        rows.append(Row(sample, lang.spec.attribute_values(combo), tuple(messages)))
    return rows


def corpus_document(lang: Language, rows: list[Row]) -> str:
    lines = [json.dumps({"meta": {"vocab_size": lang.vocab, "msg_len": lang.length}})]
    for row in rows:
        for message, count in row.messages:
            lines.append(
                json.dumps(
                    {"sample": row.sample, "attrs": row.attrs, "msg": list(message), "count": count},
                    ensure_ascii=False,
                )
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def expected_rule_table(lang: Language) -> dict:
    """The structured rule table the detector must recover from ``lang``.

    Computed from the codebook alone: a group's pattern fixes an attribute's
    cell exactly when the whole group shares that attribute's value, and a
    pattern covers exactly the combinations carrying its values.
    """
    spec = lang.spec
    domains = spec.property_domains()
    order = list(domains)
    samples = [
        (combo, spec.property_values(spec.attribute_values(combo)))
        for _, combo in combinations(spec)
    ]

    candidates: dict[tuple, set] = {}
    for prop in order:
        for value in domains[prop]:
            group = [combo for combo, values in samples if values[prop] == value]
            if not group:
                continue
            cells = []
            for a, pos in enumerate(lang.positions):
                observed = {combo[a] for combo in group}
                if len(observed) == 1:
                    cells.append((pos, lang.codes[a][observed.pop()]))
            candidates.setdefault(tuple(sorted(cells)), set()).add((prop, value))

    decode = {
        (pos, code): (a, v)
        for a, pos in enumerate(lang.positions)
        for v, code in enumerate(lang.codes[a])
    }
    rules = []
    for pattern, evidence in candidates.items():
        constraints = [decode[cell] for cell in pattern]
        covered = [
            values for combo, values in samples if all(combo[a] == v for a, v in constraints)
        ]
        coverage = {}
        for prop in order:
            observed = {values[prop] for values in covered}
            coverage[prop] = [v for v in domains[prop] if v in observed]
        rules.append(
            {
                "pattern": [list(cell) for cell in pattern],
                "evidence": [
                    list(pv)
                    for pv in sorted(
                        evidence, key=lambda pv: (order.index(pv[0]), domains[pv[0]].index(pv[1]))
                    )
                ],
                "coverage": coverage,
                "support": len(covered),
            }
        )
    rules.sort(
        key=lambda r: (
            not r["pattern"],
            [pos for pos, _ in r["pattern"]],
            [tok for _, tok in r["pattern"]],
        )
    )
    return {
        "kind": "rule_table",
        "message_length": lang.length,
        "rule_count": len(rules),
        "global_constants": [list(cell) for cell in lang.fixed],
        "rules": rules,
    }


def expected_game_accuracy(rows: list[Row], candidates: int) -> float:
    """Closed-form hit rate of the corpus speaker against the corpus listener.

    Per target t and message m (spoken with probability p_t(m)), the listener
    misses exactly when a distractor outscores t on m or ties it with a
    smaller id; with B such samples among the other N-1, the k-1 distractors
    avoid all of them with probability C(N-1-B, k-1) / C(N-1, k-1).
    """
    shares = []
    for row in rows:
        total = sum(c for _, c in row.messages)
        shares.append((row.sample, {m: c / total for m, c in row.messages}))
    n = len(shares)
    draws = math.comb(n - 1, candidates - 1)
    accuracy = 0.0
    for sample, own in shares:
        for message, share in own.items():
            beaten_by = sum(
                1
                for other, theirs in shares
                if other != sample
                and (
                    theirs.get(message, 0.0) > share
                    or (theirs.get(message, 0.0) == share and other < sample)
                )
            )
            accuracy += share * math.comb(n - 1 - beaten_by, candidates - 1) / draws
    return accuracy / n


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """A workload's generated inputs, its invocation and its output check."""

    files: dict[str, Path]  # role -> path; "schema" and "corpus" feed the set-up probe
    units: int
    unit_name: str
    argv: Callable[[int, Path], list[str]]  # (child seed, output path) -> CLI arguments
    check: Callable[[str], None]  # raises CheckFailed


def _write(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


def _load_result(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise CheckFailed(f"output is not a {kind} document")
    return doc


EXTRACT_MIN_FREQ = 0.15


def prepare_extract(seed: int, work: Path) -> Prepared:
    """Noisy 3125-sample corpus: base count 18 plus two single-count synonyms,
    each about 5% of its sample, below the 15% filter threshold."""
    rng = random.Random(f"extract-noisy:{seed}")
    lang = make_language(GRID, length=12, vocab=40, rng=rng)
    rows = language_rows(lang, base_count=18, synonyms=2, rng=rng)
    schema = _write(work / "schema.json", GRID.document())
    corpus = _write(work / "corpus.jsonl", corpus_document(lang, rows))
    expected = expected_rule_table(lang)

    def argv(child_seed: int, out: Path) -> list[str]:
        return ["extract", "--corpus", str(corpus), "--schema", str(schema),
                "--min-freq", str(EXTRACT_MIN_FREQ), "--out", str(out)]

    def check(text: str) -> None:
        doc = _load_result(text, "rule_table")
        if doc != expected:
            got = doc.get("rule_count")
            raise CheckFailed(
                f"rule table differs from ground truth ({got} rules, expected {expected['rule_count']})"
            )

    records = sum(len(row.messages) for row in rows)
    return Prepared({"schema": schema, "corpus": corpus}, records, "records", argv, check)


TOPSIM_PAIRS = 200_000


def prepare_topsim(seed: int, work: Path) -> Prepared:
    """The 3125-sample compositional corpus, one message per sample."""
    rng = random.Random(f"topsim-sampled:{seed}")
    lang = make_language(GRID, length=12, vocab=40, rng=rng)
    rows = language_rows(lang, base_count=1, synonyms=0, rng=rng)
    schema = _write(work / "schema.json", GRID.document())
    corpus = _write(work / "corpus.jsonl", corpus_document(lang, rows))

    def argv(child_seed: int, out: Path) -> list[str]:
        return ["topsim", "--corpus", str(corpus), "--schema", str(schema),
                "--max-pairs", str(TOPSIM_PAIRS), "--seed", str(child_seed), "--out", str(out)]

    def check(text: str) -> None:
        doc = _load_result(text, "topsim_report")
        # disjoint codes make Levenshtein equal attribute distance: rho is exact
        if doc.get("rho") != 1.0:
            raise CheckFailed(f"rho {doc.get('rho')!r} != 1.0")
        if doc.get("pair_count") != TOPSIM_PAIRS or doc.get("sampled") is not True:
            raise CheckFailed(
                f"expected {TOPSIM_PAIRS} sampled pairs, got {doc.get('pair_count')!r} "
                f"(sampled={doc.get('sampled')!r})"
            )

    return Prepared({"schema": schema, "corpus": corpus}, TOPSIM_PAIRS, "pairs", argv, check)


GAME_CANDIDATES = 20
GAME_EPISODES = 3_000
GAME_AGENTS = 4
# Cells are judged against the closed form by a z-score; single cells reach
# |z| = 3.6 in practice, and a run checks 16 cells, so allow 6.
GAME_MAX_Z = 6.0


def prepare_game(seed: int, work: Path) -> Prepared:
    """The 100-sample moprd corpus, base count 18 plus two single-count synonyms."""
    rng = random.Random(f"game-population:{seed}")
    lang = make_language(MOPRD, length=10, vocab=20, rng=rng)
    rows = language_rows(lang, base_count=18, synonyms=2, rng=rng)
    schema = _write(work / "schema.json", MOPRD.document())
    corpus = _write(work / "corpus.jsonl", corpus_document(lang, rows))
    expected = expected_game_accuracy(rows, GAME_CANDIDATES)
    sd = math.sqrt(expected * (1.0 - expected) / GAME_EPISODES)
    tolerance = GAME_MAX_Z * sd + 1.0 / GAME_EPISODES

    def argv(child_seed: int, out: Path) -> list[str]:
        return ["game", "--corpus", str(corpus), "--schema", str(schema),
                "--candidates", str(GAME_CANDIDATES), "--episodes", str(GAME_EPISODES),
                "--speakers", str(GAME_AGENTS), "--listeners", str(GAME_AGENTS),
                "--seed", str(child_seed), "--out", str(out)]

    def check(text: str) -> None:
        doc = _load_result(text, "accuracy_matrix")
        if doc.get("episodes_per_cell") != GAME_EPISODES:
            raise CheckFailed(f"episodes_per_cell {doc.get('episodes_per_cell')!r}")
        values = doc.get("values")
        if not isinstance(values, list) or len(values) != GAME_AGENTS or any(
            not isinstance(row, list) or len(row) != GAME_AGENTS for row in values
        ):
            raise CheckFailed(f"expected a {GAME_AGENTS}x{GAME_AGENTS} matrix")
        for i, row in enumerate(values):
            for j, value in enumerate(row):
                if not isinstance(value, (int, float)) or abs(value - expected) > tolerance:
                    raise CheckFailed(
                        f"cell ({i}, {j}) = {value!r}, expected {expected:.4f} +- {tolerance:.4f}"
                    )

    episodes = GAME_EPISODES * GAME_AGENTS * GAME_AGENTS
    return Prepared({"schema": schema, "corpus": corpus}, episodes, "episodes", argv, check)


SYNTH_SYNONYMS = 8
SYNTH_SHARE = 0.1


def prepare_synth(seed: int, work: Path) -> Prepared:
    """The 3125-sample compositional corpus at count 18; eight synonyms per
    sample make the written corpus nine times the one read."""
    rng = random.Random(f"synth-noisy:{seed}")
    lang = make_language(GRID, length=12, vocab=40, rng=rng)
    rows = language_rows(lang, base_count=18, synonyms=0, rng=rng)
    schema = _write(work / "schema.json", GRID.document())
    corpus = _write(work / "corpus.jsonl", corpus_document(lang, rows))

    def argv(child_seed: int, out: Path) -> list[str]:
        return ["synth", "--kind", "noisy", "--corpus", str(corpus), "--schema", str(schema),
                "--synonyms", str(SYNTH_SYNONYMS), "--minority-share", str(SYNTH_SHARE),
                "--seed", str(child_seed), "--out", str(out)]

    def check(text: str) -> None:
        check_noisy(text, lang, rows, SYNTH_SYNONYMS, SYNTH_SHARE)

    records = len(rows) * (1 + SYNTH_SYNONYMS)
    return Prepared({"schema": schema, "corpus": corpus}, records, "records", argv, check)


def check_noisy(text: str, lang: Language, rows: list[Row], synonyms: int, share: float) -> None:
    """The documented laws of the noisy generator over a one-message-per-sample base.

    Base messages keep their counts; each sample gains exactly ``synonyms``
    new distinct messages, each one substitution away from the sample's first
    message, with counts split as evenly as possible and summing to
    ``max(synonyms, round(share / (1 - share) * total))``.
    """
    try:
        header, *records = json.loads("[" + ",".join(line for line in text.split("\n") if line) + "]")
    except (json.JSONDecodeError, ValueError) as exc:
        raise CheckFailed(f"output is not a corpus: {exc}") from None
    if header != {"meta": {"vocab_size": lang.vocab, "msg_len": lang.length}}:
        raise CheckFailed(f"header {header!r}")
    by_sample: dict[str, dict[Message, int]] = {}
    attrs: dict[str, dict] = {}
    for record in records:
        sample = record.get("sample")
        attrs.setdefault(sample, record.get("attrs"))
        by_sample.setdefault(sample, {})[tuple(record.get("msg", ()))] = record.get("count")
    if len(by_sample) != len(rows):
        raise CheckFailed(f"{len(by_sample)} samples written, expected {len(rows)}")
    for row in rows:
        written = by_sample.get(row.sample)
        if written is None or attrs[row.sample] != row.attrs:
            raise CheckFailed(f"sample {row.sample!r} missing or re-annotated")
        (base, count), = row.messages
        if written.get(base) != count:
            raise CheckFailed(f"sample {row.sample!r}: base count {written.get(base)!r} != {count}")
        new = {m: c for m, c in written.items() if m != base}
        if len(new) != synonyms:
            raise CheckFailed(f"sample {row.sample!r}: {len(new)} synonyms, expected {synonyms}")
        for message in new:
            if len(message) != len(base) or sum(a != b for a, b in zip(message, base)) != 1:
                raise CheckFailed(f"sample {row.sample!r}: synonym {message} not one edit from base")
        target = max(synonyms, round(share / (1.0 - share) * count))
        counts = sorted(new.values())
        if sum(counts) != target or counts[-1] - counts[0] > 1:
            raise CheckFailed(f"sample {row.sample!r}: synonym counts {counts}, total {target}")


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "extract-noisy": prepare_extract,
    "topsim-sampled": prepare_topsim,
    "game-population": prepare_game,
    "synth-noisy": prepare_synth,
}
