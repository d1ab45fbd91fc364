"""Canonical serialization and human-readable rendering of result objects.

The structured format is one JSON object (UTF-8) with a ``kind``
discriminator; it is lossless and byte-identical across runs, and
``parse_structured(render(...))`` returns an equal object.  Markdown and CSV
renderings mirror the position/attribute/hyperattribute table layout, list
the evidence values in the property cells, report coverage in a secondary
block, and close with the general message pattern: fixed tokens literal,
variable positions shown as doubled-letter placeholders (XX, YY, ZZ, ...).
Floats are printed with 4 decimals in markdown/CSV; the structured format
keeps full precision so round-trips are exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING

from .corpus import MAX_MESSAGE_LENGTH, is_int
from .errors import DocumentSyntaxError, parse_json
from .metrics import AccuracyMatrix, TopSimReport, accuracy_per_speaker
from .schema import AttributeSchema

if TYPE_CHECKING:  # at run time only where a table is read: topsim and game load no rules
    from .rules import Pattern, RuleTable, SemanticRule

_PLACEHOLDER_LETTERS = "XYZABCDEFGHIJKLMNOPQRSTUVW"


def placeholders(count: int) -> list[str]:
    """XX, YY, ZZ, AA, ... wrapping with a numeric suffix beyond one cycle."""
    names = []
    for i in range(count):
        letter = _PLACEHOLDER_LETTERS[i % len(_PLACEHOLDER_LETTERS)]
        cycle = i // len(_PLACEHOLDER_LETTERS)
        names.append(letter * 2 + (str(cycle + 1) if cycle else ""))
    return names


def general_pattern(table: RuleTable) -> str:
    """The corpus-wide skeleton, e.g. ``13-12-XX-10-10-10-10-10-YY-ZZ``."""
    fixed = dict(table.global_constants.cells)
    variable = _variable_positions(table)
    marks = dict(zip(variable, placeholders(len(variable))))
    return "-".join(
        str(fixed[p]) if p in fixed else marks[p] for p in range(table.message_length)
    )


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def _pattern_to_json(pattern: Pattern) -> list[list[int]]:
    return [[pos, tok] for pos, tok in pattern.cells]


def _pattern_cells(data) -> tuple[tuple[int, int], ...]:
    """The (position, token) cells of a pattern document."""
    if type(data) is not list or not all(
        type(cell) is list and len(cell) == 2 and all(is_int(x) for x in cell) for cell in data
    ):
        raise DocumentSyntaxError("pattern must be a list of [position, token] pairs")
    if any(later <= earlier for (earlier, _), (later, _) in zip(data, data[1:])):
        raise DocumentSyntaxError("pattern positions must ascend without repeats")
    if any(tok < 0 for _, tok in data):
        raise DocumentSyntaxError("pattern token below 0")
    return tuple((pos, tok) for pos, tok in data)


# ---------------------------------------------------------------------------
# Rule tables
# ---------------------------------------------------------------------------

def render_rule_table(table: RuleTable, format: str = "structured",
                      schema: AttributeSchema | None = None) -> str:
    """Render a rule table; markdown/csv need the schema for column order."""
    if format == "structured":
        return _rule_table_structured(table)
    if format == "markdown":
        return _rule_table_markdown(table, _require_schema(schema))
    if format == "csv":
        return _rule_table_csv(table, _require_schema(schema))
    raise DocumentSyntaxError(f"unknown format {format!r}")


def _require_schema(schema: AttributeSchema | None) -> AttributeSchema:
    if schema is None:
        raise DocumentSyntaxError("markdown/csv rendering requires the schema")
    return schema


def _rule_table_structured(table: RuleTable) -> str:
    return _dumps(
        {
            "kind": "rule_table",
            "message_length": table.message_length,
            "rule_count": table.rule_count,
            "global_constants": _pattern_to_json(table.global_constants),
            "rules": [
                {
                    "pattern": _pattern_to_json(rule.pattern),
                    "evidence": [[p, v] for p, v in rule.evidence],
                    "coverage": {p: list(vs) for p, vs in rule.coverage},
                    "support": rule.support,
                }
                for rule in table.rules
            ],
        }
    )


_MALFORMED_TABLE = "malformed rule table document"


def _rule_table_from(doc: dict) -> RuleTable:
    """The rule table a structured document holds.  Nothing is coerced: lengths,
    counts, positions, tokens and support must be JSON integers, names and
    values strings; a finite ``message_length`` outside the bound names it.
    Only what an extraction writes is taken: each pattern's positions ascend
    inside the message without repeats, its tokens are at least 0, no rule
    holds a global constant position, and every support is at least 1."""
    from .rules import Pattern, RuleTable, SemanticRule

    try:
        if type(doc["rules"]) is not list:
            raise DocumentSyntaxError(_MALFORMED_TABLE)
        rules = tuple(
            SemanticRule(Pattern(cells), evidence, coverage, support)
            for cells, evidence, coverage, support in map(_rule_fields, doc["rules"])
        )
        length = doc["message_length"]
        constants = Pattern(_pattern_cells(doc["global_constants"]))
    except (KeyError, TypeError):  # a missing field; a rule that is not an object
        raise DocumentSyntaxError(_MALFORMED_TABLE) from None
    if not (is_int(length) or type(length) is float and math.isfinite(length)):
        raise DocumentSyntaxError(_MALFORMED_TABLE)
    table = RuleTable(message_length=length, global_constants=constants, rules=rules)
    if not (is_int(doc.get("rule_count")) and doc["rule_count"] == table.rule_count):
        raise DocumentSyntaxError("rule_count does not match the number of rules")
    if not 1 <= length <= MAX_MESSAGE_LENGTH:
        raise DocumentSyntaxError(
            f"message_length must be between 1 and {MAX_MESSAGE_LENGTH}"
        )
    if not is_int(length):
        raise DocumentSyntaxError(_MALFORMED_TABLE)
    patterns = [table.global_constants] + [rule.pattern for rule in table.rules]
    if any(not 0 <= pos < table.message_length for p in patterns for pos, _ in p.cells):
        raise DocumentSyntaxError("pattern position outside the message")
    fixed = set(table.global_constants.positions)
    if any(pos in fixed for rule in table.rules for pos in rule.pattern.positions):
        raise DocumentSyntaxError("rule cell at a global constant position")
    return table


def _rule_fields(doc: dict) -> tuple:
    """The pattern cells, evidence, coverage and support of a rule document."""
    cells = _pattern_cells(doc["pattern"])
    evidence, coverage, support = doc["evidence"], doc["coverage"], doc["support"]
    if not (
        type(evidence) is list and all(_is_strs(pair) and len(pair) == 2 for pair in evidence)
        and type(coverage) is dict and all(map(_is_strs, coverage.values()))
        and is_int(support)
    ):
        raise DocumentSyntaxError(_MALFORMED_TABLE)
    if support < 1:
        raise DocumentSyntaxError("rule support below 1")
    return (
        cells,
        tuple((prop, value) for prop, value in evidence),
        tuple((prop, tuple(values)) for prop, values in coverage.items()),
        support,
    )


def _is_strs(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _variable_positions(table: RuleTable) -> list[int]:
    fixed = {pos for pos, _ in table.global_constants.cells}
    return [p for p in range(table.message_length) if p not in fixed]


def _rule_cells(table: RuleTable, schema: AttributeSchema) -> tuple[list[str], list[list[str]]]:
    """Header and one row per rule: position tokens, then evidence per property.
    A property outside ``schema``, in evidence or coverage, is UnknownReference."""
    positions = _variable_positions(table)
    header = [f"pos {p}" for p in positions] + list(schema.property_names)
    rows = []
    for rule in table.rules:
        for prop, _ in (*rule.evidence, *rule.coverage):
            schema.column(prop)  # raises UnknownReference, before any layout is written
        cells = dict(rule.pattern.cells)
        row = [str(cells[p]) if p in cells else "" for p in positions]
        by_prop: dict[str, list[str]] = {}
        for prop, value in rule.evidence:
            by_prop.setdefault(prop, []).append(value)
        row += [" ".join(by_prop.get(prop, [])) for prop in schema.property_names]
        rows.append(row)
    return header, rows


def _coverage_lines(table: RuleTable, schema: AttributeSchema) -> list[str]:
    """Informative coverage only: value sets that are proper domain subsets."""
    lines = []
    for index, rule in enumerate(table.rules, start=1):
        informative = [
            f"{prop} in {{{', '.join(values)}}}"
            for prop, values in rule.coverage
            if 0 < len(values) < len(schema.domain(prop))
        ]
        pattern = (
            " ".join(f"{pos}={tok}" for pos, tok in rule.pattern.cells) or "(none)"
        )
        summary = "; ".join(informative) if informative else "no proper subset"
        lines.append(f"- rule {index} [{pattern}] support={rule.support}: {summary}")
    return lines


def _rule_table_markdown(table: RuleTable, schema: AttributeSchema) -> str:
    header, rows = _rule_cells(table, schema)
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    lines.append(f"Rules: {table.rule_count}")
    lines.append("")
    lines.append("Coverage (value sets over covered samples):")
    lines.extend(_coverage_lines(table, schema))
    lines.append("")
    lines.append(f"General pattern: {general_pattern(table)}")
    return "\n".join(lines) + "\n"


def _rule_table_csv(table: RuleTable, schema: AttributeSchema) -> str:
    header, rows = _rule_cells(table, schema)
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    writer.writerow(["general pattern", general_pattern(table)])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Metric reports
# ---------------------------------------------------------------------------

def render_metrics(report: TopSimReport | AccuracyMatrix, format: str = "structured") -> str:
    if isinstance(report, TopSimReport):
        if format == "structured":
            return _dumps(
                {
                    "kind": "topsim_report",
                    "rho": report.rho,
                    "pair_count": report.pair_count,
                    "sampled": report.sampled,
                    "seed": report.seed,
                }
            )
        if format == "markdown":
            mode = f"sampled, seed={report.seed}" if report.sampled else "exact"
            return f"TopSim: {report.rho:.4f} ({report.pair_count} pairs, {mode})\n"
        raise DocumentSyntaxError(f"unknown format {format!r}")
    if isinstance(report, AccuracyMatrix):
        if format == "structured":
            return _dumps(
                {
                    "kind": "accuracy_matrix",
                    "episodes_per_cell": report.episodes_per_cell,
                    "values": [list(row) for row in report.values],
                }
            )
        if format == "markdown":
            lines = [f"Accuracy over {report.episodes_per_cell} episodes per pair:"]
            for i, row in enumerate(report.values):
                lines.append(
                    f"- speaker {i}: " + " ".join(f"{v:.4f}" for v in row)
                )
            means = accuracy_per_speaker(report)
            lines.append("Per-speaker mean: " + " ".join(f"{m:.4f}" for m in means))
            return "\n".join(lines) + "\n"
        raise DocumentSyntaxError(f"unknown format {format!r}")
    raise DocumentSyntaxError(f"cannot render {type(report).__name__}")


def _metrics_from(doc: dict) -> TopSimReport | AccuracyMatrix:
    """The report a structured metrics document holds.

    Each field must have the JSON type that ``render_metrics`` writes for a
    result of ``topsim`` or ``run_lewis_game``; nothing is coerced, so a
    document that parses re-renders with the same values.
    """
    kind = doc.get("kind")
    if kind == "topsim_report":
        read = _topsim_from
    elif kind == "accuracy_matrix":
        read = _accuracy_from
    else:
        raise DocumentSyntaxError(f"unknown document kind {kind!r}")
    try:
        report = read(doc)
    except (KeyError, OverflowError):  # a missing field; an int too large for a float
        report = None
    if report is None:
        raise DocumentSyntaxError("malformed metrics document")
    return report


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float


def _topsim_from(doc: dict) -> TopSimReport | None:
    rho, pair_count, sampled, seed = (doc[key] for key in ("rho", "pair_count", "sampled", "seed"))
    if not (_is_number(rho) and math.isfinite(rho)):
        return None
    # spearman needs two pairs; only a sampled report names its seed
    if not (is_int(pair_count) and pair_count >= 2 and type(sampled) is bool):
        return None
    if not (is_int(seed) if sampled else seed is None):
        return None
    return TopSimReport(rho=float(rho), pair_count=pair_count, sampled=sampled, seed=seed)


def _accuracy_from(doc: dict) -> AccuracyMatrix | None:
    episodes, rows = doc["episodes_per_cell"], doc["values"]
    if not (is_int(episodes) and episodes >= 1) or type(rows) is not list or not rows:
        return None
    # a rectangle: every speaker plays the same listeners, and at least one
    if any(type(row) is not list or len(row) != len(rows[0]) for row in rows) or not rows[0]:
        return None
    if not all(_is_number(v) and 0 <= v <= 1 for row in rows for v in row):
        return None
    values = tuple(tuple(float(v) for v in row) for row in rows)
    return AccuracyMatrix(values=values, episodes_per_cell=episodes)


def parse_structured(text: str) -> RuleTable | TopSimReport | AccuracyMatrix:
    """Parse any structured result document, chosen by its ``kind``."""
    doc = parse_json(text, "structured document is not valid JSON: {}")
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("structured document must be a JSON object")
    return _rule_table_from(doc) if doc.get("kind") == "rule_table" else _metrics_from(doc)
