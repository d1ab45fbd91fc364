from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import cli
from emlang.errors import DocumentSyntaxError, UnknownReference
from emlang.metrics import AccuracyMatrix, TopSimReport
from emlang.report import (
    general_pattern,
    parse_structured,
    placeholders,
    render_metrics,
    render_rule_table,
)
from emlang.rules import Pattern, RuleTable, SemanticRule, extract_rules
from emlang.schema import parse_schema
from emlang.synth import gen_compositional, gen_holistic

from conftest import error_codes, mutate


@pytest.fixture(scope="module")
def reference_table(reference_corpus):
    return extract_rules(reference_corpus, threshold=0.15)


def test_structured_rule_table_round_trip(reference_table):
    text = render_rule_table(reference_table, "structured")
    assert parse_structured(text) == reference_table
    assert render_rule_table(reference_table, "structured") == text  # byte-identical


def test_markdown_layout(reference_table, moprd):
    text = render_rule_table(reference_table, "markdown", schema=moprd)
    lines = text.splitlines()
    assert lines[0] == (
        "| pos 2 | pos 8 | pos 9 | shape1 | shape2 | relationship"
        " | fill1 | fill2 | all_fill | all_empty | aligned |"
    )
    body = [l for l in lines[2:] if l.startswith("|")]
    assert len(body) == 6
    assert "| 12 |  |  | ○ | ○ |  | F | F | F |  |  |" in body
    assert "| 12 | 10 |  | □ × | □ × |  |  |  |  | T |  |" in body
    assert "|  |  |  |  |  | → ↗ ↑ ↖ |  |  |  |  | F T |" in body
    assert lines[-1] == "General pattern: 13-12-XX-10-10-10-10-10-YY-ZZ"


def test_markdown_coverage_block(reference_table, moprd):
    text = render_rule_table(reference_table, "markdown", schema=moprd)
    assert "Coverage (value sets over covered samples):" in text
    assert "- rule 1 [2=12] support=84: all_fill in {F}" in text


def test_fully_invariant_table_renders_one_empty_row(moprd):
    table = RuleTable(
        message_length=3,
        global_constants=Pattern.from_dict({0: 7, 1: 7, 2: 7}),
        rules=(
            SemanticRule(
                pattern=Pattern.from_dict({}),
                evidence=(("shape1", "□"),),
                coverage=(("shape1", ("□",)),),
                support=4,
            ),
        ),
    )
    text = render_rule_table(table, "markdown", schema=moprd)
    assert "General pattern: 7-7-7" in text
    body = [l for l in text.splitlines() if l.startswith("|")][2:]
    assert len(body) == 1


def test_csv_layout(reference_table, moprd):
    text = render_rule_table(reference_table, "csv", schema=moprd)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:3] == ["pos 2", "pos 8", "pos 9"]
    assert len(rows) == 1 + 6 + 1
    assert rows[-1] == ["general pattern", "13-12-XX-10-10-10-10-10-YY-ZZ"]
    assert text.splitlines()[0].startswith('"pos 2"')  # cells are quoted


def test_markdown_needs_schema(reference_table):
    for format in ("markdown", "csv"):
        with pytest.raises(DocumentSyntaxError, match="^markdown/csv rendering requires the schema$"):
            render_rule_table(reference_table, format)
    # an unknown format is named before the missing schema
    with pytest.raises(DocumentSyntaxError, match="^unknown format 'html'$"):
        render_rule_table(reference_table, "html")


@pytest.mark.parametrize("format", ["markdown", "csv"])
def test_layouts_refuse_a_property_outside_the_schema(reference_table, moprd, format):
    """Laid out against a schema that lacks one of its evidence or coverage
    properties, a rule table is refused in both formats, rather than written
    without what it says of that property."""
    fewer = parse_schema('{"attributes": [{"name": "shape1", "values": ["□", "○"]}]}')
    with pytest.raises(UnknownReference, match="unknown property 'shape2'"):
        render_rule_table(reference_table, format, schema=fewer)
    rule = reference_table.rules[0]
    for change in [{"evidence": rule.evidence + (("stray", "v"),)},
                   {"coverage": rule.coverage + (("stray", ("v",)),)}]:
        table = replace(reference_table, rules=(replace(rule, **change),))
        with pytest.raises(UnknownReference, match="unknown property 'stray'"):
            render_rule_table(table, format, schema=moprd)


def test_render_refuses_unknown_formats_and_types(reference_table):
    results = [
        (render_rule_table, reference_table),
        (render_metrics, TopSimReport(rho=1.0, pair_count=4950, sampled=False, seed=None)),
        (render_metrics, AccuracyMatrix(values=((1.0,),), episodes_per_cell=1)),
    ]
    for render, result in results:
        with pytest.raises(DocumentSyntaxError, match="^unknown format 'html'$"):
            render(result, "html")
    with pytest.raises(DocumentSyntaxError, match="^cannot render RuleTable$"):
        render_metrics(reference_table)


def test_placeholder_sequence():
    assert placeholders(4) == ["XX", "YY", "ZZ", "AA"]
    assert placeholders(27)[26] == "XX2"


def test_general_pattern_on_compositional(moprd):
    _, truth = gen_compositional(moprd, 10, 20, seed=1)
    skeleton = general_pattern(truth)
    assert skeleton.count("-") == 9
    assert {"XX", "YY", "ZZ"} <= set(skeleton.split("-"))


def test_topsim_report_rendering():
    report = TopSimReport(rho=1.0, pair_count=4950, sampled=False, seed=None)
    assert render_metrics(report, "markdown") == "TopSim: 1.0000 (4950 pairs, exact)\n"
    structured = render_metrics(report, "structured")
    assert parse_structured(structured) == report
    sampled = TopSimReport(rho=-0.25, pair_count=100, sampled=True, seed=3)
    assert "sampled, seed=3" in render_metrics(sampled, "markdown")
    assert parse_structured(render_metrics(sampled, "structured")) == sampled


def test_full_precision_floats_round_trip(moprd):
    corpus = gen_holistic(moprd, 10, 20, seed=20240)
    from emlang.metrics import topsim

    report = topsim(corpus)
    assert parse_structured(render_metrics(report, "structured")) == report


def test_accuracy_matrix_rendering():
    matrix = AccuracyMatrix(values=((1.0, 0.5), (0.0, 0.5)), episodes_per_cell=100)
    text = render_metrics(matrix, "markdown")
    assert "Per-speaker mean: 0.7500 0.2500" in text
    assert parse_structured(render_metrics(matrix, "structured")) == matrix


def test_parse_rejections(reference_table):
    with pytest.raises(DocumentSyntaxError):
        parse_structured("not json")
    for text in ("[]", '"rule_table"', "null"):
        with pytest.raises(DocumentSyntaxError, match="^structured document must be a JSON object$"):
            parse_structured(text)
    with pytest.raises(DocumentSyntaxError):
        parse_structured('{"kind": "accuracy_matrix"}')
    with pytest.raises(DocumentSyntaxError):
        parse_structured('{"kind": "unknown"}')
    for text, kind in [("{}", "None"), ('{"kind": 3}', "3"), ('{"kind": [1]}', r"\[1\]"),
                       ('{"kind": {}}', "{}")]:
        with pytest.raises(DocumentSyntaxError, match=f"^unknown document kind {kind}$"):
            parse_structured(text)
    with pytest.raises(DocumentSyntaxError):
        parse_structured('{"kind": "accuracy_matrix", "episodes_per_cell": 4, "values": [[], [0.5]]}')
    good = render_rule_table(reference_table, "structured")
    tampered = good.replace('"rule_count": 6', '"rule_count": 7')
    with pytest.raises(DocumentSyntaxError):
        parse_structured(tampered)


@pytest.fixture(scope="module")
def valid_documents(reference_table):
    return [
        render_rule_table(reference_table, "structured"),
        render_metrics(TopSimReport(rho=0.5, pair_count=10, sampled=True, seed=3)),
        render_metrics(AccuracyMatrix(values=((1.0, 0.5), (0.25, 0.0)), episodes_per_cell=4)),
    ]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document.json"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_fails_only_with_error_codes(valid_documents, fuzz_path, data):
    document = json.loads(data.draw(st.sampled_from(valid_documents)))
    mutate(document, data)
    fuzz_path.write_text(json.dumps(document), encoding="utf-8")
    argv = ["render", "--in", str(fuzz_path)]
    argv += ["--format", data.draw(st.sampled_from(["structured", "markdown", "csv"]))]
    argv += data.draw(st.sampled_from([[], ["--schema", "moprd"]]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    assert status in (0, 1)
    if status == 1:
        assert stderr.getvalue().split(":")[0] in error_codes(), stderr.getvalue()


TOPSIM_FIELDS = {"kind": '"topsim_report"', "rho": "0.5", "pair_count": "10", "sampled": "true",
                 "seed": "3"}
ACCURACY_FIELDS = {"kind": '"accuracy_matrix"', "episodes_per_cell": "4",
                   "values": "[[1.0, 0.5], [0.25, 0.0]]"}

# one field of a valid document replaced by a raw JSON text, or dropped (None)
ILL_TYPED_METRICS = {
    "sampled-text": (TOPSIM_FIELDS, "sampled", '"false"'),
    "sampled-number": (TOPSIM_FIELDS, "sampled", "1"),
    "pair-count-fraction": (TOPSIM_FIELDS, "pair_count", "10.9"),
    "pair-count-float": (TOPSIM_FIELDS, "pair_count", "10.0"),
    "pair-count-one": (TOPSIM_FIELDS, "pair_count", "1"),
    "pair-count-bool": (TOPSIM_FIELDS, "pair_count", "true"),
    "rho-text": (TOPSIM_FIELDS, "rho", '"0.5"'),
    "rho-infinite": (TOPSIM_FIELDS, "rho", "1e400"),
    "rho-nan": (TOPSIM_FIELDS, "rho", "NaN"),
    "rho-bool": (TOPSIM_FIELDS, "rho", "true"),
    "rho-huge-int": (TOPSIM_FIELDS, "rho", "1" + "0" * 400),
    "rho-missing": (TOPSIM_FIELDS, "rho", None),
    "seed-null-when-sampled": (TOPSIM_FIELDS, "seed", "null"),
    "seed-float": (TOPSIM_FIELDS, "seed", "3.0"),
    "seed-text": (TOPSIM_FIELDS, "seed", '"3"'),
    "seed-when-exact": ({**TOPSIM_FIELDS, "sampled": "false"}, "seed", "3"),
    "episodes-zero": (ACCURACY_FIELDS, "episodes_per_cell", "0"),
    "episodes-float": (ACCURACY_FIELDS, "episodes_per_cell", "4.0"),
    "episodes-bool": (ACCURACY_FIELDS, "episodes_per_cell", "true"),
    "cell-text": (ACCURACY_FIELDS, "values", '[["1"], ["0.5"]]'),
    "cell-bool": (ACCURACY_FIELDS, "values", "[[true], [0.5]]"),
    "cell-above-one": (ACCURACY_FIELDS, "values", "[[1.5], [0.5]]"),
    "cell-negative": (ACCURACY_FIELDS, "values", "[[-0.25], [0.5]]"),
    "cell-nan": (ACCURACY_FIELDS, "values", "[[NaN], [0.5]]"),
    "ragged": (ACCURACY_FIELDS, "values", "[[1.0, 0.5], [0.25]]"),
    "no-rows": (ACCURACY_FIELDS, "values", "[]"),
    "empty-rows": (ACCURACY_FIELDS, "values", "[[], []]"),
    "values-object": (ACCURACY_FIELDS, "values", '{"0": [0.5]}'),
    "row-object": (ACCURACY_FIELDS, "values", '[{"0": 0.5}]'),
}


def _render(path, format="structured") -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(["render", "--in", str(path), "--format", format])
    return status, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(("fields", "key", "value"), ILL_TYPED_METRICS.values(),
                         ids=ILL_TYPED_METRICS.keys())
def test_render_rejects_ill_typed_metrics(fuzz_path, fields, key, value):
    """Fields topsim and the game cannot produce are errors, not coerced."""
    fields = {k: v for k, v in {**fields, key: value}.items() if v is not None}
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    with pytest.raises(DocumentSyntaxError, match="^malformed metrics document$"):
        parse_structured(text)
    fuzz_path.write_text(text, encoding="utf-8")
    assert _render(fuzz_path) == (1, "", "SyntaxError: malformed metrics document\n")


def test_render_keeps_real_metrics_byte_for_byte(fuzz_path, moprd):
    from emlang.game import run_lewis_game
    from emlang.metrics import topsim

    corpus = gen_holistic(moprd, 10, 20, seed=3)
    reports = [
        topsim(corpus),
        topsim(corpus, max_pairs=300, seed=-(2**70)),
        run_lewis_game(corpus, seed=1, candidate_count=5, episodes=40),
        TopSimReport(rho=-1.0, pair_count=2, sampled=False, seed=None),
        AccuracyMatrix(values=((1.0, 0.0),), episodes_per_cell=1),
    ]
    for report in reports:
        text = render_metrics(report, "structured")
        fuzz_path.write_text(text, encoding="utf-8")
        assert _render(fuzz_path) == (0, text, "")


RULE_TABLE = {"kind": "rule_table", "message_length": 1, "rule_count": 1, "global_constants": [],
              "rules": [{"pattern": [[0, 7]], "evidence": [["shape1", "□"]],
                         "coverage": {"shape1": ["□"]}, "support": 3}]}
MALFORMED = "malformed rule table document"
UNORDERED = "pattern positions must ascend without repeats"

# one field of RULE_TABLE (a key, or a rule key under "rules") replaced by a value of the
# wrong JSON type or by one no extraction writes, and the reason the error names
ILL_TYPED_RULE_TABLES = {
    "length-bool": ("message_length", True, MALFORMED),
    "length-float": ("message_length", 1.0, MALFORMED),
    "rule-count-float": ("rule_count", 1.0, "rule_count does not match the number of rules"),
    "support-fraction": ("rules.support", 3.7, MALFORMED),
    "support-text": ("rules.support", "3", MALFORMED),
    "pattern-cell-float-and-text": ("rules.pattern", [[0.9, "7"]],
                                    "pattern must be a list of [position, token] pairs"),
    "evidence-value-number": ("rules.evidence", [["shape1", 1]], MALFORMED),
    "coverage-value-number": ("rules.coverage", {"shape1": [1]}, MALFORMED),
    "rules-object": ("rules", {}, MALFORMED),
    # the right JSON types, holding what no extraction writes
    "pattern-repeated-position": ("rules.pattern", [[0, 3], [0, 9]], UNORDERED),
    "pattern-unordered": ("rules.pattern", [[1, 4], [0, 3]], UNORDERED),
    "constants-repeated-position": ("global_constants", [[0, 7], [0, 8]], UNORDERED),
    "pattern-negative-token": ("rules.pattern", [[0, -1]], "pattern token below 0"),
    "constants-negative-token": ("global_constants", [[0, -7]], "pattern token below 0"),
    "rule-at-constant-position": ("global_constants", [[0, 7]],
                                  "rule cell at a global constant position"),
    "support-zero": ("rules.support", 0, "rule support below 1"),
    "support-negative": ("rules.support", -4, "rule support below 1"),
}


@pytest.mark.parametrize(("key", "value", "reason"), ILL_TYPED_RULE_TABLES.values(),
                         ids=ILL_TYPED_RULE_TABLES.keys())
def test_render_rejects_ill_typed_rule_tables(fuzz_path, key, value, reason):
    """Fields extract_rules cannot produce are errors, not coerced."""
    document = json.loads(json.dumps(RULE_TABLE))
    assert parse_structured(json.dumps(document)).rules[0].support == 3
    if key.startswith("rules."):
        document["rules"][0][key.removeprefix("rules.")] = value
    else:
        document[key] = value
    text = json.dumps(document, ensure_ascii=False)
    with pytest.raises(DocumentSyntaxError, match=f"^{re.escape(reason)}$"):
        parse_structured(text)
    fuzz_path.write_text(text, encoding="utf-8")
    assert _render(fuzz_path) == (1, "", f"SyntaxError: {reason}\n")
