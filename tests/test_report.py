from __future__ import annotations

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import cli
from emlang.errors import DocumentSyntaxError
from emlang.metrics import AccuracyMatrix, TopSimReport
from emlang.report import (
    general_pattern,
    parse_metrics,
    parse_rule_table,
    placeholders,
    render_metrics,
    render_rule_table,
)
from emlang.rules import Pattern, RuleTable, SemanticRule, extract_rules
from emlang.synth import gen_compositional, gen_holistic

from conftest import error_codes, mutate


@pytest.fixture(scope="module")
def reference_table(reference_corpus):
    return extract_rules(reference_corpus, threshold=0.15)


def test_structured_rule_table_round_trip(reference_table):
    text = render_rule_table(reference_table, "structured")
    assert parse_rule_table(text) == reference_table
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
    with pytest.raises(DocumentSyntaxError):
        render_rule_table(reference_table, "markdown")


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
    assert parse_metrics(structured) == report
    sampled = TopSimReport(rho=-0.25, pair_count=100, sampled=True, seed=3)
    assert "sampled, seed=3" in render_metrics(sampled, "markdown")
    assert parse_metrics(render_metrics(sampled, "structured")) == sampled


def test_full_precision_floats_round_trip(moprd):
    corpus = gen_holistic(moprd, 10, 20, seed=20240)
    from emlang.metrics import topsim

    report = topsim(corpus)
    assert parse_metrics(render_metrics(report, "structured")) == report


def test_accuracy_matrix_rendering():
    matrix = AccuracyMatrix(values=((1.0, 0.5), (0.0, 0.5)), episodes_per_cell=100)
    text = render_metrics(matrix, "markdown")
    assert "Per-speaker mean: 0.7500 0.2500" in text
    assert parse_metrics(render_metrics(matrix, "structured")) == matrix


def test_parse_rejections(reference_table):
    with pytest.raises(DocumentSyntaxError):
        parse_rule_table("not json")
    with pytest.raises(DocumentSyntaxError):
        parse_rule_table('{"kind": "accuracy_matrix"}')
    with pytest.raises(DocumentSyntaxError):
        parse_metrics('{"kind": "unknown"}')
    good = render_rule_table(reference_table, "structured")
    tampered = good.replace('"rule_count": 6', '"rule_count": 7')
    with pytest.raises(DocumentSyntaxError):
        parse_rule_table(tampered)


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
