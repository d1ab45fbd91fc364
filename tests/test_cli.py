from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import cli
from emlang.corpus import serialize_corpus
from emlang.schema import render_schema
from emlang.synth import moprd_schema

from conftest import error_codes, mutate


def run_cli(*args: str, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "emlang", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, reference_corpus):
    path = tmp_path_factory.mktemp("cli")
    (path / "corpus.jsonl").write_text(serialize_corpus(reference_corpus), encoding="utf-8")
    (path / "schema.json").write_text(render_schema(moprd_schema()), encoding="utf-8")
    return path


def test_extract_markdown(workdir):
    result = run_cli(
        "extract", "--corpus", str(workdir / "corpus.jsonl"),
        "--schema", str(workdir / "schema.json"), "--format", "markdown",
    )
    assert result.returncode == 0
    assert "General pattern: 13-12-XX-10-10-10-10-10-YY-ZZ" in result.stdout
    assert result.stdout.count("\n|") >= 6


def test_extract_builtin_schema(workdir):
    by_file = run_cli(
        "extract", "--corpus", str(workdir / "corpus.jsonl"),
        "--schema", str(workdir / "schema.json"),
    )
    builtin = run_cli("extract", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd")
    assert by_file.returncode == builtin.returncode == 0
    assert by_file.stdout == builtin.stdout


def test_distance():
    result = run_cli("distance", "--a", "1,2,3", "--b", "1,3,3")
    assert result.returncode == 0
    assert result.stdout == "1\n"


def test_missing_corpus_reports_code():
    result = run_cli("extract", "--corpus", "missing.jsonl", "--schema", "moprd")
    assert result.returncode == 1
    assert result.stderr.startswith("NotFound")


def test_malformed_corpus_reports_syntax_error(workdir):
    bad = workdir / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    result = run_cli("extract", "--corpus", str(bad), "--schema", "moprd")
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError")


def test_usage_error_exits_two():
    assert run_cli("extract").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("synth", "--kind", "compositional", "--schema", "moprd").returncode == 2  # no seed


def test_zero_min_freq_reproduces_unfiltered(workdir, tmp_path):
    # add a 5%-share synonym; at 0.15 it disappears, at 0 it stays
    lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    record = lines[1].replace('"count": 1', '"count": 19')
    noisy = "\n".join([lines[0], record, lines[1].replace('"msg": [13,', '"msg": [14,')] + lines[2:])
    target = tmp_path / "noisy.jsonl"
    target.write_text(noisy + "\n", encoding="utf-8")
    filtered = run_cli("extract", "--corpus", str(target), "--schema", "moprd")
    unfiltered = run_cli("extract", "--corpus", str(target), "--schema", "moprd", "--min-freq", "0")
    assert filtered.returncode == unfiltered.returncode == 0
    assert filtered.stdout != unfiltered.stdout


def test_synth_topsim_game_pipeline(tmp_path):
    corpus_path = tmp_path / "lang.jsonl"
    truth_path = tmp_path / "truth.json"
    synth = run_cli(
        "synth", "--kind", "compositional", "--schema", "moprd",
        "--msg-len", "10", "--vocab", "20", "--seed", "3",
        "--out", str(corpus_path), "--truth-out", str(truth_path),
    )
    assert synth.returncode == 0
    assert corpus_path.is_file() and truth_path.is_file()

    ts = run_cli("topsim", "--corpus", str(corpus_path), "--schema", "moprd", "--format", "markdown")
    assert ts.returncode == 0
    assert ts.stdout == "TopSim: 1.0000 (4950 pairs, exact)\n"

    game = run_cli(
        "game", "--corpus", str(corpus_path), "--schema", "moprd",
        "--candidates", "5", "--episodes", "50", "--seed", "2", "--format", "markdown",
    )
    assert game.returncode == 0
    assert "Per-speaker mean: 1.0000" in game.stdout


def test_synth_noisy_and_render(tmp_path, workdir):
    noisy_path = tmp_path / "noisy.jsonl"
    result = run_cli(
        "synth", "--kind", "noisy", "--schema", str(workdir / "schema.json"),
        "--corpus", str(workdir / "corpus.jsonl"), "--seed", "4",
        "--minority-share", "0.2", "--out", str(noisy_path),
    )
    assert result.returncode == 0

    table_path = tmp_path / "table.json"
    extract = run_cli(
        "extract", "--corpus", str(noisy_path), "--schema", "moprd",
        "--out", str(table_path),
    )
    assert extract.returncode == 0
    rendered = run_cli(
        "render", "--in", str(table_path), "--format", "markdown", "--schema", "moprd"
    )
    assert rendered.returncode == 0
    assert "General pattern:" in rendered.stdout
    round_trip = run_cli("render", "--in", str(table_path), "--format", "structured")
    assert round_trip.stdout == table_path.read_text(encoding="utf-8")


def test_render_metrics_document(tmp_path, workdir):
    doc = tmp_path / "topsim.json"
    run_cli(
        "topsim", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd",
        "--out", str(doc),
    )
    result = run_cli("render", "--in", str(doc), "--format", "markdown")
    assert result.returncode == 0
    assert result.stdout.startswith("TopSim:")


@pytest.mark.parametrize(
    "expr",
    ["not " * 1000 + "flag", "(" * 300 + "flag" + ")" * 300, " or ".join(["flag"] * 2000)],
    ids=["not-chain", "parentheses", "or-chain"],
)
def test_deeply_nested_expression_is_a_syntax_error(tmp_path, workdir, expr):
    document = {
        "attributes": [{"name": "flag", "values": ["F", "T"]}],
        "hyperattributes": [{"name": "deep", "expr": expr}],
    }
    (tmp_path / "deep.json").write_text(json.dumps(document), encoding="utf-8")
    result = run_cli(
        "extract", "--corpus", str(workdir / "corpus.jsonl"),
        "--schema", str(tmp_path / "deep.json"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:")


@pytest.mark.parametrize("sample_id", ["0", "null", "true", "[1]"])
def test_non_string_sample_id_is_a_syntax_error(tmp_path, workdir, sample_id):
    lines = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"sample": "00"', f'"sample": {sample_id}')
    target = tmp_path / "ids.jsonl"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run_cli("extract", "--corpus", str(target), "--schema", "moprd")
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:") and "line 2" in result.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["extract"],
        ["topsim"],
        ["game", "--candidates", "5", "--episodes", "10", "--seed", "1"],
    ],
    ids=["extract", "topsim", "game"],
)
def test_count_total_past_float_exactness_is_a_syntax_error(tmp_path, workdir, command):
    text = (workdir / "corpus.jsonl").read_text(encoding="utf-8")
    assert text.count('"count": 1}') == 100
    target = tmp_path / "huge.jsonl"
    target.write_text(text.replace('"count": 1}', f'"count": {10**30}}}'), encoding="utf-8")
    result = run_cli(command[0], "--corpus", str(target), "--schema", "moprd", *command[1:])
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:")


@pytest.mark.parametrize(
    "command",
    [
        ["extract"],
        ["topsim"],
        ["game", "--candidates", "2", "--episodes", "10", "--seed", "1"],
    ],
    ids=["extract", "topsim", "game"],
)
def test_vocab_past_int64_is_a_syntax_error(tmp_path, workdir, command):
    records = [
        json.loads(line)
        for line in (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[1:3]
    ]
    records[0]["msg"], records[1]["msg"] = [10**23, 0], [1, 2]
    header = {"meta": {"vocab_size": 10**30, "msg_len": 2}}
    target = tmp_path / "wide.jsonl"
    target.write_text(
        "".join(json.dumps(doc) + "\n" for doc in [header, *records]), encoding="utf-8"
    )
    result = run_cli(command[0], "--corpus", str(target), "--schema", "moprd", *command[1:])
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:")


@pytest.mark.parametrize("seed", ["-3", "18446744073709551617"])
def test_topsim_sampling_accepts_any_integer_seed(workdir, seed):
    argv = [
        "topsim", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd",
        "--max-pairs", "500", "--seed", seed,
    ]
    first, second = run_cli(*argv), run_cli(*argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["pair_count"] == 500 and report["sampled"] is True


def _rule_table_with_evidence_cell(cell):
    rule = {"pattern": [], "evidence": [cell], "coverage": {}, "support": 1}
    return {"kind": "rule_table", "message_length": 2, "rule_count": 1,
            "global_constants": [], "rules": [rule]}


def _rule_table_of_length(length, constants=()):
    return {"kind": "rule_table", "message_length": length, "rule_count": 0,
            "global_constants": [list(cell) for cell in constants], "rules": []}


MALFORMED_RESULTS = {
    "rho-text": {"kind": "topsim_report", "rho": "x", "pair_count": 1, "sampled": False,
                 "seed": None},
    "pair-count-overflow": {"kind": "topsim_report", "rho": 0.5, "pair_count": 1e400,
                            "sampled": False, "seed": None},
    "accuracy-text": {"kind": "accuracy_matrix", "episodes_per_cell": 1, "values": [["a"]]},
    "episodes-overflow": {"kind": "accuracy_matrix", "episodes_per_cell": 1e400,
                          "values": [[0.5]]},
    "evidence-cell-short": _rule_table_with_evidence_cell([1]),
    "message-length-overflow": _rule_table_of_length(1e400),
    "message-length-zero": _rule_table_of_length(0),
    "message-length-negative": _rule_table_of_length(-1),
    "message-length-huge": _rule_table_of_length(10**12),
    "message-length-huge-float": _rule_table_of_length(1e300),
    "position-past-end": _rule_table_of_length(2, constants=[(2, 5)]),
    "negative-position": _rule_table_of_length(2, constants=[(-1, 5)]),
}


@pytest.mark.parametrize("document", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS.keys())
def test_render_rejects_malformed_results(tmp_path, document):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document).replace("Infinity", "1e400"), encoding="utf-8")
    result = run_cli("render", "--in", str(path), "--format", "markdown", "--schema", "moprd",
                     timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, reference_corpus):
    path = tmp_path_factory.mktemp("fuzz")
    lines = serialize_corpus(reference_corpus).splitlines()[:13]  # header and 12 records
    return path, {
        "schema": json.loads(render_schema(moprd_schema())),
        "corpus": [json.loads(line) for line in lines],
    }


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_schema_and_corpus_fail_only_with_error_codes(fuzz_dir, data):
    path, valid = fuzz_dir
    documents = json.loads(json.dumps(valid))
    # the vocabulary size and a token may take any integer, and often one past the int64 edge
    wide = st.integers() | st.integers(min_value=2**63 - 1)
    header, record = documents["corpus"][:2]
    header["meta"]["vocab_size"] = data.draw(st.just(header["meta"]["vocab_size"]) | wide)
    record["msg"][0] = data.draw(st.just(record["msg"][0]) | wide)
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(documents[data.draw(st.sampled_from(["schema", "corpus"]))], data)
    schema_path, corpus_path = path / "schema.json", path / "corpus.jsonl"
    schema_path.write_text(json.dumps(documents["schema"]), encoding="utf-8")
    corpus_path.write_text(
        "".join(json.dumps(line) + "\n" for line in documents["corpus"]), encoding="utf-8"
    )
    inputs = ["--corpus", str(corpus_path), "--schema", str(schema_path)]
    for argv in (
        ["extract", *inputs],
        ["topsim", *inputs, "--max-pairs", "50", "--seed", "1"],
        ["game", *inputs, "--candidates", "2", "--episodes", "5", "--seed", "1"],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        assert status in (0, 1)
        if status == 1:
            assert stderr.getvalue().split(":")[0] in error_codes(), stderr.getvalue()
