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
from emlang.report import render_rule_table
from emlang.rules import extract_rules
from emlang.corpus import load_corpus, serialize_corpus
from emlang.schema import parse_schema, render_schema
from emlang.synth import moprd_schema

from conftest import error_codes, json_values, mutate


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


@pytest.mark.parametrize("flag", ["--speakers", "--listeners"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_empty_population_is_a_config_error(workdir, flag, size):
    result = run_cli(
        "game", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd",
        "--candidates", "2", "--episodes", "5", "--seed", "1", flag, size,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("ConfigError")
    assert result.stdout == ""


def test_synth_noisy_needs_a_schema(workdir):
    result = run_cli("synth", "--kind", "noisy", "--corpus", str(workdir / "corpus.jsonl"), "--seed", "1")
    assert result.returncode == 1
    assert result.stderr == "SyntaxError: synth --kind noisy needs --corpus and --schema\n"


@pytest.mark.parametrize(("kind", "flag"), [
    ("holistic", "--truth-out"),
    ("noisy", "--truth-out"),
    ("compositional", "--corpus"),
    ("holistic", "--corpus"),
    ("compositional", "--synonyms"),
    ("compositional", "--minority-share"),
    ("holistic", "--synonyms"),
    ("holistic", "--minority-share"),
    ("noisy", "--msg-len"),
    ("noisy", "--vocab"),
])
def test_synth_refuses_flags_its_kind_does_not_read(workdir, tmp_path, kind, flag):
    value = {
        "--truth-out": "truth.json",
        "--corpus": str(workdir / "corpus.jsonl"),
        "--synonyms": "5",
        "--minority-share": "0.3",
        "--msg-len": "3",
        "--vocab": "2",
    }[flag]
    inputs = ["--corpus", str(workdir / "corpus.jsonl")] if kind == "noisy" else []
    result = run_cli("synth", "--kind", kind, "--schema", "moprd", "--seed", "1", *inputs,
                     flag, value, "--out", "corpus.jsonl", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("ConfigError: ")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "command",
    [
        ["extract"],
        ["topsim"],
        ["game", "--candidates", "2", "--episodes", "10", "--seed", "1"],
    ],
    ids=["extract", "topsim", "game"],
)
def test_message_past_length_bound_is_a_syntax_error(tmp_path, workdir, command):
    """The corpus bound is the one ``render`` applies to rule tables, 2**16."""
    records = [
        json.loads(line)
        for line in (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[1:3]
    ]
    length = 2**16 + 1
    records[0]["msg"], records[1]["msg"] = [0] * length, [1] * length
    header = {"meta": {"vocab_size": 2, "msg_len": length}}
    target = tmp_path / "long.jsonl"
    target.write_text(
        "".join(json.dumps(doc) + "\n" for doc in [header, *records]), encoding="utf-8"
    )
    # without the bound, topsim fills a 65537 x 65537 edit-distance table
    result = run_cli(command[0], "--corpus", str(target), "--schema", "moprd", *command[1:],
                     timeout=60)
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


HUGE_INTEGER = "9" * 5000  # past the interpreter's 4300-digit limit on int("...")
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000  # past the interpreter's recursion limit


@pytest.mark.parametrize("value", [HUGE_INTEGER, DEEP_ARRAY], ids=["huge-integer", "deep-array"])
@pytest.mark.parametrize("command", ["synth", "render"])
def test_unreadable_json_document_is_a_syntax_error(tmp_path, command, value):
    if command == "synth":
        document = '{"attributes": [{"name": "a", "values": ["x"]}], "n": %s}' % value
        argv = ["synth", "--kind", "holistic", "--schema", "s.json", "--seed", "1"]
    else:
        document = ('{"kind": "topsim_report", "rho": 0.5, "pair_count": %s, "sampled": false, '
                    '"seed": null}' % value)
        argv = ["render", "--in", "s.json", "--format", "markdown"]
    (tmp_path / "s.json").write_text(document, encoding="utf-8")
    result = run_cli(*argv, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("SyntaxError:") and "Traceback" not in result.stderr


def write_escaped_inputs(path, value, sample_id):
    """A schema whose attribute ``a`` takes ``value`` or "y", a corpus whose
    sample ``sample_id`` carries ``value``, and the rule table of the two;
    ``value`` and ``sample_id`` are JSON string contents, escapes included."""
    (path / "s.json").write_text(
        '{"attributes": [{"name": "a", "values": ["%s", "y"]}]}' % value, encoding="utf-8"
    )
    (path / "c.jsonl").write_text(
        '{"meta": {"vocab_size": 4, "msg_len": 2}}\n'
        '{"sample": "%s", "attrs": {"a": "%s"}, "msg": [1, 2]}\n'
        '{"sample": "s2", "attrs": {"a": "y"}, "msg": [1, 3]}\n' % (sample_id, value),
        encoding="utf-8",
    )
    (path / "r.json").write_text(
        '{"kind": "rule_table", "message_length": 2, "rule_count": 1, '
        '"global_constants": [[0, 1]], "rules": [{"pattern": [[1, 2]], '
        '"evidence": [["a", "%s"]], "coverage": {"a": ["%s"]}, "support": 1}]}' % (value, value),
        encoding="utf-8",
    )


SURROGATE_COMMANDS = {
    "extract": (["extract", "--corpus", "c.jsonl", "--schema", "s.json", "--format", "markdown"],
                "schema document is not valid JSON: a string holds a lone surrogate"),
    "synth-noisy": (["synth", "--kind", "noisy", "--corpus", "c.jsonl", "--schema", "s.json",
                     "--seed", "1"], "sample id '\\udc00' holds a lone surrogate"),
    "render": (["render", "--in", "r.json", "--format", "markdown", "--schema", "s.json"],
               "structured document is not valid JSON: a string holds a lone surrogate"),
}


@pytest.mark.parametrize(("argv", "reason"), SURROGATE_COMMANDS.values(),
                         ids=SURROGATE_COMMANDS.keys())
def test_lone_surrogate_is_a_syntax_error(tmp_path, argv, reason):
    """No output could encode a lone surrogate, so the input that holds one
    fails: a schema value in every document, or a sample id."""
    value = "x" if argv[0] == "synth" else "\\ud800"
    write_escaped_inputs(tmp_path, value, "\\udc00")
    result = run_cli(*argv, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"SyntaxError: {reason}\n"


@pytest.mark.parametrize("argv", [argv for argv, _ in SURROGATE_COMMANDS.values()],
                         ids=SURROGATE_COMMANDS.keys())
def test_surrogate_pair_loads_and_round_trips(tmp_path, argv):
    """A JSON surrogate pair is one code point, which UTF-8 encodes."""
    write_escaped_inputs(tmp_path, "\\ud83d\\ude00", "\\ud83d\\ude00")
    result = run_cli(*argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "\N{GRINNING FACE}" in result.stdout
    if argv[0] == "synth":
        schema = parse_schema((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert serialize_corpus(load_corpus(result.stdout, schema)) == result.stdout


# each case: its arguments, in which "bad" names a file of invalid UTF-8, and
# the error code it must end with
FILE_BOUNDARY_CASES = {
    "corpus-not-utf8": (["extract", "--corpus", "bad", "--schema", "moprd"], "SyntaxError"),
    "schema-not-utf8": (["extract", "--corpus", "corpus.jsonl", "--schema", "bad"],
                        "SyntaxError"),
    "render-in-not-utf8": (["render", "--in", "bad", "--format", "markdown"], "SyntaxError"),
    "out-is-a-directory": (["extract", "--corpus", "corpus.jsonl", "--schema", "moprd",
                            "--out", "."], "NotFound"),
    "out-under-missing-directory": (["extract", "--corpus", "corpus.jsonl", "--schema", "moprd",
                                     "--out", "missing/table.json"], "NotFound"),
    "truth-out-under-missing-directory": (["synth", "--kind", "compositional", "--schema",
                                           "moprd", "--seed", "1", "--truth-out",
                                           "missing/truth.json"], "NotFound"),
}


@pytest.mark.parametrize(("argv", "code"), FILE_BOUNDARY_CASES.values(),
                         ids=FILE_BOUNDARY_CASES.keys())
def test_unreadable_or_unwritable_path_reports_a_code(tmp_path, workdir, argv, code):
    (tmp_path / "bad").write_bytes(b'{"meta": "\xff\xfe"}\n')
    (tmp_path / "corpus.jsonl").write_bytes((workdir / "corpus.jsonl").read_bytes())
    result = run_cli(*argv, cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith(f"{code}:") and "Traceback" not in result.stderr
    assert result.stdout == ""


def _rule_table_with_evidence_cell(cell):
    rule = {"pattern": [], "evidence": [cell], "coverage": {}, "support": 1}
    return {"kind": "rule_table", "message_length": 2, "rule_count": 1,
            "global_constants": [], "rules": [rule]}


def _rule_table_of_length(length, constants=()):
    return {"kind": "rule_table", "message_length": length, "rule_count": 0,
            "global_constants": [list(cell) for cell in constants], "rules": []}


METRICS_REASON = "malformed metrics document"
TABLE_REASON = "malformed rule table document"
LENGTH_REASON = "message_length must be between 1 and 65536"
POSITION_REASON = "pattern position outside the message"

# document and the reason its error names
MALFORMED_RESULTS = {
    "rho-text": ({"kind": "topsim_report", "rho": "x", "pair_count": 1, "sampled": False,
                  "seed": None}, METRICS_REASON),
    "pair-count-overflow": ({"kind": "topsim_report", "rho": 0.5, "pair_count": 1e400,
                             "sampled": False, "seed": None}, METRICS_REASON),
    "accuracy-text": ({"kind": "accuracy_matrix", "episodes_per_cell": 1, "values": [["a"]]},
                      METRICS_REASON),
    "episodes-overflow": ({"kind": "accuracy_matrix", "episodes_per_cell": 1e400,
                           "values": [[0.5]]}, METRICS_REASON),
    "unknown-kind": ({"kind": "table"}, "unknown document kind 'table'"),
    "evidence-cell-short": (_rule_table_with_evidence_cell([1]), TABLE_REASON),
    "message-length-overflow": (_rule_table_of_length(1e400), TABLE_REASON),
    "message-length-zero": (_rule_table_of_length(0), LENGTH_REASON),
    "message-length-negative": (_rule_table_of_length(-1), LENGTH_REASON),
    "message-length-huge": (_rule_table_of_length(10**12), LENGTH_REASON),
    "message-length-huge-float": (_rule_table_of_length(1e300), LENGTH_REASON),
    "message-length-past-bound": (_rule_table_of_length(2**16 + 1), LENGTH_REASON),
    "position-past-end": (_rule_table_of_length(2, constants=[(2, 5)]), POSITION_REASON),
    "negative-position": (_rule_table_of_length(2, constants=[(-1, 5)]), POSITION_REASON),
}


@pytest.mark.parametrize(("document", "reason"), MALFORMED_RESULTS.values(),
                         ids=MALFORMED_RESULTS.keys())
def test_render_rejects_malformed_results(tmp_path, document, reason):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document).replace("Infinity", "1e400"), encoding="utf-8")
    result = run_cli("render", "--in", str(path), "--format", "markdown", "--schema", "moprd",
                     timeout=60)
    assert result.returncode == 1
    assert result.stderr == f"SyntaxError: {reason}\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, reference_corpus):
    path = tmp_path_factory.mktemp("fuzz")
    lines = serialize_corpus(reference_corpus).splitlines()[:13]  # header and 12 records
    table = render_rule_table(extract_rules(reference_corpus), "structured")
    return path, {
        "schema": json.loads(render_schema(moprd_schema())),
        "corpus": [json.loads(line) for line in lines],
        "result": json.loads(table),
    }


# strings that may hold lone surrogates; json.dumps writes those as escapes, so
# the files stay UTF-8 and the escapes reach the parser
surrogate_texts = st.lists(
    st.integers(0xD800, 0xDFFF).map(chr) | st.characters(), min_size=1, max_size=4
).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_schema_and_corpus_fail_only_with_error_codes(fuzz_dir, data):
    """Every subcommand that reads a schema, corpus or result document exits 0
    or with an error code, and its output encodes as strict UTF-8."""
    path, valid = fuzz_dir
    documents = json.loads(json.dumps(valid))
    # the vocabulary size and a token may take any integer, and often one past the int64 edge
    wide = st.integers() | st.integers(min_value=2**63 - 1)
    header, record = documents["corpus"][:2]
    header["meta"]["vocab_size"] = data.draw(st.just(header["meta"]["vocab_size"]) | wide)
    record["msg"][0] = data.draw(st.just(record["msg"][0]) | wide)
    record["sample"] = data.draw(st.just(record["sample"]) | surrogate_texts)
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(documents[data.draw(st.sampled_from(list(documents)))], data,
               json_values | surrogate_texts)
    files = {
        "schema": json.dumps(documents["schema"]),
        "corpus": "".join(json.dumps(line) + "\n" for line in documents["corpus"]),
        "result": json.dumps(documents["result"]),
    }
    paths = {name: path / f"{name}.json" for name in files}
    for name, text in files.items():
        paths[name].write_text(text, encoding="utf-8")
    replaced = data.draw(st.sampled_from([None, None, *files]))
    if replaced:  # arbitrary bytes, mostly not UTF-8
        paths[replaced].write_bytes(data.draw(st.binary(max_size=64)))
    inputs = ["--corpus", str(paths["corpus"]), "--schema", str(paths["schema"])]
    for argv in (
        ["extract", *inputs],
        ["topsim", *inputs, "--max-pairs", "50", "--seed", "1"],
        ["game", *inputs, "--candidates", "2", "--episodes", "5", "--seed", "1"],
        ["synth", "--kind", "noisy", *inputs, "--seed", "1"],
        ["render", "--in", str(paths["result"]), "--format", "markdown",
         "--schema", str(paths["schema"])],
    ):
        # strict UTF-8, as a terminal or file would take the output: StringIO
        # would accept a lone surrogate that no file can hold
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
            stdout.flush()
            stderr.flush()
        assert status in (0, 1)
        if status == 1:
            message = stderr.buffer.getvalue().decode("utf-8")
            assert message.split(":")[0] in error_codes(), message
