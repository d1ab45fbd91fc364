from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang import cli
from emlang.cli import MAX_POPULATION
from emlang.report import render_rule_table
from emlang.rules import extract_rules
from emlang.corpus import _SERIALIZE_BLOCK, build_corpus, load_corpus, serialize_corpus
from emlang.metrics import MAX_PAIRS
from emlang.schema import moprd_schema, parse_schema, render_schema
from emlang.synth import (
    MAX_SYNONYM_CELLS,
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
)

from conftest import error_codes, json_values, mutate, run_bounded
from oracles import naive_serialize_corpus


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


@pytest.mark.parametrize(("text", "tokens"), [
    ("", ""),
    ("7", "7"),
    (" 1 , -2 ,3 ", "1,-2,3"),
    ("\t007,-0\n", "7,0"),
], ids=["empty", "one", "spaces-and-minus", "tabs-and-zeros"])
def test_distance_reads_each_token(capsys, text, tokens):
    """A token is an optional minus and ASCII digits, with spaces around it;
    the empty text is the empty message."""
    assert cli.main(["distance", "--a", text, "--b", tokens]) == 0
    assert cli.main(["distance", "--a", text, "--b", ""]) == 0
    count = len(tokens.split(",")) if tokens else 0
    assert capsys.readouterr() == (f"0\n{count}\n", "")


@pytest.mark.parametrize("text", [
    "1,,2", "1,2,", ",", " ", "1_0", "\u0661", "1,\uff12", "+1", "1.0", "0x1", "9" * 5000,
], ids=["empty-inside", "empty-last", "comma", "space", "underscore", "arabic-indic-digit",
        "fullwidth-digit", "plus", "decimal-point", "hex", "too-many-digits"])
def test_distance_refuses_a_malformed_token(capsys, text):
    assert cli.main(["distance", "--a", "1", "--b", text]) == 1
    assert capsys.readouterr() == (
        "", f"SyntaxError: expected comma-separated integers, got {text!r}\n"
    )


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


@pytest.mark.parametrize("flag", ["--speakers", "--listeners"])
@pytest.mark.parametrize("size", [str(MAX_POPULATION + 1), "99999999999999999999"])
def test_population_above_the_bound_is_a_config_error(workdir, flag, size):
    """Refused before the population is built: N agents would take N tuple slots."""
    result = run_cli(
        "game", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd",
        "--candidates", "2", "--episodes", "5", "--seed", "1", flag, size,
    )
    assert result.returncode == 1
    assert result.stderr == (
        f"ConfigError: a population holds 1 to {MAX_POPULATION} agents, not {size}\n"
    )
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


# A schema with a value map, an expression over it and a one-value attribute,
# whose value is a global constant of every message.
PINNED_SCHEMA = {
    "attributes": [
        {"name": "color", "values": ["r", "g", "b"]},
        {"name": "size", "values": ["s", "l"]},
        {"name": "kind", "values": ["k"]},
        {"name": "n", "values": ["0", "1", "2", "3"]},
    ],
    "hyperattributes": [
        {"name": "warm", "map": {"source": "color", "cases": {"r": "hot", "g": "cold", "b": "cold"}}},
        {"name": "big_warm", "expr": "size == l and warm == hot"},
        {"name": "even", "expr": "n in {0, 2}"},
    ],
}
# SHA-256 of the --truth-out and --out bytes of synth --kind compositional,
# per (schema, seed), as written when the generators first drew from the
# counter-based stream.
SYNTH_DIGESTS = {
    ("moprd", "1"): ("a3f44f80823e994f8a7fb8325cd98b7e09d2602960177309cdb8dd2e31c3239f",
                     "051f80632cd434d602238cd61b5718170666522d28cb483086df03667c5c0321"),
    ("moprd", "2"): ("ad4ffbe74d800011acffa2fe20b35938dde3bc6f021eea6f6e7ecd525ed304a6",
                     "a03fdd52df703a5a93d0957161fe45935bc1bb71641c53a3deab5e1eada97563"),
    ("moprd", "3"): ("82bb4ad9da8661eb7612918df53e7b89b5c63e218a78501c7a49ddc0fc6aa57f",
                     "b239339d83dff122eeb2016dce477acaf0c288321c10edee9af6b6b2b2a03ac7"),
    ("pinned", "1"): ("101730b0ede91295ce41776f1dd37ad455f4dc500a2dc9e90072ab056837862a",
                      "69668f0533af4b908ae70f8c8fed8571e94d0c764f018c80939002cd979005cf"),
    ("pinned", "2"): ("46be9d3d6b971d07b06b1482e4e74d11057e124153007e501ca2e2f45e5a977a",
                      "d8990aec373c53e2a78441d3f2f02fa62b8858cf6b73274bb861ba16078a14b6"),
    ("pinned", "3"): ("253b677b5231808cc7f8f434822af4cf285a837d81569c19530e0b022b7ab5e9",
                      "b43804e4ac791ec8b69953949dee2bcd829807b259fa195dbeb6102b37f75abf"),
}


@pytest.mark.parametrize(("schema", "seed"), SYNTH_DIGESTS)
def test_synth_truth_and_corpus_bytes_are_pinned(tmp_path, schema, seed):
    argv = ["synth", "--kind", "compositional", "--seed", seed, "--schema"]
    if schema == "moprd":
        argv += ["moprd", "--msg-len", "10", "--vocab", "20"]
    else:
        (tmp_path / "schema.json").write_text(json.dumps(PINNED_SCHEMA), encoding="utf-8")
        argv += [str(tmp_path / "schema.json"), "--msg-len", "8", "--vocab", "12"]
    truth, corpus = tmp_path / "truth.json", tmp_path / "corpus.jsonl"
    assert cli.main([*argv, "--truth-out", str(truth), "--out", str(corpus)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (truth, corpus))
    assert digests == SYNTH_DIGESTS[schema, seed]


@pytest.mark.parametrize("kind", ["noisy", "compositional", "holistic"])
def test_synth_writes_one_json_dumps_per_record(workdir, kind):
    """The bytes on stdout are the record-by-record serialization of the
    library's corpus for the same arguments."""
    schema = moprd_schema()
    argv = ["--msg-len", "12", "--vocab", "30"]
    if kind == "noisy":
        argv = ["--corpus", str(workdir / "corpus.jsonl"), "--synonyms", "3"]
        base = load_corpus((workdir / "corpus.jsonl").read_text(encoding="utf-8"), schema)
        expected = gen_noisy(base, 3, 0.10, 7)
    elif kind == "compositional":
        expected, _ = gen_compositional(schema, 12, 30, 7)
    else:
        expected = gen_holistic(schema, 12, 30, 7)
    result = subprocess.run(
        [sys.executable, "-m", "emlang", "synth", "--kind", kind, "--schema", "moprd",
         "--seed", "7", *argv],
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == naive_serialize_corpus(expected).encode("utf-8")


def test_output_is_utf8_whatever_the_stdout_encoding(tmp_path):
    """Standard output takes the bytes the --out file holds, even where the
    terminal's encoding cannot spell them."""
    schema = tmp_path / "schema.json"
    schema.write_text(
        '{"attributes": [{"name": "a", "values": ["é", "x"]}, '
        '{"name": "b", "values": ["y", "z"]}]}',
        encoding="utf-8",
    )
    argv = [sys.executable, "-m", "emlang", "synth", "--kind", "holistic", "--schema",
            str(schema), "--seed", "1"]
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    printed = subprocess.run(argv, capture_output=True, env=env)
    assert printed.returncode == 0, printed.stderr
    written = subprocess.run([*argv, "--out", str(tmp_path / "out.jsonl")], env=env)
    assert written.returncode == 0
    assert printed.stdout == (tmp_path / "out.jsonl").read_bytes()
    assert "é".encode("utf-8") in printed.stdout


def test_emit_writes_large_documents_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 3)
    text = "abé\U0001f600c" * 5
    cli._emit(text, str(tmp_path / "out.txt"))
    assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    stdout.write("head ")
    with contextlib.redirect_stdout(stdout):
        cli._emit(text, None)
    assert stdout.buffer.getvalue() == b"head " + text.encode("utf-8")


def test_emit_writes_each_block_before_the_next_is_made():
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    written = []

    def blocks():
        for block in ["ab\n", "é\n", "c"]:
            yield block
            written.append(stdout.buffer.getvalue().decode("utf-8"))

    with contextlib.redirect_stdout(stdout):
        cli._emit(blocks(), None)
    assert written == ["ab\n", "ab\né\n", "ab\né\nc"]
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli._emit(iter(["ab\n", "é"]), None)
    assert text.getvalue() == "ab\né"


SYNTH_STREAM_ARGV = ["synth", "--kind", "noisy", "--schema", "moprd", "--corpus", "corpus.jsonl",
                     "--synonyms", "90", "--seed", "3"]


@pytest.fixture(scope="module")
def streamed_noisy(workdir):
    """The document of SYNTH_STREAM_ARGV: 9100 rows of multi-byte UTF-8, more
    characters than one emit chunk and rows for many serializer blocks."""
    base = load_corpus((workdir / "corpus.jsonl").read_text(encoding="utf-8"), moprd_schema())
    text = naive_serialize_corpus(gen_noisy(base, 90, 0.10, 3))
    assert len(text) > cli._EMIT_CHUNK and text.count("\n") > 17 * _SERIALIZE_BLOCK
    return text.encode("utf-8")


def test_synth_noisy_streams_the_document_to_stdout_and_to_a_file(workdir, tmp_path, streamed_noisy):
    argv = [sys.executable, "-m", "emlang", *SYNTH_STREAM_ARGV]
    printed = subprocess.run(argv, capture_output=True, cwd=workdir)
    assert printed.returncode == 0, printed.stderr
    assert printed.stdout == streamed_noisy
    written = subprocess.run([*argv, "--out", str(tmp_path / "out.jsonl")], capture_output=True, cwd=workdir)
    assert (written.returncode, written.stdout) == (0, b"")
    assert (tmp_path / "out.jsonl").read_bytes() == streamed_noisy


def test_synth_noisy_blocks_split_into_emit_chunks(workdir, tmp_path, monkeypatch, streamed_noisy):
    """Blocks of 7 rows, each written in chunks of 1000 characters."""
    monkeypatch.setattr(cli, "_EMIT_CHUNK", 1000)
    monkeypatch.setattr("emlang.corpus._SERIALIZE_BLOCK", 7)
    monkeypatch.chdir(workdir)
    assert cli.main([*SYNTH_STREAM_ARGV, "--out", str(tmp_path / "out.jsonl")]) == 0
    assert (tmp_path / "out.jsonl").read_bytes() == streamed_noisy
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stdout):
        assert cli.main(SYNTH_STREAM_ARGV) == 0
    assert stdout.buffer.getvalue() == streamed_noisy


def _env(unbuffered: bool) -> dict[str, str]:
    """This process's environment, with standard output buffered or not
    (``python -u``, where a write may take only a part of its bytes)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


NOISY_ARGV = ["synth", "--kind", "noisy", "--schema", "moprd", "--synonyms", "50", "--seed", "1"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["distance", "--a", "1,2", "--b", "2"],
    ["extract", "--corpus", "corpus.jsonl", "--schema", "moprd"],
    [*NOISY_ARGV, "--corpus", "corpus.jsonl"],
    ["--help"],
    ["extract", "--help"],
], ids=["distance", "extract", "synth", "help", "command-help"])
def test_full_stdout_is_not_found(workdir, argv, unbuffered):
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "emlang", *argv], cwd=workdir,
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=_env(unbuffered))
    assert result.returncode == 1
    assert result.stderr == "NotFound: cannot write <stdout>: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_usage_error_with_full_stdout_exits_two(workdir, unbuffered):
    """Usage goes to standard error, so a full standard output does not matter."""
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "emlang", "extract"], cwd=workdir,
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=_env(unbuffered))
    assert result.returncode == 2
    assert result.stderr.startswith("usage: emlang extract")
    assert "the following arguments are required" in result.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_by_its_reader_is_not_found(workdir, unbuffered):
    """The output outgrows the pipe, so the command is still writing when the
    reader closes it after a few bytes."""
    base = load_corpus((workdir / "corpus.jsonl").read_text(encoding="utf-8"), moprd_schema())
    assert len(serialize_corpus(gen_noisy(base, 50, 0.10, 1)).encode("utf-8")) > 2**16
    proc = subprocess.Popen(
        [sys.executable, "-m", "emlang", *NOISY_ARGV, "--corpus", "corpus.jsonl"],
        cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered),
    )
    assert proc.stdout.read(10) == b'{"meta": {'
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b"NotFound: cannot write <stdout>: Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["distance", "--a", "1,2", "--b", "2"],
    ["extract", "--corpus", "corpus.jsonl", "--schema", "moprd"],
    ["--help"],
], ids=["distance", "extract", "help"])
def test_closed_stdout_is_not_found(workdir, argv):
    """With descriptor 1 closed before it starts, the interpreter sets
    ``sys.stdout`` to None; the shell closes it, so no Python code runs in
    the child before the command."""
    result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "emlang", *argv],
                            cwd=workdir, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == "NotFound: cannot write <stdout>: Bad file descriptor\n"


# the installed ``emlang`` script calls cli.run as this one does
CONSOLE_SCRIPT = [sys.executable, "-c", "import sys; from emlang.cli import run; sys.exit(run())"]


@pytest.mark.parametrize(("argv", "status", "stdout", "stderr"), [
    (["distance", "--a", "1,2,3", "--b", "1,3,3"], 0, "1\n", ""),
    (["--help"], 0, "usage: emlang", ""),
    (["extract", "--corpus", "missing.jsonl", "--schema", "moprd"], 1, "",
     "NotFound: no such file: missing.jsonl\n"),
    (["extract"], 2, "", "usage: emlang extract"),
    (["no-such-command"], 2, "", "usage: emlang"),
], ids=["success", "help", "error-code", "missing-argument", "unknown-command"])
def test_run_exit_status(tmp_path, argv, status, stdout, stderr):
    result = subprocess.run([*CONSOLE_SCRIPT, *argv], capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == status
    for text, start in ((result.stdout, stdout), (result.stderr, stderr)):
        assert text.startswith(start) and bool(text) == bool(start)


@pytest.mark.parametrize(("argv", "status"), [
    (["distance", "--a", "1", "--b", "2"], 0),
    (["extract", "--corpus", "missing.jsonl", "--schema", "moprd"], 1),
    (["extract"], 2),
], ids=["success", "error-code", "usage-error"])
def test_run_keeps_atexit_handlers_and_freezes_the_collector(tmp_path, argv, status):
    """run() is called only in a child: it freezes the garbage collector of
    the process it runs in."""
    code = (
        "import atexit, gc\n"
        "from emlang.cli import run\n"
        "atexit.register(lambda: print('atexit, frozen:', gc.get_freeze_count() > 0))\n"
        "run()\n"
    )
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, cwd=tmp_path)
    assert result.returncode == status
    assert result.stdout.endswith("atexit, frozen: True\n")


@pytest.mark.parametrize("argv", [
    ["distance", "--a", "1,2,3", "--b", "1,3,3"],
    ["extract", "--corpus", "corpus.jsonl", "--schema", "moprd"],
], ids=["distance", "extract"])
def test_run_writes_the_bytes_of_in_process_main(workdir, monkeypatch, capsysbinary, argv):
    result = subprocess.run([*CONSOLE_SCRIPT, *argv], capture_output=True, cwd=workdir)
    assert result.returncode == 0, result.stderr
    monkeypatch.chdir(workdir)
    assert cli.main(argv) == 0
    assert capsysbinary.readouterr().out == result.stdout


COMMANDS = {
    "extract": ["extract", "--corpus", "corpus.jsonl", "--schema", "moprd", "--out", "rules.json"],
    "topsim": ["topsim", "--corpus", "corpus.jsonl", "--schema", "moprd", "--out", "rho.json"],
    "topsim-sampled": ["topsim", "--corpus", "corpus.jsonl", "--schema", "moprd",
                       "--max-pairs", "50", "--seed", "1", "--out", "rho.json"],
    "game": ["game", "--corpus", "corpus.jsonl", "--schema", "moprd", "--seed", "1",
             "--episodes", "200", "--candidates", "5", "--speakers", "2", "--out", "game.json"],
    "synth-noisy": ["synth", "--kind", "noisy", "--schema", "tied.json", "--corpus", "tied.jsonl",
                    "--synonyms", "4", "--seed", "1", "--out", "noisy.jsonl"],
    "synth-compositional": ["synth", "--kind", "compositional", "--schema", "moprd", "--seed", "1",
                            "--out", "c.jsonl", "--truth-out", "truth.json"],
    "synth-holistic": ["synth", "--kind", "holistic", "--schema", "moprd", "--seed", "1",
                       "--out", "h.jsonl"],
    "render": ["render", "--in", "table.json", "--format", "markdown", "--schema", "moprd"],
}


def loads_module(tmp_path, reference_corpus, argv, module: str) -> bool:
    """Whether the command ``argv``, run by ``cli.main`` in a fresh interpreter
    over the inputs it names, has ``module`` in ``sys.modules`` when it ends.
    In the tied corpus all 300 samples send (0, 0) over three tokens, so the
    four synonyms of a sample collide and the rejection rounds re-check
    scattered columns."""
    (tmp_path / "corpus.jsonl").write_text(serialize_corpus(reference_corpus), encoding="utf-8")
    concepts = concept_schema(300)
    (tmp_path / "tied.json").write_text(render_schema(concepts), encoding="utf-8")
    tied = build_corpus(concepts, 3, 2, [
        (value, {"concept": value}, (0, 0), 1) for value in concepts.domain("concept")
    ])
    (tmp_path / "tied.jsonl").write_text(serialize_corpus(tied), encoding="utf-8")
    (tmp_path / "table.json").write_text(
        render_rule_table(extract_rules(reference_corpus), "structured"), encoding="utf-8"
    )
    (tmp_path / "schema.json").write_text(render_schema(moprd_schema()), encoding="utf-8")
    code = (  # --help ends main by SystemExit(0)
        "import sys\n"
        "from emlang import cli\n"
        "try:\n"
        "    status = cli.main(sys.argv[1:])\n"
        "finally:\n"
        f"    print({module!r} in sys.modules, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr in ("False\n", "True\n"), result.stderr
    return result.stderr == "True\n"


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_numpy_ma(tmp_path, reference_corpus, argv):
    """numpy.ma takes 12-18 ms to import, and no command needs masked arrays:
    a bare np.unique loads it, so a command that does fails here."""
    assert not loads_module(tmp_path, reference_corpus, argv, "numpy.ma")


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["extract", "--help"],
    ["distance", "--a", "1,2,3", "--b", "1,3"],
], ids=["help", "command-help", "distance"])
def test_help_and_distance_do_not_load_numpy(tmp_path, reference_corpus, argv):
    assert not loads_module(tmp_path, reference_corpus, argv, "numpy")


# the benchmark's invocations: the schema read from a file
BENCHMARK_SHAPED = {
    "extract": ["extract", "--corpus", "corpus.jsonl", "--schema", "schema.json",
                "--min-freq", "0.15", "--out", "rules.json"],
    "topsim": ["topsim", "--corpus", "corpus.jsonl", "--schema", "schema.json",
               "--max-pairs", "50", "--seed", "1", "--out", "rho.json"],
    "game": ["game", "--corpus", "corpus.jsonl", "--schema", "schema.json", "--candidates", "5",
             "--episodes", "200", "--speakers", "2", "--listeners", "2", "--seed", "1",
             "--out", "game.json"],
    "synth": ["synth", "--kind", "noisy", "--corpus", "corpus.jsonl", "--schema", "schema.json",
              "--synonyms", "8", "--minority-share", "0.1", "--seed", "1", "--out", "noisy.jsonl"],
}


@pytest.mark.parametrize(("name", "module"), [
    ("extract", "emlang.game"),
    ("extract", "emlang.synth"),
    ("topsim", "emlang.rules"),
    ("topsim", "emlang.synth"),
    ("game", "emlang.rules"),
    ("game", "emlang.synth"),
    ("synth", "emlang.rules"),
])
def test_command_loads_only_its_modules(tmp_path, reference_corpus, name, module):
    """Each command imports the modules it runs when it starts, and nothing
    it does not run."""
    assert not loads_module(tmp_path, reference_corpus, BENCHMARK_SHAPED[name], module)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv", [
    ["distance", "--a", "1,2,3", "--b", "1,3,3"],
    ["extract", "--corpus", "corpus.jsonl", "--schema", "moprd"],
    ["extract"],
], ids=["distance", "extract", "usage-error"])
def test_main_leaves_the_collector_as_it_found_it(workdir, monkeypatch, capsys, argv, enabled):
    monkeypatch.chdir(workdir)
    frozen, was_enabled = gc.get_freeze_count(), gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(SystemExit):
            cli.main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_run_runs_its_command_with_the_collector_off(tmp_path):
    """The command sees the collector off; the distance it prints is the
    collector's state as the command found it."""
    code = (
        "import gc, sys\n"
        "from emlang import cli, distance\n"
        "distance.levenshtein = lambda a, b: gc.isenabled()\n"
        "print('before:', gc.isenabled(), flush=True)\n"
        "cli.run()\n"
    )
    result = subprocess.run([sys.executable, "-c", code, "distance", "--a", "1", "--b", "2"],
                            capture_output=True, text=True, cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "before: True\nFalse\n", "")


@pytest.mark.parametrize("name", ["game", "topsim-sampled", "synth-noisy"])
def test_drawing_commands_do_not_load_numpy_random(tmp_path, reference_corpus, name):
    """Every draw comes from the counter-based stream of ``emlang.kernels``;
    importing numpy.random would add 13-17 ms and about 6 MB of peak RSS
    to each of these commands."""
    assert not loads_module(tmp_path, reference_corpus, COMMANDS[name], "numpy.random")


def test_topsim_refuses_more_pairs_than_its_bound(tmp_path):
    """10,000 samples make 49,995,000 pairs, past MAX_PAIRS: a CapacityError
    before any pair is drawn or array built, in a child capped at 3 GiB and
    60 s.  Exact mode would have held about 0.9 GB."""
    schema = parse_schema(json.dumps({"attributes": [
        {"name": name, "values": [f"{name}{i}" for i in range(100)]} for name in ("a", "b")
    ]}))
    (tmp_path / "schema.json").write_text(render_schema(schema), encoding="utf-8")
    corpus = serialize_corpus(gen_holistic(schema, 10, 20, seed=1))
    (tmp_path / "corpus.jsonl").write_text(corpus, encoding="utf-8")
    result = run_bounded("-m", "emlang", "topsim", "--corpus", str(tmp_path / "corpus.jsonl"),
                         "--schema", str(tmp_path / "schema.json"), "--max-pairs", "1000000000")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"CapacityError: 49995000 pairs exceed the topsim bound of {MAX_PAIRS} pairs\n"
    )


def test_synth_noisy_refuses_a_huge_synonym_count(tmp_path):
    base = tmp_path / "base.jsonl"
    assert run_cli("synth", "--kind", "compositional", "--schema", "moprd",
                   "--vocab", str(2**62), "--seed", "1", "--out", str(base)).returncode == 0
    result = run_cli("synth", "--kind", "noisy", "--schema", "moprd", "--corpus", str(base),
                     "--synonyms", str(10**15), "--seed", "1")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"CapacityError: 100 samples x {10**15} synonyms of length 10 need {100 * 10**15 * 15} "
        f"working cells, past the bound of {MAX_SYNONYM_CELLS}\n"
    )


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


@pytest.mark.parametrize("format", ["markdown", "csv"])
def test_render_refuses_a_schema_without_the_table_properties(tmp_path, workdir, format):
    """A rule table rendered against a schema that lacks its properties
    exits 1 with UnknownReference in both layouts, and writes no file."""
    table_path, out = tmp_path / "table.json", tmp_path / "out.txt"
    assert run_cli("extract", "--corpus", str(workdir / "corpus.jsonl"), "--schema", "moprd",
                   "--out", str(table_path)).returncode == 0
    other = tmp_path / "other.json"
    other.write_text('{"attributes": [{"name": "shape1", "values": ["□", "○"]}]}', encoding="utf-8")
    result = run_cli("render", "--in", str(table_path), "--format", format,
                     "--schema", str(other), "--out", str(out))
    assert result.returncode == 1
    assert result.stderr.startswith("UnknownReference: unknown property ")
    assert not out.exists()


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
    or with an error code, and its output encodes as strict UTF-8; this
    includes the generators, over schemas with more than 2**64 combinations."""
    path, valid = fuzz_dir
    documents = json.loads(json.dumps(valid))
    # the vocabulary size and a token may take any integer, and often one past the int64 edge
    wide = st.integers() | st.integers(min_value=2**63 - 1)
    header, record = documents["corpus"][:2]
    header["meta"]["vocab_size"] = data.draw(st.just(header["meta"]["vocab_size"]) | wide)
    record["msg"][0] = data.draw(st.just(record["msg"][0]) | wide)
    record["sample"] = data.draw(st.just(record["sample"]) | surrogate_texts)
    # sometimes 24 or 64 more two-valued attributes: unless a mutation replaces
    # the attribute list, three mutations leave at least 2**21 combinations,
    # past the generators' bound, so a generator never builds a large language
    widened = data.draw(st.sampled_from([0, 0, 24, 64]))
    documents["schema"]["attributes"] += [{"name": f"w{i}", "values": ["0", "1"]} for i in range(widened)]
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
    msg_len = data.draw(st.sampled_from(["10", "64"]))  # 64 cells host every widened schema
    for argv in (
        ["extract", *inputs],
        ["topsim", *inputs, "--max-pairs", "50", "--seed", "1"],
        ["game", *inputs, "--candidates", "2", "--episodes", "5", "--seed", "1"],
        ["synth", "--kind", "noisy", *inputs, "--seed", "1"],
        *(["synth", "--kind", kind, "--schema", str(paths["schema"]), "--msg-len", msg_len,
           "--seed", "1"] for kind in ("compositional", "holistic")),
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
