"""Batch command-line interface.

Subcommands: ``extract`` (rule detection), ``topsim`` (compositionality),
``game`` (referential-game accuracy), ``synth`` (corpus generators),
``distance`` (message edit distance), ``render`` (re-render structured
results).  Exit status 0 on success, 2 on usage errors, 1 on data or
validation errors with the stable error code on stderr.  ``run`` is the
command's one entry point (``emlang`` and ``python -m emlang``); ``main``
runs a command in process and returns its status.

Importing this module loads no numpy and no other emlang module than
``errors``: each command imports the modules it runs when it starts, so
``distance`` and ``--help`` load no numpy, and ``--schema moprd`` loads no
generator.

Identical invocations produce byte-identical output; stochastic subcommands
require an explicit seed.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import NoReturn

from .errors import ConfigError, DocumentSyntaxError, EmlangError, NotFoundError


# _emit encodes and writes at most this many characters of a block at once.
_EMIT_CHUNK = 2**20

# game --speakers and --listeners each take 1 to this many agents; the
# accuracy matrix then has at most MAX_POPULATION**2 cells.
MAX_POPULATION = 2**10


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise NotFoundError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise DocumentSyntaxError(f"{path}: not UTF-8 text ({reason})") from None
    except OSError as exc:
        raise NotFoundError(f"cannot read {path}: {exc.strerror}") from None


def _load_schema(value: str):
    from .schema import moprd_schema, parse_schema

    if value == "moprd":
        return moprd_schema()
    return parse_schema(_read(value))


def _load_corpus(path: str, schema):
    from .corpus import load_corpus

    return load_corpus(_read(path), schema)


def _emit(blocks: str | Iterable[str], out: str | None) -> None:
    """Write the text ``blocks`` as UTF-8 to the file ``out``, or to standard
    output whatever its encoding; a ``str`` is one block.  Each block is
    written as it comes, so a document made block by block is never held
    whole."""
    if isinstance(blocks, str):
        blocks = (blocks,)
    if out is None:
        if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
            raise NotFoundError(f"cannot write <stdout>: {os.strerror(errno.EBADF)}")
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:  # a text stream without bytes underneath, such as io.StringIO
            sys.stdout.writelines(blocks)
            return
        try:
            sys.stdout.flush()  # text written before comes first
            _write_utf8(blocks, stream)
            stream.flush()
        except OSError as exc:
            # Nothing more can reach this stdout.  Point its descriptor at
            # os.devnull, so that the interpreter's final flush of what is
            # still buffered neither fails again nor turns the status into 120.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise NotFoundError(f"cannot write <stdout>: {exc.strerror}") from None
        return
    try:
        with open(out, "wb") as stream:
            _write_utf8(blocks, stream)
    except OSError as exc:
        raise NotFoundError(f"cannot write {out}: {exc.strerror}") from None


def _write_utf8(blocks: Iterable[str], stream) -> None:
    # one chunk at a time, so that a large block is never held twice, as
    # text and as bytes
    for text in blocks:
        for start in range(0, len(text), _EMIT_CHUNK):
            data = memoryview(text[start : start + _EMIT_CHUNK].encode("utf-8"))
            while data:  # an unbuffered stdout (python -u) may take only a part
                data = data[stream.write(data) :]


# one token of a message: an optional minus and ASCII digits, spaces around it
_TOKEN = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def _parse_tokens(text: str) -> tuple[int, ...]:
    """The tokens of a comma-separated message; the empty text is the empty
    message."""
    tokens = text.split(",") if text else []
    if all(_TOKEN.fullmatch(tok) for tok in tokens):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # more digits than int() converts
            pass
    raise DocumentSyntaxError(f"expected comma-separated integers, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help reaches standard output through
    :func:`_emit`, so that a failed write is ``NotFound`` there too; usage
    errors still go to standard error."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _emit(message, None)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emlang",
        description="Semantic rule extraction and metrics for message corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="detect semantic rules in a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True, help="schema file, or 'moprd' for the builtin")
    p.add_argument("--min-freq", type=float, default=0.15)
    p.add_argument("--out")
    p.add_argument("--format", choices=["structured", "markdown", "csv"], default="structured")

    p = sub.add_parser("topsim", help="topographic similarity of a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--max-pairs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--format", choices=["structured", "markdown"], default="structured")

    p = sub.add_parser("game", help="referential-game accuracy matrix")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--candidates", type=int, default=20)
    p.add_argument("--episodes", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--speakers", type=int, default=1, help=f"population size, 1..{MAX_POPULATION}")
    p.add_argument("--listeners", type=int, default=1, help=f"population size, 1..{MAX_POPULATION}")
    p.add_argument("--out")
    p.add_argument("--format", choices=["structured", "markdown"], default="structured")

    p = sub.add_parser("synth", help="generate a ground-truth corpus")
    p.add_argument("--kind", choices=["compositional", "holistic", "noisy"], required=True)
    p.add_argument("--schema", help="schema file or 'moprd'")
    p.add_argument("--msg-len", type=int, help="default 10 (compositional and holistic only)")
    p.add_argument("--vocab", type=int, help="default 20 (compositional and holistic only)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--corpus", help="base corpus (noisy only)")
    p.add_argument("--synonyms", type=int, help="per-sample synonyms, default 1 (noisy only)")
    p.add_argument("--minority-share", type=float, help="default 0.10 (noisy only)")
    p.add_argument("--truth-out", help="write the generated rule table (compositional only)")

    p = sub.add_parser("distance", help="edit distance between two messages")
    p.add_argument("--a", required=True, help="comma-separated tokens")
    p.add_argument("--b", required=True, help="comma-separated tokens")

    p = sub.add_parser("render", help="re-render a structured result document")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["structured", "markdown", "csv"], required=True)
    p.add_argument("--schema", help="needed to lay out rule tables as markdown/csv")
    p.add_argument("--out")
    return parser


def _cmd_extract(args) -> None:
    from .report import render_rule_table
    from .rules import extract_rules

    schema = _load_schema(args.schema)
    loaded = _load_corpus(args.corpus, schema)
    table = extract_rules(loaded, threshold=args.min_freq)
    _emit(render_rule_table(table, args.format, schema=schema), args.out)


def _cmd_topsim(args) -> None:
    from .metrics import topsim
    from .report import render_metrics

    schema = _load_schema(args.schema)
    loaded = _load_corpus(args.corpus, schema)
    result = topsim(loaded, max_pairs=args.max_pairs, seed=args.seed)
    _emit(render_metrics(result, args.format), args.out)


def _cmd_game(args) -> None:
    from .game import run_lewis_game
    from .report import render_metrics

    schema = _load_schema(args.schema)
    loaded = _load_corpus(args.corpus, schema)
    # checked before the population tuples are built, which a huge size could not be
    for size in (args.speakers, args.listeners):
        if not 1 <= size <= MAX_POPULATION:
            raise ConfigError(f"a population holds 1 to {MAX_POPULATION} agents, not {size}")
    matrix = run_lewis_game(
        loaded,
        args.seed,
        candidate_count=args.candidates,
        episodes=args.episodes,
        speakers=(loaded,) * args.speakers,
        listeners=(loaded,) * args.listeners,
    )
    _emit(render_metrics(matrix, args.format), args.out)


# Each synth flag that only some kinds read, with those kinds.
_SYNTH_FLAGS = {
    "truth_out": ("compositional",),
    "corpus": ("noisy",),
    "msg_len": ("compositional", "holistic"),
    "vocab": ("compositional", "holistic"),
    "synonyms": ("noisy",),
    "minority_share": ("noisy",),
}


def _cmd_synth(args) -> None:
    from .corpus import serialize_blocks
    from .synth import gen_compositional, gen_holistic, gen_noisy

    for name, kinds in _SYNTH_FLAGS.items():
        if getattr(args, name) is not None and args.kind not in kinds:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} applies to synth --kind {' and '.join(kinds)} only")
    if args.kind == "noisy":
        if not args.corpus or not args.schema:
            raise DocumentSyntaxError("synth --kind noisy needs --corpus and --schema")
        schema = _load_schema(args.schema)
        base = _load_corpus(args.corpus, schema)
        synonyms = 1 if args.synonyms is None else args.synonyms
        share = 0.10 if args.minority_share is None else args.minority_share
        result = gen_noisy(base, synonyms, share, args.seed)
    else:
        if not args.schema:
            raise DocumentSyntaxError("synth needs --schema")
        schema = _load_schema(args.schema)
        msg_len = 10 if args.msg_len is None else args.msg_len
        vocab = 20 if args.vocab is None else args.vocab
        if args.kind == "compositional":
            result, truth = gen_compositional(schema, msg_len, vocab, args.seed)
            if args.truth_out:
                from .report import render_rule_table

                _emit(render_rule_table(truth, "structured"), args.truth_out)
        else:
            result = gen_holistic(schema, msg_len, vocab, args.seed)
    _emit(serialize_blocks(result), args.out)


def _cmd_distance(args) -> None:
    from .distance import levenshtein

    _emit(f"{levenshtein(_parse_tokens(args.a), _parse_tokens(args.b))}\n", None)


def _cmd_render(args) -> None:
    from .report import parse_structured, render_metrics, render_rule_table
    from .rules import RuleTable

    obj = parse_structured(_read(args.input))
    if isinstance(obj, RuleTable):
        schema = _load_schema(args.schema) if args.schema else None
        rendered = render_rule_table(obj, args.format, schema=schema)
    else:
        rendered = render_metrics(obj, args.format)
    _emit(rendered, args.out)


_COMMANDS = {
    "extract": _cmd_extract,
    "topsim": _cmd_topsim,
    "game": _cmd_game,
    "synth": _cmd_synth,
    "distance": _cmd_distance,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # exits on --help and on a usage error
        _COMMANDS[args.command](args)
    except EmlangError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> NoReturn:
    """Run the command named by ``sys.argv`` and exit with its status.

    The cyclic garbage collector is off for the whole run: a command makes
    no reference cycles, and the collector would only walk the modules it
    imports, and its inputs, again and again.  Every object the interpreter
    then tracks is frozen out of the collector, also when argparse exits on a
    usage error or ``--help``: the process is about to end, and the full
    collections of interpreter shutdown would only walk them again after the
    output is written.  ``atexit`` handlers and the final flush of the
    standard streams still run.  :func:`main` leaves the collector as it
    finds it, for callers that go on running.
    """
    gc.disable()
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)
