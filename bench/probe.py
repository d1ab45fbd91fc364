"""Set-up probe: do what every CLI run does before its real work, then exit.

    python3 bench/probe.py SCHEMA.json CORPUS.jsonl

Imports ``emlang.cli``, parses the schema and loads the corpus.  The runner
times this process from launch to exit as ``setup_s``.  It prints the
interpreter and numpy versions and where ``emlang`` was imported from, so
the runner can record them and refuse a program found outside the checkout.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path


def main(schema_path: str, corpus_path: str) -> None:
    import emlang.cli  # noqa: F401  (the import every CLI run pays)
    import numpy
    from emlang.corpus import load_corpus
    from emlang.schema import parse_schema

    schema = parse_schema(Path(schema_path).read_text(encoding="utf-8"))
    load_corpus(Path(corpus_path).read_text(encoding="utf-8"), schema)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "emlang": str(Path(emlang.__file__).resolve().parent),
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
