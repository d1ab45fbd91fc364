"""Traced replay of one CLI invocation, and the per-layer metrics it yields.

Run as a script, this module imports ``emlang.cli``, wraps the public
functions at each module boundary by rebinding module and class attributes
(the program's files are not touched), replays the invocation in-process
through ``emlang.cli.main(argv)`` and writes the trace as JSON:

    python3 bench/tracing.py TRACE.json extract --corpus c.jsonl --schema s.json ...

Spans (name, start, end, parent) and counters stay in memory until the run
ends.  Functions called per sample or per episode are too hot for one span
per call; their wrappers only count calls and add up the time of the
outermost call, which is charged to the enclosing span.  A function that a
version of the program no longer has is skipped and listed as missing, so
its metrics read 0.

The runner imports :func:`summarize` to turn a trace into the metrics of
:data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "schema", "corpus", "rules", "metrics", "game", "report", "synth")

# (module, attribute, span name)
SPANS = (
    ("emlang.schema", "parse_schema", "schema.parse_schema"),
    ("emlang.corpus", "load_corpus", "corpus.load_corpus"),
    ("emlang.corpus", "build_corpus", "corpus.build_corpus"),
    ("emlang.corpus", "filter_by_frequency", "corpus.filter_by_frequency"),
    ("emlang.corpus", "serialize_corpus", "corpus.serialize_corpus"),
    ("emlang.rules", "extract_rules", "rules.extract_rules"),
    ("emlang.rules", "global_constants", "rules.global_constants"),
    ("emlang.rules", "constant_positions", "rules.constant_positions"),
    ("emlang.rules", "coverage_summary", "rules.coverage_summary"),
    ("emlang.metrics", "topsim", "metrics.topsim"),
    ("emlang.metrics", "pairwise_levenshtein", "metrics.pairwise_levenshtein"),
    ("emlang.metrics", "spearman", "metrics.spearman"),
    ("emlang.metrics", "average_ranks", "metrics.average_ranks"),
    ("emlang.game", "run_lewis_game", "game.run_lewis_game"),
    ("emlang.game", "CorpusSpeaker.__init__", "game.agents_init"),
    ("emlang.game", "CorpusListener.__init__", "game.agents_init"),
    ("emlang.report", "render_rule_table", "report.render_rule_table"),
    ("emlang.report", "render_metrics", "report.render_metrics"),
    ("emlang.synth", "gen_noisy", "synth.gen_noisy"),
)

# (module, attribute, counter name): called per sample or per episode
HOT = (
    ("emlang.schema", "eval_property", "schema.eval_property"),
    ("emlang.schema", "validate_sample", "schema.validate_sample"),
    ("emlang.game", "CorpusSpeaker.emit", "game.emit"),
    ("emlang.game", "CorpusListener.choose", "game.choose"),
)


def _records(text: str) -> int:
    return sum(1 for line in text.split("\n") if line.strip()) - 1


def _messages(corpus) -> int:
    return sum(len(entry.messages) for entry in corpus.entries)


def _output_bytes(args, result) -> dict[str, int]:
    return {"report.output_bytes": len(result.encode("utf-8"))}


# span name -> (args, result) -> counter increments, taken after the span closes
OBSERVERS = {
    "corpus.load_corpus": lambda args, result: {"corpus.load_corpus.records": _records(args[0])},
    "corpus.filter_by_frequency": lambda args, result: {
        "corpus.filter.messages_in": _messages(args[0]),
        "corpus.filter.messages_kept": _messages(result),
    },
    "corpus.serialize_corpus": lambda args, result: {
        "corpus.serialize_corpus.records": _records(result)},
    "rules.extract_rules": lambda args, result: {"rules.rules": result.rule_count},
    "metrics.topsim": lambda args, result: {"metrics.pairs": result.pair_count},
    "game.run_lewis_game": lambda args, result: {
        "game.episodes": result.episodes_per_cell * sum(len(row) for row in result.values)},
    "report.render_rule_table": _output_bytes,
    "report.render_metrics": _output_bytes,
    "synth.gen_noisy": lambda args, result: {"synth.records_written": _messages(result)},
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index, hot seconds inside]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds of outermost calls]
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []

    def span(self, name: str, fn, observe=None):
        tracer, clock = self, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer.stack.pop()
            if observe is not None:
                try:
                    counts = observe(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    tracer.errors.append(f"{name}: {exc!r}")
                else:
                    for key, count in counts.items():
                        tracer.counters[key] += count
            return result

        return wrapper

    def hot_call(self, name: str, fn):
        tracer, clock = self, self.clock
        stats = self.hot.setdefault(name, [0, 0.0])
        active = [False]  # recursive calls are counted, not timed again

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[0] = False
                stats[1] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][4] += elapsed

        return wrapper

    def document(self, import_s: float, missing: list[str]) -> dict:
        return {
            "import_s": import_s,
            "spans": self.spans,
            "hot": self.hot,
            "counters": dict(self.counters),
            "missing": missing,
            "observer_errors": self.errors,
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in SPANS and HOT that the program still has.

    A function is rebound in every ``emlang`` module that holds it, so calls
    through ``from .x import f`` bindings are traced too.  Returns the
    targets that were not found.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "emlang"]
    missing = []
    for module_name, attr, name, hot in (
        [(m, a, n, False) for m, a, n in SPANS] + [(m, a, n, True) for m, a, n in HOT]
    ):
        owner = sys.modules.get(module_name)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if hot:
            wrapped = tracer.hot_call(name, original)
        else:
            wrapped = tracer.span(name, original, OBSERVERS.get(name))
        if len(path) > 1:
            setattr(owner, path[-1], wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import emlang.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = install(tracer)
    exit_code = tracer.span("cli.main", emlang.cli.main)(cli_argv)
    with open(trace_path, "w", encoding="utf-8") as out:
        json.dump(tracer.document(import_s, missing), out)
    return exit_code


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better, the end-to-end metric it should move, on which workloads)
ALL = "all"
EXTRACT, TOPSIM, GAME, SYNTH = "extract-noisy", "topsim-sampled", "game-population", "synth-noisy"
PER_LAYER = (
    ("cli.import_s", "s", "lower", "setup_s", ALL),
    ("cli.main.self_s", "s", "lower", "wall_s", ALL),
    ("schema.parse_schema.s", "s", "lower", "setup_s", ALL),
    ("schema.eval_property.calls", "count", "lower", "wall_s", EXTRACT),
    ("schema.eval_property.s", "s", "lower", "wall_s", EXTRACT),
    ("schema.validate_sample.calls", "count", "lower", "setup_s", ALL),
    ("schema.validate_sample.s", "s", "lower", "setup_s", ALL),
    ("corpus.load_corpus.s", "s", "lower", "setup_s", ALL),
    ("corpus.load_corpus.records", "count", "higher", "setup_s", ALL),
    ("corpus.build_corpus.s", "s", "lower", "setup_s", ALL),
    ("corpus.filter_by_frequency.s", "s", "lower", "wall_s", EXTRACT),
    ("corpus.filter.messages_in", "count", "higher", "wall_s", EXTRACT),
    ("corpus.filter.messages_kept", "count", "higher", "wall_s", EXTRACT),
    ("corpus.filter.kept_ratio", "1", "higher", "wall_s", EXTRACT),
    ("corpus.serialize_corpus.s", "s", "lower", "wall_s", SYNTH),
    ("corpus.serialize_corpus.records", "count", "higher", "wall_s", SYNTH),
    ("rules.extract_rules.s", "s", "lower", "wall_s", EXTRACT),
    ("rules.extract_rules.self_s", "s", "lower", "wall_s", EXTRACT),
    ("rules.global_constants.s", "s", "lower", "wall_s", EXTRACT),
    ("rules.constant_positions.calls", "count", "lower", "wall_s", EXTRACT),
    ("rules.coverage_summary.calls", "count", "lower", "wall_s", EXTRACT),
    ("rules.coverage_summary.s", "s", "lower", "wall_s", EXTRACT),
    ("rules.rules", "count", "higher", "wall_s", EXTRACT),
    ("rules.rules_per_group", "1", "higher", "wall_s", EXTRACT),
    ("metrics.topsim.s", "s", "lower", "wall_s", TOPSIM),
    ("metrics.topsim.self_s", "s", "lower", "wall_s", TOPSIM),
    ("metrics.pairwise_levenshtein.s", "s", "lower", "wall_s", TOPSIM),
    ("metrics.pairs", "count", "higher", "wall_s", TOPSIM),
    ("metrics.pairwise_levenshtein.ns_per_pair", "ns", "lower", "wall_s", TOPSIM),
    ("metrics.spearman.s", "s", "lower", "wall_s", TOPSIM),
    ("metrics.average_ranks.s", "s", "lower", "wall_s", TOPSIM),
    ("game.run_lewis_game.s", "s", "lower", "wall_s", GAME),
    ("game.run_lewis_game.self_s", "s", "lower", "wall_s", GAME),
    ("game.episodes", "count", "higher", "wall_s", GAME),
    ("game.us_per_episode", "us", "lower", "wall_s", GAME),
    ("game.agents_init_s", "s", "lower", "wall_s", GAME),
    ("game.emit.calls", "count", "lower", "wall_s", GAME),
    ("game.emit.s", "s", "lower", "wall_s", GAME),
    ("game.choose.calls", "count", "lower", "wall_s", GAME),
    ("game.choose.s", "s", "lower", "wall_s", GAME),
    ("report.render_rule_table.s", "s", "lower", "wall_s", EXTRACT),
    ("report.render_metrics.s", "s", "lower", "wall_s", f"{TOPSIM},{GAME}"),
    ("report.output_bytes", "bytes", "lower", "wall_s", f"{EXTRACT},{TOPSIM},{GAME}"),
    ("synth.gen_noisy.s", "s", "lower", "wall_s", SYNTH),
    ("synth.records_written", "count", "higher", "wall_s", SYNTH),
    *((f"layer.{layer}.self_s", "s", "lower", "wall_s", ALL) for layer in LAYERS),
    ("trace.untraced_wall_s", "s", "lower", "wall_s", ALL),
    ("trace.traced_wall_s", "s", "lower", "wall_s", ALL),
    ("trace.overhead_s", "s", "lower", "wall_s", ALL),
)


def summarize(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one trace; ``trace.*`` is left to the runner.

    A span's self time is its duration minus its child spans and the hot
    calls made directly inside it; a layer's self time adds up its spans'
    self times and its hot functions' time.
    """
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, hot) in enumerate(spans):
        self_s = end - start - covered[i] - hot
        total[name] += end - start
        own[name] += self_s
        layer[name.split(".")[0]] += self_s
        if name == "rules.constant_positions" and parent >= 0 and spans[parent][0] == "rules.extract_rules":
            calls[name] += 1
    hot = doc["hot"]
    for name, (_, seconds) in hot.items():
        layer[name.split(".")[0]] += seconds
    counters = defaultdict(int, doc["counters"])
    coverage_calls = sum(1 for s in spans if s[0] == "rules.coverage_summary")

    def hot_stat(name, index):
        return hot.get(name, (0, 0.0))[index]

    episodes = counters["game.episodes"]
    pairs = counters["metrics.pairs"]
    groups = calls["rules.constant_positions"]
    metrics = {
        "cli.import_s": doc["import_s"],
        "cli.main.self_s": own["cli.main"],
        "schema.parse_schema.s": total["schema.parse_schema"],
        "schema.eval_property.calls": hot_stat("schema.eval_property", 0),
        "schema.eval_property.s": hot_stat("schema.eval_property", 1),
        "schema.validate_sample.calls": hot_stat("schema.validate_sample", 0),
        "schema.validate_sample.s": hot_stat("schema.validate_sample", 1),
        "corpus.load_corpus.s": total["corpus.load_corpus"],
        "corpus.load_corpus.records": counters["corpus.load_corpus.records"],
        "corpus.build_corpus.s": total["corpus.build_corpus"],
        "corpus.filter_by_frequency.s": total["corpus.filter_by_frequency"],
        "corpus.filter.messages_in": counters["corpus.filter.messages_in"],
        "corpus.filter.messages_kept": counters["corpus.filter.messages_kept"],
        "corpus.filter.kept_ratio": (
            counters["corpus.filter.messages_kept"] / counters["corpus.filter.messages_in"]
            if counters["corpus.filter.messages_in"] else 0.0
        ),
        "corpus.serialize_corpus.s": total["corpus.serialize_corpus"],
        "corpus.serialize_corpus.records": counters["corpus.serialize_corpus.records"],
        "rules.extract_rules.s": total["rules.extract_rules"],
        "rules.extract_rules.self_s": own["rules.extract_rules"],
        "rules.global_constants.s": total["rules.global_constants"],
        "rules.constant_positions.calls": groups,
        "rules.coverage_summary.calls": coverage_calls,
        "rules.coverage_summary.s": total["rules.coverage_summary"],
        "rules.rules": counters["rules.rules"],
        "rules.rules_per_group": counters["rules.rules"] / groups if groups else 0.0,
        "metrics.topsim.s": total["metrics.topsim"],
        "metrics.topsim.self_s": own["metrics.topsim"],
        "metrics.pairwise_levenshtein.s": total["metrics.pairwise_levenshtein"],
        "metrics.pairs": pairs,
        "metrics.pairwise_levenshtein.ns_per_pair": (
            total["metrics.pairwise_levenshtein"] / pairs * 1e9 if pairs else 0.0
        ),
        "metrics.spearman.s": total["metrics.spearman"],
        "metrics.average_ranks.s": total["metrics.average_ranks"],
        "game.run_lewis_game.s": total["game.run_lewis_game"],
        "game.run_lewis_game.self_s": own["game.run_lewis_game"],
        "game.episodes": episodes,
        "game.us_per_episode": total["game.run_lewis_game"] / episodes * 1e6 if episodes else 0.0,
        "game.agents_init_s": total["game.agents_init"],
        "game.emit.calls": hot_stat("game.emit", 0),
        "game.emit.s": hot_stat("game.emit", 1),
        "game.choose.calls": hot_stat("game.choose", 0),
        "game.choose.s": hot_stat("game.choose", 1),
        "report.render_rule_table.s": total["report.render_rule_table"],
        "report.render_metrics.s": total["report.render_metrics"],
        "report.output_bytes": counters["report.output_bytes"],
        "synth.gen_noisy.s": total["synth.gen_noisy"],
        "synth.records_written": counters["synth.records_written"],
    }
    for name in LAYERS:
        metrics[f"layer.{name}.self_s"] = layer[name]
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
