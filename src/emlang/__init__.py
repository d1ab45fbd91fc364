"""Toolkit for interpreting emergent-communication message corpora.

Builds attribute schemas with derived properties, loads annotated message
corpora, extracts position-token semantic rules, scores languages with
topographic similarity and referential-game accuracy, and generates
synthetic languages with known ground truth.

``import emlang`` loads no submodule: each public name below imports its
module on first access and is then kept here (PEP 562), so a command-line
run pays only for the modules its command uses.
"""

import importlib

# Each public name, with the module that defines it.
_EXPORTS = {
    "AnnotatedCorpus": "corpus",
    "Message": "corpus",
    "build_corpus": "corpus",
    "filter_by_frequency": "corpus",
    "load_corpus": "corpus",
    "serialize_corpus": "corpus",
    "levenshtein": "distance",
    "run_lewis_game": "game",
    "AccuracyMatrix": "metrics",
    "TopSimReport": "metrics",
    "accuracy_per_speaker": "metrics",
    "spearman": "metrics",
    "topsim": "metrics",
    "general_pattern": "report",
    "parse_structured": "report",
    "render_metrics": "report",
    "render_rule_table": "report",
    "Pattern": "rules",
    "RuleTable": "rules",
    "SemanticRule": "rules",
    "extract_rules": "rules",
    "global_constants": "rules",
    "Attribute": "schema",
    "AttributeSchema": "schema",
    "HyperattributeDef": "schema",
    "ValueMap": "schema",
    "moprd_schema": "schema",
    "parse_schema": "schema",
    "render_schema": "schema",
    "Codebook": "synth",
    "concept_schema": "synth",
    "gen_compositional": "synth",
    "gen_holistic": "synth",
    "gen_noisy": "synth",
    "ground_truth_table": "synth",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
