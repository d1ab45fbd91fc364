"""Toolkit for interpreting emergent-communication message corpora.

Builds attribute schemas with derived properties, loads annotated message
corpora, extracts position-token semantic rules, scores languages with
topographic similarity and referential-game accuracy, and generates
synthetic languages with known ground truth.
"""

from .corpus import (
    AnnotatedCorpus,
    Message,
    build_corpus,
    filter_by_frequency,
    load_corpus,
    serialize_corpus,
)
from .game import GameConfig, run_lewis_game
from .metrics import (
    AccuracyMatrix,
    TopSimReport,
    accuracy_per_speaker,
    levenshtein,
    spearman,
    topsim,
)
from .report import (
    general_pattern,
    parse_structured,
    render_metrics,
    render_rule_table,
)
from .rules import (
    Pattern,
    RuleTable,
    SemanticRule,
    constant_positions,
    extract_rules,
    global_constants,
)
from .schema import (
    AttributeSchema,
    Attribute,
    HyperattributeDef,
    ValueMap,
    parse_schema,
    render_schema,
)
from .synth import (
    Codebook,
    concept_schema,
    gen_compositional,
    gen_holistic,
    gen_noisy,
    ground_truth_table,
    moprd_schema,
)

__all__ = [
    "AnnotatedCorpus",
    "AccuracyMatrix",
    "Attribute",
    "AttributeSchema",
    "Codebook",
    "GameConfig",
    "HyperattributeDef",
    "Message",
    "Pattern",
    "RuleTable",
    "SemanticRule",
    "TopSimReport",
    "ValueMap",
    "accuracy_per_speaker",
    "build_corpus",
    "concept_schema",
    "constant_positions",
    "extract_rules",
    "filter_by_frequency",
    "gen_compositional",
    "gen_holistic",
    "gen_noisy",
    "general_pattern",
    "global_constants",
    "ground_truth_table",
    "levenshtein",
    "load_corpus",
    "moprd_schema",
    "parse_schema",
    "parse_structured",
    "render_metrics",
    "render_rule_table",
    "render_schema",
    "run_lewis_game",
    "serialize_corpus",
    "spearman",
    "topsim",
]
