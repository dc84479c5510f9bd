"""Chunk-level multi-reference evaluation for grammatical error correction.

The pipeline aligns a hypothesis and all references against their shared
source, merges overlapping edits into chunks with boundaries shared by
every sequence, and scores the hypothesis chunk by chunk under either the
correction-dependence assumption (best single reference per sentence) or
the correction-independence assumption (a chunk is right if any reference
agrees). Length-weighted F_beta and accuracy are reported at corpus and
sentence level, alongside boundary statistics and correlation with human
judgments.
"""

__version__ = "0.1.0"

from .align import extract_edits
from .analysis import (
    BoundaryStats,
    HumanTable,
    boundary_stats,
    correlate,
    corpus_stats,
    load_human_table,
    load_metric_scores,
    pearson,
    spearman,
)
from .chunker import ChunkedSample, chunk_table, partition
from .corpus import (
    AnnotatedSample,
    Edit,
    TokenSeq,
    apply_edits,
    drop_unchanged_references,
    emit_m2,
    load_parallel,
    parse_m2,
    tokenize,
)
from .errors import (
    BoundsError,
    DataError,
    DegenerateError,
    EmptySourceError,
    LengthMismatchError,
    NoChunksError,
    OverlapError,
    ParseError,
    SystemMismatchError,
    TooFewAnnotatorsError,
)
from .scoring import (
    VARIANTS,
    OutcomeCounts,
    Scores,
    VariantResult,
    WeightConfig,
    accuracy,
    aggregate_sentence,
    compute_ell,
    default_config,
    f_beta_formula,
    length_weight,
    precision_recall,
    raw_weight,
    run_variant,
    score_sentence_dependent,
    score_sentence_independent,
    sum_counts,
    unweighted,
)

__all__ = [
    "__version__",
    "AnnotatedSample",
    "BoundaryStats",
    "BoundsError",
    "ChunkedSample",
    "DataError",
    "DegenerateError",
    "Edit",
    "EmptySourceError",
    "HumanTable",
    "LengthMismatchError",
    "NoChunksError",
    "OutcomeCounts",
    "OverlapError",
    "ParseError",
    "Scores",
    "SystemMismatchError",
    "TokenSeq",
    "TooFewAnnotatorsError",
    "VARIANTS",
    "VariantResult",
    "WeightConfig",
    "accuracy",
    "aggregate_sentence",
    "apply_edits",
    "boundary_stats",
    "chunk_table",
    "compute_ell",
    "correlate",
    "corpus_stats",
    "default_config",
    "drop_unchanged_references",
    "emit_m2",
    "extract_edits",
    "f_beta_formula",
    "length_weight",
    "load_human_table",
    "load_metric_scores",
    "load_parallel",
    "parse_m2",
    "partition",
    "pearson",
    "precision_recall",
    "raw_weight",
    "run_variant",
    "score_sentence_dependent",
    "score_sentence_independent",
    "spearman",
    "sum_counts",
    "tokenize",
    "unweighted",
]
