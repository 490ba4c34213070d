"""Stop-word candidate detection for document corpora.

Pipeline: tokenize UTF-8 documents, index unique words by first
appearance, weight them by average tf-idf, normalize weights into a
probability distribution over the first-appearance index, then select the
lowest-probability fraction as stop-word candidates and analyze where
they sit in the text (interval coverage, Z-score test, skew-based
location verdict).
"""

from ._version import __version__
from .corpus import (
    CANONICAL_APOSTROPHE,
    Corpus,
    Lexicon,
    WordEntry,
    build_lexicon,
    collect_input_files,
    load_corpus,
    load_corpus_from_paths,
    tokenize,
)
from .errors import (
    AllZeroWeights,
    DecodeError,
    DegenerateDistribution,
    DomainError,
    EmptyCorpus,
    NonFinite,
    StoplexError,
)
from .moments import (
    ZERO_SKEW_EPS,
    IndexDistribution,
    MomentSummary,
    check_table_consistency,
    density,
    moment_summary,
)
from .plots import emit_density_plot, emit_sorted_plot
from .position import (
    CoverageReport,
    Decision,
    Location,
    LocationVerdict,
    Side,
    ZTestResult,
    classify_side,
    hypothesis_decision,
    interval_coverage,
    location_verdict,
    z_score,
)
from .report import (
    AnalysisReport,
    RunConfig,
    format_percent,
    run_pipeline,
    sample_mean_for,
    words_csv,
)
from .selection import StopwordSet, candidate_count, export_list, select_candidates
from .weighting import (
    AveragingMode,
    apply_weights,
    inverse_document_frequency,
    probabilities,
)

__all__ = [
    "__version__",
    "CANONICAL_APOSTROPHE",
    "ZERO_SKEW_EPS",
    "AllZeroWeights",
    "AnalysisReport",
    "AveragingMode",
    "Corpus",
    "CoverageReport",
    "DecodeError",
    "Decision",
    "DegenerateDistribution",
    "DomainError",
    "EmptyCorpus",
    "IndexDistribution",
    "Lexicon",
    "Location",
    "LocationVerdict",
    "MomentSummary",
    "NonFinite",
    "RunConfig",
    "Side",
    "StoplexError",
    "StopwordSet",
    "WordEntry",
    "ZTestResult",
    "apply_weights",
    "build_lexicon",
    "candidate_count",
    "check_table_consistency",
    "classify_side",
    "collect_input_files",
    "density",
    "emit_density_plot",
    "emit_sorted_plot",
    "export_list",
    "format_percent",
    "hypothesis_decision",
    "interval_coverage",
    "inverse_document_frequency",
    "load_corpus",
    "load_corpus_from_paths",
    "location_verdict",
    "moment_summary",
    "probabilities",
    "run_pipeline",
    "sample_mean_for",
    "select_candidates",
    "tokenize",
    "words_csv",
    "z_score",
]
