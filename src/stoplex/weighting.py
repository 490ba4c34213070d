"""TF-IDF weights and their normalization into probabilities.

idf = ln(n/m) with n the document count and m the number of documents
containing the word. A word's weight is its average per-document tf*idf;
by default the average runs over all n documents, with absent documents
contributing zero. Probabilities are weights normalized to sum to one.

All reductions go through math.fsum in first_index order, which keeps the
probability normalization error within 1e-12 and makes results
independent of any evaluation schedule.
"""

from __future__ import annotations

import math
from enum import Enum

from .corpus import Lexicon, WordEntry
from .errors import AllZeroWeights, DomainError


class AveragingMode(str, Enum):
    """Denominator of the average tf*idf."""

    ALL_DOCS = "all"  # divide by n; documents without the word count as zero
    CONTAINING_DOCS = "containing"  # divide by m; only documents with the word


def inverse_document_frequency(n_docs: int, doc_frequency: int) -> float:
    """ln(n/m); exactly 0.0 for a word present in every document."""
    if n_docs < 1:
        raise DomainError(f"document count must be >= 1, got {n_docs}")
    if doc_frequency < 1 or doc_frequency > n_docs:
        raise DomainError(
            f"doc_frequency must be in 1..{n_docs}, got {doc_frequency}"
        )
    if doc_frequency == n_docs:
        return 0.0
    return math.log(n_docs / doc_frequency)


def apply_weights(
    lexicon: Lexicon, mode: AveragingMode | str = AveragingMode.ALL_DOCS
) -> Lexicon:
    """Return a new lexicon with idf and weight filled on every entry.

    A word's weight is fsum(count * idf) over its non-zero per-document
    counts, divided by n (ALL_DOCS) or m (CONTAINING_DOCS). Documents
    without the word would only add exact zeros to that sum.

    Both numbers depend only on the word's count profile
    (doc_frequency, doc_counts), so they are computed once per distinct
    profile and every entry with that profile holds the same float objects.
    """
    mode = AveragingMode(mode)
    n_docs = lexicon.doc_count
    all_docs = mode is AveragingMode.ALL_DOCS
    by_profile: dict[tuple[int, tuple[int, ...]], tuple[float, float]] = {}
    weighted = []
    for surface, first_index, df, total_count, doc_counts, _, _, _ in lexicon.entries:
        numbers = by_profile.get((df, doc_counts))
        if numbers is None:
            idf = inverse_document_frequency(n_docs, df)
            weight = math.fsum([count * idf for count in doc_counts]) / (n_docs if all_docs else df)
            numbers = by_profile[df, doc_counts] = (idf, weight)
        weighted.append(WordEntry(surface, first_index, df, total_count, doc_counts, *numbers))
    return Lexicon(tuple(weighted), n_docs)


def probabilities(lexicon: Lexicon) -> Lexicon:
    """Normalize weights into probabilities; order and indices unchanged.

    Raises AllZeroWeights when the weight sum is zero, which happens
    exactly when every word occurs in every document: such a corpus
    carries no tf-idf signal and cannot be analyzed by this method.

    Each weight object is divided once, so entries that share a weight
    (one count profile) share its probability object too.
    """
    weights = [entry.weight for entry in lexicon.entries]
    if None in weights:
        raise DomainError("weights are unset; call apply_weights first")
    total = math.fsum(weights)
    if total <= 0.0:
        raise AllZeroWeights(
            "all weights are zero (every word occurs in every document)"
        )
    by_weight: dict[int, float] = {}  # id(weight) -> probability; the entries keep each weight alive
    entries = []
    for surface, first_index, df, total_count, doc_counts, idf, weight, _ in lexicon.entries:
        probability = by_weight.get(id(weight))
        if probability is None:
            probability = by_weight[id(weight)] = weight / total
        entries.append(
            WordEntry(surface, first_index, df, total_count, doc_counts, idf, weight, probability)
        )
    return Lexicon(tuple(entries), lexicon.doc_count)
