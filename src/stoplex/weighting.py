"""TF-IDF weights and their normalization into probabilities.

idf = ln(n/m) with n the document count and m the number of documents
containing the word. A word's weight is its average per-document tf*idf;
by default the average runs over all n documents, with absent documents
contributing zero. Probabilities are weights normalized to sum to one.

Every sum is correctly rounded. idf is fixed per word, so a word's sum of
tf*idf over the documents is idf times its total count: one product,
rounded once, per count profile. The normalizing total is the exact sum of
every word's weight, computed per profile as its word count times its
weight and rounded once, so it equals math.fsum over the N per-word weights
bit for bit. That keeps the probability normalization error within 1e-12
and makes results independent of any evaluation schedule.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import mul
from typing import Sequence

from .corpus import Lexicon, _check_profile_column
from .errors import AllZeroWeights, DomainError
from .moments import _dyadic


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


def apply_weights(lexicon: Lexicon, mode: AveragingMode | str = AveragingMode.ALL_DOCS) -> tuple[float, ...]:
    """The weight of each count profile, by profile id.

    A profile's weight is idf * total_count, the exact sum of count * idf
    over its documents rounded once, divided by n (ALL_DOCS) or m
    (CONTAINING_DOCS). Documents without the word would only add exact
    zeros to that sum.
    """
    mode = AveragingMode(mode)
    n_docs = lexicon.doc_count
    all_docs = mode is AveragingMode.ALL_DOCS
    return tuple(
        inverse_document_frequency(n_docs, m) * total / (n_docs if all_docs else m)
        for m, total in zip(lexicon.doc_frequency, lexicon.total_count)
    )


def probabilities(lexicon: Lexicon, weight: Sequence[float]) -> tuple[float, ...]:
    """The probability of each count profile's words, by profile id, from the profiles' weights.

    The normalizing total is the exact sum over profiles of the profile's
    word count times its weight, rounded once. Raises DomainError unless
    there is one weight per profile, and AllZeroWeights when the total is
    zero, which happens exactly when every word occurs in every document:
    such a corpus carries no tf-idf signal and cannot be analyzed by this
    method.
    """
    _check_profile_column(lexicon, weight, "weight")
    scaled, scale = _dyadic(weight)
    total = sum(map(mul, scaled, map(len, lexicon.members))) / scale
    if total <= 0.0:
        raise AllZeroWeights("all weights are zero (every word occurs in every document)")
    return tuple(w / total for w in weight)
