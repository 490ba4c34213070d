"""Dense reference lexicon: the per-document count vectors stoplex used to keep.

Every word holds a count for every document, zeros included, and the
weighting walks that whole vector. It costs unique words x documents, so
the package no longer uses it; tests compare the sparse lexicon against it.
``postings`` keeps the sparse fold that came between the two: one list of
non-zero counts per word, which the corpus's profile tree replaced.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from stoplex import AllZeroWeights, AveragingMode, DomainError, inverse_document_frequency


@dataclass(frozen=True)
class DenseEntry:
    surface: str
    first_index: int
    per_doc_counts: tuple[int, ...]
    doc_frequency: int
    idf: float | None = None
    weight: float | None = None
    probability: float | None = None

    @property
    def total_count(self) -> int:
        return sum(self.per_doc_counts)


@dataclass(frozen=True)
class DenseLexicon:
    entries: tuple[DenseEntry, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def postings(documents: list[list[str]]) -> dict[str, list[int]]:
    """Each token, in first-appearance order, with its non-zero counts in document order.

    The fold over token lists in document order that appended each
    document's count to one list per word.
    """
    folded: dict[str, list[int]] = {}
    for tokens in documents:
        for token, count in Counter(tokens).items():
            counts = folded.get(token)
            if counts is None:
                folded[token] = [count]
            else:
                counts.append(count)
    return folded


def build_lexicon(documents: list[list[str]]) -> DenseLexicon:
    """Entries in first-appearance order over token lists in document order."""
    n = len(documents)
    slots: dict[str, int] = {}
    counts: list[list[int]] = []
    for doc_pos, tokens in enumerate(documents):
        for token in tokens:
            slot = slots.get(token)
            if slot is None:
                slot = len(slots)
                slots[token] = slot
                counts.append([0] * n)
            counts[slot][doc_pos] += 1
    entries = []
    for surface, slot in slots.items():
        per_doc = tuple(counts[slot])
        doc_frequency = sum(1 for c in per_doc if c)
        entries.append(DenseEntry(surface, slot + 1, per_doc, doc_frequency))
    return DenseLexicon(tuple(entries))


def word_weight(entry: DenseEntry, n_docs: int, mode: AveragingMode | str) -> float:
    mode = AveragingMode(mode)
    if len(entry.per_doc_counts) != n_docs:
        raise DomainError(
            f"entry {entry.surface!r} has {len(entry.per_doc_counts)} counts, expected {n_docs}"
        )
    if entry.total_count < 1:
        raise DomainError(f"entry {entry.surface!r} has no occurrences")
    idf = inverse_document_frequency(n_docs, entry.doc_frequency)
    total = math.fsum(count * idf for count in entry.per_doc_counts)
    denominator = n_docs if mode is AveragingMode.ALL_DOCS else entry.doc_frequency
    return total / denominator


def apply_weights(lexicon: DenseLexicon, mode: AveragingMode | str) -> DenseLexicon:
    mode = AveragingMode(mode)
    if lexicon.size == 0:
        return lexicon
    n_docs = len(lexicon.entries[0].per_doc_counts)
    weighted = []
    for entry in lexicon.entries:
        idf = inverse_document_frequency(n_docs, entry.doc_frequency)
        weighted.append(replace(entry, idf=idf, weight=word_weight(entry, n_docs, mode)))
    return DenseLexicon(tuple(weighted))


def probabilities(lexicon: DenseLexicon) -> DenseLexicon:
    weights = [entry.weight for entry in lexicon.entries]
    if any(w is None for w in weights):
        raise DomainError("weights are unset; call apply_weights first")
    total = math.fsum(weights)
    if total <= 0.0:
        raise AllZeroWeights("all weights are zero (every word occurs in every document)")
    return DenseLexicon(
        tuple(replace(e, probability=e.weight / total) for e in lexicon.entries)
    )
