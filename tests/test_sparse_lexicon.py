"""The sparse counts-only lexicon against the dense reference it replaced."""

import string
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from stoplex import (
    AllZeroWeights,
    AveragingMode,
    apply_weights,
    build_lexicon,
    load_corpus,
    probabilities,
    tokenize,
    words_csv,
)

VOCAB = ["olma", "nok", "uzum", "anor", "bir", "ikki", "soʻz", "gʻisht", "kitob", "til"]
SHARED = "va"

# each document: a (possibly empty) word list; optionally one word put in every document
documents = st.lists(st.lists(st.sampled_from(VOCAB), max_size=30), min_size=1, max_size=12)
sources = st.builds(
    lambda docs, shared: [
        (f"d{i}", " ".join(words + [SHARED] if shared else words)) for i, words in enumerate(docs, 1)
    ],
    documents,
    st.booleans(),
)
modes = st.sampled_from(list(AveragingMode))


@settings(max_examples=300, deadline=None)
@given(sources, modes)
@example([("d1", "olma nok olma"), ("d2", ""), ("d3", "nok uzum uzum uzum")], AveragingMode.ALL_DOCS)
@example([("d1", "va olma olma"), ("d2", "nok va va"), ("d3", "va uzum")], AveragingMode.CONTAINING_DOCS)
@example([("d1", "va olma"), ("d2", "olma va")], AveragingMode.ALL_DOCS)
@example([("d1", ""), ("d2", "")], AveragingMode.CONTAINING_DOCS)
def test_sparse_lexicon_matches_dense_oracle(texts, mode):
    sparse = build_lexicon(load_corpus(texts))
    dense = dense_oracle.build_lexicon([tokenize(text) for _, text in texts])
    assert [(e.surface, e.first_index, e.doc_frequency, e.total_count) for e in sparse] == [
        (e.surface, e.first_index, e.doc_frequency, e.total_count) for e in dense.entries
    ]
    assert [e.doc_counts for e in sparse] == [
        tuple(c for c in e.per_doc_counts if c) for e in dense.entries
    ]

    sparse = apply_weights(sparse, mode)
    dense = dense_oracle.apply_weights(dense, mode)
    assert [(e.idf, e.weight) for e in sparse] == [(e.idf, e.weight) for e in dense.entries]

    try:
        dense = dense_oracle.probabilities(dense)
    except AllZeroWeights:
        with pytest.raises(AllZeroWeights):
            probabilities(sparse)
        return
    sparse = probabilities(sparse)
    assert [e.probability for e in sparse] == [e.probability for e in dense.entries]
    assert words_csv(sparse) == words_csv(dense)


def _letter_code(number: int) -> str:
    """A distinct lowercase a-z string per number (digits would split tokens)."""
    code = ""
    while True:
        number, digit = divmod(number, 26)
        code += string.ascii_lowercase[digit]
        if number == 0:
            return code


def test_lexicon_memory_grows_with_postings_not_words_times_documents():
    n_docs = 2000
    texts = [
        (f"d{d}", " ".join(f"{_letter_code(d)}q{suffix}" for suffix in "abc" for _ in range(2)))
        for d in range(n_docs)
    ]
    corpus = load_corpus(texts)
    tracemalloc.start()
    try:
        lexicon = probabilities(apply_weights(build_lexicon(corpus)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lexicon.size == 3 * n_docs
    # a dense count table alone needs one machine word per (word, document) cell
    dense_cells_bytes = lexicon.size * n_docs * 8
    assert peak < dense_cells_bytes / 10
