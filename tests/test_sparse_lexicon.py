"""The count-profile lexicon table against the dense reference it replaced."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import csv_oracle
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

from conftest import eight_profile_corpus, letter_code

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


def _word_rows(table):
    """Per word: (surface, first_index, doc_frequency, total_count, doc_counts), read from the table."""
    return [
        (surface, first_index, len(table.doc_counts[pid]), table.total_count[pid], table.doc_counts[pid])
        for first_index, (surface, pid) in enumerate(zip(table.surfaces, table.profile_ids), start=1)
    ]


def _per_word(table, column):
    return [getattr(table, column)[pid] for pid in table.profile_ids]


@settings(max_examples=300, deadline=None)
@given(sources)
@example([("d1", "olma nok olma"), ("d2", ""), ("d3", "nok uzum uzum uzum")])
@example([("d1", "va olma olma"), ("d2", "nok va va"), ("d3", "va uzum")])
@example([("d1", "va olma"), ("d2", "olma va")])
@example([("d1", ""), ("d2", "")])
@example([("d1", "olma nok nok nok"), ("d2", "olma olma olma nok")])  # profiles (1, 3) and (3, 1)
@example([("d1", "olma"), ("d2", "nok")])  # one profile, (1,), reached in two documents
@example([("d1", "olma nok"), ("d2", "olma olma nok"), ("d3", "nok")])  # (1, 2) and (1, 1, 1) share (1,)
def test_sparse_lexicon_matches_dense_oracle(texts):
    table = build_lexicon(load_corpus(texts))
    dense = dense_oracle.build_lexicon([tokenize(text) for _, text in texts])
    # one row per distinct count profile, numbered in order of its first word
    assert list(dict.fromkeys(map(table.doc_counts.__getitem__, table.profile_ids))) == list(
        table.doc_counts
    )
    assert _word_rows(table) == [
        (e.surface, e.first_index, e.doc_frequency, e.total_count, tuple(c for c in e.per_doc_counts if c))
        for e in dense.entries
    ]

    for mode in AveragingMode:
        weighted = apply_weights(table, mode)
        dense_weighted = dense_oracle.apply_weights(dense, mode)
        assert _per_word(weighted, "idf") == [e.idf for e in dense_weighted.entries]
        assert _per_word(weighted, "weight") == [e.weight for e in dense_weighted.entries]

        try:
            dense_p = dense_oracle.probabilities(dense_weighted)
        except AllZeroWeights:
            with pytest.raises(AllZeroWeights):
                probabilities(weighted)
            continue
        table_p = probabilities(weighted)
        assert _per_word(table_p, "probability") == [e.probability for e in dense_p.entries]
        assert words_csv(table_p) == csv_oracle.words_csv(dense_p)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_profile_tree_postings_match_the_list_fold(texts):
    corpus = load_corpus(texts)
    expected = dense_oracle.postings([tokenize(text) for _, text in texts])
    assert list(corpus.postings.items()) == list(expected.items())
    assert [corpus.profile(node) for node in corpus.profile_of.values()] == list(map(tuple, expected.values()))


def test_lexicon_memory_grows_with_postings_not_words_times_documents():
    n_docs = 2000
    texts = [
        (f"d{d}", " ".join(f"{letter_code(d)}q{suffix}" for suffix in "abc" for _ in range(2)))
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


def test_lexicon_stages_hold_far_less_than_one_record_per_word():
    n_words = 100_000
    corpus = eight_profile_corpus(n_words)
    tracemalloc.start()
    try:
        lexicon = probabilities(apply_weights(build_lexicon(corpus)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 12 bytes per word (a surface pointer and a 4-byte profile id);
    # one 8-field WordEntry per word alone would cost 120
    assert peak / n_words < 24
    assert (lexicon.size, len(lexicon.doc_counts)) == (n_words, 8)
