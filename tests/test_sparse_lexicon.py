"""The count-profile lexicon table against the dense reference it replaced."""

import random
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

from conftest import letter_code, per_word, profile_idf, six_profile_corpus

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
    """Per word: (surface decoded, first_index, doc_frequency, total_count), read from the table."""
    return [
        (surface.decode(), first_index, table.doc_frequency[pid], table.total_count[pid])
        for first_index, (surface, pid) in enumerate(zip(table.surfaces, table.profile_ids), start=1)
    ]


@settings(max_examples=300, deadline=None)
@given(sources)
@example([("d1", "olma nok olma"), ("d2", ""), ("d3", "nok uzum uzum uzum")])
@example([("d1", "va olma olma"), ("d2", "nok va va"), ("d3", "va uzum")])
@example([("d1", "va olma"), ("d2", "olma va")])
@example([("d1", ""), ("d2", "")])
@example([("d1", "olma nok nok nok"), ("d2", "olma olma olma nok")])  # counts (1, 3) and (3, 1): one profile
@example([("d1", "olma"), ("d2", "nok")])  # one profile, (1, 1), reached in two documents
@example([("d1", "olma nok"), ("d2", "olma olma nok"), ("d3", "nok")])  # (2, 3) and (3, 3)
def test_sparse_lexicon_matches_dense_oracle(texts):
    table = build_lexicon(load_corpus(texts))
    dense = dense_oracle.build_lexicon([tokenize(text) for _, text in texts])
    # one row per distinct (doc frequency, total count) profile, numbered in order of its first word
    profiles = list(zip(table.doc_frequency, table.total_count))
    assert list(dict.fromkeys(map(profiles.__getitem__, table.profile_ids))) == profiles
    assert _word_rows(table) == [(e.surface, e.first_index, e.doc_frequency, e.total_count) for e in dense.entries]

    for mode in AveragingMode:
        weight = apply_weights(table, mode)
        dense_weighted = dense_oracle.apply_weights(dense, mode)
        assert list(per_word(table, profile_idf(table))) == [e.idf for e in dense_weighted.entries]
        assert list(per_word(table, weight)) == [e.weight for e in dense_weighted.entries]

        try:
            dense_p = dense_oracle.probabilities(dense_weighted)
        except AllZeroWeights:
            with pytest.raises(AllZeroWeights):
                probabilities(table, weight)
            continue
        probability = probabilities(table, weight)
        assert list(per_word(table, probability)) == [e.probability for e in dense_p.entries]
        assert words_csv(table, weight, probability) == csv_oracle.words_csv(dense_p.entries)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_corpus_counts_match_the_dense_oracle(texts):
    corpus = load_corpus(texts)
    expected = dense_oracle.counts([tokenize(text) for _, text in texts])
    assert list(corpus.counts_of.items()) == list(expected.items())


def test_lexicon_memory_grows_with_postings_not_words_times_documents():
    n_docs = 2000
    texts = [
        (f"d{d}", " ".join(f"{letter_code(d)}q{suffix}" for suffix in "abc" for _ in range(2)))
        for d in range(n_docs)
    ]
    tracemalloc.start()
    try:
        lexicon = build_lexicon(load_corpus(texts))
        probabilities(lexicon, apply_weights(lexicon))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lexicon.size == 3 * n_docs
    # a dense count table alone needs one machine word per (word, document) cell
    dense_cells_bytes = lexicon.size * n_docs * 8
    assert peak < dense_cells_bytes / 10

    # 100 words in every document, each count drawn from 1-5: per-document
    # counts seldom repeat, but each word keeps only its two numbers
    rng = random.Random(16)
    n_words = 100
    words = [letter_code(j) + "q" for j in range(n_words)]
    texts = [(f"d{d}", " ".join(w for w in words for _ in range(rng.randint(1, 5)))) for d in range(n_docs)]
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        lexicon = build_lexicon(corpus)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (corpus.doc_count, lexicon.size) == (n_docs, n_words)
    # measured: about 0.2 bytes per pair; the tree of per-document counts
    # and the count tuples that corpus and lexicon once kept held 17
    assert retained / (n_words * n_docs) < 1


def test_lexicon_stages_hold_far_less_than_one_record_per_word():
    n_words = 100_000
    corpus = six_profile_corpus(n_words)
    tracemalloc.start()
    try:
        lexicon = build_lexicon(corpus)
        probabilities(lexicon, apply_weights(lexicon))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: 12 bytes per word (a surface pointer and a 4-byte profile id);
    # one 7-field WordEntry per word alone would cost 112
    assert peak / n_words < 24
    assert lexicon.size == n_words
