import random
import sys
import tracemalloc
from array import array
from dataclasses import replace

import pytest

import dense_oracle
from stoplex import (
    DecodeError,
    DomainError,
    EmptyCorpus,
    Lexicon,
    WordEntry,
    build_lexicon,
    collect_input_files,
    load_corpus,
    load_corpus_from_paths,
    tokenize,
)

from conftest import TOY_SOURCES, six_profile_documents


def _dense_counts(texts) -> dict[str, tuple[int, int]]:
    """(doc frequency, total count) per word of (name, text) pairs, from the dense oracle."""
    return dense_oracle.counts([tokenize(text) for _, text in texts])


def test_toy_corpus_shape(toy_corpus):
    assert toy_corpus.doc_count == 3
    assert toy_corpus.token_total == 8
    # first appearance across documents: olma, nok (d1), then uzum (d2)
    assert list(toy_corpus.counts_of) == ["olma", "nok", "uzum"]
    # (doc frequency, total count)
    assert toy_corpus.counts_of == {"olma": (2, 3), "nok": (2, 2), "uzum": (2, 3)}
    assert toy_corpus.counts_of == _dense_counts(TOY_SOURCES)


def test_single_document():
    corpus = load_corpus([("only", "a a a")])
    assert corpus.doc_count == 1
    assert corpus.token_total == 3


def test_zero_sources_raise():
    with pytest.raises(EmptyCorpus):
        load_corpus([])


def test_bad_utf8_names_source():
    with pytest.raises(DecodeError) as excinfo:
        load_corpus([("good", "salom"), ("broken", b"ol\xffma")])
    assert excinfo.value.name == "broken"


def test_bytes_sources_decode():
    corpus = load_corpus([("d1", "olma nok".encode("utf-8")), ("d2", "nok soʻz".encode("utf-8"))])
    assert corpus.counts_of == {"olma": (1, 1), "nok": (2, 2), "soʻz": (1, 1)}
    assert corpus.counts_of == _dense_counts([("d1", "olma nok"), ("d2", "nok soʻz")])
    assert (corpus.doc_count, corpus.token_total) == (2, 4)


def test_postings_keep_first_appearance_order_and_document_order():
    texts = [
        ("d1", "nok olma nok uzum olma nok"),
        ("d2", ""),
        ("d3", "anor olma anor"),
        ("d4", "nok anor"),
    ]
    corpus = load_corpus(texts)
    assert list(corpus.counts_of.items()) == [
        ("nok", (2, 4)),  # d1, d4
        ("olma", (2, 3)),  # d1, d3
        ("uzum", (1, 1)),
        ("anor", (2, 3)),  # d3, d4
    ]
    assert list(corpus.counts_of.items()) == list(_dense_counts(texts).items())
    assert (corpus.doc_count, corpus.token_total) == (4, 11)


def test_postings_memory_is_below_two_words_per_pair():
    # 1000 documents that share the same 300 words: 300 000 (word, document) pairs
    words = [a + b + c for a in "bdfgklmnst" for b in "aeiou" for c in "lmnrsz"]
    assert len(words) == 300
    n_docs = 1000
    texts = [(f"d{d}", " ".join(words[d % 300:] + words[: d % 300])) for d in range(n_docs)]
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = 300 * n_docs
    assert retained < 2 * 8 * pairs
    assert (corpus.doc_count, corpus.token_total) == (n_docs, pairs)
    assert corpus.counts_of == _dense_counts(texts)


def test_postings_memory_with_random_counts_is_below_two_words_per_pair():
    # the same 300 words in 1000 documents, each count drawn from 1-5, so that
    # per-document count sequences seldom meet again
    words = [a + b + c for a in "bdfgklmnst" for b in "aeiou" for c in "lmnrsz"]
    rng = random.Random(14)
    n_docs = 1000
    texts = [(f"d{d}", " ".join(w for w in words for _ in range(rng.randint(1, 5)))) for d in range(n_docs)]
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = 300 * n_docs
    assert retained < 2 * 8 * pairs
    # the pair lookup lives for one document: one kept for the whole corpus
    # would hold every pair ever reached
    assert peak < 2 * 8 * pairs
    assert corpus.doc_count == n_docs
    assert corpus.counts_of == _dense_counts(texts)


def test_corpus_retains_its_surfaces_and_one_pair_per_word():
    n_words = 100_000
    texts = six_profile_documents(n_words)
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the surfaces and the dict that maps them are the floor; a list of counts
    # per word, as the corpus once kept, would add ~92 bytes per word
    floor = sum(map(sys.getsizeof, corpus.counts_of)) + sys.getsizeof(corpus.counts_of)
    assert retained <= floor + 16 * n_words
    assert (corpus.doc_count, len(corpus.counts_of)) == (4, n_words)


def test_toy_lexicon_entries(toy_lexicon):
    entries = {e.surface: e for e in toy_lexicon.entries}
    assert [e.surface for e in toy_lexicon.entries] == ["olma", "nok", "uzum"]
    assert (entries["olma"].first_index, entries["nok"].first_index, entries["uzum"].first_index) == (1, 2, 3)
    assert [e.total_count for e in toy_lexicon.entries] == [3, 2, 3]  # olma 2 + 1, nok 1 + 1, uzum 1 + 2
    assert toy_lexicon.doc_count == 3
    assert all(e.doc_frequency == 2 for e in toy_lexicon.entries)
    assert WordEntry._fields == ("surface", "first_index", "doc_frequency", "total_count")


def test_replace_rebuilds_the_member_lists(toy_lexicon):
    assert toy_lexicon.members == (array("I", [1, 3]), array("I", [2]))  # olma and uzum share (2, 3)
    swapped = replace(toy_lexicon, profile_ids=array("I", [1, 0, 1]))
    assert swapped.members == (array("I", [2]), array("I", [1, 3]))


@pytest.mark.parametrize(
    "change",
    [
        {"surfaces": ("olma", "nok", "uzum", "anor")},  # 4 surfaces, 3 profile ids
        {"profile_ids": array("I", [0, 1])},  # 3 surfaces, 2 profile ids
        {"doc_frequency": (2,)},  # 1 doc frequency, 2 totals
        {"total_count": (3, 2, 1)},  # 2 doc frequencies, 3 totals
        {"profile_ids": array("I", [0, 2, 0])},  # profile 2 has no row
    ],
    ids=["surplus-surface", "missing-profile-id", "missing-total", "surplus-total", "profile-id-out-of-range"],
)
def test_lexicon_rejects_mismatched_columns(toy_lexicon, change):
    fields = {name: getattr(toy_lexicon, name) for name in Lexicon.__dataclass_fields__ if name != "members"}
    with pytest.raises(DomainError):
        Lexicon(**fields | change)


def test_single_doc_lexicon():
    lexicon = build_lexicon(load_corpus([("d", "a b a")]))
    assert [(e.surface, e.first_index, e.doc_frequency) for e in lexicon.entries] == [
        ("a", 1, 1),
        ("b", 2, 1),
    ]


def test_identical_documents():
    text = "bir ikki uch bir"
    corpus = load_corpus([(f"d{i}", text) for i in range(1, 5)])
    lexicon = build_lexicon(corpus)
    assert lexicon.size == 3
    assert all(e.doc_frequency == corpus.doc_count for e in lexicon.entries)


def test_lexicon_invariants(toy_corpus, toy_lexicon):
    indices = sorted(e.first_index for e in toy_lexicon.entries)
    assert indices == list(range(1, toy_lexicon.size + 1))
    assert sum(e.total_count for e in toy_lexicon.entries) == toy_corpus.token_total
    n = toy_corpus.doc_count
    for e in toy_lexicon.entries:
        assert 1 <= e.doc_frequency <= n
        assert e.doc_frequency <= e.total_count


def test_determinism(toy_corpus):
    assert build_lexicon(toy_corpus) == build_lexicon(toy_corpus)


def test_lexicon_surface_lookup(toy_lexicon):
    position = toy_lexicon.surfaces.index("nok")
    row = list(toy_lexicon.entries)[position]
    assert (row.surface, row.first_index) == ("nok", 2)


def test_load_from_paths_reads_files_in_the_given_order(tmp_path):
    (tmp_path / "b.txt").write_text("nok uzum", encoding="utf-8")
    (tmp_path / "a.txt").write_text("olma nok", encoding="utf-8")
    corpus = load_corpus_from_paths(collect_input_files([tmp_path]))  # lexicographic in a dir
    assert [e.surface for e in build_lexicon(corpus).entries] == ["olma", "nok", "uzum"]
    assert corpus.counts_of["nok"] == (2, 2)
    reversed_corpus = load_corpus_from_paths([tmp_path / "b.txt", tmp_path / "a.txt"])
    assert [e.surface for e in build_lexicon(reversed_corpus).entries] == ["nok", "uzum", "olma"]


def test_load_from_paths_names_a_bad_file_by_its_stem(tmp_path):
    (tmp_path / "good.txt").write_text("olma", encoding="utf-8")
    (tmp_path / "broken.txt").write_bytes(b"ol\xffma")
    with pytest.raises(DecodeError) as excinfo:
        load_corpus_from_paths([tmp_path / "good.txt", tmp_path / "broken.txt"])
    assert excinfo.value.name == "broken"


def test_collect_keeps_explicit_list_order(tmp_path):
    first = tmp_path / "z.txt"
    second = tmp_path / "a.txt"
    first.write_text("bir", encoding="utf-8")
    second.write_text("ikki", encoding="utf-8")
    assert collect_input_files([first, second]) == [first, second]
    assert collect_input_files([first, second], order="lexicographic") == [second, first]


def test_collect_rejects_unknown_order(tmp_path):
    with pytest.raises(DomainError):
        collect_input_files([tmp_path], order="random")


def test_collect_skips_dotfiles(tmp_path):
    (tmp_path / ".hidden").write_text("x", encoding="utf-8")
    (tmp_path / "seen.txt").write_text("x", encoding="utf-8")
    assert [p.name for p in collect_input_files([tmp_path])] == ["seen.txt"]
