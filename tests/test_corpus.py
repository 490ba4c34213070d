import tracemalloc

import pytest

from stoplex import (
    DecodeError,
    DomainError,
    EmptyCorpus,
    build_lexicon,
    collect_input_files,
    load_corpus,
    load_corpus_from_paths,
)


def test_toy_corpus_shape(toy_corpus):
    assert toy_corpus.doc_count == 3
    assert toy_corpus.token_total == 8
    # first appearance across documents: olma, nok (d1), then uzum (d2)
    assert list(toy_corpus.postings) == ["olma", "nok", "uzum"]
    # non-zero per-document counts in document order
    assert toy_corpus.postings == {"olma": [2, 1], "nok": [1, 1], "uzum": [1, 2]}


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
    assert corpus.postings == {"olma": [1], "nok": [1, 1], "soʻz": [1]}
    assert (corpus.doc_count, corpus.token_total) == (2, 4)


def test_postings_keep_first_appearance_order_and_document_order():
    corpus = load_corpus([
        ("d1", "nok olma nok uzum olma nok"),
        ("d2", ""),
        ("d3", "anor olma anor"),
        ("d4", "nok anor"),
    ])
    assert list(corpus.postings.items()) == [
        ("nok", [3, 1]),  # d1, d4
        ("olma", [2, 1]),  # d1, d3
        ("uzum", [1]),
        ("anor", [2, 1]),  # d3, d4
    ]
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


def test_toy_lexicon_entries(toy_lexicon):
    entries = {e.surface: e for e in toy_lexicon}
    assert [e.surface for e in toy_lexicon] == ["olma", "nok", "uzum"]
    assert (entries["olma"].first_index, entries["nok"].first_index, entries["uzum"].first_index) == (1, 2, 3)
    assert entries["olma"].doc_counts == (2, 1)  # d1, d3
    assert entries["nok"].doc_counts == (1, 1)  # d1, d2
    assert entries["uzum"].doc_counts == (1, 2)  # d2, d3
    assert [e.total_count for e in toy_lexicon] == [3, 2, 3]
    assert toy_lexicon.doc_count == 3
    assert all(e.doc_frequency == 2 for e in toy_lexicon)
    assert all(e.idf is None and e.weight is None and e.probability is None for e in toy_lexicon)


def test_single_doc_lexicon():
    lexicon = build_lexicon(load_corpus([("d", "a b a")]))
    assert [(e.surface, e.first_index, e.doc_frequency) for e in lexicon] == [
        ("a", 1, 1),
        ("b", 2, 1),
    ]


def test_identical_documents():
    text = "bir ikki uch bir"
    corpus = load_corpus([(f"d{i}", text) for i in range(1, 5)])
    lexicon = build_lexicon(corpus)
    assert lexicon.size == 3
    assert all(e.doc_frequency == corpus.doc_count for e in lexicon)


def test_lexicon_invariants(toy_corpus, toy_lexicon):
    indices = sorted(e.first_index for e in toy_lexicon)
    assert indices == list(range(1, toy_lexicon.size + 1))
    assert sum(e.total_count for e in toy_lexicon) == toy_corpus.token_total
    n = toy_corpus.doc_count
    for e in toy_lexicon:
        assert 1 <= e.doc_frequency <= n
        assert e.doc_frequency == len(e.doc_counts)
        assert e.total_count == sum(e.doc_counts)
        assert all(c > 0 for c in e.doc_counts)


def test_determinism(toy_corpus):
    assert build_lexicon(toy_corpus) == build_lexicon(toy_corpus)


def test_lexicon_surface_lookup(toy_lexicon):
    position = toy_lexicon.surfaces.index("nok")
    assert toy_lexicon.row(position).first_index == 2


def test_load_from_paths_reads_files_in_the_given_order(tmp_path):
    (tmp_path / "b.txt").write_text("nok uzum", encoding="utf-8")
    (tmp_path / "a.txt").write_text("olma nok", encoding="utf-8")
    corpus = load_corpus_from_paths(collect_input_files([tmp_path]))  # lexicographic in a dir
    assert [e.surface for e in build_lexicon(corpus)] == ["olma", "nok", "uzum"]
    assert corpus.postings["nok"] == [1, 1]
    reversed_corpus = load_corpus_from_paths([tmp_path / "b.txt", tmp_path / "a.txt"])
    assert [e.surface for e in build_lexicon(reversed_corpus)] == ["nok", "uzum", "olma"]


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
