import itertools
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
import stoplex.corpus
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

from conftest import TOY_SOURCES, letter_code, six_profile_documents
from test_tokenize import CHUNK_PIECES


def _dense_counts(texts) -> dict[bytes, tuple[int, int]]:
    """(doc frequency, total count) per word of (name, text) pairs, from the dense oracle."""
    return dense_oracle.counts([tokenize(text) for _, text in texts])


def test_toy_corpus_shape(toy_corpus):
    assert toy_corpus.doc_count == 3
    assert toy_corpus.token_total == 8
    # first appearance across documents: olma, nok (d1), then uzum (d2)
    assert list(toy_corpus.counts_of) == [b"olma", b"nok", b"uzum"]
    # (doc frequency, total count), keyed by the words' UTF-8 bytes
    assert toy_corpus.counts_of == {b"olma": (2, 3), b"nok": (2, 2), b"uzum": (2, 3)}
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
    assert corpus.counts_of == {b"olma": (1, 1), b"nok": (2, 2), "soʻz".encode(): (1, 1)}
    assert corpus.counts_of == _dense_counts([("d1", "olma nok"), ("d2", "nok soʻz")])
    assert (corpus.doc_count, corpus.token_total) == (2, 4)


# the tokenizer's chunk pieces plus the characters a cut could separate from
# their neighbours: whitespace of each kind (ASCII controls, U+0085, U+2000,
# which NFC turns into U+2002, and the separators), the ASCII cut characters
# , ; and a digit, = and < with a U+0338 (NFC composes each pair into one
# symbol, ≠ and ≮), a combining mark, U+1FEF (NFC turns it into `) and İ (it
# lowercases to two code points)
BLOCK_SPACES = [" ", "\xa0", "\u3000", "\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2000", "\u2028"]
BLOCK_CUTS = [",", ";", "7", "=\u0338", "<\u0338"]
block_texts = st.lists(
    st.sampled_from(CHUNK_PIECES + BLOCK_SPACES + BLOCK_CUTS + ["\u0301", "\u1fef", "İ"]), max_size=30
).map("".join)


@settings(max_examples=500, deadline=None)
@given(block_texts, st.integers(1, 8))
@example("a 'b", 1)  # an apostrophe after the cut
@example("a' b", 1)  # and before it
@example("ʻa ʻ", 1)
@example("a \u0301b", 1)  # a combining mark after the cut
@example("x \u1fefb", 1)
@example("é it's é", 1)  # an ASCII block inside a non-ASCII document
@example("a\u00a0b\tc", 1)  # cuts at U+00A0 and at a tab
@example("a\nʻb", 1)  # an apostrophe after a cut at a newline
@example("aʻ\x85b", 1)  # and before a cut at U+0085
@example("e\u2000\u0301b", 1)  # a combining mark after U+2000, which NFC makes U+2002
@example("oʻ,ʻb;é7ʻc", 1)  # apostrophes next to cuts at , ; and a digit
@example("ab=\u0338c<\u0338", 2)  # a cut before = and <, which keep their U+0338
def test_block_counts_match_counting_the_whole_text(text, block_chars):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stoplex.corpus, "_BLOCK_CHARS", block_chars)
        counts = stoplex.corpus._count_tokens(text)
    whole = Counter(token.encode() for token in tokenize(text))
    assert list(counts.items()) == list(whole.items())
    assert counts.total() == whole.total()


# ASCII bytes are cut where their text is: at the ASCII str.isspace set, which
# U+001C to U+001F belong to and a bytes pattern's \s leaves out, and at every
# other character but a letter, ' and `
ASCII_BLOCK_PIECES = [
    "a", "Bc", "'", "`", "''", "it's", "7", ",", ";", "=", "<",
    " ", "\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
]
ascii_block_texts = st.lists(st.sampled_from(ASCII_BLOCK_PIECES), max_size=30).map("".join)


@settings(max_examples=500, deadline=None)
@given(ascii_block_texts, st.integers(1, 8))
@example("a\x1fb\x0bc", 1)  # words separated only by U+001F and \x0b
@example("ab'\x1c'cd", 2)  # apostrophes on both sides of a cut
@example("it's,'a;b'7c", 1)  # apostrophes next to cuts at , ; and a digit
@example("ab=c<d", 2)  # cuts at = and <
def test_ascii_bytes_block_counts_match_counting_the_whole_text(text, block_chars):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stoplex.corpus, "_BLOCK_CHARS", block_chars)
        blocks = [block.decode() for block in stoplex.corpus._blocks(text.encode())]
        assert blocks == list(stoplex.corpus._blocks(text))
        counts = stoplex.corpus._count_tokens(text.encode())
    whole = Counter(token.encode() for token in tokenize(text))
    assert list(counts.items()) == list(whole.items())


def _cut(ch: str) -> bool:
    """Whether _blocks cuts before ``ch``: whitespace, or an ASCII character but a letter, ' and `."""
    return ch.isspace() or (ch.isascii() and not ch.isalpha() and ch not in "'`")


@settings(max_examples=300, deadline=None)
@given(st.one_of(block_texts, ascii_block_texts.map(str.encode)), st.integers(1, 8))
@example("olma,nok;uzum7anor", 1)  # words joined without whitespace
@example(b"olma,nok;uzum7anor", 1)
def test_blocks_end_before_a_cut_and_run_past_their_length_by_one_uncut_run(text, block_chars):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stoplex.corpus, "_BLOCK_CHARS", block_chars)
        blocks = list(stoplex.corpus._blocks(text))
    if isinstance(text, bytes):
        text, blocks = text.decode(), [block.decode() for block in blocks]
    assert "".join(blocks) == text
    assert all(_cut(block[0]) for block in blocks[1:])
    longest_uncut = max((len(list(run)) for cut, run in itertools.groupby(text, _cut) if not cut), default=0)
    assert all(len(block) <= block_chars + longest_uncut for block in blocks)


def test_blocks_cut_before_exactly_whitespace_and_ascii_characters_but_letters_and_apostrophes(monkeypatch):
    # with blocks of one character, each character after the leading "a"
    # starts a block exactly when _blocks cuts before it
    monkeypatch.setattr(stoplex.corpus, "_BLOCK_CHARS", 1)
    text = "a" + "".join(map(chr, range(sys.maxunicode + 1)))
    blocks = list(stoplex.corpus._blocks(text))
    assert "".join(blocks) == text
    assert {block[0] for block in blocks[1:]} == set(filter(_cut, text[1:]))
    assert len(blocks) == 1 + 93  # the 29 str.isspace characters and 74 ASCII ones, 10 in both
    ascii_blocks = list(stoplex.corpus._blocks(text[:129].encode()))
    assert [block.decode() for block in ascii_blocks] == list(stoplex.corpus._blocks(text[:129]))


def test_ascii_bytes_documents_are_never_decoded(monkeypatch):
    def refuse(name, blob):
        raise AssertionError(f"{name} was decoded")

    monkeypatch.setattr(stoplex.corpus, "_decode", refuse)
    corpus = load_corpus([("d1", b"O'zbek g`oya"), ("d2", b"olma\x1fnok\x0bolma")])
    assert corpus.surfaces == ("oʻzbek".encode(), "gʻoya".encode(), b"olma", b"nok")


def test_postings_keep_first_appearance_order_and_document_order():
    texts = [
        ("d1", "nok olma nok uzum olma nok"),
        ("d2", ""),
        ("d3", "anor olma anor"),
        ("d4", "nok anor"),
    ]
    corpus = load_corpus(texts)
    assert list(corpus.counts_of.items()) == [
        (b"nok", (2, 4)),  # d1, d4
        (b"olma", (2, 3)),  # d1, d3
        (b"uzum", (1, 1)),
        (b"anor", (2, 3)),  # d3, d4
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


def test_corpus_retains_its_surfaces_and_one_profile_id_per_word():
    n_words = 100_000
    texts = six_profile_documents(n_words)
    load_corpus(six_profile_documents(10))  # fills the interpreter's one-off caches before tracing
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the surfaces, one tuple slot and one profile id per word, and the
    # headers of the record and its columns with the six profile rows; the
    # array's growth room is at most 1/16 of its items. The dict of pairs,
    # which load_corpus drops before it returns, would add ~33 bytes per word
    ids = corpus.profile_ids
    headers = sum(map(sys.getsizeof, (corpus, (), array(ids.typecode), corpus.doc_frequency, corpus.total_count)))
    floor = sum(map(sys.getsizeof, corpus.surfaces)) + (8 + ids.itemsize) * n_words + headers
    assert retained <= floor + ids.itemsize * n_words // 16
    assert (ids.typecode, corpus.doc_count, len(corpus.surfaces), len(corpus.total_count)) == ("I", 4, n_words, 6)


def test_build_lexicon_does_not_raise_the_peak_of_load_corpus():
    # 40 000 words over 400 short documents, each also repeating earlier
    # words: build_lexicon adds only members to the corpus's columns, while
    # load_corpus held its dict of pairs next to them
    n_words, n_docs = 40_000, 400
    rng = random.Random(28)
    words = [letter_code(j) for j in range(n_words)]
    per_doc = n_words // n_docs
    texts = [
        (f"d{d}", " ".join(words[d * per_doc:(d + 1) * per_doc] + rng.choices(words[:(d + 1) * per_doc], k=50)))
        for d in range(n_docs)
    ]
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        _, load_peak = tracemalloc.get_traced_memory()
        lexicon = build_lexicon(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= load_peak
    assert lexicon.size == n_words


def test_load_corpus_peak_per_word_on_a_wide_corpus():
    # 40 000 words, a quarter with U+02BB, as read from files: 10 of the 40
    # documents hold those and are decoded, the other 30 are ASCII. Each
    # word is kept as its UTF-8 bytes, whose header is 33 bytes, and the
    # end of load_corpus also holds its dict entry, a tuple slot and a
    # 4-byte profile id: measured 77.9 bytes per word beyond the words' UTF-8
    # bytes on Python 3.11. str keys took 83.5 (3.12) to 102.3 (3.10)
    n_words, n_docs = 40_000, 40
    rng = random.Random(29)
    words = [letter_code(j) + ("oʻzbekistonlik" if j % 4 == 0 else "lari") for j in range(n_words)]
    texts = []
    for d in range(n_docs):
        own = words[d::n_docs]
        texts.append((f"d{d}", " ".join(own + rng.choices(own, k=200)).encode()))
    load_corpus(texts[:2])  # fills the interpreter's one-off caches before tracing
    tracemalloc.start()
    try:
        corpus = load_corpus(texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(text.isascii() for _, text in texts) == 30
    assert corpus.surfaces == tuple(word.encode() for d in range(n_docs) for word in words[d::n_docs])
    assert peak <= sum(len(word.encode()) for word in words) + 80 * n_words


def test_toy_lexicon_entries(toy_lexicon):
    entries = {e.surface: e for e in toy_lexicon.entries}
    assert [e.surface for e in toy_lexicon.entries] == [b"olma", b"nok", b"uzum"]
    assert (entries[b"olma"].first_index, entries[b"nok"].first_index, entries[b"uzum"].first_index) == (1, 2, 3)
    assert [e.total_count for e in toy_lexicon.entries] == [3, 2, 3]  # olma 2 + 1, nok 1 + 1, uzum 1 + 2
    assert toy_lexicon.doc_count == 3
    assert all(e.doc_frequency == 2 for e in toy_lexicon.entries)
    assert WordEntry._fields == ("surface", "first_index", "doc_frequency", "total_count")


def test_replace_rebuilds_the_member_lists(toy_lexicon):
    assert toy_lexicon.members == (array("I", [1, 3]), array("I", [2]))  # olma and uzum share (2, 3)
    swapped = toy_lexicon._replace(profile_ids=array("I", [1, 0, 1]))
    assert swapped.members == (array("I", [2]), array("I", [1, 3]))


@pytest.mark.parametrize(
    "change",
    [
        {"surfaces": (b"olma", b"nok", b"uzum", b"anor")},  # 4 surfaces, 3 profile ids
        {"surfaces": (b"olma", "nok", b"uzum")},  # a str surface
        {"profile_ids": array("I", [0, 1])},  # 3 surfaces, 2 profile ids
        {"doc_frequency": (2,)},  # 1 doc frequency, 2 totals
        {"total_count": (3, 2, 1)},  # 2 doc frequencies, 3 totals
        {"profile_ids": array("I", [0, 2, 0])},  # profile 2 has no row
    ],
    ids=[
        "surplus-surface", "str-surface", "missing-profile-id", "missing-total", "surplus-total",
        "profile-id-out-of-range",
    ],
)
def test_lexicon_rejects_mismatched_columns(toy_lexicon, change):
    fields = {name: getattr(toy_lexicon, name) for name in Lexicon._fields if name != "members"}
    with pytest.raises(DomainError):
        Lexicon(**fields | change)


def test_single_doc_lexicon():
    lexicon = build_lexicon(load_corpus([("d", "a b a")]))
    assert [(e.surface, e.first_index, e.doc_frequency) for e in lexicon.entries] == [
        (b"a", 1, 1),
        (b"b", 2, 1),
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
    position = toy_lexicon.surfaces.index(b"nok")
    row = list(toy_lexicon.entries)[position]
    assert (row.surface, row.first_index) == (b"nok", 2)


def test_load_from_paths_reads_files_in_the_given_order(tmp_path):
    (tmp_path / "b.txt").write_text("nok uzum", encoding="utf-8")
    (tmp_path / "a.txt").write_text("olma nok", encoding="utf-8")
    corpus = load_corpus_from_paths(collect_input_files([tmp_path]))  # lexicographic in a dir
    assert [e.surface for e in build_lexicon(corpus).entries] == [b"olma", b"nok", b"uzum"]
    assert corpus.counts_of[b"nok"] == (2, 2)
    reversed_corpus = load_corpus_from_paths([tmp_path / "b.txt", tmp_path / "a.txt"])
    assert [e.surface for e in build_lexicon(reversed_corpus).entries] == [b"nok", b"uzum", b"olma"]


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
