import random
import re
import sys
import tracemalloc
import unicodedata
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import scanner_oracle
import stoplex.corpus
from stoplex import CANONICAL_APOSTROPHE, DomainError, tokenize

APOSTROPHE_VARIANTS = ["'", "’", "ʼ", "`"]


def test_plain_sentence():
    assert tokenize("Men bu maqolani qiynalib yozdim") == [
        "men", "bu", "maqolani", "qiynalib", "yozdim",
    ]


def test_sentence_with_apostrophe_words():
    text = "Har bir inson baxtli bo’lishga haqlidir"
    assert tokenize(text) == [
        "har", "bir", "inson", "baxtli", "boʻlishga", "haqlidir",
    ]


def test_empty_input():
    assert tokenize("") == []


def test_punctuation_only():
    assert tokenize("...!? -- 1234 ,;:()") == []


def test_digits_are_separators():
    assert tokenize("abc123def") == ["abc", "def"]


def test_apostrophes_and_punctuation_mix():
    text = "O’zbek — g’oya, 42!"
    assert tokenize(text) == ["oʻzbek", "gʻoya"]


@pytest.mark.parametrize("apostrophe", APOSTROPHE_VARIANTS + [CANONICAL_APOSTROPHE])
def test_internal_apostrophe_normalizes(apostrophe):
    assert tokenize(f"o{apostrophe}zbek") == ["oʻzbek"]


@pytest.mark.parametrize("apostrophe", APOSTROPHE_VARIANTS + [CANONICAL_APOSTROPHE])
def test_leading_trailing_apostrophes_stripped(apostrophe):
    assert tokenize(f"{apostrophe}ello") == ["ello"]
    assert tokenize(f"bo{apostrophe}") == ["bo"]
    assert tokenize(f"{apostrophe}{apostrophe}") == []


def test_doubled_apostrophe_splits():
    assert tokenize("a''b") == ["a", "b"]
    assert tokenize("a’ʼb") == ["a", "b"]


def test_numerics_that_are_not_letters_separate():
    assert tokenize("ab½cd") == ["ab", "cd"]
    assert tokenize("a'½b") == ["a", "b"]
    assert tokenize("Ⅻasr o’²g") == ["asr", "o", "g"]


def test_lowercasing():
    assert tokenize("OLMA Nok uZum") == ["olma", "nok", "uzum"]


def test_nfc_normalization_unifies_composed_and_decomposed():
    composed = "café"  # precomposed e-acute
    decomposed = "café"  # e + combining acute
    assert tokenize(composed) == tokenize(decomposed) == ["café"]


def test_order_preserved():
    assert tokenize("uzum olma uzum nok") == ["uzum", "olma", "uzum", "nok"]


def test_tokens_are_clean():
    tokens = tokenize("(qo’shiq)   12bor-edi,\tnima??  o‘zi")
    assert tokens
    for token in tokens:
        assert token
        assert not any(ch.isspace() for ch in token)
        assert not any(unicodedata.category(ch).startswith("P") for ch in token)
        assert token[0] != CANONICAL_APOSTROPHE
        assert token[-1] != CANONICAL_APOSTROPHE


# --- the tokenizer against the per-character scanner it replaced -----------

# Text drawn mostly from pieces the rules treat specially, plus any character.
PIECES = (
    ["'", "’", "ʼ", "`", "ʻ", "''", "’ʼ", "ʻʻ", "`'"]  # apostrophes, single and doubled
    + ["\u0301", "\u0308", "\u0307", "e\u0301", "İ", "ß", "ǅ", "ǈ", "ſ"]  # marks, case oddities
    + ["7", "٣", "_", "½", "Ⅻ", "²", "\u2160", "৴"]  # digits, underscore, non-letter numerics
    + ["a", "o", "g", "sh", "Ol", "ʻa", "a ", " ", "-", ".", "\n"]
)
texts = st.lists(st.one_of(st.sampled_from(PIECES), st.characters()), max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(texts)
@example("a'½'b")
@example("½'a'½")
@example("'a''b'")
@example("İʼ²ʻß")
def test_tokenize_matches_reference_scanner(text):
    assert tokenize(text) == scanner_oracle.tokenize(text)


# The ASCII path: a text of code points below 128 goes through translate,
# replace, strip and split on its bytes, not the chunk path. A str takes it
# encoded, and ASCII bytes, as load_corpus counts an ASCII document, give
# the UTF-8 of the str tokens. The suite above rarely draws such a text.
# The separators that str.split cuts at but a bytes pattern's \s leaves out
# (U+001C to U+001F) are drawn too.
ASCII_PIECES = [
    "'", "`", "''", "`'", "O'", "g`", "_", "7", "\x00", "\t",
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
]
ascii_texts = st.lists(
    st.one_of(st.sampled_from(ASCII_PIECES), st.characters(max_codepoint=127)), max_size=40
).map("".join)


@settings(max_examples=500, deadline=None)
@given(ascii_texts)
@example("O'zbek g`oya, 42!")
@example("'a''b'")
@example("I'M")
@example("a_b7c")
@example("a'''b")  # a doubled apostrophe, then a single one after it
@example("' a' 'b '")  # apostrophes next to spaces
@example("`'x'`")  # both variants, at both ends
@example("it's rock'n'roll don''t")
@example("a\x0bb\x1cc\x0b\x1c")  # separators that str.split also cuts at
@example("it's\x0bdon't\x1fo'zbek\x1cg`oya\x0cq\x1dr\x1es")
@example("'\x1d'a'\x1e'b'\x1f")  # apostrophes next to U+001D to U+001F
def test_ascii_tokenize_matches_reference_scanner(text):
    assert text.isascii()
    tokens = tokenize(text)
    assert tokens == scanner_oracle.tokenize(text)
    assert tokenize(text.encode()) == [token.encode() for token in tokens]


def test_tokenize_takes_only_ascii_bytes():
    assert tokenize(b"O'zbek") == ["oʻzbek".encode()]
    with pytest.raises(DomainError):
        tokenize("oʻzbek".encode())


# The chunk path: non-ASCII text is cut at whitespace, `,` and `.`, a
# letter-only chunk is one word and any other chunk is split into its letter
# runs. Apostrophes sit at chunk edges and doubled, and next to non-letter
# numerics, separators are glued to words, and one non-ASCII letter makes
# sure the branch runs.
CHUNK_PIECES = (
    ["ʻ", "'", "’", "ʼ", "`", "\u1fef", "ʻʻ", "'’", "ʻa", "aʻ", "oʻg", "Gʻ"]  # apostrophes at edges, doubled, inside
    + [",", ".", "a,", ".b", "Σ.", ",ʻ", "ʻ."]  # the separators blanked before the cut
    + [" ", "\n", "\xa0", "\u2000", "\u3000", "\x1c", "\u2028"]  # whitespace that str.split cuts at
    + ["a", "bo", "ΑΣ", "ς", "İ", "é", "e\u0301", "½", "Ⅻ", "1", "١", "_", "-"]
    + ["ʻ½", "½ʻ", "²"]  # numerics an apostrophe survives next to until the letter split
)
chunk_pieces = st.lists(st.sampled_from(CHUNK_PIECES), max_size=20).map("".join)
chunk_texts = st.tuples(chunk_pieces, st.sampled_from(["é", "ʻ", "Σ", "İ", "ş", "ж"]), chunk_pieces).map("".join)


@settings(max_examples=500, deadline=None)
@given(chunk_texts)
@example("ʻaʻb ʻ")
@example("aʻʻb")
@example("a,ʻb.")
@example("ΑΣ.Β")
@example("İ.")
@example("a\u3000ʻb")
@example("a½ʻb c")
@example("aʻ½ʻb é")
@example("½ʻ½ é")
@example("Ⅻʻaʻ² a²ʻʻb é")
@example("e\u0301ʻb x\u1fefy a\u2000ʻb u\u0308'z")  # decomposed letters, U+1FEF, U+2000
def test_chunk_tokenize_matches_reference_scanner(text):
    assert not text.isascii()
    assert tokenize(text) == scanner_oracle.tokenize(text)


def test_non_ascii_tokenize_peak_memory_is_bounded_per_character():
    # one Uzbek-Latin-like document of about 580 000 characters; the tokens
    # and the chunks they are cut from are both held at the peak
    rng = random.Random(23)
    syllables = ["ba", "ki", "to", "sh", "ch", "ng", "oʻ", "gʻ", "o’", "g'", "ya", "qu", "lar", "ni", "da"]
    words = ["".join(rng.choices(syllables, k=rng.randint(2, 6))) for _ in range(5000)]
    words += ["Oʻzbek", "CAFÉ", "ikki-uch", "2023-yil", "«soʻz»"]
    text = "".join(rng.choice(words) + rng.choice([" ", " ", " ", ", ", ". ", "\n"]) for _ in range(60_000))
    tracemalloc.start()
    try:
        tokens = tokenize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) > 60_000
    # measured: 20.0 bytes per character on Python 3.11 with NFC per chunk
    # (19.6 with NFC of the whole text), mostly one str per chunk and per
    # token; a list with one entry per character of the text would add 8 more
    assert peak / len(text) < 24


class NormalizeCalled(Exception):
    pass


def test_ascii_text_skips_normalization(monkeypatch):
    def refuse(form, text):
        raise NormalizeCalled(form)

    # only the tokenizer's view of the module: pytest itself normalizes text
    monkeypatch.setattr(stoplex.corpus, "unicodedata", SimpleNamespace(normalize=refuse))
    assert tokenize("O'zbek G`OYA, 42!") == ["oʻzbek", "gʻoya"]
    with pytest.raises(NormalizeCalled):
        tokenize("O’zbek")


def test_nfc_can_make_an_apostrophe_out_of_non_ascii_text():
    # U+1FEF (GREEK VARIA) is not ASCII, but NFC turns it into U+0060;
    # tokenize rewrites it to U+02BB with the other variants, before NFC
    assert unicodedata.normalize("NFC", "\u1fef") == "`"
    assert "\u1fef" in stoplex.corpus._VARIANT_APOSTROPHES
    assert tokenize("a\u1fefb") == scanner_oracle.tokenize("a\u1fefb") == ["aʻb"]
    # and it is the only code point but the variants that NFC makes an apostrophe of
    apostrophes = set(APOSTROPHE_VARIANTS + [CANONICAL_APOSTROPHE])
    made = {chr(cp) for cp in range(sys.maxunicode + 1) if unicodedata.normalize("NFC", chr(cp)) in apostrophes}
    assert made - {CANONICAL_APOSTROPHE} == set(stoplex.corpus._VARIANT_APOSTROPHES)


def test_only_three_canonical_decompositions_hold_a_cut_or_an_apostrophe():
    # tokenize rewrites the apostrophe variants, blanks , . and doubled
    # U+02BB, and cuts at whitespace on the raw text, then applies NFC to
    # each chunk. That equals NFC of the whole text, cut as before, because
    # each of those characters is a starter that no canonical decomposition
    # holds, but for U+1FEF (into `, which tokenize rewrites too) and U+2000
    # and U+2001 (into U+2002 and U+2003, whitespace as they are)
    special = set(",." + "".join(APOSTROPHE_VARIANTS) + CANONICAL_APOSTROPHE)
    every_char = list(map(chr, range(sys.maxunicode + 1)))
    cuts = [ch for ch in every_char if ch.isspace() or ch in special]
    assert [ch for ch in cuts if unicodedata.combining(ch)] == []
    holding = [
        hex(ord(ch))
        for ch in every_char
        if unicodedata.decomposition(ch)[:1] not in ("", "<")
        and any(part.isspace() or part in special for part in unicodedata.normalize("NFD", ch))
    ]
    assert holding == ["0x1fef", "0x2000", "0x2001"]
    assert "\u2000".isspace() and "\u2001".isspace()


def test_non_ascii_text_is_normalized_chunk_by_chunk(monkeypatch):
    calls = []

    def record(form, text):
        calls.append(text)
        return unicodedata.normalize(form, text)

    # only the tokenizer's view of the module, as in test_ascii_text_skips_normalization
    monkeypatch.setattr(stoplex.corpus, "unicodedata", SimpleNamespace(normalize=record))
    text = "Oʻzbek tili, e\u0301lon.\tga\u0308p\u2000soʻz x\u1fefy\n" * 40
    assert tokenize(text) == scanner_oracle.tokenize(text)
    assert calls
    assert [chunk for chunk in calls if len(chunk) > 8 or any(ch.isspace() for ch in chunk)] == []


def test_tokenize_matches_reference_scanner_around_every_non_letter_numeric():
    # the numerics [^\W\d_] holds although they are not letters (No, Nl):
    # a chunk with an apostrophe next to one is no letter-only chunk, so
    # tokenize splits it into its letter runs and must drop the apostrophe
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    numerics = [ch for ch in re.findall(r"[^\W\d_]", every_char) if not ch.isalpha()]
    assert len(numerics) > 1000
    for ch in numerics:
        for text in (f"a{ch}b", f"a'{ch}'b", f"{ch}a{ch}", f"aʼ{ch}ʻb"):
            assert tokenize(text) == scanner_oracle.tokenize(text), (hex(ord(ch)), text)


def test_isalpha_is_exactly_the_letter_categories():
    # tokenize relies on str.isalpha to pass a letter-only chunk whole and
    # to split any other chunk into its letter runs
    mismatches = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalpha() != unicodedata.category(chr(cp)).startswith("L")
    ]
    assert mismatches == []
