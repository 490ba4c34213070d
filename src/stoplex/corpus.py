"""Corpus loading, tokenization, and first-appearance lexicon construction.

A token is a maximal run of Unicode letters. A single apostrophe is kept
when it sits between two letters (the Uzbek oʻ/gʻ digraphs). The variants
found in real texts (U+0027, U+2019, U+02BC, U+0060) are rewritten to
U+02BB first, so they collapse to one code point and do not create
spurious unique words. Text is NFC-normalized before splitting and tokens
are lowercased afterwards. Digits, punctuation and symbols are
separators, never tokens; so are numerics that are not letters, such as
½, Ⅻ and ². Non-ASCII text is cut into whitespace chunks once every
apostrophe that cannot attach and every , and . are blanked; a chunk of
letters alone is one word, and the other chunks are split into their
letter runs. An ASCII text (Uzbek Latin is often typed so, with ' or `
for oʻ/gʻ) takes a shorter path, on its UTF-8 bytes, that gives the same
tokens with no pattern scan: one bytes.translate lowercases its letters
and blanks every other byte but the apostrophes, bytes.replace blanks
each apostrophe that does not sit between two letters, and split cuts
the words. ASCII needs no NFC, its letters lowercase one by one and its
only numerics are the digits.

load_corpus keys every word by its UTF-8 bytes, which take one byte per
ASCII character where a str of a word with U+02BB takes two per
character. An ASCII document is counted on its bytes and never decoded.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DecodeError, DomainError, EmptyCorpus

#: Canonical word-internal apostrophe (MODIFIER LETTER TURNED COMMA).
CANONICAL_APOSTROPHE = "ʻ"

#: Document orders collect_input_files accepts: as given, or re-sorted by file name.
ORDER_MODES = ("list", "lexicographic")

# The apostrophe variants tokenize rewrites to the canonical one, once per
# text, so the later steps only have to know U+02BB.
_VARIANT_APOSTROPHES = "'’ʼ`"
# A U+02BB that cannot attach: one not followed by, or not preceded by, a
# character of [^\W\d_ʻ]. [^\W\d_] is every letter plus the numerics that
# are not decimal digits (categories No and Nl, such as ½); U+02BB is a
# letter (Lm) and is left out, so a doubled apostrophe never survives. An
# apostrophe next to ½ may survive here; tokenize's letter split strips it.
_LOOSE_APOSTROPHE = re.compile(r"ʻ(?:(?![^\W\d_ʻ])|(?<![^\W\d_ʻ]ʻ))")
# On ASCII text [^\W\d_ʻ] is exactly [A-Za-z]: the table lowercases those,
# writes both ASCII apostrophes as ' and every other byte as a space.
_ASCII_LOWER = b"abcdefghijklmnopqrstuvwxyz"
_ASCII_KEPT = dict(zip(_ASCII_LOWER + _ASCII_LOWER.upper() + b"'`", _ASCII_LOWER * 2 + b"''"))
_ASCII_FOLD = bytes(_ASCII_KEPT.get(code, ord(" ")) for code in range(256))
_CANONICAL_UTF8 = CANONICAL_APOSTROPHE.encode()
# The least length of a block that load_corpus and `stoplex tokenize`
# tokenize at once. Blocks of 4 to 64 KiB held about the same peak; smaller
# ones cost more calls.
_BLOCK_CHARS = 16_384
# load_corpus stores profile ids in 2 bytes (array "H") when its fold made at
# most this many pair tuples, a bound on the profile count, else in 4 ("I").
_SHORT_ID_LIMIT = 65_536


def tokenize(text: str | bytes) -> list[str] | list[bytes]:
    r"""Split raw text into normalized word tokens, order preserved.

    Rules:
    - The input is NFC-normalized first.
    - Tokens are maximal runs of Unicode letters; anything else separates.
    - A single apostrophe flanked by letters stays inside the token and is
      rewritten to U+02BB; leading, trailing or doubled apostrophes never
      attach.
    - Numerics that are not letters (½, Ⅻ, ²) separate like digits, and an
      apostrophe next to one does not attach.
    - Tokens are lowercased (and re-normalized, since lowercasing can
      denormalize in rare cases).

    A str gives str tokens. ASCII bytes give the same tokens as their
    UTF-8 bytes (U+02BB as b"\xca\xbb"); that is how load_corpus counts an
    ASCII document without decoding it. Bytes that are not ASCII raise
    DomainError.

    Non-ASCII text is NFC-normalized and its apostrophe variants rewritten,
    then _LOOSE_APOSTROPHE blanks each U+02BB that is not between two
    characters of [^\W\d_ʻ], str.replace blanks , and . (the separators
    most often glued to words) and str.split cuts the chunks. A chunk for
    which str.isalpha holds is one word: each U+02BB in it sits between two
    letters. Any other chunk is split at its non-letters into its maximal
    letter runs. A U+02BB that ends a run stood next to a numeric such as ½,
    which the class holds but is no letter, so strip drops it; one inside a
    run sits between two letters. Each token is still lowercased on its
    own, so final sigma and İ come out as before.

    An ASCII text takes _fold_ascii on its bytes instead, which gives the
    same tokens: it is already NFC, its only apostrophe variants are ' and
    `, and ASCII lowercasing maps each letter alone. An ASCII str is
    encoded for it and its words decoded back, so bytes and str share the
    one ASCII path. Only the raw text decides the path, since NFC can turn
    a non-ASCII character into one of those apostrophes (U+1FEF into `).

    Any input yields a (possibly empty) token list.
    """
    if isinstance(text, bytes):
        if not text.isascii():
            raise DomainError("tokenize takes bytes only when they are ASCII")
        return _fold_ascii(text).split()
    if text.isascii():
        return _fold_ascii(text.encode()).decode().split()
    text = unicodedata.normalize("NFC", text)
    for apostrophe in _VARIANT_APOSTROPHES:
        text = text.replace(apostrophe, CANONICAL_APOSTROPHE)
    text = _LOOSE_APOSTROPHE.sub(" ", text).replace(",", " ").replace(".", " ")
    tokens: list[str] = []
    for chunk in text.split():
        if chunk.isalpha():
            tokens.append(unicodedata.normalize("NFC", chunk.lower()))
            continue
        for word in "".join(ch if ch.isalpha() else " " for ch in chunk).split():
            if word := word.strip(CANONICAL_APOSTROPHE):
                tokens.append(unicodedata.normalize("NFC", word.lower()))
    return tokens


def _fold_ascii(text: bytes) -> bytes:
    """The words of ASCII ``text`` as UTF-8, separated by spaces: what tokenize splits.

    After _ASCII_FOLD the text holds only a-z, ' and spaces. Blanking
    doubled apostrophes, then those next to a space, then stripping the ends
    leaves each remaining apostrophe between two letters, so the
    space-separated chunks are the words; each apostrophe becomes U+02BB.
    """
    text = text.translate(_ASCII_FOLD).replace(b"''", b"  ").replace(b" '", b"  ").replace(b"' ", b"  ")
    return text.strip(b"'").replace(b"'", _CANONICAL_UTF8)


class Corpus(NamedTuple):
    """Per-word counts of an ordered collection of documents, by column.

    ``surfaces`` holds each distinct token, as its UTF-8 bytes, in order of
    first appearance and ``profile_ids`` its count profile's id: the row of
    its (doc frequency, total count) pair in ``doc_frequency`` and
    ``total_count``, numbered in order of the profile's first word. Those two numbers are all that the
    weighting reads of a word's counts. The first five fields are the
    arguments of Lexicon, which shares them.
    """

    surfaces: tuple[bytes, ...]
    profile_ids: array  # array("H") or array("I"): one profile id per word
    doc_frequency: tuple[int, ...]
    total_count: tuple[int, ...]
    doc_count: int
    token_total: int

    @property
    def counts_of(self) -> dict[bytes, tuple[int, int]]:
        """Each word's UTF-8 bytes and (doc frequency, total count), in first-appearance order, made on each call."""
        profiles = list(zip(self.doc_frequency, self.total_count))
        return dict(zip(self.surfaces, map(profiles.__getitem__, self.profile_ids)))


class WordEntry(NamedTuple):
    """A row view of one lexicon word: its surface (UTF-8 bytes) and index plus its profile's counts."""

    surface: bytes
    first_index: int  # 1-based rank by first appearance
    doc_frequency: int
    total_count: int


class _LexiconFields(NamedTuple):
    surfaces: tuple[bytes, ...]  # each word's UTF-8 bytes
    profile_ids: array  # array("H") or array("I"): one profile id per word
    doc_frequency: tuple[int, ...]
    total_count: tuple[int, ...]
    doc_count: int  # documents in the corpus the words were counted in
    members: tuple[array, ...]


class Lexicon(_LexiconFields):
    """Unique words in first-appearance order over a table of count profiles.

    A word's count profile is its (doc_frequency, total_count) pair; most
    words share theirs with many others. Word k (first_index k + 1) is
    ``surfaces[k]``, its UTF-8 bytes, with profile ``profile_ids[k]``. The
    table has one row per distinct profile, stored by column and indexed by
    profile id: ``doc_frequency`` and ``total_count``. apply_weights and probabilities
    return their columns by profile id, which the later stages take.

    build_lexicon takes the first five fields from the Corpus. load_corpus
    made those columns from its dict of pairs and dropped the dict before it
    returned, so no lexicon is built while the dict exists.

    ``members[p]`` is an array("I") of the ascending first indices of
    profile p's words, the inverse of ``profile_ids``. It is the last field
    and no argument: every construction builds it, _replace too. The stages
    after build_lexicon read a profile's words from it. Raises DomainError
    when a surface is not bytes (a str, say), when the columns differ in
    length or when a profile id has no row. Only selection decodes
    surfaces, those of its k words; words.csv writes them as they are.

    ``entries`` is the one per-word row view, made for every word on each
    call; no stage reads it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:-1]))  # _replace's path: rebuild members
    __getnewargs__ = lambda self: self[:-1]  # copy and pickle call __new__, which takes no members

    def __new__(cls, surfaces, profile_ids, doc_frequency, total_count, doc_count):
        profiles = len(total_count)
        if not {bytes}.issuperset(map(type, surfaces)):
            raise DomainError("a lexicon's surfaces are the words' UTF-8 bytes, and one is not bytes")
        if len(surfaces) != len(profile_ids) or len(doc_frequency) != profiles:
            raise DomainError("a lexicon needs one profile id per surface and one total per doc frequency")
        try:
            members = _index_lists(profile_ids, profiles)
        except IndexError:
            raise DomainError(f"a profile id is outside the {profiles} profile rows") from None
        return super().__new__(cls, surfaces, profile_ids, doc_frequency, total_count, doc_count, members)

    @property
    def size(self) -> int:
        return len(self.surfaces)

    @property
    def entries(self) -> Iterator[WordEntry]:
        """Every word as a WordEntry row, in first_index order, made afresh on each call."""
        profiles = list(zip(self.doc_frequency, self.total_count))
        return (
            WordEntry(surface, first_index, *profiles[pid])
            for first_index, (surface, pid) in enumerate(zip(self.surfaces, self.profile_ids), start=1)
        )


def _check_profile_column(lexicon: Lexicon, values: Sequence, name: str) -> None:
    """Raise DomainError unless ``values`` has one entry per profile row of ``lexicon``."""
    if len(values) != len(lexicon.total_count):
        raise DomainError(f"{len(values)} {name} values for {len(lexicon.total_count)} count profiles")


def _index_lists(ids: array, n: int) -> tuple[array, ...]:
    """For each id in range(n), an array("I") of the ascending 1-based positions in ``ids`` that hold it."""
    lists = tuple(array("I") for _ in range(n))
    appends = [positions.append for positions in lists]
    for position, i in enumerate(ids, start=1):
        appends[i](position)
    return lists


def load_corpus(sources: Iterable[tuple[str, str | bytes]]) -> Corpus:
    """Build a corpus from ordered (name, text) pairs.

    Each document is counted block by block (see _count_tokens), and each of
    its words adds one document and its count to the word's (doc frequency,
    total count) pair in a dict keyed by the words' UTF-8 bytes. The words
    of one document that reach the same pair share one tuple, through a
    lookup that lives for that document only, so the dict holds one bytes
    key and one pair per distinct token, and its memory does not grow with the (word, document)
    pairs. ASCII bytes are counted as they are; other bytes are decoded once
    and dropped. A document's bytes or text are released before its counts
    are folded in, its counts before the next source is read, and its
    tokens are never all held at once.

    After the last document the distinct pairs are numbered in order of
    their first word, and the dict becomes the Corpus columns: the surfaces,
    one profile id per word and one row per pair. The dict is dropped before
    load_corpus returns. Profile ids take 2 bytes each when the lookups made
    at most _SHORT_ID_LIMIT pair tuples in all; every final pair is one of
    them, so the ids fit. Bytes are read as UTF-8; a bad source raises
    DecodeError naming it. Zero sources raise EmptyCorpus.
    """
    counts_of: dict[bytes, tuple[int, int]] = {}
    doc_count = token_total = pair_tuples = 0
    for name, text in sources:
        if isinstance(text, bytes) and not text.isascii():
            text = _decode(name, text)
        counts = _count_tokens(text)
        del text  # released before its counts are folded in
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        for token, count in counts.items():
            doc_frequency, total = counts_of.get(token, (0, 0))
            pair = (doc_frequency + 1, total + count)
            counts_of[token] = shared.setdefault(pair, pair)
        doc_count += 1
        token_total += counts.total()
        pair_tuples += len(shared)
        del counts, shared  # the loop would hold them while the next source is read
    if not doc_count:
        raise EmptyCorpus("a corpus needs at least one document")
    ids: defaultdict[tuple[int, int], int] = defaultdict(itertools.count().__next__)
    profile_ids = array("H" if pair_tuples <= _SHORT_ID_LIMIT else "I", map(ids.__getitem__, counts_of.values()))
    surfaces = tuple(counts_of)
    del counts_of
    return Corpus(
        surfaces,
        profile_ids,
        tuple(doc_frequency for doc_frequency, _ in ids),
        tuple(total for _, total in ids),
        doc_count,
        token_total,
    )


def _count_tokens(text: str | bytes) -> Counter[bytes]:
    """Counter(tokenize(text)) by the tokens' UTF-8 bytes, in the same order, counted block by block.

    ``text`` is a str or ASCII bytes, cut by _blocks. tokenize gives an
    ASCII bytes block's tokens as bytes; a str block's tokens are encoded
    with one join, encode and split, as no token holds a newline.
    """
    counts: Counter[bytes] = Counter()
    for block in _blocks(text):
        tokens = tokenize(block)
        if tokens and isinstance(block, str):
            tokens = "\n".join(tokens).encode().split(b"\n")
        counts.update(tokens)
    return counts


def _blocks(text: str | bytes) -> Iterator[str | bytes]:
    r"""``text`` in order, as blocks cut before whitespace whose tokens are those of ``text``.

    Each block takes _BLOCK_CHARS characters, or the rest of the text, and
    runs on to the next str.isspace character, the set at which str.split
    and the pattern's non-space run both stop, so a caller holds one block's
    tokens at once. ASCII bytes are cut at the same characters: their class
    [\t-\r\x1c- ] is str.isspace on ASCII, where a bytes pattern's \s
    would leave out U+001C to U+001F and let a block run on past them.

    The cut changes no token. Each str.isspace character is a starter that
    no canonical composition or reordering crosses, and NFC keeps it
    whitespace (U+2000 and U+2001 become U+2002 and U+2003). None is a
    letter or an apostrophe, an apostrophe rule looks at most one character
    across it, and the ASCII and non-ASCII paths that each block picks for
    itself give the same tokens.
    """
    pattern = rb".{1,%d}[^\t-\r\x1c- ]*" if isinstance(text, bytes) else r".{1,%d}\S*"
    for block in re.finditer(pattern % _BLOCK_CHARS, text, re.DOTALL):
        yield block[0]


def _decode(name: str, blob: bytes) -> str:
    """``blob`` as UTF-8 text; raises DecodeError naming ``name`` if it is not UTF-8."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(name, str(exc)) from exc


def collect_input_files(inputs: Sequence[str | Path], order: str = "list") -> list[Path]:
    """Expand a mix of files and directories into an ordered file list.

    A directory contributes its regular files (dotfiles excluded) in
    lexicographic name order. With order="list" the given argument order is
    kept; order="lexicographic" re-sorts the whole collection by file name.
    A listed path that does not exist raises FileNotFoundError, so no file
    is read before a later one turns out to be missing.
    """
    if order not in ORDER_MODES:
        raise DomainError(f"unknown document order {order!r}")
    files: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            children = [c for c in path.iterdir() if c.is_file() and not c.name.startswith(".")]
            files.extend(sorted(children, key=lambda c: c.name))
        else:
            path.stat()  # raises FileNotFoundError for a missing file, as reading it would
            files.append(path)
    if order == "lexicographic":
        files.sort(key=lambda c: c.name)
    return files


def load_corpus_from_paths(paths: Sequence[str | Path]) -> Corpus:
    """Read files as UTF-8 documents; the document name is the file stem.

    Files are read one at a time, and each file's bytes and text are
    released once it is counted, before the next file is read (see
    load_corpus).
    """
    return load_corpus((Path(p).stem, Path(p).read_bytes()) for p in paths)


def build_lexicon(corpus: Corpus) -> Lexicon:
    """The corpus's words in first-appearance order over their count profiles.

    The lexicon shares the corpus's columns, which load_corpus built from
    its dict of pairs before dropping it, and adds only ``members``. The
    surfaces are already in first-appearance order, so indices never depend
    on scheduling.
    """
    return Lexicon(*corpus[:5])
