"""Corpus loading, tokenization, and first-appearance lexicon construction.

A token is a maximal run of Unicode letters. A single apostrophe is kept
when it sits between two letters (the Uzbek oʻ/gʻ digraphs). The variants
found in real texts (U+0027, U+2019, U+02BC, U+0060) are rewritten to
U+02BB before matching, so they collapse to one code point and do not
create spurious unique words. Text is NFC-normalized before scanning and
tokens are lowercased afterwards. Digits, punctuation and symbols are
separators, never tokens; so are numerics that are not letters, such as
½, Ⅻ and ², even where a word pattern matches them together with letters.
An ASCII text (Uzbek Latin is often typed so, with ' or ` for oʻ/gʻ) takes
a shorter path that gives the same tokens with no pattern scan: one
str.translate lowercases its letters and blanks every other character but
the apostrophes, str.replace blanks each apostrophe that does not sit
between two letters, and str.split cuts the words. ASCII needs no NFC, its
letters lowercase one by one and its only numerics are the digits.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DecodeError, DomainError, EmptyCorpus

#: Canonical word-internal apostrophe (MODIFIER LETTER TURNED COMMA).
CANONICAL_APOSTROPHE = "ʻ"

#: Document orders collect_input_files accepts: as given, or re-sorted by file name.
ORDER_MODES = ("list", "lexicographic")

# The apostrophe variants tokenize rewrites to the canonical one before
# matching, once per text, so the pattern only has to know U+02BB.
_VARIANT_APOSTROPHES = "'’ʼ`"
# [^\W\d_] is every letter plus the numerics that are not decimal digits
# (categories No and Nl, such as ½); tokenize splits those back out with
# str.isalpha, which holds for exactly the letter categories L*. U+02BB is a
# letter (Lm), so the class leaves it out: a doubled apostrophe must not
# hide inside a letter run. (U+02BC is a letter too, but never reaches the
# pattern.)
_WORD = re.compile(r"[^\W\d_ʻ]+(?:ʻ[^\W\d_ʻ]+)*")
# On ASCII text [^\W\d_ʻ] is exactly [A-Za-z]: the table lowercases those,
# writes both ASCII apostrophes as ' and every other code point as a space.
_ASCII_LOWER = "abcdefghijklmnopqrstuvwxyz"
_ASCII_FOLD = {code: " " for code in range(128)} | str.maketrans(
    _ASCII_LOWER + _ASCII_LOWER.upper() + "'`", _ASCII_LOWER * 2 + "''"
)


def tokenize(text: str) -> list[str]:
    """Split raw text into normalized word tokens, order preserved.

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

    An ASCII text takes C-level string methods instead, which give the
    same tokens: it is already NFC, its only apostrophe variants are ' and
    `, and ASCII lowercasing maps each letter alone. After _ASCII_FOLD the
    text holds only a-z, ' and spaces. Blanking doubled apostrophes, then
    those next to a space, then stripping the ends leaves each remaining
    apostrophe between two letters, so the space-separated chunks are the
    words. Only the raw text decides the path, since NFC can turn a
    non-ASCII character into one of those apostrophes (U+1FEF into `).

    Any input yields a (possibly empty) token list.
    """
    if text.isascii():
        text = text.translate(_ASCII_FOLD).replace("''", "  ").replace(" '", "  ").replace("' ", "  ")
        return text.strip("'").replace("'", CANONICAL_APOSTROPHE).split()
    text = unicodedata.normalize("NFC", text)
    for apostrophe in _VARIANT_APOSTROPHES:
        text = text.replace(apostrophe, CANONICAL_APOSTROPHE)
    tokens: list[str] = []
    for word in _WORD.findall(text):
        if word.isalpha():
            tokens.append(unicodedata.normalize("NFC", word.lower()))
            continue
        for part in "".join(ch if ch.isalpha() else " " for ch in word).split():
            part = part.strip(CANONICAL_APOSTROPHE)
            if part:
                tokens.append(unicodedata.normalize("NFC", part.lower()))
    return tokens


@dataclass(frozen=True)
class Corpus:
    """Per-word counts of an ordered collection of documents.

    ``counts_of`` maps each distinct token, in order of first appearance, to
    its (doc frequency, total count) pair: how many documents hold it and how
    often it occurs in all of them. Those two numbers are all that the
    weighting reads of a word's counts.
    """

    counts_of: dict[str, tuple[int, int]]
    doc_count: int
    token_total: int


class WordEntry(NamedTuple):
    """A row view of one lexicon word: its surface and index plus its profile's counts."""

    surface: str
    first_index: int  # 1-based rank by first appearance
    doc_frequency: int
    total_count: int


@dataclass(frozen=True)
class Lexicon:
    """Unique words in first-appearance order over a table of count profiles.

    A word's count profile is its (doc_frequency, total_count) pair; most
    words share theirs with many others. Word k (first_index k + 1) is
    ``surfaces[k]`` with profile ``profile_ids[k]``. The table has one row
    per distinct profile, stored by column and indexed by profile id:
    ``doc_frequency`` and ``total_count``. apply_weights and probabilities
    return their columns by profile id, which the later stages take.

    ``members[p]`` is an array("I") of the ascending first indices of
    profile p's words, the inverse of ``profile_ids``, built on every
    construction. The stages after build_lexicon read a profile's words
    from it. Raises DomainError when the columns differ in length or a
    profile id has no row.

    ``entries`` is the one per-word row view, made for every word on each
    call; no stage reads it.
    """

    surfaces: tuple[str, ...]
    profile_ids: array  # array("I"): one profile id per word
    doc_frequency: tuple[int, ...]
    total_count: tuple[int, ...]
    doc_count: int  # documents in the corpus the words were counted in
    members: tuple[array, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        profiles = len(self.total_count)
        if len(self.surfaces) != len(self.profile_ids) or len(self.doc_frequency) != profiles:
            raise DomainError("a lexicon needs one profile id per surface and one total per doc frequency")
        try:
            object.__setattr__(self, "members", _index_lists(self.profile_ids, profiles))
        except IndexError:
            raise DomainError(f"a profile id is outside the {profiles} profile rows") from None

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

    Each document is counted as it is tokenized, and each of its words adds
    one document and its count to the word's (doc frequency, total count)
    pair. The words of one document that reach the same pair share one
    tuple, through a lookup that lives for that document only. So the corpus
    keeps one string and one pair per distinct token, and its memory does
    not grow with the (word, document) pairs. Bytes decode as UTF-8; a bad
    source raises DecodeError naming it. Zero sources raise EmptyCorpus.
    """
    counts_of: dict[str, tuple[int, int]] = {}
    doc_count = token_total = 0
    for name, blob in sources:
        tokens = tokenize(_decode(name, blob) if isinstance(blob, bytes) else blob)
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        for token, count in Counter(tokens).items():
            doc_frequency, total = counts_of.get(token, (0, 0))
            pair = (doc_frequency + 1, total + count)
            counts_of[token] = shared.setdefault(pair, pair)
        doc_count += 1
        token_total += len(tokens)
    if not doc_count:
        raise EmptyCorpus("a corpus needs at least one document")
    return Corpus(counts_of, doc_count, token_total)


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

    Files are read one at a time as they are counted, so only one file's
    text is held at once.
    """
    return load_corpus((Path(p).stem, Path(p).read_bytes()) for p in paths)


def build_lexicon(corpus: Corpus) -> Lexicon:
    """The corpus's words in first-appearance order over their count profiles.

    ``counts_of`` is already in first-appearance order, so indices never
    depend on scheduling. Profile ids number the distinct (doc frequency,
    total count) pairs in order of their first word.
    """
    ids: defaultdict[tuple[int, int], int] = defaultdict(itertools.count().__next__)
    profile_ids = array("I", map(ids.__getitem__, corpus.counts_of.values()))
    return Lexicon(
        tuple(corpus.counts_of),
        profile_ids,
        tuple(doc_frequency for doc_frequency, _ in ids),
        tuple(total for _, total in ids),
        corpus.doc_count,
    )
