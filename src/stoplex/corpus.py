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
a shorter path that gives the same tokens: it is lowercased whole and
matched with an ASCII word pattern, since ASCII needs no NFC, its letters
lowercase one by one and its only numerics are the digits.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
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
# _WORD restricted to ASCII text, where [^\W\d_ʻ] is exactly [A-Za-z]; the
# text is lowercased before matching, so [a-z] is enough.
_ASCII_WORD = re.compile(r"[a-z]+(?:ʻ[a-z]+)*")


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

    An ASCII text is lowercased whole and matched with an ASCII word
    pattern instead, which gives the same tokens: it is already NFC, its
    only apostrophe variants are ' and `, and ASCII lowercasing maps each
    letter alone. Only the raw text decides the path, since NFC can turn a
    non-ASCII character into one of those apostrophes (U+1FEF into `).

    Any input yields a (possibly empty) token list.
    """
    if text.isascii():
        text = text.lower().replace("'", CANONICAL_APOSTROPHE)
        return _ASCII_WORD.findall(text.replace("`", CANONICAL_APOSTROPHE))
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
    """Per-word counts of an ordered collection of documents, as a tree of count profiles.

    A word's count profile is its non-zero per-document counts in document
    order. ``profile_of`` maps each distinct token, in order of first
    appearance, to the node of its profile. Node n > 0 is the profile of
    node ``parents[n]`` with ``counts[n]`` appended; node 0 is the empty
    profile. Words that reach the same profile within one document share a
    node, so the corpus holds no list per word.
    """

    profile_of: dict[str, int]
    parents: array  # array("I"), indexed by node
    counts: array  # array("I"), indexed by node
    doc_count: int
    token_total: int

    def profile(self, node: int) -> tuple[int, ...]:
        """The count profile that ``node`` ends, read by walking up to the root."""
        parents, counts = self.parents, self.counts
        profile = []
        while node:
            profile.append(counts[node])
            node = parents[node]
        profile.reverse()
        return tuple(profile)

    @property
    def postings(self) -> dict[str, list[int]]:
        """Each token, in first-appearance order, with its profile as a list; made afresh on each call."""
        return {token: list(self.profile(node)) for token, node in self.profile_of.items()}


class WordEntry(NamedTuple):
    """A row view of one lexicon word: its surface and index plus its profile's row.

    ``doc_counts`` holds the word's non-zero per-document counts in document
    order, so ``doc_frequency == len(doc_counts)`` and
    ``total_count == sum(doc_counts)``. ``idf``, ``weight`` and
    ``probability`` are None while the lexicon's column is unfilled.
    """

    surface: str
    first_index: int  # 1-based rank by first appearance
    doc_frequency: int
    total_count: int
    doc_counts: tuple[int, ...]
    idf: float | None
    weight: float | None
    probability: float | None


@dataclass(frozen=True)
class Lexicon:
    """Unique words in first-appearance order over a table of count profiles.

    A word's count profile is its ``doc_counts``; most words share theirs
    with many others. Word k (first_index k + 1) is ``surfaces[k]`` with
    profile ``profile_ids[k]``. The table has one row per distinct profile,
    stored by column and indexed by profile id: ``doc_counts`` and
    ``total_count`` from build_lexicon, ``idf`` and ``weight`` from
    apply_weights, ``probability`` from probabilities. A number column stays
    empty until its stage fills it.
    """

    surfaces: tuple[str, ...]
    profile_ids: array  # array("I"): one profile id per word
    doc_counts: tuple[tuple[int, ...], ...]
    total_count: tuple[int, ...]
    doc_count: int  # documents in the corpus the words were counted in
    idf: tuple[float, ...] = ()
    weight: tuple[float, ...] = ()
    probability: tuple[float, ...] = ()

    @property
    def size(self) -> int:
        return len(self.surfaces)

    def column(self, name: str) -> tuple[float, ...]:
        """The filled number column "idf", "weight" or "probability", by profile id.

        Raises DomainError while the stage that fills it has not run.
        """
        values = getattr(self, name)
        if len(values) != len(self.doc_counts):
            raise DomainError(f"the {name} column is unset; the weighting step fills it")
        return values

    def _profile_row(self, pid: int) -> tuple:
        """The WordEntry fields after first_index of the words with profile ``pid``."""
        counts = self.doc_counts[pid]
        return (
            len(counts),
            self.total_count[pid],
            counts,
            self.idf[pid] if self.idf else None,
            self.weight[pid] if self.weight else None,
            self.probability[pid] if self.probability else None,
        )

    def row(self, position: int) -> WordEntry:
        """The word at 0-based ``position`` (first_index position + 1) as a WordEntry."""
        return WordEntry(
            self.surfaces[position], position + 1, *self._profile_row(self.profile_ids[position])
        )

    @property
    def entries(self) -> Iterator[WordEntry]:
        """Every word as a WordEntry row, in first_index order, made afresh on each call."""
        profiles = [self._profile_row(pid) for pid in range(len(self.doc_counts))]
        return (
            WordEntry(surface, first_index, *profiles[pid])
            for first_index, (surface, pid) in enumerate(zip(self.surfaces, self.profile_ids), start=1)
        )

    def __iter__(self) -> Iterator[WordEntry]:
        return self.entries


def load_corpus(sources: Iterable[tuple[str, str | bytes]]) -> Corpus:
    """Build a corpus from ordered (name, text) pairs.

    Each document is counted as it is tokenized, and each of its words
    steps from its profile node to a child that appends its count. The
    words that step from one node with one count share the child, through
    a lookup that lives for one document. So the corpus keeps one string
    and one node id per distinct token, plus the nodes. Bytes decode as
    UTF-8; a bad source raises DecodeError naming it. Zero sources raise
    EmptyCorpus.
    """
    profile_of: dict[str, int] = {}
    parents = array("I", [0])
    counts = array("I", [0])
    doc_count = token_total = 0
    for name, blob in sources:
        tokens = tokenize(_decode(name, blob) if isinstance(blob, bytes) else blob)
        # count -> {parent node: child node}, for this document's steps only
        child: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for token, count in Counter(tokens).items():
            parent = profile_of.get(token, 0)
            siblings = child[count]
            node = siblings.get(parent)
            if node is None:
                node = siblings[parent] = len(parents)
                parents.append(parent)
                counts.append(count)
            profile_of[token] = node
        doc_count += 1
        token_total += len(tokens)
    if not doc_count:
        raise EmptyCorpus("a corpus needs at least one document")
    return Corpus(profile_of, parents, counts, doc_count, token_total)


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

    ``profile_of`` is already in first-appearance order, and a profile's
    counts are in document order, so indices never depend on scheduling.
    Each distinct end node is walked up once, in order of its first word,
    and profile ids number the distinct profiles in order of their first
    word. The number columns stay empty; the weighting step fills them.
    """
    ids: defaultdict[tuple[int, ...], int] = defaultdict(itertools.count().__next__)
    pid_of = {node: ids[corpus.profile(node)] for node in dict.fromkeys(corpus.profile_of.values())}
    profile_ids = array("I", map(pid_of.__getitem__, corpus.profile_of.values()))
    doc_counts = tuple(ids)
    return Lexicon(
        tuple(corpus.profile_of), profile_ids, doc_counts, tuple(map(sum, doc_counts)), corpus.doc_count
    )
