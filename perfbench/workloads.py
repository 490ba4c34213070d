"""Seeded synthetic corpora for the stoplex benchmark.

Each workload is a corpus shape plus the `stoplex analyze` options it runs
with. `generate` turns (workload, seed) into the raw document texts the
program reads and, alongside, the canonical token stream those texts must
tokenize to (NFC, lowercase, word-internal apostrophes as U+02BB). The
output check builds its reference from that stream, so it never calls
`stoplex.tokenize`.

Everything is drawn from one `random.Random` seeded with the workload name
and the seed, in one process and one thread, so the same seed always gives
the same bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

CANONICAL_APOSTROPHE = "ʻ"
APOSTROPHE_VARIANTS = ("'", "’", "ʼ", "`", "ʻ")
DOTTED_I = "i̇"  # lowercase of U+0130 İ; only ever written as İ


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    tokens_per_doc: int
    vocabulary: int  # size of the Zipf rank table tokens are drawn from
    zipf_exponent: float
    style: str  # "ascii": a-z words; "uz": Uzbek-Latin-like, Unicode-heavy text
    options: tuple[str, ...]
    files_as_arguments: bool = False  # pass files one by one (shuffled) instead of the directory

    @property
    def tokens(self) -> int:
        return self.docs * self.tokens_per_doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-docs",
            why="15 docs x 20k Zipf a-z tokens, default options: tokenizing and Document.tokens "
            "dominate, the dense lexicon is small",
            docs=15,
            tokens_per_doc=20_000,
            vocabulary=50_000,
            zipf_exponent=1.0,
            style="ascii",
            options=(),
        ),
        Workload(
            name="many-docs",
            why="1000 docs x 300 Zipf a-z tokens: unique words x documents, not token count, "
            "sets the cost of build_lexicon and apply_weights",
            docs=1000,
            tokens_per_doc=300,
            vocabulary=100_000,
            zipf_exponent=1.0,
            style="ascii",
            options=(),
        ),
        Workload(
            name="uz-wide",
            why="20 docs x 10k Uzbek-Latin-like tokens, N >= 1e5, Unicode-heavy text, plots and the "
            "non-default options: selection, words.csv and SVGs do real work",
            docs=20,
            tokens_per_doc=10_000,
            vocabulary=230_000,
            zipf_exponent=0.5,
            style="uz",
            options=(
                "--plots",
                "--averaging", "containing",
                "--xbar", "candidates",
                "--order", "lexicographic",
            ),
            files_as_arguments=True,
        ),
    )
}


# The workloads BENCHMARK.json runs. many-docs stays runnable by hand (it is
# where a counts-only lexicon gains most), but at about 9 s per analysis it
# would need runs longer than the benchmark's time budget allows for three
# workloads to get a steady figure on a shared 2-core host.
BENCHMARKED = ("long-docs", "uz-wide")


@dataclass(frozen=True)
class Corpus:
    """Generated documents: raw texts for the program, canonical tokens for the check."""

    names: tuple[str, ...]  # file stems, in document order
    texts: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]

    def write(self, directory: Path) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in zip(self.names, self.texts):
            path = directory / f"{name}.txt"
            path.write_bytes(text.encode("utf-8"))
            paths.append(path)
        return paths


def scaled(workload: Workload, factor: float) -> Workload:
    """The same generator at a fraction of the size, for tests."""
    return dataclasses.replace(
        workload,
        docs=max(2, round(workload.docs * factor)),
        tokens_per_doc=max(20, round(workload.tokens_per_doc * factor)),
        vocabulary=max(200, round(workload.vocabulary * factor)),
    )


def generate(workload: Workload, seed: int) -> Corpus:
    rng = random.Random(f"{workload.name}/{seed}")
    make_word = _ascii_word if workload.style == "ascii" else _uz_word
    render = _render_ascii if workload.style == "ascii" else _render_uz
    vocabulary = _vocabulary(rng, make_word, workload.vocabulary)
    cum_weights = list(
        itertools.accumulate(1.0 / rank**workload.zipf_exponent for rank in range(1, len(vocabulary) + 1))
    )
    names, texts, tokens = [], [], []
    for doc in range(workload.docs):
        stream = tuple(rng.choices(vocabulary, cum_weights=cum_weights, k=workload.tokens_per_doc))
        names.append(f"d{doc + 1:04d}")
        texts.append(render(rng, stream))
        tokens.append(stream)
    return Corpus(tuple(names), tuple(texts), tuple(tokens))


def _vocabulary(rng: random.Random, make_word, size: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        words[make_word(rng)] = None
    return list(words)


# ---------------------------------------------------------------- a-z style

_ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _ascii_word(rng: random.Random) -> str:
    word = "".join(rng.choices(_ASCII_LETTERS, k=rng.randint(2, 9)))
    if rng.random() < 0.10:
        cut = rng.randint(1, len(word) - 1)
        word = word[:cut] + CANONICAL_APOSTROPHE + word[cut:]
    return word


def _render_ascii(rng: random.Random, stream: tuple[str, ...]) -> str:
    """Sentences of 12 tokens, capitalized, with ASCII apostrophes."""
    out = []
    for pos, token in enumerate(stream):
        raw = token.replace(CANONICAL_APOSTROPHE, "'")
        if pos % 12 == 0:
            raw = raw[0].upper() + raw[1:]
        out.append(raw)
        if pos % 12 == 11:
            out.append(".\n" if rng.random() < 0.2 else ". ")
        else:
            out.append(" ")
    return "".join(out)


# ------------------------------------------------------------- Uzbek style

_UZ_ONSETS = "b d f g h j k l m n p q r s t v x y z sh ch gʻ ng".split() + [""] * 4
_UZ_VOWELS = "a a a e i i o u oʻ".split() * 10
# Loanword letters with a precomposed NFC form, written decomposed (NFD)
# in part of the raw text.
_UZ_ACCENTED = "é ö ü ñ ç â".split()
_UZ_CODAS = "r n l m k q s t sh".split() + [""] * 6
_UZ_SYLLABLES = [
    onset + vowel + coda
    for onset in _UZ_ONSETS
    for vowel in _UZ_VOWELS + _UZ_ACCENTED
    for coda in _UZ_CODAS
]
_UZ_SUFFIXES = (
    "lar ning ga da dan ni lik chi gan moq dagi siz mi cha roq oʻz ish ib "
    "sa may yap ajak gʻin"
).split()
_UZ_SUFFIX_COUNTS = (0, 0, 1, 1, 2, 3)


def _uz_word(rng: random.Random) -> str:
    """An agglutinative form: root of 1-3 syllables plus 0-3 suffixes.

    Apostrophes come only from the oʻ/gʻ digraphs, so each follows a letter
    and is never doubled. A few words start with the dotted capital-I sound.
    """
    shape = rng.random()
    root = "".join(rng.choices(_UZ_SYLLABLES, k=1 + int(shape * 3)))
    if shape * 100 % 1 < 0.02:
        root = DOTTED_I + root
    suffixes = rng.choices(_UZ_SUFFIXES, k=_UZ_SUFFIX_COUNTS[int(rng.random() * 6)])
    word = root + "".join(suffixes)
    # A trailing apostrophe never attaches, so a word cannot end with one.
    return unicodedata.normalize("NFC", word.rstrip(CANONICAL_APOSTROPHE))


def _uz_surface(rng: random.Random, token: str) -> str:
    """One raw spelling of a canonical token that tokenizes back to it."""
    roll = rng.random()
    if token.startswith(DOTTED_I):
        # İ lowercases to i + U+0307; the combining dot alone is no letter,
        # so the capital form is the only spelling that stays one token.
        raw = token.upper() if roll < 0.3 else "İ" + token[2:]
    elif roll < 0.07:
        raw = token.upper()
    elif roll < 0.17:
        raw = token[0].upper() + token[1:]
    else:
        raw = token
    if CANONICAL_APOSTROPHE in raw:
        raw = "".join(
            rng.choice(APOSTROPHE_VARIANTS) if ch == CANONICAL_APOSTROPHE else ch for ch in raw
        )
    if rng.random() < 0.3:
        raw = unicodedata.normalize("NFD", raw)
    return raw


# Separators between tokens: punctuation, digits, No/Nl numerics, and
# apostrophes that must not attach (doubled, leading, trailing).
_UZ_SEPARATORS = (
    (" ", 70),
    (", ", 6),
    (". ", 5),
    ("\n", 3),
    ("; ", 1),
    (" — ", 1),
    ("1987", 1),
    (" 42 ", 1),
    ("½", 1),
    (" Ⅻ ", 1),
    ("''", 1),
    ("’ʼ", 1),
    (" '", 1),
    ("` ", 1),
    ("ʻʻ", 1),
)
_UZ_SEP_CUM = list(itertools.accumulate(w for _, w in _UZ_SEPARATORS))
_UZ_SEP_TEXT = [s for s, _ in _UZ_SEPARATORS]


def _render_uz(rng: random.Random, stream: tuple[str, ...]) -> str:
    separators = rng.choices(_UZ_SEP_TEXT, cum_weights=_UZ_SEP_CUM, k=len(stream))
    out = []
    for token, sep in zip(stream, separators):
        out.append(_uz_surface(rng, token))
        out.append(sep)
    return "".join(out)
