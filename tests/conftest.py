import string
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest

from stoplex import (
    IndexDistribution,
    Lexicon,
    apply_weights,
    build_lexicon,
    density,
    inverse_document_frequency,
    load_corpus,
    probabilities,
)

DATA_DIR = Path(__file__).parent / "data"
TOY_DIR = DATA_DIR / "corpus_t"

# Toy corpus T: three tiny documents, eight tokens, three unique words.
TOY_SOURCES = (
    ("d1", "olma olma nok"),
    ("d2", "nok uzum"),
    ("d3", "olma uzum uzum"),
)


@pytest.fixture
def toy_corpus():
    return load_corpus(TOY_SOURCES)


@pytest.fixture
def toy_lexicon(toy_corpus):
    return build_lexicon(toy_corpus)


def letter_code(number: int) -> str:
    """A distinct lowercase a-z string per number (digits would split tokens)."""
    code = ""
    while True:
        number, digit = divmod(number, 26)
        code += string.ascii_lowercase[digit]
        if number == 0:
            return code


def six_profile_documents(n_words: int) -> list[tuple[str, str]]:
    """(name, text) of 4 documents holding ``n_words`` words over 6 count profiles.

    Word j occurs j % 3 + 1 times in document j % 4, and odd words once more
    in the next document: (doc frequency, total count) is (1, j % 3 + 1) for
    even words and (2, j % 3 + 2) for odd ones.
    """
    n_docs = 4
    documents = [[] for _ in range(n_docs)]
    for j in range(n_words):
        word = letter_code(j)
        documents[j % n_docs] += [word] * (j % 3 + 1)
        if j % 2:
            documents[(j + 1) % n_docs].append(word)
    return [(f"d{d}", " ".join(words)) for d, words in enumerate(documents)]


def six_profile_corpus(n_words: int):
    """The corpus of ``six_profile_documents(n_words)``."""
    return load_corpus(six_profile_documents(n_words))


def distribution(probabilities) -> IndexDistribution:
    """``probabilities`` as a distribution over make_lexicon's words: index i + 1 at probabilities[i]."""
    return density(*make_lexicon(tuple(probabilities)))


def index_probabilities(dist) -> tuple[float, ...]:
    """Each index's probability in ``dist``, in index order."""
    return tuple(map(dist.values.__getitem__, dist.lexicon.profile_ids))


def probability_of(lexicon: Lexicon) -> tuple[float, ...]:
    """The probability of each count profile of ``lexicon``, by profile id, with the default weights."""
    return probabilities(lexicon, apply_weights(lexicon))


def per_word(lexicon: Lexicon, column) -> tuple:
    """Each word's value in ``column``, a column of ``lexicon``'s count profiles, in first_index order."""
    return tuple(map(column.__getitem__, lexicon.profile_ids))


class WordRow(NamedTuple):
    """A word's WordEntry fields and its profile's idf, weight and probability."""

    surface: str
    first_index: int
    doc_frequency: int
    total_count: int
    idf: float
    weight: float
    probability: float


def profile_idf(lexicon: Lexicon) -> tuple[float, ...]:
    """The idf of each count profile of ``lexicon``, by profile id, as words_csv renders it."""
    return tuple(inverse_document_frequency(lexicon.doc_count, m) for m in lexicon.doc_frequency)


def word_rows(lexicon: Lexicon, weight, probability) -> list[WordRow]:
    """Every word as a WordRow, in first_index order, from ``lexicon.entries`` and its profile columns."""
    numbers = zip(*(per_word(lexicon, column) for column in (profile_idf(lexicon), weight, probability)))
    return [WordRow(*entry, *row) for entry, row in zip(lexicon.entries, numbers)]


def candidate_rows(lexicon: Lexicon, weight, probability, stopwords) -> list[WordRow]:
    """The WordRows of the selected candidates, in selection order."""
    rows = word_rows(lexicon, weight, probability)
    return [rows[index - 1] for index in stopwords.first_indices]


def make_lexicon(values, counts=None, surfaces=None) -> tuple[Lexicon, tuple[float, ...]]:
    """A synthetic lexicon for selector/position tests, and ``values`` as its one number column.

    Word k gets a count profile of its own, total counts[k] (by default 1),
    so ``values`` is both per profile and per word; it serves as weights
    and as probabilities. Of the 2 documents, a word of value 0.0 is in
    both, so it counts as a zero-weight word, and any other word in one.
    """
    n = len(values)
    lexicon = Lexicon(
        surfaces=tuple(surfaces) if surfaces is not None else tuple(f"w{k:06d}" for k in range(1, n + 1)),
        profile_ids=array("I", range(n)),
        doc_frequency=tuple(2 if value == 0.0 else 1 for value in values),
        total_count=tuple(counts) if counts is not None else (1,) * n,
        doc_count=2,
    )
    return lexicon, tuple(values)


def weighted_lexicon(weights) -> tuple[Lexicon, tuple[float, ...]]:
    """``make_lexicon(weights)``'s lexicon and the probabilities its weights normalize to."""
    lexicon, weight = make_lexicon(weights)
    return lexicon, probabilities(lexicon, weight)


# ---------------------------------------------------------------------------
# acceptance criterion bookkeeping: one PASS/FAIL line per criterion in the
# terminal summary

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}


@pytest.fixture
def criterion():
    @contextmanager
    def run(number: int, description: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE[number] = (False, description)
            raise
        else:
            _ACCEPTANCE[number] = (True, description)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        ok, description = _ACCEPTANCE[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {description}")
