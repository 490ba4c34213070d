import string
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest

from stoplex import IndexDistribution, Lexicon, build_lexicon, load_corpus

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
    """The distribution of per-index probabilities: index i + 1 alone in group i, at probabilities[i]."""
    values = tuple(probabilities)
    n = len(values)
    return IndexDistribution(values, array("I", range(n)), tuple(array("I", [i]) for i in range(1, n + 1)))


def index_probabilities(dist) -> tuple[float, ...]:
    """Each index's probability in ``dist``, in index order."""
    return tuple(map(dist.values.__getitem__, dist.group_of))


def candidate_entries(lexicon: Lexicon, stopwords) -> list:
    """The WordEntry rows of the selected candidates, in selection order, from ``lexicon.entries``."""
    rows = list(lexicon.entries)
    return [rows[index - 1] for index in stopwords.first_indices]


def make_lexicon(probabilities, counts=None, surfaces=None) -> Lexicon:
    """Synthetic lexicon with given probabilities, for selector/position tests.

    Word k gets a count profile of its own, doc frequency 1 and total
    counts[k] (by default 1), with idf 1.0 and both weight and probability
    probabilities[k].
    """
    n = len(probabilities)
    totals = tuple(counts) if counts is not None else (1,) * n
    return Lexicon(
        surfaces=tuple(surfaces) if surfaces is not None else tuple(f"w{k:06d}" for k in range(1, n + 1)),
        profile_ids=array("I", range(n)),
        doc_frequency=(1,) * n,
        total_count=totals,
        doc_count=2,
        idf=(1.0,) * n,
        weight=tuple(probabilities),
        probability=tuple(probabilities),
    )


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
