from contextlib import contextmanager
from pathlib import Path

import pytest

from stoplex import Lexicon, WordEntry, build_lexicon, load_corpus

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


def make_lexicon(probabilities, counts=None, surfaces=None) -> Lexicon:
    """Synthetic lexicon with given probabilities, for selector/position tests."""
    n = len(probabilities)
    entries = []
    for pos, p in enumerate(probabilities):
        total = counts[pos] if counts is not None else 1
        surface = surfaces[pos] if surfaces is not None else f"w{pos + 1:06d}"
        entries.append(
            WordEntry(
                surface=surface,
                first_index=pos + 1,
                doc_frequency=1,
                total_count=total,
                doc_counts=(total,),
                idf=1.0,
                weight=p,
                probability=p,
            )
        )
    return Lexicon(tuple(entries), doc_count=2)


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
