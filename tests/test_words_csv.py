"""The words.csv text against the csv.writer rendering it replaced, and its streaming."""

import math
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import csv_oracle
import stoplex.report
from stoplex import DomainError, Lexicon, RunConfig, run_pipeline, words_csv
from stoplex.report import _words_csv_chunks

from conftest import six_profile_documents, word_rows

NUMBER_COLUMNS = ("weight", "probability")
# row batch sizes small enough for the drawn lexicons to span several batches
BATCHES = (1, 2, 3)


def _lexicon(words, profiles) -> tuple[Lexicon, tuple[float, ...], tuple[float, ...]]:
    """Words as (surface, profile id) over (doc_frequency, weight, probability) rows, in 30 documents.

    Returns the lexicon and its weight and probability columns.
    """
    doc_frequency = tuple(df for df, *_ in profiles)
    lexicon = Lexicon(
        surfaces=tuple(surface for surface, _ in words),
        profile_ids=array("I", [pid for _, pid in words]),
        doc_frequency=doc_frequency,
        total_count=doc_frequency,
        doc_count=30,
    )
    return lexicon, tuple(weight for _, weight, _ in profiles), tuple(p for *_, p in profiles)


# csv.writer of Python 3.10 and 3.11 leaves a lone "\r" unquoted when the
# line terminator is "\n", and words_csv keeps that rule on every version.
# Where the running csv.writer quotes it instead, "\r" is dropped from the
# surfaces so that everything else is still compared.
CSV_QUOTES_LONE_CR = '"\r"' in csv_oracle.words_csv(word_rows(*_lexicon([("\r", 0)], [(1, 0.0, 0.0)])))

# Python 3.10's csv.writer raises on NUL, so no surface holds one.
CHARACTERS = st.characters(exclude_characters="\x00")
surfaces = st.lists(
    st.one_of(st.sampled_from([",", '"', "\n", "\r", "", " ", "ʻ", "olma"]), CHARACTERS), max_size=6
).map("".join)

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.225073858507201e-308, 1.0]
numbers = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def lexicons(draw) -> tuple[Lexicon, tuple[float, ...], tuple[float, ...]]:
    """Words over a few profiles whose numbers come from a small pool, so rows repeat values."""
    pool = st.sampled_from(draw(st.lists(numbers, min_size=1, max_size=6)))
    profiles = draw(st.lists(st.tuples(st.integers(1, 30), pool, pool), min_size=1, max_size=8))
    words = draw(st.lists(st.tuples(surfaces, st.integers(0, len(profiles) - 1)), max_size=25))
    return _lexicon(words, profiles)


ZERO, NEG_ZERO = 0.0, -0.0


@settings(max_examples=400, deadline=None)
@given(lexicons())
@example(_lexicon([], []))
@example(
    _lexicon(
        [(",", 0), ('"', 1), ("\n", 0), ("\r", 2), ("", 3), ('a"b,c\r\nd', 4), ("olma", 1), ("anor", 5)],
        [
            (1, ZERO, ZERO),
            (2, NEG_ZERO, NEG_ZERO),  # equal to the row above, printed differently
            (3, math.nan, -math.inf),
            (1, NEG_ZERO, 5e-324),
            (2, float.fromhex((5e-324).hex()), 1.0),
            (30, math.inf, 0.5),  # in every document: idf 0.0
        ],
    )
)
def test_words_csv_matches_csv_writer(case):
    lexicon, weight, probability = case
    if CSV_QUOTES_LONE_CR:
        surfaces = tuple(surface.replace("\r", "") for surface in lexicon.surfaces)
        lexicon = replace(lexicon, surfaces=surfaces)
    expected = csv_oracle.words_csv(word_rows(lexicon, weight, probability))
    assert words_csv(lexicon, weight, probability) == expected
    for batch in BATCHES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stoplex.report, "_WORDS_CSV_BATCH", batch)
            assert "".join(_words_csv_chunks(lexicon, weight, probability)) == expected


@pytest.mark.parametrize("column", NUMBER_COLUMNS)
def test_words_csv_requires_every_number_column(column):
    lexicon, weight, probability = _lexicon([("olma", 0), ("nok", 1), ("olma", 0)], [(2, 0.5, 0.25), (1, 0.0, 0.0)])
    columns = {"weight": weight, "probability": probability}
    for wrong in ((), columns[column][:1], columns[column] + (1.0,)):
        with pytest.raises(DomainError, match=column):
            words_csv(lexicon, **columns | {column: wrong})
        # the chunk source checks when called, before any chunk is taken
        with pytest.raises(DomainError, match=column):
            _words_csv_chunks(lexicon, **columns | {column: wrong})


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_words_csv_chunks_are_the_header_then_full_batches(monkeypatch, batch, offset):
    monkeypatch.setattr(stoplex.report, "_WORDS_CSV_BATCH", batch)
    n_words = batch + offset
    case = _lexicon([(f"w,{j}", j % 2) for j in range(n_words)], [(2, 0.5, 0.25), (1, NEG_ZERO, 5e-324)])
    chunks = list(_words_csv_chunks(*case))
    assert "".join(chunks) == csv_oracle.words_csv(word_rows(*case))
    full, rest = divmod(n_words, batch)
    assert [chunk.count("\n") for chunk in chunks] == [1] + [batch] * full + [rest] * (rest > 0)


def test_writing_words_csv_holds_a_small_fraction_of_the_file(tmp_path, monkeypatch):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name, text in six_profile_documents(100_000):
        (in_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    # keep the renderers the pipeline hands to _write_all, then measure writing only words.csv
    renderers = {}
    write_all = stoplex.report._write_all
    monkeypatch.setattr(stoplex.report, "_write_all", lambda out_dir, outputs: renderers.update(outputs))
    run_pipeline(RunConfig(inputs=(str(in_dir),), output_dir=tmp_path / "out"))
    tracemalloc.start()
    try:
        write_all(tmp_path, [("words.csv", renderers["words.csv"])])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "words.csv").stat().st_size
    # measured on CPython 3.11: 0.16 of the 7.4 MB file; rendering the file
    # whole, as one str next to its row list and UTF-8 copy, took 2.8 times it
    assert peak <= 0.5 * size


def test_quoting_is_decided_per_batch(monkeypatch):
    # batches of two rows; only rows of the third and fourth batches need quotes
    monkeypatch.setattr(stoplex.report, "_WORDS_CSV_BATCH", 2)
    words = [("olma", 0), ("nok", 1), ("uzum", 0), ("anor", 1), ('a"b', 0), ("til", 1), ("x,y", 0)]
    case = _lexicon(words, [(30, 0.5, 0.25), (1, NEG_ZERO, 5e-324)])
    chunks = list(_words_csv_chunks(*case))
    assert "".join(chunks) == csv_oracle.words_csv(word_rows(*case))
    assert chunks[2:] == [
        "uzum,3,30,0.0,0.5,0.25\nanor,4,1,3.4011973816621555,-0.0,5e-324\n",
        '"a""b",5,30,0.0,0.5,0.25\ntil,6,1,3.4011973816621555,-0.0,5e-324\n',
        '"x,y",7,30,0.0,0.5,0.25\n',
    ]
