"""The words.csv text against the csv.writer rendering it replaced."""

import math

from hypothesis import example, given, settings, strategies as st

import csv_oracle
from stoplex import Lexicon, WordEntry, words_csv


def _lexicon(rows) -> Lexicon:
    """One entry per (surface, doc_frequency, idf, weight, probability) row."""
    return Lexicon(
        tuple(
            WordEntry(surface, first_index, df, df, (1,) * df, idf, weight, probability)
            for first_index, (surface, df, idf, weight, probability) in enumerate(rows, start=1)
        ),
        doc_count=2,
    )


# csv.writer of Python 3.10 and 3.11 leaves a lone "\r" unquoted when the
# line terminator is "\n", and words_csv keeps that rule on every version.
# Where the running csv.writer quotes it instead, "\r" is dropped from the
# surfaces so that everything else is still compared.
CSV_QUOTES_LONE_CR = '"\r"' in csv_oracle.words_csv(_lexicon([("\r", 1, None, None, None)]))

# Python 3.10's csv.writer raises on NUL, so no surface holds one.
CHARACTERS = st.characters(exclude_characters="\x00")
surfaces = st.lists(
    st.one_of(st.sampled_from([",", '"', "\n", "\r", "", " ", "ʻ", "olma"]), CHARACTERS), max_size=6
).map("".join)

SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.225073858507201e-308, 1.0]
numbers = st.one_of(st.none(), st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def lexicons(draw) -> Lexicon:
    """Entries that draw their numbers from a small pool, so some share float objects.

    The pool also holds a fresh copy of each float: an equal value in a
    different object.
    """
    pool = draw(st.lists(numbers, min_size=1, max_size=6))
    pool += [float.fromhex(x.hex()) for x in pool if x is not None]
    picks = st.integers(0, len(pool) - 1)
    rows = draw(
        st.lists(st.tuples(surfaces, st.integers(1, 30), picks, picks, picks), max_size=25)
    )
    return _lexicon([(s, df, pool[i], pool[j], pool[k]) for s, df, i, j, k in rows])


ZERO, NEG_ZERO = 0.0, -0.0


@settings(max_examples=400, deadline=None)
@given(lexicons())
@example(_lexicon([]))
@example(
    _lexicon(
        [
            (",", 1, ZERO, ZERO, ZERO),
            ('"', 2, NEG_ZERO, NEG_ZERO, NEG_ZERO),  # equal to the row above, printed differently
            ("\n", 1, ZERO, ZERO, ZERO),
            ("\r", 3, None, math.nan, math.inf),
            ("", 1, ZERO, NEG_ZERO, None),
            ('a"b,c\r\nd', 2, 5e-324, float.fromhex((5e-324).hex()), 1.0),
        ]
    )
)
def test_words_csv_matches_csv_writer(lexicon):
    if CSV_QUOTES_LONE_CR:
        lexicon = Lexicon(
            tuple(e._replace(surface=e.surface.replace("\r", "")) for e in lexicon.entries),
            lexicon.doc_count,
        )
    assert words_csv(lexicon) == csv_oracle.words_csv(lexicon)
