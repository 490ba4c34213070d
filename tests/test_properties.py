import math
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from stoplex import (
    CANONICAL_APOSTROPHE,
    AllZeroWeights,
    apply_weights,
    build_lexicon,
    candidate_count,
    density,
    load_corpus,
    moment_summary,
    probabilities,
    select_candidates,
    tokenize,
)

from conftest import (
    candidate_rows,
    distribution,
    index_probabilities,
    make_lexicon,
    weighted_lexicon,
    word_rows,
)

# --- strategies --------------------------------------------------------------

positive_weights = st.lists(
    st.floats(min_value=1e-8, max_value=1e8, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)

# bounded away from zero so no index can concentrate all the mass
raw_probabilities = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=300,
)

VOCAB = [
    "olma", "nok", "uzum", "anor", "shaftoli", "bir", "ikki", "uch",
    "kitob", "maktab", "til", "soʻz", "matn", "daraxt", "suv", "tosh",
]

corpus_sources = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=0, max_size=25),
    min_size=1,
    max_size=6,
).map(lambda docs: [(f"d{i}", " ".join(words)) for i, words in enumerate(docs, 1)])


def normalized(values):
    total = math.fsum(values)
    return distribution(v / total for v in values)


# --- weighting ---------------------------------------------------------------

@given(positive_weights)
def test_probabilities_sum_to_one(weights):
    _, probability = weighted_lexicon(weights)
    assert abs(math.fsum(probability) - 1.0) <= 1e-12
    assert all(p >= 0 for p in probability)


@given(positive_weights, st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_scaling_weights_preserves_probabilities(weights, scale):
    _, base = weighted_lexicon(weights)
    _, scaled = weighted_lexicon([w * scale for w in weights])
    for a, b in zip(base, scaled):
        assert a == pytest.approx(b, abs=1e-12)


# integer-valued weights keep distinct values well separated, so the
# candidate ranking cannot flip on scaling round-off; exact ties still occur
# and must break identically
integer_weights = st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=300)


@given(integer_weights, st.sampled_from([0.5, 0.25, 3.7, 1e4, 12345.678]))
def test_scaling_weights_preserves_candidates(weights, scale):
    base = select_candidates(density(*weighted_lexicon([float(w) for w in weights])), 0.25)
    scaled = select_candidates(density(*weighted_lexicon([w * scale for w in weights])), 0.25)
    assert base.words == scaled.words


# --- corpus invariants -------------------------------------------------------

@given(corpus_sources)
def test_lexicon_counts_invariants(sources):
    corpus = load_corpus(sources)
    lexicon = build_lexicon(corpus)
    assert sum(e.total_count for e in lexicon.entries) == corpus.token_total
    assert sorted(e.first_index for e in lexicon.entries) == list(range(1, lexicon.size + 1))
    for e in lexicon.entries:
        assert 1 <= e.doc_frequency <= corpus.doc_count
        assert e.doc_frequency <= e.total_count
    assert build_lexicon(corpus) == build_lexicon(corpus)


@given(corpus_sources)
def test_corpus_duplication_invariance(sources):
    assume(any(text for _, text in sources))
    base = build_lexicon(load_corpus(sources))
    doubled_sources = [(f"{name}a", text) for name, text in sources] + [
        (f"{name}b", text) for name, text in sources
    ]
    doubled = build_lexicon(load_corpus(doubled_sources))
    base_w, doubled_w = apply_weights(base), apply_weights(doubled)
    try:
        base_p = probabilities(base, base_w)
    except AllZeroWeights:
        with pytest.raises(AllZeroWeights):
            probabilities(doubled, doubled_w)
        return
    doubled_p = probabilities(doubled, doubled_w)
    for a, b in zip(word_rows(base, base_w, base_p), word_rows(doubled, doubled_w, doubled_p)):
        assert a.surface == b.surface
        assert a.idf == b.idf  # ln(2n/2m) == ln(n/m) exactly
        assert a.weight == b.weight
        assert a.probability == b.probability
    base_sel = select_candidates(density(base, base_p), 0.25)
    doubled_sel = select_candidates(density(doubled, doubled_p), 0.25)
    assert base_sel.words == doubled_sel.words


# --- moment identities -------------------------------------------------------

@given(raw_probabilities)
def test_dispersion_matches_raw_moment_identity(values):
    dist = normalized(values)
    s = moment_summary(dist)
    identity = s.raw_moment_2 - s.raw_moment_1**2
    assert abs(s.dispersion - identity) <= 1e-9 * max(1.0, s.raw_moment_2)


@given(raw_probabilities)
def test_third_central_moment_matches_direct_sum(values):
    dist = normalized(values)
    s = moment_summary(dist)
    direct = math.fsum(p * (i - s.expectation) ** 3 for i, p in enumerate(index_probabilities(dist), start=1))
    magnitude = math.fsum(p * abs(i - s.expectation) ** 3 for i, p in enumerate(index_probabilities(dist), start=1))
    assert abs(s.third_central_moment - direct) <= 1e-9 * max(1.0, abs(direct), magnitude)


@given(raw_probabilities, st.booleans())
def test_symmetric_distribution_has_zero_skew(values, odd_center):
    mirror = list(values) + ([0.5] if odd_center else []) + list(reversed(values))
    dist = normalized(mirror)
    s = moment_summary(dist)
    magnitude = math.fsum(p * abs(i - s.expectation) ** 3 for i, p in enumerate(index_probabilities(dist), start=1))
    assert abs(s.third_central_moment) <= 1e-9 * max(1.0, magnitude)
    assert abs(s.asymmetry) <= 1e-9


@given(raw_probabilities)
def test_mirrored_distribution_negates_skew(values):
    dist = normalized(values)
    mirrored = distribution(reversed(index_probabilities(dist)))
    s = moment_summary(dist)
    m = moment_summary(mirrored)
    magnitude = math.fsum(p * abs(i - s.expectation) ** 3 for i, p in enumerate(index_probabilities(dist), start=1))
    assert abs(s.third_central_moment + m.third_central_moment) <= 1e-9 * max(1.0, magnitude)
    assert m.asymmetry == pytest.approx(-s.asymmetry, rel=1e-9, abs=1e-9)
    assert m.std_dev == pytest.approx(s.std_dev, rel=1e-12)


@given(raw_probabilities, st.sampled_from([1, 17, 1000]))
def test_asymmetry_translation_invariant(values, shift):
    dist = normalized(values)
    s = moment_summary(dist)
    # brute-force recomputation on the shifted support
    xs = [i + shift for i, _ in enumerate(index_probabilities(dist), start=1)]
    ps = index_probabilities(dist)
    e = math.fsum(p * x for x, p in zip(xs, ps))
    var = math.fsum(p * (x - e) ** 2 for x, p in zip(xs, ps))
    mu3 = math.fsum(p * (x - e) ** 3 for x, p in zip(xs, ps))
    assert mu3 / var**1.5 == pytest.approx(s.asymmetry, rel=1e-6, abs=1e-6)


@given(raw_probabilities, st.integers(min_value=1, max_value=3))
def test_raw_moments_match_numpy_oracle(values, k):
    import numpy as np

    dist = normalized(values)
    expected = float(np.sum(np.asarray(index_probabilities(dist)) * np.arange(1, dist.lexicon.size + 1) ** k))
    assert getattr(moment_summary(dist), f"raw_moment_{k}") == pytest.approx(expected, rel=1e-12, abs=1e-15)


# --- selection ---------------------------------------------------------------

@given(
    st.integers(min_value=1, max_value=100000),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
)
def test_candidate_count_is_exact_ceiling(size, fraction):
    expected = math.ceil(Fraction(fraction) * size)
    assert candidate_count(size, fraction) == expected
    assert 1 <= candidate_count(size, fraction) <= size


@given(positive_weights, st.sampled_from(["0.05", "0.1", "0.25", "0.5"]))
def test_selection_size_and_order(weights, fraction):
    lexicon, weight = make_lexicon(weights)
    probability = probabilities(lexicon, weight)
    selected = select_candidates(density(lexicon, probability), fraction)
    assert selected.count == candidate_count(lexicon.size, fraction)
    probs = [e.probability for e in candidate_rows(lexicon, weight, probability, selected)]
    assert probs == sorted(probs)
    assert selected.threshold == probs[-1]
    # no non-candidate has a smaller probability than any candidate
    chosen = set(selected.words)
    rest = [e.probability for e in word_rows(lexicon, weight, probability) if e.surface not in chosen]
    if rest:
        assert min(rest) >= selected.threshold or math.isclose(min(rest), selected.threshold)


# --- tokenizer ---------------------------------------------------------------

@given(st.text(max_size=200))
def test_tokenize_normalization_independent(text):
    decomposed = unicodedata.normalize("NFD", text)
    assert tokenize(decomposed) == tokenize(text)


@given(st.text(max_size=200))
def test_tokenize_output_is_clean(text):
    for token in tokenize(text):
        assert token
        assert not any(ch.isspace() for ch in token)
        assert not any(unicodedata.category(ch).startswith("P") for ch in token)
        assert not any(ch.isdigit() for ch in token)
        assert token[0] != CANONICAL_APOSTROPHE
        assert token[-1] != CANONICAL_APOSTROPHE
        assert CANONICAL_APOSTROPHE * 2 not in token
