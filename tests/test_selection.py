import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stoplex import (
    AveragingMode,
    DomainError,
    StopwordSet,
    apply_weights,
    build_lexicon,
    candidate_count,
    export_list,
    load_corpus,
    probabilities,
    select_candidates,
)

from conftest import candidate_rows, make_lexicon, probability_of, word_rows


def test_count_rule_is_ceiling():
    assert candidate_count(12837, 0.05) == 642
    assert candidate_count(20, 0.05) == 1
    assert candidate_count(3, 0.4) == 2
    assert candidate_count(30, 0.1) == 3
    assert candidate_count(100, "0.05") == 5
    assert candidate_count(7, Fraction(1, 3)) == 3


def test_fraction_domain():
    # "abc" and the nans and infinities read as no number: Fraction raises ValueError or OverflowError
    for bad in (0, 1, 1.5, -0.1, "0", "1", None, "abc", math.nan, math.inf, Decimal("nan"), Decimal("inf")):
        with pytest.raises(DomainError):
            candidate_count(10, bad)
    with pytest.raises(DomainError):
        candidate_count(0, 0.05)


def test_selection_requires_one_probability_per_profile(toy_lexicon):
    probability = probability_of(toy_lexicon)
    for wrong in ((), probability[:1], probability + (0.5,)):
        with pytest.raises(DomainError, match="probability"):
            select_candidates(toy_lexicon, wrong, 0.4)


def test_toy_selection(toy_lexicon):
    selected = select_candidates(toy_lexicon, probability_of(toy_lexicon), 0.4)
    assert selected.count == 2
    assert selected.words == ("nok", "olma")
    assert selected.threshold == pytest.approx(0.375, abs=1e-15)
    assert selected.fraction == 0.4


def test_equal_probabilities_tie_break():
    surfaces = [f"word{chr(ord('a') + i)}" for i in range(20)]
    selected = select_candidates(*make_lexicon([1 / 20] * 20, surfaces=surfaces), 0.05)
    assert selected.count == 1
    assert selected.words[0] == min(surfaces)


def test_tie_break_prefers_lower_total_count():
    lexicon, probability = make_lexicon([0.25, 0.25, 0.25, 0.25], counts=[9, 2, 9, 9])
    selected = select_candidates(lexicon, probability, 0.3)  # k = 2
    assert [e.total_count for e in candidate_rows(lexicon, probability, probability, selected)] == [2, 9]
    assert selected.words[1] == "w000001"


def test_full_scale_count():
    selected = select_candidates(*make_lexicon([1 / 12837] * 12837), 0.05)
    assert selected.count == 642


def test_selection_is_deterministic(toy_lexicon):
    probability = probability_of(toy_lexicon)
    first = select_candidates(toy_lexicon, probability, 0.4)
    second = select_candidates(toy_lexicon, probability, 0.4)
    assert first.words == second.words
    assert first == second


def test_zero_probability_words_selected_first():
    # words in every document get probability 0 and must be candidates
    corpus = load_corpus([("d1", "a b c d e f"), ("d2", "a x y z w v")])
    lexicon = build_lexicon(corpus)
    weight = apply_weights(lexicon)
    probability = probabilities(lexicon, weight)
    selected = select_candidates(lexicon, probability, 0.1)  # k = ceil(1.1) = 2 of 11
    assert selected.words[0] == "a"
    assert candidate_rows(lexicon, weight, probability, selected)[0].probability == 0.0


@pytest.mark.parametrize("mode", list(AveragingMode))
def test_equal_counts_tie_exactly_and_break_by_surface(mode):
    # "b" counts (1, 4) and "a" (2, 3): both in 2 of 4 documents, 5 times in all
    corpus = load_corpus([("d1", "b a a"), ("d2", "b b b b a a a"), ("d3", "c " * 6), ("d4", "c " * 7)])
    lexicon = build_lexicon(corpus)
    weight = apply_weights(lexicon, mode)
    probability = probabilities(lexicon, weight)
    rows = {e.surface: e for e in word_rows(lexicon, weight, probability)}
    assert (rows["a"].doc_frequency, rows["a"].total_count) == (rows["b"].doc_frequency, rows["b"].total_count)
    assert rows["a"].weight == rows["b"].weight
    selected = select_candidates(lexicon, probability, 0.5)  # k = ceil(1.5) = 2 of 3
    assert selected.words == ("a", "b")
    assert selected.tied_at_threshold == 2


def test_export_list_toy(toy_lexicon):
    selected = select_candidates(toy_lexicon, probability_of(toy_lexicon), 0.4)
    assert export_list(selected) == "nok\nolma\n"


def test_export_list_empty():
    empty = StopwordSet(
        fraction=0.05,
        threshold=0.0,
        words=(),
        first_indices=(),
        zero_weight_words=0,
        below_threshold=0,
        tied_at_threshold=0,
    )
    assert export_list(empty) == ""


def test_export_list_line_count():
    selected = select_candidates(*make_lexicon([1 / 12837] * 12837), 0.05)
    text = export_list(selected)
    assert text.count("\n") == 642
    assert text.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.5]), st.integers(1, 3)), min_size=1, max_size=80),
    st.sampled_from(["0.01", "0.05", "0.3", "0.5", "0.99"]),
    st.data(),
)
def test_selection_equals_full_sort_under_ties(rows, fraction, data):
    # few distinct probabilities and counts, so most keys tie until the surface
    order = data.draw(st.permutations(range(len(rows))))
    lexicon, probability = make_lexicon(
        [p for p, _ in rows], counts=[c for _, c in rows], surfaces=[f"w{i:03d}" for i in order]
    )
    ranked = sorted(
        word_rows(lexicon, probability, probability), key=lambda e: (e.probability, e.total_count, e.surface)
    )
    k = candidate_count(lexicon.size, fraction)
    chosen = select_candidates(lexicon, probability, fraction)
    assert chosen.first_indices == tuple(e.first_index for e in ranked[:k])
    assert chosen.words == tuple(e.surface for e in ranked[:k])
    assert chosen.threshold == ranked[k - 1].probability


@st.composite
def permuted_profile_texts(draw) -> list[str]:
    """Documents whose words come in pairs with permuted count vectors.

    A vector such as (1, 0, 3) goes to one word and a permutation of it,
    such as (3, 1, 0), to another: their non-zero counts (1, 3) and (3, 1)
    differ, but they share the count profile (2, 4) and so one probability.
    """
    n_docs = draw(st.integers(2, 4))
    vector = st.lists(st.integers(0, 3), min_size=n_docs, max_size=n_docs).filter(any)
    vectors = []
    for counts in draw(st.lists(vector, min_size=1, max_size=10)):
        vectors += [counts, draw(st.permutations(counts))]
    assume(not all(all(counts) for counts in vectors))  # some weight is not zero
    surfaces = draw(
        st.lists(
            st.text("abcdef", min_size=1, max_size=3),
            min_size=len(vectors),
            max_size=len(vectors),
            unique=True,
        )
    )
    return [
        " ".join(s for s, counts in zip(surfaces, vectors) for _ in range(counts[d]))
        for d in range(n_docs)
    ]


@settings(max_examples=200, deadline=None)
@given(permuted_profile_texts())
@example(["b a a a c", "b b b a", "c"])  # "b" counts (1, 3), "a" (3, 1)
# "a" and "c" count (1, 2), "b" and "d" (2, 1): one group of four words,
# whose first indices interleave
@example(["a b b d d", "a a b c", "c c d e e e"])
# four permutations of the counts (1, 2, 3), in one group
@example(["a b b b d d", "a a b b c c c", "a a a b c d d d", "c c d e"])
def test_selection_ranks_permuted_profiles_together(texts):
    for mode in AveragingMode:
        lexicon = build_lexicon(load_corpus((f"d{d}", text) for d, text in enumerate(texts)))
        weight = apply_weights(lexicon, mode)
        probability = probabilities(lexicon, weight)
        rows = word_rows(lexicon, weight, probability)
        ranked = sorted(rows, key=lambda e: (e.probability, e.total_count, e.surface))
        for k in range(1, lexicon.size):
            chosen = select_candidates(lexicon, probability, Fraction(k, lexicon.size))
            assert chosen.first_indices == tuple(e.first_index for e in ranked[:k])
            assert chosen.words == tuple(e.surface for e in ranked[:k])
            threshold = ranked[k - 1].probability
            assert chosen.threshold == threshold
            assert chosen.zero_weight_words == sum(e.weight == 0.0 for e in rows)
            assert chosen.below_threshold == sum(e.probability < threshold for e in rows)
            assert chosen.tied_at_threshold == sum(e.probability == threshold for e in rows)
