import itertools
import math
import random
from array import array
from dataclasses import replace
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stoplex import (
    AllZeroWeights,
    AveragingMode,
    DomainError,
    Lexicon,
    apply_weights,
    build_lexicon,
    inverse_document_frequency,
    load_corpus,
    probabilities,
)
from stoplex.moments import _dyadic

from conftest import per_word, word_rows

LN_3_OVER_2 = math.log(3 / 2)


def test_idf_values():
    assert inverse_document_frequency(3, 2) == pytest.approx(0.4054651, abs=5e-8)
    assert inverse_document_frequency(25, 25) == 0.0
    assert inverse_document_frequency(25, 1) == pytest.approx(3.2188758, abs=5e-8)


def test_idf_domain_errors():
    with pytest.raises(DomainError):
        inverse_document_frequency(3, 0)
    with pytest.raises(DomainError):
        inverse_document_frequency(3, 4)
    with pytest.raises(DomainError):
        inverse_document_frequency(0, 0)


def test_toy_weights(toy_lexicon):
    weight = apply_weights(toy_lexicon)
    rows = word_rows(toy_lexicon, weight, probabilities(toy_lexicon, weight))
    by_surface = {e.surface: e for e in rows}
    assert by_surface["olma"].weight == pytest.approx(0.4054651, abs=5e-8)
    assert by_surface["nok"].weight == pytest.approx(0.2703101, abs=5e-8)
    assert by_surface["uzum"].weight == pytest.approx(0.4054651, abs=5e-8)
    assert all(e.idf == pytest.approx(LN_3_OVER_2) for e in rows)


def test_weight_zero_iff_in_every_document():
    corpus = load_corpus([("d1", "a b"), ("d2", "a"), ("d3", "a b b")])
    lexicon = build_lexicon(corpus)
    weight = apply_weights(lexicon)
    by_surface = {e.surface: e for e in word_rows(lexicon, weight, probabilities(lexicon, weight))}
    assert by_surface["a"].idf == 0.0
    assert by_surface["a"].weight == 0.0
    assert by_surface["b"].weight > 0.0


def test_apply_weights_rejects_doc_frequency_above_doc_count(toy_lexicon):
    # every toy word occurs in 2 documents, which a 1-document lexicon cannot hold
    lexicon = replace(toy_lexicon, doc_count=1)
    with pytest.raises(DomainError):
        apply_weights(lexicon)


def test_containing_docs_mode(toy_lexicon):
    # same totals, but divided by m=2 instead of n=3
    weight = apply_weights(toy_lexicon, AveragingMode.CONTAINING_DOCS)
    by_surface = dict(zip(toy_lexicon.surfaces, per_word(toy_lexicon, weight)))
    assert by_surface["olma"] == pytest.approx(3 * LN_3_OVER_2 / 2)
    assert by_surface["nok"] == pytest.approx(2 * LN_3_OVER_2 / 2)


def test_mode_accepts_strings(toy_lexicon):
    assert apply_weights(toy_lexicon, "all") == apply_weights(toy_lexicon)


def test_toy_probabilities(toy_lexicon):
    probability = per_word(toy_lexicon, probabilities(toy_lexicon, apply_weights(toy_lexicon)))
    assert list(probability) == pytest.approx([0.375, 0.25, 0.375], abs=1e-15)
    assert math.fsum(probability) == pytest.approx(1.0, abs=1e-12)
    assert [e.first_index for e in toy_lexicon.entries] == [1, 2, 3]


def test_single_word_probability():
    lexicon = build_lexicon(load_corpus([("d1", "olma"), ("d2", "")]))
    assert list(per_word(lexicon, probabilities(lexicon, apply_weights(lexicon)))) == [1.0]


def test_equal_weights_split_evenly():
    corpus = load_corpus([("d1", "olma"), ("d2", "nok")])
    lexicon = build_lexicon(corpus)
    assert list(per_word(lexicon, probabilities(lexicon, apply_weights(lexicon)))) == pytest.approx([0.5, 0.5])


def test_all_zero_weights():
    corpus = load_corpus([("d1", "a b"), ("d2", "b a a")])
    lexicon = build_lexicon(corpus)
    with pytest.raises(AllZeroWeights):
        probabilities(lexicon, apply_weights(lexicon))


def test_probabilities_require_weights(toy_lexicon):
    weight = apply_weights(toy_lexicon)
    for wrong in ((), weight[:1], weight + (1.0,)):
        with pytest.raises(DomainError, match="weight"):
            probabilities(toy_lexicon, wrong)


def test_weight_monotone_in_total_count():
    # fixed idf (same m, n), increasing totals
    corpus = load_corpus([("d1", "a a a b c c"), ("d2", "x")])
    lexicon = build_lexicon(corpus)
    by_surface = dict(zip(lexicon.surfaces, per_word(lexicon, apply_weights(lexicon))))
    assert by_surface["b"] < by_surface["c"] < by_surface["a"]


@pytest.mark.parametrize("mode", list(AveragingMode))
def test_entries_share_floats_per_count_profile(mode):
    # 12 hapax words per document, all with the profile (1, 1), plus a few others
    hapax = ["".join(word) for word in itertools.product("xyz", "klmn")]
    extras = (["olma", "nok", "uzum"] * 3, ["olma", "nok"], ["olma"], ["olma", "olma"])
    texts = [
        (f"d{doc}", " ".join([word + doc for word in hapax] + extra))
        for doc, extra in zip("abcd", extras)
    ]
    lexicon = build_lexicon(load_corpus(texts))
    weight = apply_weights(lexicon, mode)
    rows = word_rows(lexicon, weight, probabilities(lexicon, weight))
    profiles = {(e.doc_frequency, e.total_count) for e in rows}
    assert len(profiles) == len(lexicon.total_count) == 4 < lexicon.size == 51
    assert len({id(e.weight) for e in rows}) == len(profiles)
    assert len({id(e.probability) for e in rows}) == len(profiles)


# --- the normalizing total: exact per profile, equal to fsum over every word ---

SUBNORMAL_AND_EXTREME = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 0.1, 1e300]
profile_weights = st.lists(
    st.one_of(st.sampled_from(SUBNORMAL_AND_EXTREME), st.floats(min_value=0.0, max_value=1e300)),
    min_size=1,
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(profile_weights, st.integers(0, 2**32 - 1))
@example([1e300, 1.0, 1e-300], 0)
@example([5e-324, 5e-324, 1e-310], 1)  # subnormal only
@example([0.1, 0.2, 0.3], 2)  # decimal weights whose fsum differs from a plain sum
def test_probability_total_is_fsum_over_every_word(weights, seed):
    rng = random.Random(seed)
    profile_ids = list(range(len(weights))) + [rng.randrange(len(weights)) for _ in range(rng.randrange(200))]
    rng.shuffle(profile_ids)
    expanded = [weights[pid] for pid in profile_ids]
    total = math.fsum(expanded)
    assume(total > 0.0)
    lexicon = Lexicon(
        surfaces=tuple(f"w{i}" for i in range(len(profile_ids))),
        profile_ids=array("I", profile_ids),
        doc_frequency=(1,) * len(weights),
        total_count=tuple(range(1, len(weights) + 1)),
        doc_count=2,
    )
    # the total as probabilities computes it, bit for bit
    scaled, scale = _dyadic(weights)
    exact = sum(map(mul, scaled, map(len, lexicon.members))) / scale
    assert exact.hex() == total.hex()
    assert probabilities(lexicon, tuple(weights)) == tuple(w / total for w in weights)
