import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import stoplex.moments
from stoplex import (
    DegenerateDistribution,
    DomainError,
    IndexDistribution,
    Lexicon,
    MomentSummary,
    build_lexicon,
    check_table_consistency,
    density,
    load_corpus,
    moment_summary,
    probabilities,
)

from conftest import distribution, index_probabilities, per_word, probability_of, six_profile_corpus

TOY_P = (0.375, 0.25, 0.375)


def toy_distribution():
    return distribution(TOY_P)


def test_density_copies_probabilities(toy_lexicon):
    dist = density(toy_lexicon, probability_of(toy_lexicon))
    assert tuple(enumerate(index_probabilities(dist), start=1)) == ((1, 0.375), (2, 0.25), (3, 0.375))
    assert dist.lexicon is toy_lexicon


def test_density_requires_probabilities(toy_lexicon):
    probability = probability_of(toy_lexicon)
    for wrong in ((), probability[:1], probability + (0.0,)):
        with pytest.raises(DomainError):
            density(toy_lexicon, wrong)


def test_single_point_density():
    lexicon = build_lexicon(load_corpus([("d1", "olma"), ("d2", "")]))
    dist = density(lexicon, probability_of(lexicon))
    assert tuple(enumerate(index_probabilities(dist), start=1)) == ((1, 1.0),)


def test_distribution_validation():
    with pytest.raises(DomainError):
        distribution(())
    with pytest.raises(DomainError):
        distribution((0.5, -0.5, 1.0))
    with pytest.raises(DomainError):
        distribution((0.5, 0.4))  # sums to 0.9
    with pytest.raises(DomainError):
        distribution((float("nan"), 1.0))


@pytest.mark.parametrize(
    "values",
    [
        (),  # the toy lexicon's two count profiles have no value
        TOY_P,  # three values for two count profiles
    ],
    ids=["group-without-value", "value-without-group"],
)
def test_distribution_rejects_mismatched_groups(toy_lexicon, values):
    with pytest.raises(DomainError):
        IndexDistribution(toy_lexicon, values)


def test_raw_moments_toy():
    s = moment_summary(toy_distribution())
    assert s.raw_moment_1 == pytest.approx(2.0, abs=1e-15)
    assert s.raw_moment_2 == pytest.approx(4.75, abs=1e-15)
    assert s.raw_moment_3 == pytest.approx(12.5, abs=1e-15)


def test_raw_moment_uniform_two_points():
    assert moment_summary(distribution((0.5, 0.5))).raw_moment_2 == 2.5


def test_moment_summary_toy():
    s = moment_summary(toy_distribution())
    assert s.expectation == pytest.approx(2.0, abs=1e-15)
    assert s.dispersion == pytest.approx(0.75, abs=1e-15)
    assert s.std_dev == pytest.approx(0.8660254, abs=5e-8)
    assert s.raw_moment_3 == pytest.approx(12.5, abs=1e-15)
    assert s.third_central_moment == pytest.approx(0.0, abs=1e-15)
    assert s.asymmetry == pytest.approx(0.0, abs=1e-15)


def test_moment_summary_skewed():
    s = moment_summary(distribution((0.6, 0.3, 0.1)))
    assert s.expectation == pytest.approx(1.5, rel=1e-12)
    assert s.dispersion == pytest.approx(0.45, rel=1e-12)
    assert s.std_dev == pytest.approx(0.6708204, abs=5e-8)
    assert s.raw_moment_2 == pytest.approx(2.7, rel=1e-12)
    assert s.raw_moment_3 == pytest.approx(5.7, rel=1e-12)
    assert s.third_central_moment == pytest.approx(0.3, rel=1e-9)
    assert s.asymmetry == pytest.approx(0.9938080, abs=5e-8)


def test_moment_summary_degenerate():
    with pytest.raises(DegenerateDistribution):
        moment_summary(distribution((0.0, 1.0, 0.0)))


def test_moment_summary_sigma_cubed_underflow():
    # D = 1e-300 is positive, but sigma**3 = 1e-450 underflows to 0.0
    with pytest.raises(DegenerateDistribution):
        moment_summary(distribution((1.0, 1e-300)))


def test_internal_identities_hold():
    s = moment_summary(distribution((0.6, 0.3, 0.1)))
    assert s.std_dev == pytest.approx(math.sqrt(s.dispersion), rel=1e-12)
    assert s.dispersion == pytest.approx(s.raw_moment_2 - s.raw_moment_1**2, rel=1e-9)
    assert s.asymmetry == pytest.approx(s.third_central_moment / s.std_dev**3, rel=1e-12)
    assert check_table_consistency(s) == []


# --- table audits: summaries built from externally reported values ---------

# externally reported single-book statistics; sigma^3 was published separately
BOOK_TABLE = MomentSummary(
    expectation=7076.623,
    dispersion=11981425.0,
    std_dev=3461.41,
    raw_moment_1=7076.623,
    raw_moment_2=602060020.0,
    raw_moment_3=598084106956.0,
    third_central_moment=-10667328016.0,
    asymmetry=-0.251,
)
BOOK_SIGMA_CUBED = 414472396507.0

# externally reported whole-corpus statistics: D as printed equals E
CORPUS_TABLE = MomentSummary(
    expectation=23310.74,
    dispersion=23310.74,
    std_dev=13623.72,
    raw_moment_1=23310.74,
    raw_moment_2=728996416.52,
    raw_moment_3=25687931167881.50,
    third_central_moment=41266663785.91,
    asymmetry=0.163,
)
CORPUS_SIGMA_CUBED = 2.52864e12


def test_reported_book_table_flags_misprints():
    flags = check_table_consistency(BOOK_TABLE, sigma_cubed=BOOK_SIGMA_CUBED)
    # the printed E2 and sigma^3 both carry an extra digit
    assert "dispersion" in flags
    assert "std_dev_cubed" in flags
    assert "asymmetry" in flags


def test_reported_book_table_consistent_after_corrections():
    corrected = MomentSummary(
        expectation=BOOK_TABLE.expectation,
        dispersion=BOOK_TABLE.dispersion,
        std_dev=BOOK_TABLE.std_dev,
        raw_moment_1=BOOK_TABLE.raw_moment_1,
        raw_moment_2=62060018.0,  # D + E^2
        raw_moment_3=BOOK_TABLE.raw_moment_3,
        third_central_moment=BOOK_TABLE.third_central_moment,
        asymmetry=BOOK_TABLE.asymmetry,
    )
    flags = check_table_consistency(corrected, sigma_cubed=4.1472e10, rel_tol=1e-3)
    assert "third_central_moment" not in flags
    assert "dispersion" not in flags
    assert "std_dev_cubed" not in flags
    # the printed skew magnitude still disagrees with mu3 / sigma^3
    assert flags == ["asymmetry"]
    recomputed_skew = corrected.third_central_moment / 4.1472e10
    assert recomputed_skew == pytest.approx(-0.257, abs=0.01)


def test_reported_corpus_table_flags_dispersion_column():
    flags = check_table_consistency(CORPUS_TABLE, sigma_cubed=CORPUS_SIGMA_CUBED)
    assert "dispersion" in flags
    assert "std_dev" in flags
    assert "asymmetry" in flags
    # sigma^3 is consistent with sigma here; the D column is the misprint
    assert "std_dev_cubed" not in flags


def test_consistency_passes_for_computed_summaries(toy_lexicon):
    s = moment_summary(density(toy_lexicon, probability_of(toy_lexicon)))
    assert check_table_consistency(s) == []
    assert check_table_consistency(s, sigma_cubed=s.std_dev**3) == []


# --- exact sums against a Fraction oracle ------------------------------------


def exact_moments(probs) -> list[float]:
    """E1, E2, E3 and D of per-index probabilities: exact rationals, rounded once by float().

    D is the central sum about the float E1, as moment_summary defines it.
    """
    points = [(i, Fraction(p)) for i, p in enumerate(probs, start=1) if p]
    e1, e2, e3 = (sum(p * i**k for i, p in points) for k in (1, 2, 3))
    center = Fraction(float(e1))
    dispersion = sum(p * (i - center) ** 2 for i, p in points)
    return [float(value) for value in (e1, e2, e3, dispersion)]


def computed_moments(dist) -> list[float]:
    s = moment_summary(dist)
    return [s.raw_moment_1, s.raw_moment_2, s.raw_moment_3, s.dispersion]


# a few weights, each drawn for many indices, so groups of equal probability
# span scattered indices
weight_pools = st.lists(st.floats(min_value=1e-8, max_value=1e8), min_size=2, max_size=6)


@st.composite
def grouped_weights(draw, max_size=200) -> tuple[list[float], list[int]]:
    """A weight per group, and the group of each index; every group has an index."""
    weights = draw(weight_pools)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(len(weights), max_size))
    groups = list(range(len(weights))) + [rng.randrange(len(weights)) for _ in range(n - len(weights))]
    rng.shuffle(groups)
    return weights, groups


def grouped_lexicon(n_groups: int, groups) -> Lexicon:
    """A lexicon whose word k + 1 has count profile groups[k], one profile per group."""
    return Lexicon(
        surfaces=tuple(f"w{i}" for i in range(len(groups))),
        profile_ids=array("I", groups),
        doc_frequency=(1,) * n_groups,
        total_count=tuple(range(1, n_groups + 1)),
        doc_count=2,
    )


@settings(max_examples=300, deadline=None)
@given(grouped_weights())
@example(([1.0, 3.0], [0, 1, 0, 1, 0]))
@example(([1e-8, 1e8], [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]))  # mass at both ends
@example(([0.1, 0.2, 0.7], [2, 1, 0, 0, 1, 2, 2]))  # decimal weights, inexact in binary
def test_distribution_moments_are_the_exact_sums_rounded_once(case):
    weights, groups = case
    total = math.fsum(weights[g] for g in groups)
    probs = [weights[g] / total for g in groups]
    grouped = IndexDistribution(grouped_lexicon(len(weights), groups), tuple(w / total for w in weights))
    expected = exact_moments(probs)
    for dist in (grouped, distribution(probs)):
        assert computed_moments(dist) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stoplex.moments, "_POWER_SUM_STEP", 3)  # each profile's sums take several steps
            assert computed_moments(dist) == expected


@settings(max_examples=300, deadline=None)
@given(grouped_weights())
@example(([1.0, 2.0], [0, 0, 1, 1]))
@example(([2.0, 2.0, 5.0], [0, 1, 2, 1, 0]))  # two profiles with one probability
@example(([1.0, 3.0], [0, 1, 0, 1, 0]))
@example(([1e-8, 1e8], [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]))  # mass at both ends
@example(([0.1, 0.2, 0.7], [2, 1, 0, 0, 1, 2, 2]))  # decimal weights, inexact in binary
def test_density_moments_are_the_exact_sums_rounded_once(case):
    weights, profile_ids = case
    lexicon = grouped_lexicon(len(weights), profile_ids)
    probability = probabilities(lexicon, tuple(weights))
    dist = density(lexicon, probability)
    expected = exact_moments(per_word(lexicon, probability))
    assert computed_moments(dist) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stoplex.moments, "_POWER_SUM_STEP", 3)  # each profile's sums take several steps
        assert computed_moments(dist) == expected


def test_density_retains_under_one_byte_per_word():
    n_words = 100_000
    lexicon = build_lexicon(six_profile_corpus(n_words))
    probability = probability_of(lexicon)
    tracemalloc.start()
    try:
        dist = density(lexicon, probability)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.lexicon.size == n_words
    # it holds the lexicon and the per-profile probabilities; a per-index
    # tuple of probabilities alone would keep 8 bytes per word
    assert retained / n_words < 1
