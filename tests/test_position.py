import math

import pytest

from stoplex import (
    Decision,
    DegenerateDistribution,
    DomainError,
    Location,
    MomentSummary,
    NonFinite,
    Side,
    classify_side,
    format_percent,
    hypothesis_decision,
    interval_coverage,
    location_verdict,
    z_score,
)


def summary_with(expectation: float, std_dev: float) -> MomentSummary:
    return MomentSummary(
        expectation=expectation,
        dispersion=std_dev**2,
        std_dev=std_dev,
        raw_moment_1=expectation,
        raw_moment_2=std_dev**2 + expectation**2,
        raw_moment_3=0.0,
        third_central_moment=0.0,
        asymmetry=0.0,
    )


# --- interval coverage ------------------------------------------------------

def test_coverage_full_scale_arithmetic():
    # 545 left, 91 inside, 6 right out of 642
    indices = [100] * 545 + [7000] * 91 + [12000] * 6
    report = interval_coverage(indices, summary_with(7076.62, 3461.419))
    assert (report.left_count, report.inside_count, report.right_count) == (545, 91, 6)
    assert report.outside_fraction == pytest.approx(551 / 642, rel=1e-12)
    assert report.outside_fraction == pytest.approx(0.8583, abs=5e-4)
    assert format_percent(report.outside_fraction) == "85.8%"


def test_coverage_boundaries_count_outside():
    report = interval_coverage([1, 5, 9], summary_with(5.0, 2.0))
    assert (report.left_count, report.inside_count, report.right_count) == (1, 1, 1)
    assert report.outside_fraction == pytest.approx(2 / 3)
    # i = 3 sits exactly on E - sigma and counts as left; i = 7 as right
    edge = interval_coverage([3, 7], summary_with(5.0, 2.0))
    assert (edge.left_count, edge.inside_count, edge.right_count) == (1, 0, 1)


def test_coverage_all_at_expectation():
    report = interval_coverage([5, 5, 5], summary_with(5.0, 2.0))
    assert (report.left_count, report.inside_count, report.right_count) == (0, 3, 0)
    assert report.outside_fraction == 0.0


def test_coverage_symmetric_placement_balances():
    # candidates placed symmetrically about E land equally on both sides
    report = interval_coverage([1, 2, 8, 9, 5], summary_with(5.0, 2.0))
    assert report.left_count == report.right_count == 2
    assert report.inside_count == 1


def test_coverage_degenerate_sigma():
    with pytest.raises(DegenerateDistribution):
        interval_coverage([1], summary_with(5.0, 0.0))


def test_coverage_needs_candidates():
    with pytest.raises(DomainError):
        interval_coverage([], summary_with(5.0, 2.0))


# --- z score ----------------------------------------------------------------

def test_z_score_reference_checkpoint():
    z = z_score(12837, 6419, 7076.62, 3461.419)
    assert z == pytest.approx(-21.526, abs=0.005)


def test_z_score_zero_at_expectation():
    assert z_score(100, 50.0, 50.0, 3.0) == 0.0


def test_z_score_direct():
    assert z_score(100, 55.0, 50.0, 10.0) == pytest.approx(5.0, rel=1e-12)


def test_z_score_domain():
    with pytest.raises(DomainError):
        z_score(0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateDistribution):
        z_score(10, 1.0, 1.0, 0.0)


def test_z_score_antisymmetric():
    e, sigma, n = 50.0, 10.0, 64
    for delta in (0.5, 3.0, 12.25):
        assert z_score(n, e + delta, e, sigma) == pytest.approx(
            -z_score(n, e - delta, e, sigma), rel=1e-12
        )


# --- hypothesis decision ----------------------------------------------------

def test_decision_reference_inputs_reject():
    # X-bar 6419 lies inside (3615.2, 10538.0), so H0 is rejected even
    # though |Z| is huge
    result = hypothesis_decision(12837, 6419.0, summary_with(7076.62, 3461.419))
    assert result.xbar_side is Side.INSIDE
    assert abs(result.z) == pytest.approx(21.526, abs=0.005)
    assert result.decision is Decision.REJECT_H0


def test_decision_at_expectation():
    result = hypothesis_decision(100, 50.0, summary_with(50.0, 5.0))
    assert result.z == 0.0
    assert result.xbar_side is Side.INSIDE
    assert result.decision is Decision.REJECT_H0


def test_decision_retains_when_far_left():
    result = hypothesis_decision(10000, 1000.0, summary_with(7000.0, 3000.0))
    assert result.xbar_side is Side.LEFT
    assert result.z == pytest.approx(-200.0, rel=1e-12)
    assert result.decision is Decision.RETAIN_H0


def test_decision_outside_but_small_z():
    # sample mean outside the interval but |Z| below critical: reject
    result = hypothesis_decision(1, 3.0, summary_with(5.0, 2.0))
    assert result.xbar_side is Side.LEFT
    assert abs(result.z) == 1.0
    assert result.decision is Decision.REJECT_H0


def test_decision_respects_critical_value():
    strict = hypothesis_decision(10000, 1000.0, summary_with(7000.0, 3000.0), critical=500.0)
    assert strict.decision is Decision.REJECT_H0
    with pytest.raises(DomainError):
        hypothesis_decision(100, 1.0, summary_with(5.0, 2.0), critical=0.0)


def test_result_echoes_inputs():
    result = hypothesis_decision(100, 55.0, summary_with(50.0, 10.0), critical=2.5)
    assert result.n_unique == 100
    assert result.sample_mean == 55.0
    assert result.critical == 2.5


# --- classify_side ----------------------------------------------------------

def test_classify_side_trichotomy():
    assert classify_side(2.9, 5.0, 2.0) is Side.LEFT
    assert classify_side(3.0, 5.0, 2.0) is Side.LEFT
    assert classify_side(3.1, 5.0, 2.0) is Side.INSIDE
    assert classify_side(6.9, 5.0, 2.0) is Side.INSIDE
    assert classify_side(7.0, 5.0, 2.0) is Side.RIGHT
    assert classify_side(7.1, 5.0, 2.0) is Side.RIGHT


# --- location verdict -------------------------------------------------------

def test_verdict_negative_skew_means_beginning():
    verdict = location_verdict(-0.251)
    assert verdict.location is Location.BEGINNING
    assert verdict.asymmetry == -0.251


def test_verdict_positive_skew_means_end():
    assert location_verdict(0.163).location is Location.END


def test_verdict_zero_means_both_ends():
    assert location_verdict(0.0).location is Location.BOTH_ENDS


def test_verdict_epsilon_band():
    assert location_verdict(5e-10).location is Location.BOTH_ENDS
    assert location_verdict(-5e-10).location is Location.BOTH_ENDS
    assert location_verdict(2e-9).location is Location.END
    assert location_verdict(-2e-9).location is Location.BEGINNING


def test_verdict_mirror():
    for value in (1e-6, 0.01, 0.251, 3.0):
        assert location_verdict(value).location is Location.END
        assert location_verdict(-value).location is Location.BEGINNING


def test_verdict_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFinite):
            location_verdict(bad)
