"""Where the stop-word candidates sit relative to (E - sigma, E + sigma).

Covers three views: per-candidate interval coverage counts, a Z-score
test of the sample mean against the distribution mean, and the verdict
mapping the sign of the asymmetry to a text position (negative skew puts
the candidate mass at the beginning, positive at the end, zero at both
ends).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import DegenerateDistribution, DomainError, NonFinite
from .moments import ZERO_SKEW_EPS, MomentSummary


class Side(str, Enum):
    LEFT = "Left"
    INSIDE = "Inside"
    RIGHT = "Right"


class Decision(str, Enum):
    RETAIN_H0 = "RetainH0"
    REJECT_H0 = "RejectH0"


class Location(str, Enum):
    BEGINNING = "Beginning"
    END = "End"
    BOTH_ENDS = "BothEnds"


class CoverageReport(NamedTuple):
    """Candidate counts by side of the open interval (E - sigma, E + sigma)."""

    left_count: int
    inside_count: int
    right_count: int

    @property
    def total(self) -> int:
        return self.left_count + self.inside_count + self.right_count

    @property
    def outside_fraction(self) -> float:
        return (self.left_count + self.right_count) / self.total


class ZTestResult(NamedTuple):
    n_unique: int
    sample_mean: float
    z: float
    critical: float
    xbar_side: Side
    decision: Decision


class LocationVerdict(NamedTuple):
    location: Location
    asymmetry: float


def classify_side(value: float, expectation: float, std_dev: float) -> Side:
    """Side of the open interval (E - sigma, E + sigma); bounds count as outside."""
    if value <= expectation - std_dev:
        return Side.LEFT
    if value >= expectation + std_dev:
        return Side.RIGHT
    return Side.INSIDE


def interval_coverage(first_indices: Sequence[int], summary: MomentSummary) -> CoverageReport:
    """Classify the candidates' first indices against (E - sigma, E + sigma)."""
    if summary.std_dev <= 0.0:
        raise DegenerateDistribution("zero standard deviation: interval is empty")
    if not first_indices:
        raise DomainError("coverage needs at least one candidate")
    left = inside = right = 0
    for index in first_indices:
        side = classify_side(index, summary.expectation, summary.std_dev)
        if side is Side.LEFT:
            left += 1
        elif side is Side.RIGHT:
            right += 1
        else:
            inside += 1
    return CoverageReport(left, inside, right)


def z_score(n_unique: int, sample_mean: float, expectation: float, std_dev: float) -> float:
    """(sample_mean - expectation) / (std_dev / sqrt(n_unique)), unrounded."""
    if n_unique < 1:
        raise DomainError(f"n_unique must be >= 1, got {n_unique}")
    if std_dev <= 0.0:
        raise DegenerateDistribution("zero standard deviation: Z undefined")
    return (sample_mean - expectation) / (std_dev / math.sqrt(n_unique))


def hypothesis_decision(
    n_unique: int,
    sample_mean: float,
    summary: MomentSummary,
    critical: float = 1.96,
) -> ZTestResult:
    """Z test for H0 "the candidates sit outside (E - sigma, E + sigma)".

    H0 is retained when the sample mean itself falls outside the interval
    and |Z| reaches the critical value; otherwise H0 is rejected. All raw
    quantities are echoed in the result so callers can apply a different
    rule.
    """
    if not (critical > 0.0):
        raise DomainError(f"critical value must be > 0, got {critical!r}")
    z = z_score(n_unique, sample_mean, summary.expectation, summary.std_dev)
    side = classify_side(sample_mean, summary.expectation, summary.std_dev)
    if side is not Side.INSIDE and abs(z) >= critical:
        decision = Decision.RETAIN_H0
    else:
        decision = Decision.REJECT_H0
    return ZTestResult(
        n_unique=n_unique,
        sample_mean=sample_mean,
        z=z,
        critical=critical,
        xbar_side=side,
        decision=decision,
    )


def location_verdict(asymmetry: float) -> LocationVerdict:
    """Map the skew sign to where the candidate mass concentrates.

    |asymmetry| within ZERO_SKEW_EPS counts as zero, since an exact
    floating-point zero is a measure-zero event.
    """
    if not math.isfinite(asymmetry):
        raise NonFinite(f"asymmetry must be finite, got {asymmetry!r}")
    if asymmetry < -ZERO_SKEW_EPS:
        location = Location.BEGINNING
    elif asymmetry > ZERO_SKEW_EPS:
        location = Location.END
    else:
        location = Location.BOTH_ENDS
    return LocationVerdict(location, asymmetry)
