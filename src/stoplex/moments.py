"""Moment statistics of the first-appearance index distribution.

The first-appearance index i of each unique word is treated as a discrete
random variable with P(i) = p_i. Dispersion uses the direct central sum,
which is better conditioned than E2 - E1**2 at large N; the third central
moment uses the raw-moment identity E3 - 3*E1*E2 + 2*E1**3. All sums run
in ascending index order through math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Lexicon
from .errors import DegenerateDistribution, DomainError

#: |asymmetry| at or below this counts as zero for verdict purposes.
ZERO_SKEW_EPS = 1e-9


@dataclass(frozen=True)
class IndexDistribution:
    """Probabilities for indices 1..N, in index order."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise DomainError("a distribution needs at least one point")
        for p in probs:
            if not (math.isfinite(p) and p >= 0.0):
                raise DomainError(f"probabilities must be finite and >= 0, got {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total!r}, not 1")

    @property
    def size(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class MomentSummary:
    """Summary statistics of an index distribution.

    Plain record: it may also hold values copied from an external report,
    so no internal consistency is enforced here (see
    check_table_consistency).
    """

    expectation: float
    dispersion: float
    std_dev: float
    raw_moment_1: float
    raw_moment_2: float
    raw_moment_3: float
    third_central_moment: float
    asymmetry: float


def density(lexicon: Lexicon) -> IndexDistribution:
    """Index distribution of a lexicon with probabilities filled in."""
    probability = lexicon.column("probability")
    return IndexDistribution(tuple(map(probability.__getitem__, lexicon.profile_ids)))


def raw_moment(dist: IndexDistribution, k: int) -> float:
    """k-th raw moment, sum of p_i * i**k, for k in 1..3."""
    if k not in (1, 2, 3):
        raise DomainError(f"raw moment order must be 1, 2 or 3, got {k}")
    return math.fsum(p * i**k for i, p in enumerate(dist.probabilities, start=1))


def moment_summary(dist: IndexDistribution) -> MomentSummary:
    """Expectation, dispersion, raw moments, third central moment, skew.

    Zero dispersion, or a sigma**3 that underflows to zero, raises
    DegenerateDistribution: the asymmetry is undefined there and downstream
    verdicts need a real number.
    """
    e1 = raw_moment(dist, 1)
    e2 = raw_moment(dist, 2)
    e3 = raw_moment(dist, 3)
    dispersion = math.fsum(p * (i - e1) ** 2 for i, p in enumerate(dist.probabilities, start=1))
    sigma = math.sqrt(dispersion)
    if sigma**3 == 0.0:  # zero dispersion, or one so small that sigma**3 underflows
        raise DegenerateDistribution(f"sigma**3 is zero at dispersion {dispersion!r}: asymmetry undefined")
    mu3 = e3 - 3.0 * e1 * e2 + 2.0 * e1**3
    return MomentSummary(
        expectation=e1,
        dispersion=dispersion,
        std_dev=sigma,
        raw_moment_1=e1,
        raw_moment_2=e2,
        raw_moment_3=e3,
        third_central_moment=mu3,
        asymmetry=mu3 / sigma**3,
    )


def check_table_consistency(
    summary: MomentSummary,
    *,
    sigma_cubed: float | None = None,
    rel_tol: float = 1e-6,
) -> list[str]:
    """Names of the internal identities a summary violates.

    Meant for auditing externally reported statistics tables, where single
    cells may be misprinted. Five identities are evaluated at the given
    relative tolerance:

    - "dispersion":           D  = E2 - E1**2
    - "std_dev":              sigma = sqrt(D)
    - "std_dev_cubed":        reported sigma**3 matches sigma cubed
                              (checked only when sigma_cubed is given)
    - "third_central_moment": mu3 = E3 - 3*E1*E2 + 2*E1**3
    - "asymmetry":            A = mu3 / sigma**3

    The asymmetry check uses the reported sigma_cubed when given, else the
    cube of the reported sigma.
    """

    def agrees(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)

    s = summary
    violated: list[str] = []
    if not agrees(s.dispersion, s.raw_moment_2 - s.raw_moment_1**2):
        violated.append("dispersion")
    if s.dispersion < 0.0 or not agrees(s.std_dev, math.sqrt(max(s.dispersion, 0.0))):
        violated.append("std_dev")
    if sigma_cubed is not None and not agrees(sigma_cubed, s.std_dev**3):
        violated.append("std_dev_cubed")
    mu3_identity = s.raw_moment_3 - 3.0 * s.raw_moment_1 * s.raw_moment_2 + 2.0 * s.raw_moment_1**3
    if not agrees(s.third_central_moment, mu3_identity):
        violated.append("third_central_moment")
    cube = sigma_cubed if sigma_cubed is not None else s.std_dev**3
    if cube == 0.0 or not agrees(s.asymmetry, s.third_central_moment / cube):
        violated.append("asymmetry")
    return violated
