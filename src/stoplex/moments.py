"""Moment statistics of the first-appearance index distribution.

The first-appearance index i of each unique word is treated as a discrete
random variable with P(i) = p_i, one probability per count profile of a
lexicon (the words with one doc frequency and one total count). Its sums
are exact: each profile's probability is m / 2**s with one power of two
2**s for all profiles (float.as_integer_ratio). So with X_k the integer sum
over profiles of m times the profile's exact sum of i**k, E_k = sum of
p_i * i**k is X_k / 2**s, one correctly rounded int/int division. The
dispersion, the central sum of p_i * (i - E1)**2 about the float E1 = a/b,
is by linearity (b*b*X2 - 2*a*b*X1 + a*a*X0) / (2**s * b*b), so it is also
correctly rounded and never negative. The third central moment uses the
raw-moment identity E3 - 3*E1*E2 + 2*E1**3. None of it depends on the
order of the profiles.
"""

from __future__ import annotations

import math
from array import array
from operator import mul
from typing import NamedTuple, Sequence

from .corpus import Lexicon, _check_profile_column
from .errors import DegenerateDistribution, DomainError

#: |asymmetry| at or below this counts as zero for verdict purposes.
ZERO_SKEW_EPS = 1e-9


def _dyadic(values: Sequence[float]) -> tuple[list[int], int]:
    """Integers m and one power of two d with values[g] == m[g] / d exactly, for finite floats.

    So sum(c[g] * values[g]) for integers c is exactly sum(c[g] * m[g]) / d,
    and Python's int / int rounds that quotient correctly.
    """
    ratios = [value.as_integer_ratio() for value in values]
    scale = max((d for _, d in ratios), default=1)  # every d is a power of two, so it divides scale
    return [m * (scale // d) for m, d in ratios], scale


def _word_sum(lexicon: Lexicon, values: Sequence[float]) -> float:
    """The exact sum over the lexicon's words of their profile's value in ``values``, rounded once."""
    scaled, scale = _dyadic(values)
    return sum(map(mul, scaled, map(len, lexicon.members))) / scale


class _IndexDistributionFields(NamedTuple):
    lexicon: Lexicon
    values: tuple[float, ...]


class IndexDistribution(_IndexDistributionFields):
    """Probabilities for a lexicon's first indices 1..N, one per count profile.

    Index i has probability ``values[lexicon.profile_ids[i - 1]]``; profile
    p's indices are ``lexicon.members[p]``. Profiles may share a value.
    Raises DomainError, on construction and on _replace, unless the lexicon
    has at least one word, there is one value per profile, every value is
    finite and >= 0, and the exact total is within 1e-12 of 1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace's path: check again

    def __new__(cls, lexicon, values):
        if not lexicon.surfaces:
            raise DomainError("a distribution needs at least one word")
        _check_profile_column(lexicon, values, "probability")
        for p in values:
            if not (math.isfinite(p) and p >= 0.0):
                raise DomainError(f"probabilities must be finite and >= 0, got {p!r}")
        total = _word_sum(lexicon, values)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {total!r}, not 1")
        return super().__new__(cls, lexicon, values)


class MomentSummary(NamedTuple):
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


def density(lexicon: Lexicon, probability: Sequence[float]) -> IndexDistribution:
    """Index distribution of a lexicon's words from its count profiles' probabilities.

    It holds the lexicon and the column, so it takes one step per profile,
    not per word.
    """
    return IndexDistribution(lexicon, probability)


# indices per step of _power_sums: it holds two lists of Python ints (about 40
# bytes per index) for one step, as a whole profile's would raise a run's peak memory
_POWER_SUM_STEP = 4096


def _power_sums(scaled: Sequence[int], members: Sequence[array]) -> tuple[int, int, int, int]:
    """X_k for k = 0..3: the sum over profiles p of scaled[p] times the exact sum of i**k over p's indices.

    The members partition 1..N, so X_k is scaled[L] times the closed-form sum over 1..N, L the largest
    profile, plus (scaled[p] - scaled[L]) times p's sum for every other p; L's indices are not walked.
    """
    n = sum(map(len, members))
    base = max(zip(map(len, members), scaled), default=(0, 0))[1]
    t1 = n * (n + 1) // 2
    x0, x1, x2, x3 = base * n, base * t1, base * (t1 * (2 * n + 1) // 3), base * t1 * t1
    for m, indices in zip(scaled, members):
        if m := m - base:
            x0 += m * len(indices)
            for start in range(0, len(indices), _POWER_SUM_STEP):
                i = indices[start:start + _POWER_SUM_STEP].tolist()
                squares = list(map(mul, i, i))
                x1 += m * sum(i)
                x2 += m * sum(squares)
                x3 += m * sum(map(mul, squares, i))
    return x0, x1, x2, x3


def moment_summary(dist: IndexDistribution) -> MomentSummary:
    """Expectation, dispersion, raw moments, third central moment, skew.

    E1, E2, E3 and the dispersion are the exact sums, correctly rounded.
    Zero dispersion, or a sigma**3 that underflows to zero, raises
    DegenerateDistribution: the asymmetry is undefined there and downstream
    verdicts need a real number.
    """
    scaled, scale = _dyadic(dist.values)
    x0, x1, x2, x3 = _power_sums(scaled, dist.lexicon.members)
    e1, e2, e3 = x1 / scale, x2 / scale, x3 / scale
    # the sum of p_i * (i - a/b)**2 is the sum of m_i * (b*i - a)**2 over scale * b**2
    a, b = e1.as_integer_ratio()
    dispersion = (b * b * x2 - 2 * a * b * x1 + a * a * x0) / (scale * b * b)
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
