"""Selection of the lowest-probability words as stop-word candidates."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .corpus import Lexicon, WordEntry
from .errors import DomainError


@dataclass(frozen=True)
class StopwordSet:
    """The selected candidates, sorted ascending by probability."""

    fraction: float
    threshold: float  # maximum probability among the candidates
    candidates: tuple[WordEntry, ...]

    @property
    def count(self) -> int:
        return len(self.candidates)


def _as_fraction(fraction) -> Fraction:
    if isinstance(fraction, Fraction):
        return fraction
    if isinstance(fraction, (str, Decimal, int)):
        return Fraction(fraction)
    if isinstance(fraction, float):
        # str() gives the shortest decimal that round-trips, recovering the
        # decimal the caller wrote (0.05 -> 1/20) instead of the binary float.
        return Fraction(str(fraction))
    raise DomainError(f"cannot read {fraction!r} as a selection fraction")


def candidate_count(size: int, fraction) -> int:
    """ceil(fraction * size) with fraction interpreted as a decimal number.

    Exact rational arithmetic, so 5% of 20 words is exactly 1 while 5% of
    12837 is 641.85 and rounds up to 642. Ceiling on the binary float
    product would overshoot whenever the decimal is not representable.
    """
    frac = _as_fraction(fraction)
    if not 0 < frac < 1:
        raise DomainError(f"selection fraction must lie in (0, 1), got {fraction!r}")
    if size < 1:
        raise DomainError("lexicon must contain at least one word")
    numerator = frac.numerator * size
    return -((-numerator) // frac.denominator)


def select_candidates(lexicon: Lexicon, fraction=0.05) -> StopwordSet:
    """Pick the ceil(fraction * N) lowest-probability words.

    Ties break on lower total term count first, then on the
    lexicographically smaller surface form, so reruns always produce the
    same ordered list. The threshold reported is the largest probability
    among the selected words.
    """
    k = candidate_count(lexicon.size, fraction)
    for entry in lexicon.entries:
        if entry.probability is None:
            raise DomainError(f"entry {entry.surface!r} has no probability")
    chosen = tuple(
        heapq.nsmallest(k, lexicon.entries, key=lambda e: (e.probability, e.total_count, e.surface))
    )
    return StopwordSet(
        fraction=float(_as_fraction(fraction)),
        threshold=chosen[-1].probability,
        candidates=chosen,
    )


def export_list(stopwords: StopwordSet) -> str:
    """One surface form per line in ascending probability order.

    Ends with a newline when nonempty; an empty set exports as "".
    """
    return "".join(entry.surface + "\n" for entry in stopwords.candidates)
