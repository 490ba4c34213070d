"""Selection of the lowest-probability words as stop-word candidates."""

from __future__ import annotations

import heapq
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple

from .errors import DomainError
from .moments import IndexDistribution


class StopwordSet(NamedTuple):
    """The selected candidates by column, sorted ascending by probability.

    The three counts say how decisive the data was: the candidates are the
    ``below_threshold`` words plus ``count - below_threshold`` of the
    ``tied_at_threshold`` words, picked by the tie-break rule alone.
    """

    fraction: float
    threshold: float  # maximum probability among the candidates
    words: tuple[str, ...]  # the candidates' surfaces, decoded
    first_indices: tuple[int, ...]  # their 1-based first indices, which the later stages read
    # words of the lexicon in every document: those whose weight is 0.0, as idf
    # is 0.0 only for m = n and otherwise at least ln(n/(n-1)) > 0
    zero_weight_words: int
    below_threshold: int  # words of the lexicon with probability < threshold
    tied_at_threshold: int  # words of the lexicon with probability == threshold

    @property
    def count(self) -> int:
        return len(self.words)


def _as_fraction(fraction) -> Fraction:
    """The exact Fraction of the decimal ``fraction`` is written as; DomainError when it reads as none."""
    if isinstance(fraction, Fraction):
        return fraction
    if isinstance(fraction, float):
        # str() gives the shortest decimal that round-trips, recovering the
        # decimal the caller wrote (0.05 -> 1/20) instead of the binary float.
        fraction = str(fraction)
    elif not isinstance(fraction, (str, Decimal, int)):
        raise DomainError(f"cannot read {fraction!r} as a selection fraction")
    try:
        return Fraction(fraction)
    except (ValueError, OverflowError) as exc:  # "abc", nan, Decimal("inf")
        raise DomainError(str(exc)) from None


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


def select_candidates(dist: IndexDistribution, fraction=0.05) -> StopwordSet:
    """Pick the ceil(fraction * N) lowest-probability words of a distribution over a lexicon.

    Ties break on lower total term count first, then on the surface form
    that is smaller in code-point order, so reruns always produce the same
    ordered list. The surfaces are compared as their UTF-8 bytes, whose
    order is code-point order, and only the picked words are decoded. The
    threshold reported is the largest probability among the selected words.

    Probability and total count are profile values, so profiles are
    grouped by those values, never by id: distinct profiles may still share
    both (a weight is a rounded float, and a hand-made lexicon's rows are
    arbitrary). Whole groups are taken in ascending order while they fit,
    and only the words of the last group are ranked, by surface. A group's
    words are its profiles' member lists, joined. The distribution has
    checked its column, so no probability is missing or nan.
    """
    frac = _as_fraction(fraction)
    lexicon, probability = dist.lexicon, dist.values
    k = candidate_count(lexicon.size, frac)
    words = list(map(len, lexicon.members))
    groups: dict[tuple[float, int], list[int]] = {}
    for pid, key in enumerate(zip(probability, lexicon.total_count)):
        groups.setdefault(key, []).append(pid)
    keys = sorted(groups)
    sizes = [sum(words[pid] for pid in groups[key]) for key in keys]
    taken = 0  # words in the groups before the last one
    for last, size in enumerate(sizes):  # breaks at the latest on the last group, as k <= N
        if taken + size >= k:
            break
        taken += size

    def positions(key: tuple[float, int]) -> Iterator[int]:
        """The 0-based positions (first index - 1) of a group's words, in no particular order."""
        return map((-1).__add__, chain.from_iterable(lexicon.members[pid] for pid in groups[key]))

    by_surface = lexicon.surfaces.__getitem__
    picked = [position for key in keys[:last] for position in sorted(positions(key), key=by_surface)]
    picked += heapq.nsmallest(k - taken, positions(keys[last]), key=by_surface)
    threshold = keys[last][0]  # the probability of the group it cuts, the last candidate's
    return StopwordSet(
        fraction=float(frac),
        threshold=threshold,
        words=tuple(map(bytes.decode, map(by_surface, picked))),
        first_indices=tuple(position + 1 for position in picked),
        zero_weight_words=sum(n for n, m in zip(words, lexicon.doc_frequency) if m == lexicon.doc_count),
        below_threshold=sum(size for (p, _), size in zip(keys, sizes) if p < threshold),
        tied_at_threshold=sum(size for (p, _), size in zip(keys, sizes) if p == threshold),
    )


def export_list(stopwords: StopwordSet) -> str:
    """The candidates' surface forms, one per line, in ascending probability order.

    Ends with a newline when nonempty; an empty set exports as "".
    """
    return "".join(word + "\n" for word in stopwords.words)
