"""Minimal deterministic SVG scatter plots.

Built by string assembly instead of a plotting package so the output
carries no timestamps, random ids or library version strings: two runs on
the same data are byte-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .moments import IndexDistribution, MomentSummary

_WIDTH = 800
_HEIGHT = 500
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 28, 56

_POINT_COLOR = "#4878a8"
_CANDIDATE_COLOR = "#e07a28"
_REF_COLOR = "#777777"
_AXIS_COLOR = "#222222"


class _Frame:
    """Maps data coordinates onto the fixed pixel viewport."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, max(x_hi, x_lo + 1e-9)
        self.y_lo, self.y_hi = y_lo, max(y_hi, y_lo + 1e-9)
        self.px_lo, self.px_hi = _LEFT, _WIDTH - _RIGHT
        self.py_lo, self.py_hi = _HEIGHT - _BOTTOM, _TOP

    def x(self, v: float) -> float:
        t = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.px_lo + t * (self.px_hi - self.px_lo)

    def y(self, v: float) -> float:
        t = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.py_lo + t * (self.py_hi - self.py_lo)

    def clamp_x(self, v: float) -> float:
        return min(max(v, self.x_lo), self.x_hi)


def _frame(n: int, y_max: float) -> _Frame:
    """The frame for x in 1..n; y runs from 0 to 5% above ``y_max``, or to 1 when it is 0."""
    return _Frame(0.5, n + 0.5, 0.0, y_max * 1.05 if y_max > 0 else 1.0)


def _columns(frame: _Frame, start: int, stop: int) -> Iterator[tuple[int, int]]:
    """Ranges (first, end) that split x in start..stop-1, in order, each inside one pixel column.

    round(frame.x(i)) never decreases as i grows: each float step in
    _Frame.x (subtracting, dividing and multiplying by positive numbers,
    adding) is monotone, and so is round. So each column's x values are
    contiguous, and bisect finds where a column ends. It looks at most one
    column's width ahead (a wider column is split), so a range costs about
    log2 of that width calls of frame.x, not one per value.
    """
    width = int((frame.x_hi - frame.x_lo) / (frame.px_hi - frame.px_lo)) + 2

    def column(i: int) -> int:
        return round(frame.x(i))

    while start < stop:
        end = bisect_right(range(stop), column(start), start + 1, min(stop, start + width), key=column)
        yield start, end
        start = end


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:.3g}"


def _circles(
    frame: _Frame, points: Iterable[tuple[float, float]], cls: str, radius: int, fill: str
) -> list[str]:
    """One circle per pixel for a class's (x, y) data points, in the given order.

    A point whose centre rounds to a pixel this class has already drawn is
    skipped: the canvas cannot show it. Drawn points keep their exact
    coordinates.
    """
    drawn: set[tuple[int, int]] = set()
    parts = []
    for x, y in points:
        cx, cy = frame.x(x), frame.y(y)
        pixel = (round(cx), round(cy))
        if pixel not in drawn:
            drawn.add(pixel)
            parts.append(
                f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{radius}" fill="{fill}"/>'
            )
    return parts


def _scatter(
    title: str, x_label: str, frame: _Frame,
    words: Iterable[tuple[float, float]], stopwords: Iterable[tuple[float, float]], stopword_radius: int,
    markers: Iterable[tuple[str, float, str]],
) -> str:
    """Probability against x in ``frame``: word points, stopword points on top, then markers.

    Each (class, x, label) marker is a dashed vertical line at x, clamped
    into the x range, with its label above the plot.
    """
    x0, x1 = frame.px_lo, frame.px_hi
    y0, y1 = frame.py_lo, frame.py_hi
    mid_x = (x0 + x1) / 2
    mid_y = (y0 + y1) / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<title>{title}</title>\n'
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>\n',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="{_AXIS_COLOR}"/>',
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{_AXIS_COLOR}"/>',
        f'<text class="axis-label" x="{_fmt(mid_x)}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text class="axis-label" x="18" y="{_fmt(mid_y)}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 18 {_fmt(mid_y)})">probability</text>',
        # tick labels at the data extremes
        f'<text class="tick" x="{x0}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
        f'{_tick(frame.x_lo)}</text>',
        f'<text class="tick" x="{x1}" y="{y0 + 18}" text-anchor="middle" font-size="11">'
        f'{_tick(frame.x_hi)}</text>',
        f'<text class="tick" x="{x0 - 6}" y="{y0 + 4}" text-anchor="end" font-size="11">'
        f'{_tick(frame.y_lo)}</text>',
        f'<text class="tick" x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="11">'
        f'{_tick(frame.y_hi)}</text>',
        *_circles(frame, words, "word", 2, _POINT_COLOR),
        *_circles(frame, stopwords, "stopword", stopword_radius, _CANDIDATE_COLOR),
    ]
    for cls, value, label in markers:
        px = _fmt(frame.x(frame.clamp_x(value)))
        parts.append(
            f'<line class="{cls}" x1="{px}" y1="{y1}" x2="{px}" y2="{y0}" '
            f'stroke="{_REF_COLOR}" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text class="ref-label" x="{px}" y="{_TOP - 8}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def _first_of_each_value(
    frame: _Frame, dist: IndexDistribution, skip: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """(index, probability) of the first index of each distinct probability in each pixel column.

    Indices are 1-based and ascend; the indices in ``skip`` (ascending) are
    left out. These are all the points _circles could draw of the indices
    1..N, since a later point of a column with an earlier one's probability
    falls on its pixel. A column is walked by its indices' profiles; profiles
    that share a probability yield it once, at the first of their indices.
    """
    values, profile_ids = dist.values, dist.lexicon.profile_ids
    for first, end in _columns(frame, 1, dist.lexicon.size + 1):
        column = profile_ids[first - 1:end - 1].tolist()
        for i in skip[bisect_left(skip, first):bisect_left(skip, end)]:
            column[i - first] = None
        seen = set()
        at = 0
        for profile in dict.fromkeys(column):
            if profile is not None and (value := values[profile]) not in seen:
                seen.add(value)
                at = column.index(profile, at)
                yield first + at, value


def emit_density_plot(dist: IndexDistribution, first_indices: Sequence[int], summary: MomentSummary) -> str:
    """Scatter of (index, probability) with the candidates' first indices and E, E+-sigma marked.

    Candidate points are drawn on top in a second color; dashed reference
    lines sit at E - sigma, E and E + sigma (clamped into the index range).
    The word points are walked per pixel column and distinct probability,
    not per index; the candidates one by one.
    """
    values, lexicon = dist.values, dist.lexicon
    frame = _frame(lexicon.size, max(p for p, indices in zip(values, lexicon.members) if indices))
    mean, sigma = summary.expectation, summary.std_dev
    return _scatter(
        "probability of unique words by first-appearance index", "first-appearance index", frame,
        _first_of_each_value(frame, dist, sorted(first_indices)),
        ((i, values[lexicon.profile_ids[i - 1]]) for i in first_indices), 3,
        (("ref", mean - sigma, "E-σ"), ("ref", mean, "E"), ("ref", mean + sigma, "E+σ")),
    )


def emit_sorted_plot(dist: IndexDistribution, k: int) -> str:
    """Probabilities in descending order with the selection cutoff marked.

    The cutoff line sits after rank N - k, separating the kept words from
    the k candidates at the low end of the curve. The curve is drawn from
    the count profiles: each profile's indices hold a run of ranks at one
    probability, and each run is drawn at its first rank in each pixel column.
    """
    runs = sorted(
        ((value, len(indices)) for value, indices in zip(dist.values, dist.lexicon.members) if indices),
        reverse=True,
    )
    values, counts = zip(*runs) if runs else ((), ())
    starts = list(accumulate(counts, initial=1))  # each run's first rank
    n = dist.lexicon.size
    frame = _frame(n, max(dist.values, default=0.0))

    def ranked(lo: int, hi: int) -> Iterator[tuple[int, float]]:
        """(rank, probability) at the first rank of each run in each pixel column of ranks lo..hi-1."""
        for first, end in _columns(frame, lo, hi):
            r = bisect_right(starts, first) - 1  # the run holding rank first
            after = bisect_left(starts, end, r + 1)
            yield first, values[r]
            yield from zip(starts[r + 1:after], values[r + 1:after])

    cut = max(n - k, 0) + 1  # ranks below the cut are kept words, the rest candidates
    return _scatter(
        "unique words sorted by probability", "rank (descending probability)", frame,
        ranked(1, cut), ranked(cut, n + 1), 2,
        (("cutoff", n - k + 0.5, f"cutoff (rank {n - k})"),),
    )
